"""``Network``'s vectorised CSR build against an independent Python oracle.

The oracle below is the dict-based validation and packing the simulator
used before the graph became array-native: count every ``(i, j)`` entry,
pair multi-edge ports in order of appearance (the k-th ``j`` in
``adjacency[i]`` with the k-th ``i`` in ``adjacency[j]``) and flatten the
port tables slot by slot.  ``Network`` must produce the same
``offsets``/``dst_node``/``dst_port`` and ``simple`` on every valid input,
and the same exception type (with the same message substring) on every
invalid one.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bipartite.generators import random_sparse_graph
from repro.local import CSREngine, Network


def reference_reverse_ports(adjacency) -> List[List[int]]:
    """``reverse_port[i][p]``: the counterpart's port of node ``i``'s port ``p``."""
    n = len(adjacency)
    reverse_port = [[-1] * len(adjacency[i]) for i in range(n)]
    cursor: Dict[Tuple[int, int], List[int]] = {}
    for i in range(n):
        for p, j in enumerate(adjacency[i]):
            cursor.setdefault((j, i), []).append(p)
    taken: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        for p, j in enumerate(adjacency[i]):
            k = taken.get((i, j), 0)
            taken[(i, j)] = k + 1
            reverse_port[i][p] = cursor[(i, j)][k]
    return reverse_port


def reference_pack(adjacency, ids=None):
    """Validate and pack slot by slot: ``(offsets, dst_node, dst_port, simple)``."""
    n = len(adjacency)
    counts: Dict[Tuple[int, int], int] = {}
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:
            if not 0 <= j < n:
                raise ValueError(f"node {i} lists out-of-range neighbor {j}")
            if j == i:
                raise ValueError(f"node {i} lists itself as a neighbor (self-loop)")
            counts[(i, j)] = counts.get((i, j), 0) + 1
    for (i, j), c in counts.items():
        if counts.get((j, i), 0) != c:
            raise ValueError(f"asymmetric adjacency between nodes {i} and {j}")
    if ids is not None and len(set(ids)) != len(ids):
        raise ValueError("ids must be unique")
    reverse_port = reference_reverse_ports(adjacency)
    offsets = [0] * (n + 1)
    for i in range(n):
        offsets[i + 1] = offsets[i] + len(adjacency[i])
    dst_node = [0] * offsets[n]
    dst_port = [0] * offsets[n]
    k = 0
    for i in range(n):
        for p, j in enumerate(adjacency[i]):
            dst_node[k] = j
            dst_port[k] = reverse_port[i][p]
            k += 1
    simple = len(counts) == offsets[n]
    return offsets, dst_node, dst_port, simple


def assert_matches_oracle(adjacency, ids=None):
    offsets, dst_node, dst_port, simple = reference_pack(adjacency, ids)
    net = Network(adjacency, ids=ids)
    assert net.offsets.tolist() == offsets
    assert net.dst_node.tolist() == dst_node
    assert net.dst_port.tolist() == dst_port
    assert net.simple == simple
    assert net.offsets.dtype == net.dst_node.dtype == net.dst_port.dtype == np.int64
    assert net.adjacency == tuple(tuple(a) for a in adjacency)
    assert net.ids == tuple(range(len(adjacency)) if ids is None else ids)
    engine = CSREngine(net)
    assert engine.offsets is net.offsets and engine.dst_port is net.dst_port


@st.composite
def multigraphs(draw):
    """Random symmetric multigraphs with shuffled port order and free ids."""
    n = draw(st.integers(0, 9))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(st.lists(pairs, max_size=30)) if n >= 2 else []
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    rnd = draw(st.randoms(use_true_random=False))
    for row in adj:
        rnd.shuffle(row)
    ids = draw(st.one_of(
        st.none(),
        st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n, unique=True),
    ))
    return adj, ids


class TestPackingOracle:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_random_multigraphs_match_oracle(self, graph):
        assert_matches_oracle(*graph)

    @pytest.mark.parametrize(
        "adj",
        [
            [],
            [[]],
            [[], [], []],
            [[1, 1, 2], [0, 2, 0], [0, 1]],
            [[1, 1, 2], [0, 0, 2], [0, 1]],
            [[1], [0, 2], [1], []],
        ],
        ids=["empty", "n1", "isolated", "multigraph", "multigraph-b", "path+isolated"],
    )
    def test_degenerate_graphs_match_oracle(self, adj):
        assert_matches_oracle(adj)

    def test_sparse_graph_matches_oracle(self):
        assert_matches_oracle(random_sparse_graph(3000, 12, seed=7))


class TestErrorParity:
    """Invalid inputs raise the oracle's exception type and message."""

    @pytest.mark.parametrize(
        "adj, ids, substring",
        [
            ([[2], [0]], None, "out-of-range"),
            ([[-1], [0]], None, "out-of-range"),
            ([[0]], None, "self-loop"),
            ([[0, 1], [0]], None, "self-loop"),
            ([[1, 1], [0]], None, "asymmetric"),
            ([[1], []], None, "asymmetric"),
            ([[1], [0]], [5, 5], "unique"),
        ],
        ids=["too-large", "negative", "lone-loop", "loop-and-edge", "multiplicity",
             "one-sided", "duplicate-ids"],
    )
    def test_same_error_as_oracle(self, adj, ids, substring):
        with pytest.raises(Exception) as expected:
            reference_pack(adj, ids)
        with pytest.raises(type(expected.value), match=substring) as got:
            Network(adj, ids=ids)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "adj", [[[1.0], [0]], [[1], [0.5]], [["1"], [0]], [[None], [0]], [[(1,)], [0]]],
        ids=["float", "fraction", "str", "none", "tuple"],
    )
    def test_non_integer_entry_names_the_node(self, adj):
        node = 0 if not isinstance(adj[1][0], float) else 1
        with pytest.raises(TypeError, match=f"node {node} lists non-integer neighbor"):
            Network(adj)

    def test_numpy_integers_accepted(self):
        adj = [[np.int32(1)], [np.uint8(0)]]
        assert Network(adj).dst_node.tolist() == [1, 0]

    def test_integer_beyond_int64_is_out_of_range(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Network([[2**70], [0]])
