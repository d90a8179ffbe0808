"""The array contracts (``repro.local.contracts``) against the Python verifiers they replaced.

The reference functions below are the per-node Python loops that
``is_mis``, ``is_sinkless``, ``sinks``, ``uniform_splitting_violations`` and
the scenario contracts ran before checking moved onto CSR arrays, copied
unchanged.  On every input inside their domain (integer entries in
``range(n)``) the array versions must return the same value, or raise the
same exception type with the same message.  Outside it, the array versions
raise ``ValueError`` where the loops wrapped a negative index or raised
``IndexError``.
"""

from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bipartite.instance import BLUE, RED
from repro.core.problems import UniformSplittingSpec
from repro.core.verifiers import uniform_splitting_violations
from repro.mis.luby import is_mis
from repro.orientation.sinkless import is_sinkless, sinks
from repro.scenarios.contracts import mis_violations, splitting_violations, surviving_sinks
from repro.utils.validation import require


# ---------------------------------------------------------------------------
# Reference verifiers (the pre-array implementations, unchanged).
# ---------------------------------------------------------------------------


def ref_is_mis(adjacency, mis: Set[int]) -> bool:
    """Verify independence and maximality (domination)."""
    n = len(adjacency)
    for v in mis:
        if any(w in mis for w in adjacency[v]):
            return False  # not independent
    for v in range(n):
        if v not in mis and not any(w in mis for w in adjacency[v]):
            return False  # not maximal
    return True


def _edge_set(adj):
    return {(u, v) for u in range(len(adj)) for v in adj[u] if u < v}


def ref_sinks(adj, orientation, min_degree: int = 1) -> List[int]:
    """Nodes of degree >= ``min_degree`` with no outgoing edge."""
    n = len(adj)
    out_deg = [0] * n
    for (u, v) in orientation:
        out_deg[u] += 1
    return [v for v in range(n) if len(adj[v]) >= min_degree and out_deg[v] == 0]


def ref_is_sinkless(adj, orientation, min_degree: int = 1) -> bool:
    """Verify a sinkless orientation.

    Checks (a) every edge is oriented exactly once, and (b) every node of
    degree >= ``min_degree`` has an outgoing edge.
    """
    edges = _edge_set(adj)
    covered: Set[Tuple[int, int]] = set()
    for (u, v) in orientation:
        key = (min(u, v), max(u, v))
        require(key in edges, f"orientation mentions non-edge {u, v}")
        require(key not in covered, f"edge {key} oriented twice")
        covered.add(key)
    if covered != edges:
        return False
    return not ref_sinks(adj, orientation, min_degree)


def ref_uniform_splitting_violations(adjacency, partition, spec) -> List[int]:
    n = len(adjacency)
    require(len(partition) == n, "partition must cover all nodes")
    bad: List[int] = []
    for v in range(n):
        d = len(adjacency[v])
        if not spec.constrains(d):
            continue
        red = sum(1 for w in adjacency[v] if partition[w] == RED)
        if not (spec.lo(d) <= red <= spec.hi(d)):
            bad.append(v)
    return bad


def ref_mis_violations(adjacency, mis, alive=None, edge_ok=None) -> Tuple[int, int]:
    n = len(adjacency)
    if alive is None:
        alive = [True] * n
    independence = 0
    domination = 0
    for i in range(n):
        if not alive[i]:
            continue
        dominated = i in mis
        for p, j in enumerate(adjacency[i]):
            if not alive[j]:
                continue
            if edge_ok is not None and not edge_ok(i, p):
                continue
            if j in mis:
                if i in mis and i < j:
                    independence += 1
                dominated = True
        if not dominated:
            domination += 1
    return independence, domination


def ref_surviving_sinks(adjacency, orientation: Dict[Tuple[int, int], bool], alive,
                        min_degree: int = 1) -> List[int]:
    n = len(adjacency)
    out_alive = [0] * n
    for (u, v) in orientation:
        if alive[u] and alive[v]:
            out_alive[u] += 1
    bad: List[int] = []
    for i in range(n):
        if not alive[i]:
            continue
        alive_degree = sum(1 for j in adjacency[i] if alive[j])
        if alive_degree >= min_degree and out_alive[i] == 0:
            bad.append(i)
    return bad


def ref_splitting_violations(adjacency, partition, spec, alive=None,
                             edge_ok=None) -> List[int]:
    n = len(adjacency)
    if alive is None:
        alive = [True] * n
    bad: List[int] = []
    for i in range(n):
        if not alive[i]:
            continue
        degree = 0
        red = 0
        for p, j in enumerate(adjacency[i]):
            if not alive[j]:
                continue
            if edge_ok is not None and not edge_ok(i, p):
                continue
            degree += 1
            if partition[j] == RED:
                red += 1
        if spec.constrains(degree) and not (spec.lo(degree) <= red <= spec.hi(degree)):
            bad.append(i)
    return bad


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """The return value, or the exception's type and message."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # noqa: BLE001 — the type is part of the outcome
        return type(e).__name__, str(e)


@st.composite
def graphs(draw, max_n=9):
    """Symmetric adjacency lists: empty, n=1, isolated nodes, self-loops, parallel edges."""
    n = draw(st.integers(0, max_n))
    adj: List[List[int]] = [[] for _ in range(n)]
    if n:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        for u, v in pairs:
            adj[u].append(v)
            if u != v:
                adj[v].append(u)
        for a in adj:
            draw(st.randoms(use_true_random=False)).shuffle(a)
    return adj


def node_flags(draw, n):
    return draw(st.lists(st.booleans(), min_size=n, max_size=n))


def slot_predicate(draw, adj):
    """A random asymmetric per-slot edge_ok predicate, or None."""
    if not draw(st.booleans()):
        return None
    ok = {(i, p): draw(st.booleans()) for i, a in enumerate(adj) for p in range(len(a))}
    return lambda i, p: ok[(i, p)]


@st.composite
def orientations(draw, adj, out_of_range=False):
    """Edge orientations with dropped, doubled, reversed and non-edge entries."""
    n = len(adj)
    entries = []
    # Half the orientations are complete and clean, so the sink check runs.
    actions = ["keep", "keep", "keep", "drop", "double"] if draw(st.booleans()) else ["keep"]
    for u, v in sorted(_edge_set(adj)):
        action = draw(st.sampled_from(actions))
        if action == "drop":
            continue
        entries.append((u, v) if draw(st.booleans()) else (v, u))
        if action == "double":
            entries.append(entries[-1][::-1])
    if n and len(actions) > 1 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            entries.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    if out_of_range and draw(st.booleans()):
        entries.append((draw(st.sampled_from([-1, n, n + 5, 2**70])), draw(st.integers(0, max(n, 1)))))
    order = draw(st.permutations(range(len(entries))))
    return dict.fromkeys((entries[i] for i in order), True)


SPECS = [UniformSplittingSpec(eps=e, min_constrained_degree=d)
         for e in (0.1, 0.25, 0.45) for d in (1, 2, 3)]


# ---------------------------------------------------------------------------
# Differential properties.
# ---------------------------------------------------------------------------


class TestAgreesWithReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mis(self, data):
        adj = data.draw(graphs())
        n = len(adj)
        mis = {i for i in range(n) if data.draw(st.booleans())}
        alive = node_flags(data.draw, n) if data.draw(st.booleans()) else None
        edge_ok = slot_predicate(data.draw, adj)
        assert outcome(is_mis, adj, mis) == outcome(ref_is_mis, adj, mis)
        assert outcome(mis_violations, adj, mis, alive, edge_ok) == \
            outcome(ref_mis_violations, adj, mis, alive, edge_ok)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sinkless(self, data):
        adj = data.draw(graphs())
        n = len(adj)
        min_degree = data.draw(st.integers(0, 3))
        orientation = data.draw(orientations(adj, out_of_range=True))
        assert outcome(is_sinkless, adj, orientation, min_degree) == \
            outcome(ref_is_sinkless, adj, orientation, min_degree)
        in_range = data.draw(orientations(adj))
        alive = node_flags(data.draw, n)
        assert outcome(sinks, adj, in_range, min_degree) == \
            outcome(ref_sinks, adj, in_range, min_degree)
        assert outcome(surviving_sinks, adj, in_range, alive, min_degree) == \
            outcome(ref_surviving_sinks, adj, in_range, alive, min_degree)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_splitting(self, data):
        adj = data.draw(graphs())
        n = len(adj)
        spec = data.draw(st.sampled_from(SPECS))
        partition = [data.draw(st.sampled_from([RED, BLUE])) for _ in range(n)]
        alive = node_flags(data.draw, n) if data.draw(st.booleans()) else None
        edge_ok = slot_predicate(data.draw, adj)
        assert outcome(uniform_splitting_violations, adj, partition, spec) == \
            outcome(ref_uniform_splitting_violations, adj, partition, spec)
        assert outcome(splitting_violations, adj, partition, spec, alive, edge_ok) == \
            outcome(ref_splitting_violations, adj, partition, spec, alive, edge_ok)

    def test_uncolored_nodes_count_as_not_red(self):
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=1)
        adj = [[1, 2], [0], [0]]
        partition: List[Optional[int]] = [RED, None, RED]
        alive = [True, False, True]
        assert splitting_violations(adj, partition, spec, alive) == \
            ref_splitting_violations(adj, partition, spec, alive) == [0, 2]


# ---------------------------------------------------------------------------
# Out-of-domain inputs: ValueError instead of a wrapped or bare IndexError.
# ---------------------------------------------------------------------------


class TestOutOfRange:
    @pytest.mark.parametrize("bad", [-1, 2, 2**70])
    def test_mis_ids(self, bad):
        with pytest.raises(ValueError, match=f"MIS lists out-of-range node {bad}"):
            is_mis([[1], [0]], {1, bad})
        with pytest.raises(ValueError, match="out-of-range node"):
            mis_violations([[1], [0]], {bad})

    def test_negative_mis_id_no_longer_wraps(self):
        assert ref_is_mis([[1], [0]], {1, -1})  # the loop read -1 as node 1
        with pytest.raises(ValueError):
            is_mis([[1], [0]], {1, -1})

    @pytest.mark.parametrize("bad", [-1, 3, 2**70])
    def test_adjacency_entries(self, bad):
        adj = [[1], [0, bad], []]
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=1)
        message = f"node 1 lists out-of-range neighbor {bad}"
        for call in (
            lambda: is_mis(adj, {0}),
            lambda: is_sinkless(adj, {(0, 1): True}),
            lambda: sinks(adj, {}),
            lambda: uniform_splitting_violations(adj, [RED] * 3, spec),
            lambda: mis_violations(adj, {0}),
            lambda: surviving_sinks(adj, {}, [True] * 3),
            lambda: splitting_violations(adj, [RED] * 3, spec),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("entry", [(0, 5), (-1, 0), (0, 2**70)])
    def test_orientation_entries(self, entry):
        adj = [[1], [0]]
        for call in (
            lambda o: is_sinkless(adj, o),
            lambda o: sinks(adj, o),
            lambda o: surviving_sinks(adj, o, [True, True]),
        ):
            with pytest.raises(ValueError, match="orientation mentions non-edge"):
                call({(0, 1): True, entry: True})

    def test_first_offending_entry_in_dict_order(self):
        adj = [[1, 2], [0], [0]]
        with pytest.raises(ValueError, match=r"edge \(0, 1\) oriented twice"):
            is_sinkless(adj, {(0, 1): True, (1, 0): True, (0, 9): True})
        with pytest.raises(ValueError, match=r"non-edge \(0, 9\)"):
            is_sinkless(adj, {(0, 1): True, (0, 9): True, (1, 0): True})

    def test_missing_edge_is_invalid_not_an_error(self):
        adj = [[1, 2], [0, 2], [0, 1]]
        assert is_sinkless(adj, {(0, 1): True, (1, 2): True}) is False


def test_large_instance_agrees():
    """One n=2000 instance through the full-size array path."""
    from repro.bipartite.generators import random_sparse_graph
    from repro.orientation.sinkless import greedy_sinkless_orientation

    adj = random_sparse_graph(2000, 6, seed=3)
    rng = np.random.default_rng(3)
    mis = set(np.flatnonzero(rng.random(2000) < 0.3).tolist())
    assert is_mis(adj, mis) == ref_is_mis(adj, mis)
    orientation = greedy_sinkless_orientation(adj, seed=1)
    for min_degree in (1, 2, 3):
        assert is_sinkless(adj, orientation, min_degree) == \
            ref_is_sinkless(adj, orientation, min_degree)
    alive = (rng.random(2000) < 0.9).tolist()
    assert surviving_sinks(adj, orientation, alive, 2) == \
        ref_surviving_sinks(adj, orientation, alive, 2)
