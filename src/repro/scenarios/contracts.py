"""Validity contracts under faults: verify what survived.

A clean-run verifier asks "is this output correct?".  Under crashes and
dynamic edges the honest question is "how correct is the output *on the
graph that remains*?" — crashed nodes are excluded, deleted edges are
excluded, and the contract returns a **violation count** instead of a
boolean, so resilience becomes a measured axis rather than a pass/fail.

Conventions shared by all contracts here:

* ``alive[i]`` — node ``i`` did not crash (a normally-terminated node is
  alive);
* the *surviving graph* has the alive nodes and the edges whose
  ``edge_ok(i, p)`` predicate holds on both endpoints' ports (the
  conjunction of the perturbation stack's
  :meth:`~repro.scenarios.base.BoundPerturbation.edge_alive_final`);
* degrees, degree thresholds and neighbor counts are all computed on the
  surviving graph.

The functions below take Python adjacency lists and convert them once;
the counting itself is the array contracts of :mod:`repro.local.contracts`,
which the scenario runner and the repair tails call directly on the
engine's CSR arrays.  An MIS id, adjacency entry or orientation entry
outside ``range(n)`` raises ``ValueError``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bipartite.instance import RED
from repro.local.contracts import (
    csr_arrays,
    edge_arrays,
    mis_counts,
    mis_mask,
    sink_mask,
    splitting_defects,
)
from repro.orientation.sinkless import orientation_from_views

__all__ = [
    "alive_mask",
    "final_edge_ok",
    "orientation_from_views",
    "mis_violations",
    "surviving_sinks",
    "splitting_violations",
]

Adjacency = Sequence[Sequence[int]]
EdgeOk = Callable[[int, int], bool]


def alive_mask(views) -> List[bool]:
    """Per-node survival flags from simulator views (crash marker unset)."""
    return [not v.state.get("crashed") for v in views]


def final_edge_ok(bound) -> EdgeOk:
    """Conjunction of the stack's final-graph edge predicates."""

    def ok(sender: int, port: int) -> bool:
        return all(b.edge_alive_final(sender, port) for b in bound)

    return ok


def _edge_ok_mask(adjacency: Adjacency, edge_ok: Optional[EdgeOk]):
    """Per-slot form of an ``edge_ok(i, p)`` predicate (``None`` stays ``None``)."""
    if edge_ok is None:
        return None
    slots = ((i, p) for i, nbrs in enumerate(adjacency) for p in range(len(nbrs)))
    return np.fromiter((edge_ok(i, p) for i, p in slots), dtype=bool)


def _alive_array(alive: Optional[Sequence[bool]]):
    return None if alive is None else np.asarray(alive, dtype=bool)


def mis_violations(
    adjacency: Adjacency,
    mis: Set[int],
    alive: Optional[Sequence[bool]] = None,
    edge_ok: Optional[EdgeOk] = None,
) -> Tuple[int, int]:
    """MIS defects on the surviving graph.

    Returns ``(independence, domination)``: the number of surviving edges
    with both endpoints in the MIS, and the number of alive non-MIS nodes
    with no alive MIS neighbor over a surviving edge (isolated alive nodes
    outside the MIS count — they are undominated).
    """
    offsets, dst_node = csr_arrays(adjacency)
    return mis_counts(
        offsets, dst_node, mis_mask(len(adjacency), mis), _alive_array(alive),
        _edge_ok_mask(adjacency, edge_ok),
    )


def surviving_sinks(
    adjacency: Adjacency,
    orientation: Dict[Tuple[int, int], bool],
    alive: Sequence[bool],
    min_degree: int = 1,
) -> List[int]:
    """Sinks among the alive nodes on the alive-induced subgraph.

    A node is accountable if its count of alive neighbors is at least
    ``min_degree``; it violates if none of its outgoing edges leads to an
    alive node.  (An outgoing edge into a crashed node no longer helps: in
    the surviving graph that edge is gone.)
    """
    offsets, dst_node = csr_arrays(adjacency)
    tails, heads = edge_arrays(orientation, len(adjacency))
    bad = sink_mask(offsets, dst_node, tails, heads, min_degree, _alive_array(alive))
    return np.flatnonzero(bad).tolist()


def splitting_violations(
    adjacency: Adjacency,
    partition: Sequence,
    spec,
    alive: Optional[Sequence[bool]] = None,
    edge_ok: Optional[EdgeOk] = None,
) -> List[int]:
    """Uniform-splitting defects on the surviving graph.

    Degrees, the ``spec.constrains`` threshold and the red-neighbor bounds
    are all evaluated on the surviving graph; crashed (uncolored) nodes are
    neither constrained nor counted.
    """
    offsets, dst_node = csr_arrays(adjacency)
    is_red = np.fromiter((c == RED for c in partition), dtype=bool, count=len(partition))
    bad, _ = splitting_defects(
        offsets, dst_node, is_red, spec, _alive_array(alive),
        _edge_ok_mask(adjacency, edge_ok),
    )
    return np.flatnonzero(bad).tolist()
