"""Array contracts: one verifier per locally checkable problem, on CSR arrays.

MIS, sinkless orientation and uniform splitting are locally checkable
([GKM17]), so checking a solution is a segment reduction over the CSR
slots ``(offsets, dst_node)`` of :class:`~repro.local.network.Network`.
Each contract judges the *surviving graph*: optional ``alive`` (bool per
node) drops crashed nodes, and slot ``k`` of an alive node survives iff
``alive[dst_node[k]]`` and the optional per-slot ``edge_ok[k]`` (which may
be asymmetric) hold.  With both omitted a contract is the clean verifier.

These are the one implementation behind ``is_mis``, ``is_sinkless``,
``sinks``, ``uniform_splitting_violations``, the scenario contracts, the
scenario runner and the repair tails.  :mod:`repro.verify.certify` stays
separate on purpose: it is the independent oracle.  The helpers
:func:`csr_arrays`, :func:`mis_mask` and :func:`edge_arrays` convert the
public verifiers' Python inputs and reject entries outside ``range(n)``
with ``ValueError``.
"""

from __future__ import annotations

import operator
import struct
from itertools import chain, islice

import numpy as np

from repro.local.dense import _segment_or, _segment_sum, _slot_owner

__all__ = [
    "csr_arrays",
    "mis_mask",
    "edge_arrays",
    "mis_defects",
    "mis_counts",
    "sink_mask",
    "splitting_defects",
]


def _int64(rows, count: int) -> np.ndarray:
    """The ``count`` integers of ``rows`` (chained) as int64; one beyond
    int64 becomes -1, which every check here reads as out of range."""
    try:
        return np.frombuffer(struct.pack(f"{count}q", *chain.from_iterable(rows)), np.int64)
    except struct.error:
        flat = map(operator.index, chain.from_iterable(rows))
        return np.array([x if -(2**63) <= x < 2**63 else -1 for x in flat], np.int64)


def csr_arrays(adjacency):
    """``(offsets, dst_node)`` of an adjacency list, every entry in ``range(n)``."""
    n = len(adjacency)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adjacency), dtype=np.int64, count=n), out=offsets[1:])
    dst_node = _int64(adjacency, int(offsets[-1]))
    bad = np.flatnonzero((dst_node < 0) | (dst_node >= n))
    if bad.size:
        t = int(bad[0])
        i = int(np.searchsorted(offsets, t, side="right")) - 1
        j = adjacency[i][t - int(offsets[i])]
        raise ValueError(f"node {i} lists out-of-range neighbor {j}")
    return offsets, dst_node


def mis_mask(n: int, nodes) -> np.ndarray:
    """Bool mask of an MIS given as a node set; every id must lie in ``range(n)``."""
    nodes = list(nodes)
    ids = _int64([nodes], len(nodes))
    bad = np.flatnonzero((ids < 0) | (ids >= n))
    if bad.size:
        raise ValueError(f"MIS lists out-of-range node {nodes[int(bad[0])]}")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def edge_arrays(orientation, n=None):
    """``(tails, heads)`` of an orientation ``{(u, v): True}`` in dict order;
    with ``n`` given, an entry outside ``range(n)`` raises ``ValueError``."""
    flat = _int64(orientation, 2 * len(orientation))
    tails, heads = flat[0::2], flat[1::2]
    if n is not None:
        bad = np.flatnonzero((np.minimum(tails, heads) < 0) | (np.maximum(tails, heads) >= n))
        if bad.size:
            u, v = next(islice(orientation, int(bad[0]), None))
            raise ValueError(f"orientation mentions non-edge {u, v}")
    return tails, heads


def _live(dst_node, alive, edge_ok):
    """Surviving-slot mask, or ``None`` when every slot survives."""
    live = None if alive is None else alive[dst_node]
    if edge_ok is not None:
        live = edge_ok if live is None else live & edge_ok
    return live


def _count(values, offsets):
    return _segment_sum(values.astype(np.int64), offsets)


def mis_defects(offsets, dst_node, in_mis, alive=None, edge_ok=None):
    """``(conflict, undominated)``: surviving slots joining two MIS nodes
    (self-loops included), and alive non-MIS nodes with no MIS neighbor
    over a surviving slot (isolated ones included)."""
    live = _live(dst_node, alive, edge_ok)
    nbr_mis = in_mis[dst_node] if live is None else in_mis[dst_node] & live
    mine = in_mis if alive is None else in_mis & alive
    conflict = nbr_mis & np.repeat(mine, np.diff(offsets))
    undominated = ~in_mis & ~_segment_or(nbr_mis, offsets)
    if alive is not None:
        undominated &= alive
    return conflict, undominated


def mis_counts(offsets, dst_node, in_mis, alive=None, edge_ok=None):
    """``(independence, domination)``: conflicting edges counted once, from
    the lower endpoint's slot (with multiplicity), and undominated nodes."""
    conflict, undominated = mis_defects(offsets, dst_node, in_mis, alive, edge_ok)
    independence = np.count_nonzero(conflict & (_slot_owner(offsets) < dst_node))
    return int(independence), int(np.count_nonzero(undominated))


def sink_mask(offsets, dst_node, tails, heads, min_degree: int = 1, alive=None):
    """Accountable sinks of the orientation ``tails -> heads``: alive nodes
    with >= ``min_degree`` alive neighbor slots and no entry from them to
    an alive head."""
    has_out = np.zeros(offsets.shape[0] - 1, dtype=bool)
    if alive is None:
        has_out[tails] = True
        return (np.diff(offsets) >= min_degree) & ~has_out
    has_out[tails[alive[tails] & alive[heads]]] = True
    return alive & (_count(alive[dst_node], offsets) >= min_degree) & ~has_out


def splitting_defects(offsets, dst_node, is_red, spec, alive=None, edge_ok=None):
    """``(violating, constrained)`` node masks of a uniform splitting, with
    degrees, ``spec.constrains`` and ``[spec.lo(d), spec.hi(d)]`` all taken
    on the surviving graph."""
    live = _live(dst_node, alive, edge_ok)
    red = is_red[dst_node]
    if live is None:
        degree = np.diff(offsets)
    else:
        degree = _count(live, offsets)
        red &= live
    red = _count(red, offsets)
    constrained = spec.constrains(degree)
    if alive is not None:
        constrained &= alive
    inside = (red >= spec.lo(degree)) & (red <= spec.hi(degree))
    return constrained & ~inside, constrained
