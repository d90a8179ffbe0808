"""Sinkless orientation: problem definition, verifier, and baselines.

A *sinkless orientation* of a graph orients every edge such that no node (of
degree at least the problem's minimum-degree bound) is a sink, i.e. every
such node has at least one outgoing edge.  The problem is the source of the
paper's lower bound (Section 2.5): [BFH+16] showed an Ω(log_∆ log n)
randomized lower bound, lifted to Ω(log_∆ n) deterministic by [CKP16], and
Theorem 2.10 transfers both to weak splitting via the Figure 1 reduction
(implemented in :mod:`repro.core.lower_bound`).

Besides the verifier this module ships two constructive baselines:

* :func:`greedy_sinkless_orientation` — a centralized Las-Vegas peeling
  procedure used as ground truth in tests;
* :class:`TrialAndFixSinkless` — a simple randomized LOCAL algorithm run in
  the synchronous simulator (orient uniformly at random, then sinks re-flip
  a random incident edge each round until no sinks remain).  On graphs of
  minimum degree ``d`` a node stays a sink with probability ``2^{-d}`` per
  retry, so the simulation terminates in ``O(log_{2^d} n)`` rounds w.h.p. —
  a qualitative stand-in for the [GS17] ``O(log log n)`` routine.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.local.contracts import csr_arrays, edge_arrays, sink_mask
from repro.local.dense import _slot_owner
from repro.local.engine import CSREngine
from repro.local.network import NO_BROADCAST, LocalAlgorithm, Network, NodeView
from repro.utils.rng import SeedLike, ensure_rng, seed_batch
from repro.utils.validation import require

__all__ = [
    "is_sinkless",
    "sinks",
    "greedy_sinkless_orientation",
    "TrialAndFixSinkless",
    "run_trial_and_fix",
]

# An orientation of a general graph is a dict {(u, v): True} meaning u -> v,
# with exactly one of (u, v), (v, u) present per edge.
GraphOrientation = Dict[Tuple[int, int], bool]


def sinks(
    adj: Sequence[Sequence[int]], orientation: GraphOrientation, min_degree: int = 1
) -> List[int]:
    """Nodes of degree >= ``min_degree`` with no outgoing edge.

    Raises ``ValueError`` on an adjacency or orientation entry outside
    ``range(n)``.
    """
    offsets, dst_node = csr_arrays(adj)
    tails, heads = edge_arrays(orientation, len(adj))
    return np.flatnonzero(sink_mask(offsets, dst_node, tails, heads, min_degree)).tolist()


def is_sinkless(
    adj: Sequence[Sequence[int]], orientation: GraphOrientation, min_degree: int = 1
) -> bool:
    """Verify a sinkless orientation.

    Checks (a) every edge is oriented exactly once, and (b) every node of
    degree >= ``min_degree`` has an outgoing edge.  An orientation entry
    that is not an edge, or orients an edge a second time, raises
    ``ValueError`` (the first such entry in dict order); a missing edge
    makes the orientation invalid.  Raises ``ValueError`` on an adjacency
    entry outside ``range(n)``.
    """
    n = len(adj)
    offsets, dst_node = csr_arrays(adj)
    owner = _slot_owner(offsets)
    # Edge keys lo*n + hi over the lower endpoint's slots: collision-free
    # for 0 <= lo < hi < n.  Out-of-range entries are non-edges.
    lower = owner < dst_node
    edges = np.sort(owner[lower] * n + dst_node[lower])
    distinct = np.ones(len(edges), dtype=bool)  # sort + mask: ~25x np.unique here
    distinct[1:] = edges[1:] != edges[:-1]
    edges = edges[distinct]
    tails, heads = edge_arrays(orientation)
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    key = np.where((lo >= 0) & (hi < n), lo * n + hi, -1)
    pos = np.minimum(np.searchsorted(edges, key), max(len(edges) - 1, 0))
    member = edges[pos] == key if len(edges) else np.zeros(len(key), dtype=bool)
    # A repeat is an edge key already seen earlier in dict order.
    tag = np.where(member, pos, -1 - np.arange(len(key)))
    order = np.argsort(tag, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = tag[order[1:]] == tag[order[:-1]]
    bad = np.flatnonzero(~member | repeat)
    if bad.size:
        u, v = next(islice(orientation, int(bad[0]), None))
        require(bool(member[bad[0]]), f"orientation mentions non-edge {u, v}")
        raise ValueError(f"edge {(min(u, v), max(u, v))} oriented twice")
    if len(key) != len(edges):
        return False
    return not sink_mask(offsets, dst_node, tails, heads, min_degree).any()


def greedy_sinkless_orientation(
    adj: Sequence[Sequence[int]], seed: SeedLike = None
) -> GraphOrientation:
    """Centralized Las-Vegas construction (test baseline).

    Start from a uniformly random orientation, then repeatedly pick a sink
    and flip one of its incident edges outward, preferring flips whose other
    endpoint keeps an outgoing edge.  On min-degree >= 2 graphs with a cycle
    in every component this terminates; we cap iterations defensively.
    """
    rng = ensure_rng(seed)
    n = len(adj)
    orientation: GraphOrientation = {}
    out_deg = [0] * n
    for u in range(n):
        for v in adj[u]:
            if u < v:
                if rng.random() < 0.5:
                    orientation[(u, v)] = True
                    out_deg[u] += 1
                else:
                    orientation[(v, u)] = True
                    out_deg[v] += 1
    for _ in range(10 * n * n + 10):
        sink_nodes = [v for v in range(n) if adj[v] and out_deg[v] == 0]
        if not sink_nodes:
            return orientation
        s = rng.choice(sink_nodes)
        # Flip an incoming edge whose tail has out-degree >= 2 if possible.
        candidates = sorted(set(adj[s]))
        good = [w for w in candidates if out_deg[w] >= 2]
        w = rng.choice(good if good else candidates)
        del orientation[(w, s)]
        orientation[(s, w)] = True
        out_deg[w] -= 1
        out_deg[s] += 1
    raise RuntimeError("greedy sinkless orientation did not converge")


class TrialAndFixSinkless(LocalAlgorithm):
    """Randomized LOCAL algorithm: random orientation + per-round sink fixes.

    Each edge is owned by its lower-index endpoint for bookkeeping; per round
    every sink re-flips one uniformly chosen incident edge outward.  Flips
    are announced to neighbors so both endpoints agree on the direction.
    Terminates when a node and all its neighbors have been sink-free for one
    full round (checked via a final confirmation message).
    """

    def __init__(self, min_degree: int = 1):
        self.min_degree = min_degree

    def init(self, view: NodeView) -> None:
        # ``out[port]`` = True if the edge at that port is oriented outward.
        view.state["out"] = {}
        view.state["phase"] = "init"

    def _is_sink(self, view: NodeView) -> bool:
        if view.degree < self.min_degree:
            return False
        return not any(view.state["out"].values())

    def broadcast(self, view: NodeView, round_no: int) -> object:
        # Steady state: a non-sink node sends the same reassurance on every
        # port, which the batched engine delivers on its CSR fast path.
        # Round 1 (per-port proposals) and sink rounds (one port flips) fall
        # back to the general ``send``.
        if round_no == 1 or (view.degree > 0 and self._is_sink(view)):
            return NO_BROADCAST
        return ("ok", view.uid)

    def send(self, view: NodeView, round_no: int) -> Dict[int, object]:
        if round_no == 1:
            # Propose a random direction for every port; ties broken by uid.
            props = {p: view.rng.random() < 0.5 for p in range(view.degree)}
            view.state["proposal"] = props
            return {p: ("prop", props[p], view.uid) for p in range(view.degree)}
        msgs: Dict[int, object] = {}
        if self._is_sink(view) and view.degree > 0:
            p = view.rng.randrange(view.degree)
            view.state["out"][p] = True
            msgs[p] = ("flip", view.uid)
        for p in range(view.degree):
            msgs.setdefault(p, ("ok", view.uid))
        return msgs

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, object]) -> None:
        if round_no == 1:
            for p in range(view.degree):
                mine = view.state["proposal"][p]
                msg = inbox.get(p)
                if msg is None:
                    # Faulty environment (scenario hooks): the neighbor's
                    # proposal was lost or the neighbor crashed.  Fall back
                    # to our own coin for our side of the edge; a resulting
                    # disagreement is resolved at extraction time (the lower
                    # endpoint's view is authoritative).
                    view.state["out"][p] = mine
                    continue
                kind, theirs, their_uid = msg
                # Deterministic symmetric tie-break: higher uid's coin wins.
                winner = mine if view.uid > their_uid else theirs
                # The winner's coin True = "winner's side points outward".
                outward = winner if view.uid > their_uid else not winner
                view.state["out"][p] = outward
            return
        for p, msg in inbox.items():
            if isinstance(msg, tuple) and msg[0] == "flip":
                view.state["out"][p] = False  # neighbor took the edge outward
        if not self._is_sink(view):
            view.output = dict(view.state["out"])
            # Halt only after a quiet round: a neighbor's future flip could
            # only *give* us an outgoing edge... but it can also *steal* one,
            # so we keep participating until the global simulator stops us.
            view.state["phase"] = "stable"


def run_trial_and_fix(
    adj: Sequence[Sequence[int]],
    min_degree: int = 1,
    seed: int = 0,
    max_rounds: int = 200,
    method: str = "engine",
    engine=None,
    hooks=None,
    faults=None,
    shards: Optional[int] = None,
    executor=None,
    recover: bool = False,
) -> Tuple[GraphOrientation, int]:
    """Run :class:`TrialAndFixSinkless` until globally sink-free.

    ``method="engine"`` (default) uses the batched engine with a global
    stopping probe (the harness may observe the configuration; the nodes
    themselves never use global information).  The probe checks for sinks
    after each round — one O(R) pass, where the reference simulator's
    rerun-under-growing-caps emulation cost O(R²) — and fires from round 2
    onward, matching the historical "at least one proposal round plus one
    fix round" accounting.

    ``method="dense"`` runs the vectorized numpy kernel
    (:func:`repro.local.dense.sinkless_trial_batched`): bit-identical
    orientation and round count to the engine on the same keyed coins.
    Pass a prebuilt ``engine`` over the same adjacency to amortize CSR
    packing across calls.  Returns the orientation and the round count;
    with a sequence of seeds as ``seed`` the whole batch runs in one
    kernel call and a list of ``(orientation, rounds)`` pairs comes back,
    one per seed, each identical to a single-seed call.

    ``hooks`` (engine method) / ``faults`` (dense method) inject a faulty
    environment, see :mod:`repro.scenarios` — note the default probe here
    still demands a globally sink-free configuration; the scenario runner
    uses its own survivor-aware stopping rule under crash faults.
    ``recover=True`` (engine and dense methods) switches to that
    survivor-aware rule and appends the self-stabilizing detect-and-repair
    tail (:func:`~repro.scenarios.recovery.sinkless_repair`): reconcile
    disagreeing edge views, then fix sinks over *alive* ports only, under
    the same fault schedule.  The fault schedule must leave round 1 (the
    proposal exchange) clean.

    ``method="dense-sharded"`` runs the same trial across node-range CSR
    shards on a persistent process pool with one halo exchange per fix
    round (:func:`repro.local.sharded.sinkless_trial_sharded`) —
    bit-identical per trial to ``method="dense"``.  Pass
    ``executor`` (a live :class:`~repro.local.sharded.ShardedExecutor`) to
    keep shard workers hot across calls; ``shards`` sizes a throwaway one.

    Every method requires a simple graph and raises ``ValueError`` on a
    multi-edge: the orientation dict has one entry per node pair, so it
    cannot represent two parallel edges.
    """
    require(
        method in ("engine", "dense", "dense-sharded"),
        f"unknown method {method!r}",
    )
    require(
        not recover or method in ("engine", "dense"),
        "recover=True requires method 'engine' or 'dense'",
    )
    if engine is None:
        engine = CSREngine(Network(adj))
    require(
        engine.network.simple,
        "sinkless orientation requires a simple graph (no multi-edges)",
    )
    if method == "dense-sharded":
        from repro.local.dense import dense_orientation
        from repro.local.sharded import sinkless_trial_sharded

        sharded = sinkless_trial_sharded(
            engine, min_degree=min_degree, seed=seed, shards=shards,
            max_rounds=max_rounds, faults=faults, executor=executor,
        )
        return dense_orientation(engine, sharded.out), sharded.rounds
    if method == "dense":
        from repro.local.dense import dense_orientation, sinkless_trial_batched

        seeds, batched = seed_batch(seed)
        batch = sinkless_trial_batched(
            engine, seeds, min_degree=min_degree, max_rounds=max_rounds,
            faults=faults, strict=not recover,
        )
        out = []
        for t, s in enumerate(seeds):
            rounds = int(batch.rounds[t])
            if recover:
                out.append(_repair_orientation(
                    engine, faults, s, batch.out[t], batch.crashed[t],
                    min_degree, rounds, max_rounds,
                ))
            else:
                out.append((dense_orientation(engine, batch.out[t]), rounds))
        return out if batched else out[0]

    net = engine.network
    if net.n == 0 and max_rounds >= 2:
        # Nothing runs on an empty network, yet it is trivially sink-free:
        # charge the proposal and first fix round, like the dense kernels.
        return {}, 2
    algo = TrialAndFixSinkless(min_degree=min_degree)

    def probe(round_no: int, views) -> bool:
        if round_no < 2:
            return False
        remaining = _engine_sinks(engine, orientation_from_views(adj, views), min_degree)
        if not recover:
            return not remaining.any()
        # Survivor-aware stopping (the scenario runner's rule): crashes
        # are silent, so the algorithm can do no better than this; the
        # repair tail owns whatever defects remain.
        return not any(not views[v].state.get("crashed") for v in np.flatnonzero(remaining))

    result = engine.run(algo, max_rounds=max_rounds, seed=seed, probe=probe, hooks=hooks)
    if recover:
        from repro.scenarios.masks import DenseFaults
        from repro.scenarios.recovery import bound_stack

        out, crashed = slot_states(engine, result.views)
        bound = bound_stack(hooks=hooks)
        repair_faults = DenseFaults(engine, bound) if bound else None
        return _repair_orientation(
            engine, repair_faults, seed, out, crashed, min_degree,
            result.rounds, max_rounds,
        )
    orientation = orientation_from_views(adj, result.views)
    if result.rounds >= 2 and not _engine_sinks(engine, orientation, min_degree).any():
        return orientation, result.rounds
    raise RuntimeError(f"no sinkless orientation after {max_rounds} rounds")


def _repair_orientation(engine, faults, seed, out, crashed, min_degree, rounds,
                        max_rounds):
    """Shared ``recover=True`` tail: repair in place, extract orientation."""
    from repro.local.dense import dense_orientation
    from repro.scenarios.recovery import sinkless_repair

    rep = sinkless_repair(
        engine, faults, seed, out, crashed, min_degree,
        start_round=rounds + 1, max_rounds=max_rounds,
    )
    return dense_orientation(engine, out), rep.last_round


def _engine_sinks(engine, orientation: GraphOrientation, min_degree: int) -> np.ndarray:
    """:func:`sinks` as a node mask, on the engine's CSR arrays."""
    tails, heads = edge_arrays(orientation)
    return sink_mask(engine.offsets, engine.dst_node, tails, heads, min_degree)


def orientation_from_views(adjacency, views) -> GraphOrientation:
    """Extract ``{(u, v): True}`` from :class:`TrialAndFixSinkless` node states.

    For each edge the lower-index endpoint's ``state["out"]`` is
    authoritative — including the frozen state of a crashed node, which is
    exactly what the rest of the network observes.
    """
    orientation: GraphOrientation = {}
    for i, view in enumerate(views):
        for p, is_out in view.state.get("out", {}).items():
            j = adjacency[i][p]
            if i < j:
                orientation[(i, j) if is_out else (j, i)] = True
    return orientation


def slot_states(engine, views):
    """``(out, crashed)`` arrays from node states: per-slot direction bits
    (the dense kernels' layout) and per-node crash flags."""
    offsets = engine.offsets
    out = np.zeros(int(offsets[-1]), dtype=bool)
    for i, view in enumerate(views):
        for p, is_out in view.state.get("out", {}).items():
            out[int(offsets[i]) + p] = bool(is_out)
    crashed = np.fromiter(
        (bool(v.state.get("crashed")) for v in views), dtype=bool, count=len(views)
    )
    return out, crashed
