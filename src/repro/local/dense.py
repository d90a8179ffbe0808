"""Vectorized dense round kernels: whole LOCAL rounds as numpy array ops.

:class:`~repro.local.engine.CSREngine` removed the reference simulator's
dict overhead, but its hot loop still makes O(active) Python hook calls
(``init``/``broadcast``/``send``/``receive``) per round.  For the paper's randomized
pipelines — Luby MIS, trial-and-fix sinkless orientation, 0-round uniform
splitting — the per-node logic is a few comparisons, so at n >= 10^5 the
interpreter *is* the cost.

The kernels here execute an entire round of one specific algorithm as
masked array arithmetic over the network's CSR arrays
(:class:`~repro.local.network.Network`'s ``offsets``/``dst_node``/
``dst_port``, which the engine exposes): candidate coin draws come from
:func:`~repro.utils.rng.keyed_u01`, neighborhood reductions are
``np.logical_or.reduceat`` / ``np.add.reduceat`` (or a ``bincount``) over
the CSR segments, and the per-slot owner array
``np.repeat(arange(n), degrees)`` turns "compare me against each neighbor"
into two gathers and a compare.

There is one kernel per algorithm — :func:`luby_mis_batched`,
:func:`sinkless_trial_batched`, :func:`uniform_splitting_batched` — and
each takes a *batch* of seeds with a leading trial axis; a single run is a
batch of one.

Coin contract: the ``j``-th draw of node ``i`` in round ``r`` is
``keyed_u01(mix64(seed), i + j*n, r)`` — exactly what the simulators'
:class:`~repro.utils.rng.NodeCoins` hand the algorithm as ``view.rng``.
Every value is a pure function of ``(seed, node, draw, round)`` with O(1)
setup, so each row of a batch is **bit-identical** to :class:`CSREngine`
(and hence to :func:`~repro.local.network.run_local`) for its seed, and
also to a batch of one of that seed and to a sharded run
(:mod:`repro.local.sharded`).

Each kernel documents exactly which hook-level draws it recomputes; any
change to the corresponding :class:`LocalAlgorithm` must be mirrored here
(the engine-identity tests in ``tests/local/test_dense.py`` enforce this).
"""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.local.engine import CSREngine
from repro.utils.rng import keyed_hash53, keyed_u01, mix64
from repro.utils.validation import require

__all__ = [
    "DenseResult",
    "BatchedDenseResult",
    "luby_mis_batched",
    "sinkless_trial_batched",
    "dense_orientation",
    "uniform_splitting_batched",
]


class DenseResult:
    """Outcome of one dense trial: per-node arrays instead of NodeViews."""

    __slots__ = ("rounds", "completed", "data")

    def __init__(self, rounds: int, completed: bool, **data):
        self.rounds = rounds
        self.completed = completed
        self.data = data

    def __getattr__(self, name):
        try:
            return self.data[name]
        except KeyError:
            raise AttributeError(name) from None


class BatchedDenseResult:
    """Outcome of a dense kernel call: one leading trial axis.

    ``rounds`` (int64) and ``completed`` (bool) have shape ``(k,)``, aligned
    with ``seeds``; every array in ``data`` has shape ``(k, ...)`` — e.g.
    ``in_mis`` is ``(trials, nodes)``.  Trials finish at different rounds
    (ragged termination): a finished trial's rows are frozen at their final
    state while survivors keep iterating.  :meth:`trial` slices one trial
    back out as a :class:`DenseResult`, bit-identical to a batch of one of
    the same seed.
    """

    __slots__ = ("seeds", "rounds", "completed", "data")

    def __init__(self, seeds, rounds, completed, **data):
        self.seeds = list(seeds)
        self.rounds = rounds
        self.completed = completed
        self.data = data

    def __getattr__(self, name):
        try:
            return self.data[name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return len(self.seeds)

    def trial(self, t: int) -> DenseResult:
        """The ``t``-th trial's slice as a single-trial result."""
        return DenseResult(
            int(self.rounds[t]),
            bool(self.completed[t]),
            **{key: value[t] for key, value in self.data.items()},
        )


# ---------------------------------------------------------------------------
# Segment (per-CSR-row) reductions.
# ---------------------------------------------------------------------------


def _segment_or(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment logical OR; empty segments reduce to False.

    ``reduceat`` has two sharp edges this wraps: an empty segment yields the
    element *at* its start index (garbage — masked out afterwards), and a
    *trailing* empty segment has a start index of ``len(values)`` (out of
    range — and clipping it would insert a bogus boundary that drops the
    last slot of the final non-empty segment).  Trailing empties are the
    suffix of starts equal to ``m``; we reduce only the prefix before them.
    """
    n = offsets.shape[0] - 1
    m = values.shape[0]
    out = np.zeros(n, dtype=bool)
    if m == 0:
        return out
    starts = offsets[:-1]
    k = int(np.searchsorted(starts, m))  # first trailing-empty segment
    out[:k] = np.logical_or.reduceat(values, starts[:k])
    out[starts == offsets[1:]] = False
    return out


def _segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sum; empty segments reduce to 0 (see :func:`_segment_or`)."""
    n = offsets.shape[0] - 1
    m = values.shape[0]
    out = np.zeros(n, dtype=values.dtype)
    if m == 0:
        return out
    starts = offsets[:-1]
    k = int(np.searchsorted(starts, m))
    out[:k] = np.add.reduceat(values, starts[:k])
    out[starts == offsets[1:]] = 0
    return out


def _segment_or_2d(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_segment_or` over a ``(trials, slots)`` array.

    One ``reduceat`` along axis 1 advances every trial's neighborhood OR at
    once.  Same empty/trailing segment guards as the 1D version.
    """
    k = values.shape[0]
    m = values.shape[1]
    n = offsets.shape[0] - 1
    out = np.zeros((k, n), dtype=bool)
    if m == 0:
        return out
    starts = offsets[:-1]
    j = int(np.searchsorted(starts, m))
    out[:, :j] = np.logical_or.reduceat(values, starts[:j], axis=1)
    out[:, starts == offsets[1:]] = False
    return out


def _segment_sum_2d(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_segment_sum` over a ``(trials, slots)`` array."""
    k = values.shape[0]
    m = values.shape[1]
    n = offsets.shape[0] - 1
    out = np.zeros((k, n), dtype=values.dtype)
    if m == 0:
        return out
    starts = offsets[:-1]
    j = int(np.searchsorted(starts, m))
    out[:, :j] = np.add.reduceat(values, starts[:j], axis=1)
    out[:, starts == offsets[1:]] = 0
    return out


def _slot_owner(offsets: np.ndarray) -> np.ndarray:
    """``owner[k]`` = the node whose CSR row contains slot ``k``."""
    n = offsets.shape[0] - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))


def _ragged_slots(offsets: np.ndarray, degrees: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """All CSR slots owned by the nodes in ``idx``, in node order.

    O(output) — the Luby kernel uses it to touch only the surviving
    frontier's slots instead of sweeping all ``m`` pairs per phase.
    """
    cnt = degrees[idx]
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = offsets[idx]
    base = np.repeat(starts - np.concatenate(([0], np.cumsum(cnt[:-1]))), cnt)
    return np.arange(total, dtype=np.int64) + base


def _uids(engine: CSREngine) -> np.ndarray:
    return np.asarray(engine.network.ids, dtype=np.int64)


def _port_keys(offsets: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """Per-slot coin key ``owner + port*n``: the owner's ``port``-th draw."""
    port = np.arange(owner.shape[0], dtype=np.int64) - offsets[:-1][owner]
    return owner + port * np.int64(n)


def _flip_ports(seed_hash, sinks: np.ndarray, degrees: np.ndarray, round_no: int) -> np.ndarray:
    """Each sink's ``randrange(degree)``: its first draw of the round."""
    return (keyed_u01(np, seed_hash, sinks, round_no) * degrees[sinks]).astype(np.int64)


# ---------------------------------------------------------------------------
# Luby MIS.
#
# The kernel advances k seeds of one graph at once.  Its state per group of
# still-running trials is *compressed*: a flat array of active (trial, node)
# keys ``t * n + v`` plus pair-endpoint positions into it, so every phase
# costs O(surviving frontier) instead of O(k * m).  Two execution regimes
# chosen purely for cache behaviour (semantics are identical):
#
# * a trial whose live pair count is still large is advanced on its own
#   (its arrays are cache-resident; pooling them with 63 siblings would
#   blow the working set on 1-CPU CI hardware);
# * once a trial's frontier shrinks below ``pool_pairs`` it merges into one
#   communal pool, and a single bincount pass advances every pooled trial
#   per phase — the "one pass, many seeds" payoff, since Luby's frontier
#   decays geometrically and the tail phases dominate the count.
#
# Coins are keyed (pure hash of (seed, node, round)), so every row is
# bit-identical to a batch of one of its seed and to the engine.
# ---------------------------------------------------------------------------


def _compress_state(keep, nodes, o_pos, n_pos, slots, sh):
    """Drop nodes where ``keep`` is False; remap pair positions."""
    if keep.all():
        return nodes, o_pos, n_pos, slots, sh
    remap = np.cumsum(keep) - 1
    pair_keep = keep[o_pos] & keep[n_pos]
    return (
        nodes[keep],
        remap[o_pos[pair_keep]],
        remap[n_pos[pair_keep]],
        slots[pair_keep],
        sh[keep],
    )


def _merge_states(parts):
    """Concatenate compressed states (disjoint trial sets) into one pool."""
    base = 0
    cols = ([], [], [], [], [])
    for nodes, o_pos, n_pos, slots, sh in parts:
        cols[0].append(nodes)
        cols[1].append(o_pos + base)
        cols[2].append(n_pos + base)
        cols[3].append(slots)
        cols[4].append(sh)
        base += nodes.shape[0]
    return tuple(np.concatenate(c) for c in cols)


def _trial_counts(states, n: int, k: int) -> np.ndarray:
    """Frontier size per trial, summed over compressed states."""
    counts = np.zeros(k, dtype=np.int64)
    for state in states:
        counts += np.bincount(state[0] // n, minlength=k)
    return counts


def _luby_draw(state, n, round1, crashed_flat, faults):
    """Odd (priority) round ``round1`` on one compressed state.

    Nodes crashing at ``round1`` leave before drawing; every survivor draws
    its priority, a 53-bit keyed hash (rank-isomorphic to the keyed uniform
    :class:`~repro.mis.luby.LubyMIS` compares, ties broken by uid).  Returns
    ``(state, priorities)``.
    """
    if faults is not None:
        crash = faults.crashed_at(round1)
        if crash is not None:
            hit = crash[state[0] % n]
            if hit.any():
                crashed_flat[state[0][hit]] = True
                state = _compress_state(~hit, *state)
    return state, keyed_hash53(np, state[4], state[0] % n, round1)


def _luby_resolve(state, r, n, round1, uid_gt, in_mis_flat, crashed_flat, faults):
    """Even (announcement) round ``round1 + 1``; returns the surviving state.

    A node joins when no delivered neighbor priority beats its own; nodes
    crashing at ``round1 + 1`` neither join nor announce; a delivered join
    announcement kills the receiver.  Byzantine corruption (receiving-side
    masks) turns a priority into the forged always-winning payload
    (:data:`~repro.scenarios.byzantine.FORGED_PRIORITY`) and flips an
    announcement's join/stay bit.  Fault masks are shared by every trial.
    """
    nodes, o_pos, n_pos, slots, _ = state
    N = nodes.shape[0]
    if N == 0:
        return state
    round2 = round1 + 1
    ro = r[o_pos]
    rn = r[n_pos]
    better = (rn > ro) | ((rn == ro) & uid_gt[slots])
    crash2 = heard1 = heard2 = corrupt1 = corrupt2 = None
    if faults is not None:
        heard1 = faults.delivered_in(round1)
        heard2 = faults.delivered_in(round2)
        cmask = faults.crashed_at(round2)
        if cmask is not None:
            crash2 = cmask[nodes % n]
        corrupted_in = getattr(faults, "corrupted_in", None)
        if corrupted_in is not None:
            corrupt1 = corrupted_in(round1)
            corrupt2 = corrupted_in(round2)
    if corrupt1 is not None:
        better |= corrupt1[slots]  # forged winner: beats any genuine priority
    if heard1 is not None:
        better &= heard1[slots]
    joining = np.bincount(o_pos[better], minlength=N) == 0
    if crash2 is not None:
        crashed_flat[nodes[crash2]] = True
        joining &= ~crash2
    announced = joining[n_pos]
    if corrupt2 is not None:
        # Flipped join/stay bit; any *sending* (uncrashed) neighbor counts.
        announced ^= corrupt2[slots]
        if crash2 is not None:
            announced &= ~crash2[n_pos]
    if heard2 is not None:
        announced &= heard2[slots]
    killed = ~joining & (np.bincount(o_pos[announced], minlength=N) > 0)
    in_mis_flat[nodes[joining]] = True
    keep = ~joining & ~killed
    if crash2 is not None:
        keep &= ~crash2
    return _compress_state(keep, *state)


def _luby_phase1_fast(t, s_hash, rt, n, act0, uid_gt, offsets, dst_node, owner,
                      degrees, in_mis_row, pos_map):
    """Fault-free round 2 for one trial over full-graph (cache-hot) arrays.

    ``rt`` holds every node's round-1 priority.  Joins come from one
    segment reduction over all ``m`` pairs; the kill set is scattered from
    the joining nodes' own slots and the surviving frontier's pairs are
    extracted from the survivors' CSR rows only — both O(joining/surviving
    slots), not O(m).  Returns the compressed state of the survivors.
    """
    ro = rt[owner]
    rn = rt[dst_node]
    better = (rn > ro) | ((rn == ro) & uid_gt)
    join = act0 & ~_segment_or(better, offsets)
    jslots = _ragged_slots(offsets, degrees, np.flatnonzero(join))
    killed = np.zeros(n, dtype=bool)
    killed[dst_node[jslots]] = True
    in_mis_row[:] = ~act0 | join
    at = act0 & ~join & ~killed
    act_idx = np.flatnonzero(at)
    sslots = _ragged_slots(offsets, degrees, act_idx)
    live = sslots[at[dst_node[sslots]]]
    pos_map[act_idx] = np.arange(act_idx.shape[0])
    sh = np.full(act_idx.shape[0], s_hash, dtype=np.uint64)
    return (t * n + act_idx, pos_map[owner[live]], pos_map[dst_node[live]], live, sh)


def luby_mis_batched(
    engine: CSREngine,
    seeds: Sequence[int],
    max_rounds: int = 10_000,
    faults=None,
    pool_pairs: int = 4096,
    tracer=None,
) -> BatchedDenseResult:
    """Luby's MIS for a batch of seeds on one graph, in one kernel call.

    Each row has the semantics of running :class:`~repro.mis.luby.LubyMIS`
    on the engine with that seed: one ``random()`` per *active* node per
    odd (priority) round, nothing on even rounds; degree-0 nodes join the
    MIS in ``init`` and never draw.  MIS membership, crash records, round
    counts and completion flags are bit-identical to the engine's.  The
    trials advance together: a fault-free first phase runs per trial over
    cache-hot full arrays, and once a trial's frontier is small (``pool_pairs`` live pairs
    or fewer) it merges into a communal compressed pool where one bincount
    pass per phase advances every surviving trial at once.  Trials finish
    raggedly; finished trials freeze, survivors iterate.

    ``faults`` (a :class:`~repro.scenarios.masks.DenseFaults`, or any object
    with ``crashed_at``/``delivered_in`` and optionally ``corrupted_in``)
    is the masked-array equivalent of running the engine with scenario
    hooks; one schedule is shared by every trial.  Crashed nodes leave the
    frontier before drawing (and never join), dropped priority and
    announcement messages are excluded from the neighborhood reductions,
    and corrupted ones carry the Byzantine payloads (see
    :func:`_luby_resolve`).

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`; None or a NullTracer by
    default) records one round record per executed round whose ``active``
    is the frontier summed over the trials that ran the round — for a batch
    of one, the same round numbers and active-set sizes as a hook-traced
    engine run of the seed (mask-based delivery accounting means the dense
    records omit the per-round delivered/dropped message counts).

    Returns a :class:`BatchedDenseResult` with ``in_mis`` and ``crashed``
    of shape ``(trials, n)``.
    """
    require(max_rounds >= 0, f"max_rounds must be >= 0, got {max_rounds}")
    trace = tracer is not None and tracer.enabled
    offsets, dst_node = engine.offsets, engine.dst_node
    n = engine.n
    uid = _uids(engine)
    owner = _slot_owner(offsets)
    degrees = np.diff(offsets)
    m = dst_node.shape[0]
    k = len(seeds)

    in_mis = np.zeros((k, n), dtype=bool)
    in_mis[:, degrees == 0] = True  # isolated nodes join immediately (init)
    crashed = np.zeros((k, n), dtype=bool)
    rounds = np.zeros(k, dtype=np.int64)
    completed = np.ones(k, dtype=bool)
    result = BatchedDenseResult(seeds, rounds, completed, in_mis=in_mis, crashed=crashed)
    act0 = degrees > 0
    if k == 0 or not act0.any():
        return result

    imf = in_mis.ravel()
    crf = crashed.ravel()
    seed_hashes = [mix64(int(s)) for s in seeds]
    uid_gt = uid[dst_node] > uid[owner]
    pos_map = np.empty(n, dtype=np.int64)
    # Past the stack's quiet horizon no fault can occur, so the loop drops
    # the faults object and the recovery tail runs at fault-free cost
    # (DenseFaults.expired; other mask providers may omit it).
    faults_expired = getattr(faults, "expired", None)
    if faults is not None and faults_expired is not None and faults_expired(1):
        faults = None

    act_idx0 = np.flatnonzero(act0)
    singles = []
    round_no = 0
    if faults is None and max_rounds >= 2:
        # Fault-free phase 1, per trial, over the full cache-hot arrays.
        node_idx = np.arange(n, dtype=np.int64)
        draw_s = resolve_s = 0.0
        for t, s_hash in enumerate(seed_hashes):
            t0 = time.perf_counter()
            rt = keyed_hash53(np, s_hash, node_idx, 1)
            t1 = time.perf_counter()
            st = _luby_phase1_fast(
                t, s_hash, rt, n, act0, uid_gt, offsets, dst_node, owner, degrees,
                in_mis[t], pos_map,
            )
            draw_s += t1 - t0
            resolve_s += time.perf_counter() - t1
            if st[0].shape[0]:
                singles.append(st)
            else:
                rounds[t] = 2
        round_no = 2
        if trace:
            tracer.round(1, active=k * act_idx0.shape[0], seconds=draw_s)
            tracer.round(2, active=sum(st[0].shape[0] for st in singles), seconds=resolve_s)
    else:
        # The generic compressed phase, seeded with the full graph.
        pos_map[act_idx0] = np.arange(act_idx0.shape[0])
        o_pos0 = pos_map[owner]
        n_pos0 = pos_map[dst_node]
        slots0 = np.arange(m, dtype=np.int64)
        for t, s_hash in enumerate(seed_hashes):
            singles.append((
                t * n + act_idx0, o_pos0, n_pos0, slots0,
                np.full(act_idx0.shape[0], s_hash, dtype=np.uint64),
            ))

    pool = None
    while singles or pool is not None:
        groups = singles + ([pool] if pool is not None else [])
        live = _trial_counts(groups, n, k) > 0
        round1 = round_no + 1
        if round1 > max_rounds:
            # Cap reached between phases: survivors stop incomplete.
            rounds[live] = round_no
            completed[live] = False
            break
        if faults is not None and faults_expired is not None and faults_expired(round1):
            faults = None
        # Small trials merge into the communal pool (once pooled, a trial's
        # frontier only shrinks, so it never leaves).
        small = [st for st in singles if st[3].shape[0] <= pool_pairs]
        if small:
            pool = _merge_states(([pool] if pool is not None else []) + small)
            singles = [st for st in singles if st[3].shape[0] > pool_pairs]
            groups = singles + [pool]
        t0 = time.perf_counter()
        drawn = [_luby_draw(st, n, round1, crf, faults) for st in groups]
        if trace:
            tracer.round(
                round1,
                active=sum(st[0].shape[0] for st, _ in drawn),
                seconds=time.perf_counter() - t0,
            )
        if round1 + 1 > max_rounds:
            # Mid-phase cap: the engine stops after the odd round.
            remaining = _trial_counts([st for st, _ in drawn], n, k)
            rounds[live] = round1
            completed[live] = remaining[live] == 0
            break
        round2 = round1 + 1
        t0 = time.perf_counter()
        groups = [
            _luby_resolve(st, r, n, round1, uid_gt, imf, crf, faults) for st, r in drawn
        ]
        rounds[live & (_trial_counts(groups, n, k) == 0)] = round2
        if trace:
            tracer.round(
                round2,
                active=sum(st[0].shape[0] for st in groups),
                seconds=time.perf_counter() - t0,
            )
        if pool is not None:
            pool = groups.pop()
            if pool[0].shape[0] == 0:
                pool = None
        singles = [st for st in groups if st[0].shape[0]]
        round_no = round2
    return result


# ---------------------------------------------------------------------------
# Trial-and-fix sinkless orientation.
# ---------------------------------------------------------------------------


def sinkless_trial_batched(
    engine: CSREngine,
    seeds: Sequence[int],
    min_degree: int = 1,
    max_rounds: int = 200,
    faults=None,
    strict: bool = True,
    tracer=None,
) -> BatchedDenseResult:
    """Trial-and-fix sinkless orientation for a batch of seeds at once.

    Each row mirrors :class:`~repro.orientation.sinkless.TrialAndFixSinkless`
    driven by :func:`~repro.orientation.sinkless.run_trial_and_fix`'s
    global probe, for its seed:

    * round 1 — every node draws one coin per port (port order); for each
      edge the higher-uid endpoint's coin decides the direction;
    * rounds >= 2 — every *current sink* (own-view: degree >= ``min_degree``
      and no outward port) draws one ``randrange(degree)`` and flips that
      port outward; the neighbor marks the paired port inward.  Two sinks
      flipping the same edge in one round leave both sides inward — the
      reference's exact (quirky) semantics;
    * after each round >= 2 the harness-side probe checks the *extracted*
      orientation (lower endpoint's view wins) and stops when sink-free.

    The fix rounds run in lockstep over ``(trial, slot)`` grids: one 2D
    segment-mask pass finds every trial's sinks, one keyed-hash call draws
    every flip port, and one flat scatter applies the flips.  Trials
    finishing early freeze (their rows stop flipping and leave the probe);
    survivors iterate.

    Requires a simple graph (:attr:`Network.simple`): the probe's
    orientation dict collapses parallel edges, which has no faithful slot
    representation.  Returns a :class:`BatchedDenseResult` with ``out``
    (bool per trial and CSR slot, True = outward in the owner's own view)
    and ``crashed`` (bool per trial and node).  ``strict=True`` raises
    ``RuntimeError`` if *any* trial finds no sink-free round within
    ``max_rounds``, matching the driver; ``strict=False`` instead returns
    the incomplete rows (the scenario runner's mode — under faults,
    non-recovery is data).

    ``faults`` (a :class:`~repro.scenarios.masks.DenseFaults`, one schedule
    for every trial) mirrors the hooked engine from round 2 on: crashed
    nodes freeze their slot state (they neither flip nor process flips)
    and leave the sink probe; dropped flip announcements leave the
    receiving side outward, exactly like the reference's receive phase;
    corrupted ones flip the "flip"/"ok" bit.  Round-1 faults are not
    supported — scenario schedules for sinkless orientation leave the
    proposal round clean, and a corrupting one is refused.

    ``tracer`` records one round record per executed round; ``active`` is
    the surviving (non-crashed) node count summed over the trials that ran
    the round, matching the hook-traced engine (where sinkless nodes never
    halt on their own) for a batch of one.
    """
    require(min_degree >= 1, f"min_degree must be >= 1, got {min_degree}")
    require(
        engine.network.simple,
        "sinkless orientation requires a simple graph (no multi-edges)",
    )
    corrupted_out = getattr(faults, "corrupted_out", None)
    require(
        corrupted_out is None or corrupted_out(1) is None,
        "sinkless orientation requires a corruption-free proposal round",
    )
    trace = tracer is not None and tracer.enabled
    offsets, dst_node, dst_port = engine.offsets, engine.dst_node, engine.dst_port
    n = engine.n
    uid = _uids(engine)
    degrees = np.diff(offsets)
    owner = _slot_owner(offsets)
    m = dst_node.shape[0]
    k = len(seeds)
    # partner[s]: the CSR slot on the other endpoint of slot s's edge.
    partner = offsets[:-1][dst_node] + dst_port

    sh = np.array([mix64(int(s)) for s in seeds], dtype=np.uint64)
    rounds = np.ones(k, dtype=np.int64)
    completed = np.zeros(k, dtype=bool)
    crashed = np.zeros((k, n), dtype=bool)
    if k == 0:
        return BatchedDenseResult(
            seeds, rounds, completed, out=np.zeros((0, m), dtype=bool), crashed=crashed
        )

    # Round 1: per-port proposals, one row per trial seed; the higher-uid
    # endpoint's coin wins, and True means "winner's side points outward".
    t0 = time.perf_counter()
    coins1 = keyed_u01(np, sh[:, None], _port_keys(offsets, owner, n), 1) < 0.5
    higher = uid[owner] > uid[dst_node]
    out = np.where(higher[None, :], coins1, ~coins1.take(partner, axis=1))
    if trace:
        tracer.round(1, active=k * n, seconds=time.perf_counter() - t0)

    constrained = degrees >= min_degree
    low_view = owner < dst_node  # extraction rule: lower *index* endpoint's view
    running = np.ones(k, dtype=bool)
    faults_expired = getattr(faults, "expired", None)
    outf = out.ravel()

    for round_no in range(2, max_rounds + 1):
        t0 = time.perf_counter()
        if faults is not None and faults_expired is not None and faults_expired(round_no):
            faults = None  # quiet horizon passed: fix rounds run fault-free
        corrupt = None
        if faults is not None:
            crash = faults.crashed_at(round_no)
            if crash is not None:
                crashed[running] |= crash
            if corrupted_out is not None:
                corrupt = corrupted_out(round_no)
        # Send phase: sinks by their own view flip one uniformly random port
        # (crashed nodes are frozen: no draws, no flips).
        sinks_own = (
            running[:, None] & constrained[None, :] & ~crashed
            & ~_segment_or_2d(out, offsets)
        )
        t_idx, v_idx = np.nonzero(sinks_own)
        flips = t_idx * m + offsets[:-1][v_idx]
        if flips.shape[0]:
            flips += _flip_ports(sh[t_idx], v_idx, degrees, round_no)
            outf[flips] = True
        if corrupt is not None:
            # Byzantine fix round: every live node sends on every port
            # ("flip" on a sink's chosen slot, "ok" elsewhere) and the
            # corruption flips that bit per slot, so the perceived flips
            # are (chosen XOR corrupt) over the running trials.
            is_flip = np.zeros((k, m), dtype=bool)
            is_flip.ravel()[flips] = True
            is_flip[running] ^= corrupt
            flips = np.flatnonzero(is_flip)
        if flips.shape[0]:
            # Receive phase: the paired port is marked inward.  A doubly
            # flipped edge has each chosen slot as the other's partner, so
            # both end False — exactly the reference outcome.  A flip counts
            # only between live endpoints (crashed nodes stay frozen even
            # after the schedule expires) and when the message is delivered.
            f_t, f_slot = np.divmod(flips, m)
            keep = ~crashed[f_t, owner[f_slot]] & ~crashed[f_t, dst_node[f_slot]]
            if faults is not None:
                delivered = faults.delivered_out(round_no)
                if delivered is not None:
                    keep &= delivered[f_slot]
            outf[(f_t * m + partner[f_slot])[keep]] = False
        rounds[running] = round_no
        if trace:
            tracer.round(
                round_no,
                active=int(n * running.sum() - crashed[running].sum()),
                seconds=time.perf_counter() - t0,
            )
        # Probe: extract the orientation (lower-index endpoint's slot is
        # authoritative) and stop each trial at its first round with no
        # live sink.
        effective_out = np.where(low_view[None, :], out, ~out.take(partner, axis=1))
        sinks_left = (
            constrained[None, :] & ~crashed & ~_segment_or_2d(effective_out, offsets)
        ).any(axis=1)
        completed[running & ~sinks_left] = True
        running &= sinks_left
        if not running.any():
            return BatchedDenseResult(seeds, rounds, completed, out=out, crashed=crashed)
    if strict:
        raise RuntimeError(f"no sinkless orientation after {max_rounds} rounds")
    return BatchedDenseResult(seeds, rounds, completed, out=out, crashed=crashed)


def dense_orientation(
    engine: CSREngine, out: np.ndarray
) -> Dict[Tuple[int, int], bool]:
    """Extract the ``{(u, v): True}`` orientation dict from slot states.

    Same rule as the simulator driver: for each edge the lower-index
    endpoint's slot decides the direction.
    """
    offsets, dst_node = engine.offsets, engine.dst_node
    owner = _slot_owner(offsets)
    low = np.flatnonzero(owner < dst_node)
    srcs = np.where(out[low], owner[low], dst_node[low])
    dsts = np.where(out[low], dst_node[low], owner[low])
    return dict.fromkeys(zip(srcs.tolist(), dsts.tolist()), True)


# ---------------------------------------------------------------------------
# Uniform (Section 4.1) 0-round splitting.
# ---------------------------------------------------------------------------


def uniform_splitting_batched(
    engine: CSREngine,
    spec,
    run_seeds: Sequence[int],
    red: int = 0,
    blue: int = 1,
    faults=None,
    tracer=None,
) -> BatchedDenseResult:
    """One attempt of the 0-round splitting + 1-round verification per run seed.

    Each row mirrors :class:`~repro.apps.splitting.ZeroRoundSplitting` for
    its run seed: every node draws one coin in ``init`` (keyed as round 1)
    and colors itself red iff the coin is < 1/2; the verification round
    counts each node's red neighbors over its CSR segment and checks the
    spec bounds for constrained degrees.  All rows color and verify
    together on one ``(trial, node)`` coin grid and one 2D segment sum.
    The Las-Vegas retry loop lives in
    :func:`repro.apps.splitting.uniform_splitting` (``method="dense"``).

    ``faults`` (a :class:`~repro.scenarios.masks.DenseFaults`, one schedule
    for every row) mirrors the hooked engine on the single round: every
    node still draws its color in ``init`` (crashes land *after* init), but
    crashed nodes neither broadcast nor verify, dropped color messages are
    excluded from the red-neighbor counts, and a corrupted one carries the
    opposite color — ``ok`` is then the surviving nodes' own (possibly
    fault-blinded) verdict, exactly what the distributed Las-Vegas loop
    would act on.

    ``tracer`` records the single round: ``active`` 0 (every node decides
    and halts, crashed ones included, like the hook-traced executors),
    ``survivors`` summed over the rows and ``ok`` for the whole batch.

    Returns a :class:`BatchedDenseResult` with ``colors`` (int per row and
    node), ``ok`` (bool per row: every live constrained node inside
    ``[lo, hi]``) and ``crashed``; ``rounds`` is 1, the verification round,
    matching the engine's charge.
    """
    trace = tracer is not None and tracer.enabled
    offsets, dst_node = engine.offsets, engine.dst_node
    n = engine.n
    degrees = np.diff(offsets)
    k = len(run_seeds)

    t0 = time.perf_counter()
    hashes = np.array([mix64(int(s)) for s in run_seeds], dtype=np.uint64)
    u = keyed_u01(np, hashes[:, None], np.arange(n, dtype=np.int64), 1)
    colors = np.where(u < 0.5, red, blue).astype(np.int64, copy=False)
    is_red = colors[:, dst_node] == red
    crashed = np.zeros(n, dtype=bool)
    if faults is not None:
        corrupted_in = getattr(faults, "corrupted_in", None)
        flip = corrupted_in(1) if corrupted_in is not None else None
        if flip is not None:
            # Byzantine color broadcast: a corrupted slot carries the
            # opposite color (RED <-> BLUE is the whole vocabulary).
            is_red ^= flip
        crash = faults.crashed_at(1)
        if crash is not None:
            crashed = crash
            is_red &= ~crashed[dst_node]
        heard = faults.delivered_in(1)
        if heard is not None:
            is_red &= heard
    red_nbrs = _segment_sum_2d(is_red.astype(np.int64), offsets)
    # spec.lo / spec.hi / spec.constrains are affine in the degree, so they
    # vectorize directly over the degree array.
    constrained = spec.constrains(degrees) & ~crashed
    ok = (
        ~constrained | ((red_nbrs >= spec.lo(degrees)) & (red_nbrs <= spec.hi(degrees)))
    ).all(axis=1)
    crashed = np.broadcast_to(crashed, (k, n)).copy()
    if trace:
        tracer.round(
            1,
            active=0,
            survivors=int(k * n - crashed.sum()),
            ok=bool(ok.all()),
            seconds=time.perf_counter() - t0,
        )
    return BatchedDenseResult(
        run_seeds, np.ones(k, dtype=np.int64), np.ones(k, dtype=bool),
        colors=colors, ok=ok, crashed=crashed,
    )
