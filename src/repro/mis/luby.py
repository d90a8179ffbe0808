"""Luby's randomized maximal independent set, run in the LOCAL simulator.

Section 4.2's MIS pipeline needs an MIS routine for its low-degree endgame
(the paper cites the [BEK14b] ``O(∆ + log* n)`` algorithm).  We provide the
classic Luby algorithm, a genuinely distributed O(log n)-round (w.h.p.)
routine executed by the synchronous simulator, plus a sequential greedy
baseline used for verification.

Luby round structure (the "random priority" variant): every active node
draws a random priority; a node joins the MIS if its priority beats all
active neighbors'; MIS nodes and their neighbors deactivate.  Each phase
takes 2 communication rounds (exchange priorities, announce joins).

Both rounds of a phase send one message identical on all ports, so the
algorithm declares them via :meth:`LocalAlgorithm.broadcast` and the batched
engine (:func:`repro.local.engine.run_local_fast`) delivers them on its CSR
fast path.  Messages to already-decided neighbors are dropped unread (a
halted node's inbox is never consumed), which is exactly the reference
semantics; an active node hears precisely its still-active neighbors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.local.contracts import csr_arrays, mis_defects, mis_mask
from repro.local.ledger import RoundLedger
from repro.local.network import LocalAlgorithm, Network, NodeView
from repro.local.engine import CSREngine, run_local_fast
from repro.utils.rng import seed_batch
from repro.utils.validation import require

__all__ = ["LubyMIS", "luby_mis", "is_mis"]


class LubyMIS(LocalAlgorithm):
    """The per-node Luby algorithm for the synchronous simulator."""

    def init(self, view: NodeView) -> None:
        view.state["active"] = True
        view.state["in_mis"] = False
        if view.degree == 0:
            view.state["in_mis"] = True
            view.output = True
            view.halted = True

    def broadcast(self, view: NodeView, round_no: int) -> object:
        if round_no % 2 == 1:  # priority exchange
            priority = (view.rng.random(), view.uid)
            view.state["priority"] = priority
            return ("prio", priority)
        # announcement round
        return ("join",) if view.state.get("joining") else ("stay",)

    def send(self, view: NodeView, round_no: int) -> Dict[int, object]:
        # Fallback for runners that ignore the broadcast declaration.
        msg = self.broadcast(view, round_no)
        return {p: msg for p in range(view.degree)}

    def receive(self, view: NodeView, round_no: int, inbox: Dict[int, object]) -> None:
        if round_no % 2 == 1:
            priority = view.state["priority"]
            joining = True
            for m in inbox.values():
                if m[0] == "prio" and priority <= m[1]:
                    joining = False
                    break
            view.state["joining"] = joining
            return
        if view.state.get("joining"):
            view.state["active"] = False
            view.state["in_mis"] = True
            view.output = True
            view.halted = True
            return
        for m in inbox.values():
            if m[0] == "join":
                view.state["active"] = False
                view.output = False
                view.halted = True
                return


def luby_mis(
    adjacency: Sequence[Sequence[int]],
    seed: int = 0,
    ledger: Optional[RoundLedger] = None,
    max_rounds: int = 10_000,
    label: str = "luby-mis",
    method: str = "engine",
    engine=None,
    hooks=None,
    faults=None,
    shards: Optional[int] = None,
    executor=None,
    recover: bool = False,
) -> Tuple[Set[int], int]:
    """Run Luby's MIS; returns (MIS node set, simulated rounds).

    ``method="engine"`` (default) executes on the batched CSR engine, which
    is bit-identical to the reference :func:`repro.local.network.run_local`
    for a fixed seed.  ``method="dense"`` executes the vectorized numpy
    kernel (:func:`repro.local.dense.luby_mis_batched`), bit-identical to
    the engine on the same keyed coins — the mode for n >= 10^5.  Pass a
    prebuilt ``engine`` (:class:`~repro.local.engine.CSREngine` over the
    same adjacency) to amortize CSR packing across calls.

    A faulty environment (see :mod:`repro.scenarios`) plugs in through
    ``hooks`` (a :class:`~repro.local.network.RoundHooks`, engine method)
    or ``faults`` (a :class:`~repro.scenarios.masks.DenseFaults`, dense
    method); under crash faults the MIS of the survivors is returned.
    ``recover=True`` (engine and dense methods) appends the
    self-stabilizing detect-and-repair tail
    (:func:`~repro.scenarios.recovery.luby_repair`) under the same fault
    schedule: the returned set is then the *repaired* survivors' MIS and
    the round count includes the repair rounds.

    ``method="dense-sharded"`` partitions the CSR arrays into ``shards``
    node-range shards and runs the rounds shard-local across a persistent
    process pool with per-round halo exchange
    (:func:`repro.local.sharded.luby_mis_sharded`) — bit-identical per
    trial to ``method="dense"``.  Pass ``executor`` (a live
    :class:`~repro.local.sharded.ShardedExecutor`) to amortize
    partitioning and worker spin-up across calls.

    On the dense methods ``seed`` may also be a sequence of seeds: the
    whole batch runs in one kernel call (on hot shard workers for
    ``dense-sharded``) and a list of ``(mis, rounds)`` pairs comes back,
    one per seed, each identical to a single-seed call.  The ledger is
    charged per trial.
    """
    require(
        method in ("engine", "dense", "dense-sharded"),
        f"unknown method {method!r}",
    )
    require(
        not recover or method in ("engine", "dense"),
        "recover=True requires method 'engine' or 'dense'",
    )
    if method in ("dense", "dense-sharded"):
        seeds, batched = seed_batch(seed)
        if engine is None and (method == "dense" or executor is None):
            engine = CSREngine(Network(adjacency))
        if method == "dense":
            from repro.local.dense import luby_mis_batched

            batch = luby_mis_batched(engine, seeds, max_rounds=max_rounds, faults=faults)
            results = [batch.trial(t) for t in range(len(seeds))]
        elif executor is not None:
            from repro.local.sharded import luby_mis_sharded_batch

            results = luby_mis_sharded_batch(
                executor, seeds, max_rounds=max_rounds, faults=faults
            )
        else:
            from repro.local.sharded import ShardedExecutor, luby_mis_sharded_batch

            with ShardedExecutor(engine, shards) as ex:
                results = luby_mis_sharded_batch(
                    ex, seeds, max_rounds=max_rounds, faults=faults
                )
        out: List[Tuple[Set[int], int]] = []
        for s, result in zip(seeds, results):
            require(result.completed, "Luby MIS did not terminate within the round cap")
            if ledger is not None:
                ledger.charge_simulated(result.rounds, label)
            if recover:
                out.append(_repair_mis(
                    engine, faults, s, result.in_mis, result.crashed,
                    result.rounds, max_rounds, ledger, label,
                ))
            else:
                out.append(({int(i) for i in result.in_mis.nonzero()[0]}, result.rounds))
        return out if batched else out[0]
    if engine is None and recover:
        engine = CSREngine(Network(adjacency))
    if engine is not None:
        result = engine.run(LubyMIS(), max_rounds=max_rounds, seed=seed, hooks=hooks)
    else:
        result = run_local_fast(
            Network(adjacency), LubyMIS(), max_rounds=max_rounds, seed=seed, hooks=hooks
        )
    require(result.completed, "Luby MIS did not terminate within the round cap")
    if ledger is not None:
        ledger.charge_simulated(result.rounds, label)
    if recover:
        from repro.scenarios.masks import DenseFaults
        from repro.scenarios.recovery import bound_stack

        bound = bound_stack(hooks=hooks)
        in_mis = np.array([bool(v.state.get("in_mis")) for v in result.views])
        crashed = np.array([bool(v.state.get("crashed")) for v in result.views])
        repair_faults = DenseFaults(engine, bound) if bound else None
        return _repair_mis(
            engine, repair_faults, seed, in_mis, crashed, result.rounds,
            max_rounds, ledger, label,
        )
    mis = {i for i, v in enumerate(result.views) if v.state.get("in_mis")}
    return mis, result.rounds


def _repair_mis(engine, faults, seed, in_mis, crashed, rounds, max_rounds, ledger, label):
    """Shared ``recover=True`` tail: repair in place, return survivors' MIS."""
    from repro.scenarios.recovery import luby_repair

    rep = luby_repair(
        engine, faults, seed, in_mis, crashed,
        start_round=rounds + 1, max_rounds=max_rounds,
    )
    if ledger is not None and rep.repair_rounds:
        ledger.charge_simulated(rep.repair_rounds, label + "-repair")
    mis = {int(i) for i in np.flatnonzero(in_mis & ~crashed)}
    return mis, rep.last_round


def is_mis(adjacency: Sequence[Sequence[int]], mis: Set[int]) -> bool:
    """Verify independence and maximality (domination).

    Raises ``ValueError`` on an MIS id or adjacency entry outside
    ``range(n)``.
    """
    offsets, dst_node = csr_arrays(adjacency)
    conflict, undominated = mis_defects(offsets, dst_node, mis_mask(len(adjacency), mis))
    return not conflict.any() and not undominated.any()
