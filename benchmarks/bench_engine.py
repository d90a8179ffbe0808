"""E17/E18/E19 — execution-backend ladder on Luby MIS throughput.

Three claims under test, all with equivalence asserted on every run and
wall-clock ratios taken best-of-N with the GC paused (:func:`_harness.best_of`
— the 1-CPU container jitters too much for single-shot gates):

* **E17**: :class:`repro.local.engine.CSREngine` executes the same
  simulation as :func:`repro.local.network.run_local` — bit-identical
  outputs and round counts for a fixed seed — at >= 3x the throughput on
  MIS-scale inputs (n >= 10,000).
* **E18**: the dense numpy backend
  (:func:`repro.local.dense.luby_mis_batched`, one seed) executes whole rounds as array
  kernels with counter-based coins at >= 10x the engine's throughput at
  n = 100,000 on a ``random_sparse_graph`` of average degree ~20, while a
  replayed-coin run stays bit-identical to the engine.
* **E19**: faulty dense runs keep the dense speedup — the counter-based
  mask kernel builds the per-round delivery mask of an
  ``IIDMessageDrop(p=0.05)`` scenario at n = 100,000, deg ~20 at >= 8x
  the per-slot scalar-fallback loop over the same coin chain, and a full
  faulty Luby run completes; both timings land in the BENCH json rows.
* **E20**: trial batching — solving 64 seeds in one dense kernel call
  beats 64 one-seed calls of the same kernel >= 1.15x.
* **E21**: observability is free when off — a dense Luby run at
  n = 100,000 with the default :class:`repro.obs.NullTracer` stays within
  2% of the untraced run, and a live :class:`repro.obs.Tracer` emits
  exactly one round record per executed round with matching active-set
  trajectories on all three backends.
* **E24**: set-up is no slower than solving — at n = 100,000, deg ~20,
  building the simulator's graph (``Network`` validation and CSR packing
  plus the ``CSREngine`` over it) takes no longer than solving on it with
  dense Luby MIS plus dense sinkless orientation (``min_degree=3``).
* **E25**: checking costs at most 2.5x solving — at n = 100,000, deg ~20,
  ``is_mis`` plus ``is_sinkless(min_degree=3)`` on the adjacency lists
  take at most 2.5x dense Luby MIS plus dense sinkless orientation on a
  prebuilt engine.  Both verifiers are thin callers of the array contracts
  in :mod:`repro.local.contracts`.
* **E22**: sharded execution — Luby across a 4-shard process pool with
  per-round halo exchange (:func:`repro.local.sharded.luby_mis_sharded`)
  beats the single-process dense kernel >= 2x at n = 1,000,000, deg ~20,
  while staying bit-identical to single-process dense runs; partition
  and halo-exchange seconds land as their own table columns and as
  :mod:`repro.obs` span records.  Needs >= 4 cores (skips otherwise;
  ``REPRO_E22_FORCE=1`` overrides), so CI runs it on main pushes only.
"""

import os
import time

import pytest

from repro.bipartite.generators import random_sparse_graph
from repro.local import CSREngine, Network, run_local
from repro.mis.luby import LubyMIS

from _harness import attach_rows, best_of

N = 10_000
AVG_DEGREE = 24

DENSE_N = 100_000
DENSE_AVG_DEGREE = 20


def test_e17_engine_mis_equivalence_and_speedup(benchmark):
    adj = random_sparse_graph(N, AVG_DEGREE, seed=17)
    net = Network(adj)
    engine = CSREngine(net)

    reference = run_local(net, LubyMIS(), seed=1)
    fast = engine.run(LubyMIS(), seed=1)
    assert reference.outputs() == fast.outputs()
    assert reference.rounds == fast.rounds
    assert reference.completed and fast.completed

    t_reference = best_of(lambda: run_local(net, LubyMIS(), seed=1))
    t_engine = best_of(lambda: engine.run(LubyMIS(), seed=1))
    speedup = t_reference / t_engine
    if speedup < 3.0:
        # One remeasure before failing: on shared CI runners a single noisy
        # window can depress the ratio; a genuine regression will reproduce.
        t_reference = min(t_reference, best_of(lambda: run_local(net, LubyMIS(), seed=1)))
        t_engine = min(t_engine, best_of(lambda: engine.run(LubyMIS(), seed=1)))
        speedup = t_reference / t_engine

    benchmark(lambda: engine.run(LubyMIS(), seed=1))
    attach_rows(
        benchmark,
        "E17: batched engine vs reference simulator (Luby MIS)",
        ["n", "avg deg", "rounds", "reference s", "engine s", "speedup"],
        [
            (
                N,
                AVG_DEGREE,
                reference.rounds,
                f"{t_reference:.3f}",
                f"{t_engine:.3f}",
                f"{speedup:.2f}x",
            )
        ],
    )
    assert speedup >= 3.0, f"engine only {speedup:.2f}x faster than reference"


def test_e18_dense_backend_mis_speedup(benchmark):
    """Dense numpy kernels >= 10x over the CSR engine at n = 100k."""
    from repro.local.dense import luby_mis_batched

    def dense_run():
        return luby_mis_batched(engine, [1]).trial(0)

    adj = random_sparse_graph(DENSE_N, DENSE_AVG_DEGREE, seed=18)
    engine = CSREngine(Network(adj))

    # Correctness before speed: the dense run must be bit-identical to the
    # engine on the same keyed coins.
    fast = engine.run(LubyMIS(), seed=1)
    dense = dense_run()
    assert dense.rounds == fast.rounds
    assert [bool(x) for x in dense.in_mis] == [
        bool(v.state.get("in_mis")) for v in fast.views
    ]

    t_engine = best_of(lambda: engine.run(LubyMIS(), seed=1), repeat=2)
    t_dense = best_of(dense_run, repeat=5)
    speedup = t_engine / t_dense
    if speedup < 10.0:
        t_engine = min(t_engine, best_of(lambda: engine.run(LubyMIS(), seed=1), repeat=2))
        t_dense = min(t_dense, best_of(dense_run, repeat=5))
        speedup = t_engine / t_dense

    benchmark(dense_run)
    attach_rows(
        benchmark,
        "E18: dense numpy backend vs batched engine (Luby MIS)",
        ["n", "avg deg", "rounds", "engine s", "dense s", "speedup"],
        [
            (
                DENSE_N,
                DENSE_AVG_DEGREE,
                dense.rounds,
                f"{t_engine:.3f}",
                f"{t_dense:.4f}",
                f"{speedup:.1f}x",
            )
        ],
    )
    assert speedup >= 10.0, f"dense backend only {speedup:.2f}x faster than engine"


def test_e19_fault_mask_dense_mis_speedup(benchmark):
    """Vectorized fault-mask kernel >= 8x over the per-slot loop at n = 100k.

    The baseline is ``DenseFaults``' scalar fallback — the per-slot python
    sweep over the pure scalar ``delivers`` decision it runs for
    perturbations without a vectorized path, here evaluating the same
    ``fault_u01`` chain one slot at a time (O(m) interpreter work per
    round).  The contender is one counter-based hash-kernel call per round.
    Both are one-round costs on the same engine and schedule, so the ratio
    is the per-round fault-mask overhead a faulty dense sweep saves.
    """
    import time

    import numpy as np

    from repro.local.dense import luby_mis_batched
    from repro.scenarios import BoundPerturbation, IIDMessageDrop, bind_all
    from repro.scenarios.masks import DenseFaults, SlotLayout

    class ScalarOnly(BoundPerturbation):
        """The bound drop schedule without its vectorized ``delivers_mask``,
        so ``DenseFaults`` takes the per-slot scalar fallback."""

        drops_messages = True

        def __init__(self, inner):
            self.delivers = inner.delivers
            self.quiet_after = inner.quiet_after

    adj = random_sparse_graph(DENSE_N, DENSE_AVG_DEGREE, seed=19)
    engine = CSREngine(Network(adj))
    net = engine.network
    layout = SlotLayout(engine)
    perts = (IIDMessageDrop(p=0.05),)
    bound_mask = bind_all(perts, net, fault_seed=1)
    bound_loop = tuple(ScalarOnly(b) for b in bound_mask)

    # Correctness before speed: delivered_in must be the partner-gather of
    # delivered_out, the mask drop rate must sit at p, and the scalar
    # fallback must reproduce the kernel's mask slot for slot.
    faults = DenseFaults(engine, bound_mask, layout=layout)
    out1 = faults.delivered_out(1)
    assert np.array_equal(faults.delivered_in(1), out1[layout.partner])
    drop_rate = 1.0 - out1.mean()
    assert abs(drop_rate - 0.05) < 0.005, f"mask drop rate {drop_rate:.4f}"
    assert np.array_equal(
        DenseFaults(engine, bound_loop, layout=layout).delivered_out(1), out1
    )

    # A full faulty run completes (under pure drops nobody crashes and
    # every node still decides).
    start = time.perf_counter()
    dense = luby_mis_batched(
        engine, [1], faults=DenseFaults(engine, bound_mask, layout=layout),
    ).trial(0)
    t_faulty_run = time.perf_counter() - start
    assert dense.completed and not dense.crashed.any()

    # Per-round mask build: per-slot loop baseline vs counter-based kernel.
    # A fresh DenseFaults per call defeats its round cache; repeat=1 for
    # the baseline (a single sweep is seconds of interpreter work, and
    # noise only helps the gate), with one remeasure before failing.
    t_loop = best_of(
        lambda: DenseFaults(engine, bound_loop, layout=layout).delivered_out(1),
        repeat=1,
    )
    t_mask = best_of(
        lambda: DenseFaults(engine, bound_mask, layout=layout).delivered_out(1),
        repeat=5,
    )
    speedup = t_loop / t_mask
    if speedup < 8.0:
        t_loop = min(t_loop, best_of(
            lambda: DenseFaults(engine, bound_loop, layout=layout).delivered_out(1),
            repeat=1,
        ))
        t_mask = min(t_mask, best_of(
            lambda: DenseFaults(engine, bound_mask, layout=layout).delivered_out(1),
            repeat=5,
        ))
        speedup = t_loop / t_mask

    benchmark(lambda: DenseFaults(engine, bound_mask, layout=layout).delivered_out(1))
    attach_rows(
        benchmark,
        "E19: counter-based fault masks vs per-slot loop (faulty dense Luby)",
        ["n", "avg deg", "rounds", "loop mask s", "kernel mask s", "speedup",
         "faulty run s"],
        [
            (
                DENSE_N,
                DENSE_AVG_DEGREE,
                dense.rounds,
                f"{t_loop:.3f}",
                f"{t_mask:.4f}",
                f"{speedup:.1f}x",
                f"{t_faulty_run:.3f}",
            )
        ],
    )
    assert speedup >= 8.0, f"mask kernel only {speedup:.2f}x over the slot loop"


BATCH_N = 10_000
BATCH_AVG_DEGREE = 20
BATCH_TRIALS = 64


def test_e20_trial_batched_dense_mis_speedup(benchmark):
    """One 64-seed dense Luby call >= 1.15x over 64 one-seed calls.

    Both sides run :func:`~repro.local.dense.luby_mis_batched`; the
    baseline is the way a per-seed sweep calls it (a batch of one per
    seed), the contender one call for the whole sweep cell, whose trials
    share the communal pooled tail once their frontiers are small.
    Correctness first: spot-check rows of the batch must be bit-identical
    to batches of one, and the per-trial round counts must be ragged
    (trials genuinely finish at different rounds and freeze).
    """
    from repro.local.dense import luby_mis_batched

    adj = random_sparse_graph(BATCH_N, BATCH_AVG_DEGREE, seed=20)
    engine = CSREngine(Network(adj))
    seeds = list(range(BATCH_TRIALS))

    batch = luby_mis_batched(engine, seeds)
    assert bool(batch.completed.all())
    for s in (0, 17, 63):
        one = luby_mis_batched(engine, [s])
        assert (batch.in_mis[s] == one.in_mis[0]).all()
        assert batch.rounds[s] == one.rounds[0]
    import numpy as np

    assert np.unique(batch.rounds).shape[0] >= 2, "expected ragged round counts"

    def one_seed_calls():
        for s in seeds:
            luby_mis_batched(engine, [s])

    t_loop = best_of(one_seed_calls, repeat=3)
    t_batch = best_of(lambda: luby_mis_batched(engine, seeds), repeat=3)
    speedup = t_loop / t_batch
    if speedup < 1.15:
        t_loop = min(t_loop, best_of(one_seed_calls, repeat=3))
        t_batch = min(t_batch, best_of(lambda: luby_mis_batched(engine, seeds), repeat=3))
        speedup = t_loop / t_batch

    benchmark(lambda: luby_mis_batched(engine, seeds))
    attach_rows(
        benchmark,
        "E20: one 64-seed dense call vs 64 one-seed calls (Luby MIS)",
        ["n", "avg deg", "trials", "one-seed calls s", "batched s", "speedup"],
        [
            (
                BATCH_N,
                BATCH_AVG_DEGREE,
                BATCH_TRIALS,
                f"{t_loop:.3f}",
                f"{t_batch:.3f}",
                f"{speedup:.2f}x",
            )
        ],
    )
    assert speedup >= 1.15, f"batched call only {speedup:.2f}x over one-seed calls"


def test_e17_engine_mis_large_sweep_scales(benchmark):
    """Frontier tracking: per-node cost must not grow with n (torus family)."""
    from repro.bipartite.generators import grid_graph
    from repro.mis.luby import luby_mis, is_mis

    rows = []
    for side in (40, 80, 120):
        adj = grid_graph(side, side, periodic=True)
        start = time.perf_counter()
        mis, rounds = luby_mis(adj, seed=side)
        elapsed = time.perf_counter() - start
        assert is_mis(adj, mis)
        rows.append(
            (side * side, rounds, len(mis), f"{1e6 * elapsed / (side * side):.2f}")
        )

    adj = grid_graph(100, 100, periodic=True)
    benchmark(lambda: luby_mis(adj, seed=7))
    attach_rows(
        benchmark,
        "E17: engine scaling on torus (Luby MIS)",
        ["n", "rounds", "|MIS|", "us per node"],
        rows,
    )


def test_e21_noop_tracer_overhead(benchmark):
    """Tracing must be free when off: no-op tracer within 2% at n = 100k.

    Correctness first, on a small shared (graph, seed) with replayed
    coins: a live Tracer attached to each backend — hooks on the
    reference simulator and the CSR engine, explicit trace points in the
    dense kernel — emits exactly one round record per executed round, and
    the three traced active-set trajectories are identical (the runs are
    bit-identical, so their traces must be too).  Then the gate: the
    dense kernel's hoisted ``tracer is not None and tracer.enabled``
    guard means a NullTracer run does no per-round tracing work, and the
    best-of wall time must stay within 2% of the untraced run.
    """
    from repro.local.dense import luby_mis_batched
    from repro.obs import NullTracer, Tracer, TracingHooks

    small = random_sparse_graph(2_000, 12, seed=21)
    net = Network(small)
    engine = CSREngine(net)

    tracers = {
        "reference": Tracer(backend="reference"),
        "engine": Tracer(backend="engine"),
        "dense": Tracer(backend="dense"),
    }
    results = {
        "reference": run_local(net, LubyMIS(), seed=1,
                               hooks=TracingHooks(tracers["reference"])),
        "engine": engine.run(LubyMIS(), seed=1,
                             hooks=TracingHooks(tracers["engine"])),
        "dense": luby_mis_batched(engine, [1], tracer=tracers["dense"]).trial(0),
    }
    rounds = {k: r.rounds for k, r in results.items()}
    assert rounds["reference"] == rounds["engine"] == rounds["dense"]
    for backend, tracer in tracers.items():
        records = tracer.round_records()
        assert len(records) == rounds[backend], (
            f"{backend}: {len(records)} round records for "
            f"{rounds[backend]} rounds"
        )
    actives = {
        backend: [rec["active"] for rec in tracer.round_records()]
        for backend, tracer in tracers.items()
    }
    assert actives["reference"] == actives["engine"] == actives["dense"]

    adj = random_sparse_graph(DENSE_N, DENSE_AVG_DEGREE, seed=21)
    big = CSREngine(Network(adj))
    null = NullTracer()

    def untraced():
        return luby_mis_batched(big, [1])

    def traced():
        return luby_mis_batched(big, [1], tracer=null)

    t_plain = best_of(untraced, repeat=5)
    t_traced = best_of(traced, repeat=5)
    overhead = t_traced / t_plain - 1.0
    if overhead > 0.02:
        t_plain = min(t_plain, best_of(untraced, repeat=5))
        t_traced = min(t_traced, best_of(traced, repeat=5))
        overhead = t_traced / t_plain - 1.0

    benchmark(traced)
    attach_rows(
        benchmark,
        "E21: no-op tracer overhead (dense Luby)",
        ["n", "avg deg", "untraced s", "null-traced s", "overhead"],
        [
            (
                DENSE_N,
                DENSE_AVG_DEGREE,
                f"{t_plain:.4f}",
                f"{t_traced:.4f}",
                f"{overhead:+.2%}",
            )
        ],
    )
    assert overhead <= 0.02, (
        f"NullTracer run {overhead:+.2%} slower than untraced (gate: 2%)"
    )


SHARDED_N = 1_000_000
SHARDED_AVG_DEGREE = 20
SHARDED_WORKERS = 4


def test_e22_sharded_luby_speedup(benchmark):
    """4-shard sharded Luby >= 2x over single-process dense at n = 1M.

    Correctness first, at a size where the pool tax is visible: a 4-shard
    run over real worker processes must be bit-identical to the
    single-process dense kernel (membership, crash
    records, round count), and the attached tracer must carry one
    ``sharded.partition`` and one ``sharded.halo_exchange`` span per
    trial.  Then the gate: at n = 1,000,000, deg ~20, the hot 4-shard
    executor must solve a trial >= 2x faster than ``luby_mis_batched``,
    with partitioning and halo-exchange seconds reported as their own
    columns (the overheads the speedup already absorbs).
    """
    from repro.local.dense import luby_mis_batched
    from repro.local.sharded import ShardedExecutor, luby_mis_sharded

    def dense_run(engine):
        return luby_mis_batched(engine, [1]).trial(0)
    from repro.obs import Tracer

    if (os.cpu_count() or 1) < SHARDED_WORKERS and not os.environ.get(
        "REPRO_E22_FORCE"
    ):
        pytest.skip(
            f"sharded speedup gate needs >= {SHARDED_WORKERS} cores "
            f"(found {os.cpu_count()}); set REPRO_E22_FORCE=1 to override"
        )

    small = CSREngine(Network(random_sparse_graph(20_000, SHARDED_AVG_DEGREE,
                                                  seed=22)))
    seq = dense_run(small)
    tracer = Tracer(backend="dense-sharded")
    with ShardedExecutor(small, SHARDED_WORKERS, tracer=tracer) as ex:
        shard = luby_mis_sharded(small, seed=1, executor=ex)
    assert shard.rounds == seq.rounds
    assert (shard.in_mis == seq.in_mis).all()
    assert (shard.crashed == seq.crashed).all()
    spans = [r for r in tracer.records if r.get("kind") == "span"]
    assert {s["name"] for s in spans} == {
        "sharded.partition", "sharded.halo_exchange"
    }

    adj = random_sparse_graph(SHARDED_N, SHARDED_AVG_DEGREE, seed=22)
    engine = CSREngine(Network(adj))

    t_dense = best_of(lambda: dense_run(engine), repeat=2)
    with ShardedExecutor(engine, SHARDED_WORKERS) as ex:
        result = luby_mis_sharded(engine, seed=1, executor=ex)  # warm the pool
        t_sharded = best_of(
            lambda: luby_mis_sharded(engine, seed=1, executor=ex), repeat=2
        )
        speedup = t_dense / t_sharded
        if speedup < 2.0:
            t_dense = min(t_dense, best_of(lambda: dense_run(engine), repeat=2))
            t_sharded = min(t_sharded, best_of(
                lambda: luby_mis_sharded(engine, seed=1, executor=ex), repeat=2
            ))
            speedup = t_dense / t_sharded
        halo_before = ex.halo_seconds
        timed = luby_mis_sharded(engine, seed=1, executor=ex)
        t_halo = ex.halo_seconds - halo_before
        t_partition = ex.plan.partition_seconds
        assert timed.rounds == result.rounds

        benchmark(lambda: luby_mis_sharded(engine, seed=1, executor=ex))
    attach_rows(
        benchmark,
        "E22: sharded CSR execution vs single-process dense (Luby MIS)",
        ["n", "avg deg", "shards", "rounds", "dense s", "sharded s",
         "partition s", "halo s", "speedup"],
        [
            (
                SHARDED_N,
                SHARDED_AVG_DEGREE,
                SHARDED_WORKERS,
                result.rounds,
                f"{t_dense:.3f}",
                f"{t_sharded:.3f}",
                f"{t_partition:.3f}",
                f"{t_halo:.4f}",
                f"{speedup:.2f}x",
            )
        ],
    )
    assert speedup >= 2.0, f"sharded backend only {speedup:.2f}x over dense"


def test_e24_setup_not_slower_than_solve(benchmark):
    """``Network`` + ``CSREngine`` <= dense Luby + dense sinkless at n = 100k.

    Set-up used to cost ~10x the solve it serves.  Both sides are best-of-3
    with the GC paused; the row also reports graph generation, which stays
    outside the gate (the generators are not part of the simulator).
    Correctness first: the solve's outputs are valid on the built graph.
    """
    from repro.mis.luby import is_mis, luby_mis
    from repro.orientation.sinkless import is_sinkless, run_trial_and_fix

    start = time.perf_counter()
    adj = random_sparse_graph(DENSE_N, DENSE_AVG_DEGREE, seed=24)
    t_generate = time.perf_counter() - start
    engine = CSREngine(Network(adj))

    def solve():
        mis, _ = luby_mis(adj, seed=1, method="dense", engine=engine)
        orientation, _ = run_trial_and_fix(
            adj, min_degree=3, seed=1, method="dense", engine=engine
        )
        return mis, orientation

    mis, orientation = solve()  # also the kernels' first-call warm-up
    assert is_mis(adj, mis)
    assert is_sinkless(adj, orientation, min_degree=3)

    t_network = best_of(lambda: Network(adj))
    net = Network(adj)
    t_pack = best_of(lambda: CSREngine(net))
    t_setup = best_of(lambda: CSREngine(Network(adj)))
    t_solve = best_of(solve)
    if t_setup > t_solve:
        t_setup = min(t_setup, best_of(lambda: CSREngine(Network(adj))))
        t_solve = min(t_solve, best_of(solve))

    benchmark.pedantic(lambda: CSREngine(Network(adj)), rounds=3, iterations=1)
    attach_rows(
        benchmark,
        "E24: simulator set-up vs dense solve (Luby MIS + sinkless orientation)",
        ["n", "avg deg", "generate s", "network s", "pack s", "setup s", "solve s",
         "setup/solve"],
        [
            (
                DENSE_N,
                DENSE_AVG_DEGREE,
                f"{t_generate:.3f}",
                f"{t_network:.3f}",
                f"{t_pack:.4f}",
                f"{t_setup:.3f}",
                f"{t_solve:.3f}",
                f"{t_setup / t_solve:.2f}",
            )
        ],
    )
    assert t_setup <= t_solve, (
        f"set-up {t_setup:.3f}s slower than the solve {t_solve:.3f}s"
    )


def test_e25_verify_not_slower_than_2_5x_solve(benchmark):
    """``is_mis`` + ``is_sinkless`` <= 2.5x dense Luby + dense sinkless at n = 100k.

    Checking used to cost ~5x the solve it judges (the per-node Python
    loops of the verifiers).  Both sides are best-of-3 with the GC paused
    on a prebuilt engine; the verifiers start from the adjacency lists, so
    their flattening is inside the gate.
    """
    from repro.mis.luby import is_mis, luby_mis
    from repro.orientation.sinkless import is_sinkless, run_trial_and_fix

    adj = random_sparse_graph(DENSE_N, DENSE_AVG_DEGREE, seed=25)
    engine = CSREngine(Network(adj))

    def solve():
        mis, _ = luby_mis(adj, seed=1, method="dense", engine=engine)
        orientation, _ = run_trial_and_fix(
            adj, min_degree=3, seed=1, method="dense", engine=engine
        )
        return mis, orientation

    mis, orientation = solve()  # also the kernels' first-call warm-up

    def verify():
        return is_mis(adj, mis), is_sinkless(adj, orientation, min_degree=3)

    assert verify() == (True, True)
    t_is_mis = best_of(lambda: is_mis(adj, mis))
    t_is_sinkless = best_of(lambda: is_sinkless(adj, orientation, min_degree=3))
    t_verify = best_of(verify)
    t_solve = best_of(solve)
    if t_verify > 2.5 * t_solve:
        t_verify = min(t_verify, best_of(verify))
        t_solve = min(t_solve, best_of(solve))

    benchmark.pedantic(verify, rounds=3, iterations=1)
    attach_rows(
        benchmark,
        "E25: verification vs dense solve (Luby MIS + sinkless orientation)",
        ["n", "avg deg", "is_mis s", "is_sinkless s", "verify s", "solve s",
         "verify/solve"],
        [
            (
                DENSE_N,
                DENSE_AVG_DEGREE,
                f"{t_is_mis:.3f}",
                f"{t_is_sinkless:.3f}",
                f"{t_verify:.3f}",
                f"{t_solve:.3f}",
                f"{t_verify / t_solve:.2f}",
            )
        ],
    )
    assert t_verify <= 2.5 * t_solve, (
        f"verification {t_verify:.3f}s exceeds 2.5x the solve {t_solve:.3f}s"
    )
