"""Trial-batched dense kernels: B=k rows == B=1 runs == the engine.

The contract under test (``repro/local/dense.py``): a kernel call over
seeds ``s1..sk`` is **bit-identical** — MIS membership, orientation slot
states, splitting colors, round counts, completion flags and crash
records — to ``k`` batches of one, and each of those to the hooked CSR
engine on the same seed, because every coin is a pure hash of
``(seed, counter, round)`` and the kernels recompute exactly those hashes
at whatever (trial, node, round) triples are still active.
Property-tested on random graphs, including faulty and Byzantine
scenarios, ragged termination, and mid-phase ``max_rounds`` caps.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.apps.splitting import ZeroRoundSplitting, uniform_splitting  # noqa: E402
from repro.bipartite.generators import (  # noqa: E402
    configuration_model_regular,
    random_sparse_graph,
)
from repro.core.problems import UniformSplittingSpec  # noqa: E402
from repro.local import CSREngine, Network, RoundLedger  # noqa: E402
from repro.local.dense import (  # noqa: E402
    luby_mis_batched,
    sinkless_trial_batched,
    uniform_splitting_batched,
)
from repro.mis.luby import LubyMIS, luby_mis  # noqa: E402
from repro.obs import Tracer, TracingHooks  # noqa: E402
from repro.orientation.sinkless import (  # noqa: E402
    TrialAndFixSinkless,
    run_trial_and_fix,
    sinks,
)
from repro.scenarios import CorruptMessages, PerturbationHooks  # noqa: E402
from repro.scenarios.base import bind_all  # noqa: E402
from repro.scenarios.contracts import orientation_from_views  # noqa: E402
from repro.scenarios.faults import CrashNodes, IIDMessageDrop  # noqa: E402
from repro.scenarios.masks import DenseFaults  # noqa: E402
from repro.utils.rng import keyed_u01, mix64  # noqa: E402
from tests.conftest import dense_luby, dense_sinkless, dense_split  # noqa: E402

SEEDS = list(range(10))


def sparse_engine(n=300, deg=6, gseed=7):
    return CSREngine(Network(random_sparse_graph(n, deg, seed=gseed)))


def regular_engine(n=120, deg=4, gseed=11):
    return CSREngine(Network(configuration_model_regular(n, deg, seed=gseed)))


def hooks_of(bound):
    return PerturbationHooks(bound) if bound else None


def engine_luby(engine, seed, max_rounds=10_000, bound=()):
    eng = engine.run(LubyMIS(), max_rounds=max_rounds, seed=seed, hooks=hooks_of(bound))
    return (
        np.array([bool(v.state.get("in_mis")) for v in eng.views], dtype=bool),
        np.array([bool(v.state.get("crashed")) for v in eng.views], dtype=bool),
        eng.rounds,
        eng.completed,
    )


def engine_sinkless(engine, seed, min_degree, max_rounds=200, bound=()):
    """Slot states, crash records and rounds of the hooked engine run under
    the survivor-aware probe (the dense kernel's stopping rule)."""
    adj = engine.network.adjacency

    def probe(round_no, views):
        if round_no < 2:
            return False
        orientation = orientation_from_views(adj, views)
        return not any(
            not views[v].state.get("crashed") for v in sinks(adj, orientation, min_degree)
        )

    eng = engine.run(
        TrialAndFixSinkless(min_degree=min_degree), max_rounds=max_rounds,
        seed=seed, probe=probe, hooks=hooks_of(bound),
    )
    offsets = engine.offsets
    out = np.zeros(offsets[-1], dtype=bool)
    for i, view in enumerate(eng.views):
        for p, is_out in view.state.get("out", {}).items():
            out[offsets[i] + p] = is_out
    crashed = np.array([bool(v.state.get("crashed")) for v in eng.views], dtype=bool)
    return out, crashed, eng.rounds


def engine_split(engine, spec, run_seed, bound=()):
    eng = engine.run(
        ZeroRoundSplitting(spec), max_rounds=1, seed=run_seed, hooks=hooks_of(bound)
    )
    return (
        np.array([v.state["color"] for v in eng.views]),
        all(v.output[1] for v in eng.views if v.output is not None),
        np.array([bool(v.state.get("crashed")) for v in eng.views], dtype=bool),
    )


def assert_luby_identical(engine, seeds, batch, bound=(), max_rounds=10_000):
    faults = DenseFaults(engine, bound) if bound else None
    for t, s in enumerate(seeds):
        one = dense_luby(engine, s, max_rounds=max_rounds, faults=faults)
        for in_mis, crashed, rounds, completed in (
            (one.in_mis, one.crashed, one.rounds, one.completed),
            engine_luby(engine, s, max_rounds=max_rounds, bound=bound),
        ):
            assert np.array_equal(batch.in_mis[t], in_mis)
            assert np.array_equal(batch.crashed[t], crashed)
            assert int(batch.rounds[t]) == rounds
            assert bool(batch.completed[t]) == completed


def assert_sinkless_identical(engine, seeds, batch, min_degree, bound=(), vs_engine=True):
    faults = DenseFaults(engine, bound) if bound else None
    for t, s in enumerate(seeds):
        one = dense_sinkless(
            engine, s, min_degree=min_degree, faults=faults, strict=False
        )
        assert bool(batch.completed[t]) == one.completed
        refs = [(one.out, one.crashed, one.rounds)]
        if vs_engine:
            refs.append(engine_sinkless(engine, s, min_degree, bound=bound))
        for out, crashed, rounds in refs:
            assert np.array_equal(batch.out[t], out)
            assert np.array_equal(batch.crashed[t], crashed)
            assert int(batch.rounds[t]) == rounds


def assert_split_identical(engine, spec, run_seeds, batch, bound=()):
    faults = DenseFaults(engine, bound) if bound else None
    for t, s in enumerate(run_seeds):
        one = dense_split(engine, spec, s, faults=faults)
        for colors, ok, crashed in (
            (one.colors, one.ok, one.crashed),
            engine_split(engine, spec, s, bound=bound),
        ):
            assert np.array_equal(batch.colors[t], colors)
            assert bool(batch.ok[t]) == bool(ok)
            assert np.array_equal(batch.crashed[t], crashed)


class TestLubyBatchedBitIdentity:
    def test_matches_sequential_keyed_runs(self):
        for gseed in (7, 8):
            engine = sparse_engine(gseed=gseed)
            batch = luby_mis_batched(engine, SEEDS)
            assert_luby_identical(engine, SEEDS, batch)

    def test_ragged_trials_freeze_independently(self):
        engine = sparse_engine()
        batch = luby_mis_batched(engine, SEEDS)
        # different seeds genuinely finish at different rounds — the
        # active-trial mask must freeze each one exactly where its batch
        # of one stops
        assert np.unique(batch.rounds).shape[0] >= 2
        assert bool(batch.completed.all())

    def test_pooled_phases_preserve_identity(self):
        # a tiny pool threshold forces every trial through the communal
        # compressed state almost immediately
        engine = sparse_engine()
        batch = luby_mis_batched(engine, SEEDS, pool_pairs=32)
        assert_luby_identical(engine, SEEDS, batch)

    def test_max_rounds_caps_match_including_mid_phase(self):
        engine = sparse_engine(n=150, deg=5, gseed=3)
        for cap in (0, 1, 2, 3, 4, 5, 6):  # odd caps break mid-phase
            batch = luby_mis_batched(engine, SEEDS, max_rounds=cap)
            assert_luby_identical(engine, SEEDS, batch, max_rounds=cap)

    def test_trial_view_slices_batch(self):
        engine = sparse_engine(n=80, deg=4, gseed=2)
        batch = luby_mis_batched(engine, [0, 1])
        one = batch.trial(1)
        single = dense_luby(engine, 1)
        assert np.array_equal(one.in_mis, single.in_mis)
        assert one.rounds == single.rounds


class TestLubyBatchedFaulty:
    def test_mask_mode_scenario_identical(self):
        engine = sparse_engine(n=250, deg=6, gseed=5)
        perts = [CrashNodes(fraction=0.05, at_round=3), IIDMessageDrop(p=0.08)]
        bound = bind_all(perts, engine.network, fault_seed=99)
        batch = luby_mis_batched(engine, SEEDS, faults=DenseFaults(engine, bound))
        assert_luby_identical(engine, SEEDS, batch, bound=bound)

    def test_faulty_mid_phase_caps(self):
        engine = sparse_engine(n=150, deg=5, gseed=9)
        perts = [CrashNodes(fraction=0.06, at_round=2), IIDMessageDrop(p=0.1)]
        bound = bind_all(perts, engine.network, fault_seed=4)
        faults = DenseFaults(engine, bound)
        for cap in (1, 2, 3, 4, 5):
            batch = luby_mis_batched(engine, SEEDS, faults=faults, max_rounds=cap)
            assert_luby_identical(engine, SEEDS, batch, bound=bound, max_rounds=cap)


class TestSinklessBatchedBitIdentity:
    def test_matches_sequential_keyed_runs(self):
        engine = regular_engine()
        batch = sinkless_trial_batched(engine, SEEDS, min_degree=3)
        assert_sinkless_identical(engine, SEEDS, batch, min_degree=3)
        # fix rounds are ragged across seeds
        assert np.unique(batch.rounds).shape[0] >= 2

    def test_mask_mode_scenario_identical(self):
        engine = regular_engine()
        # The kernel's fault window starts at round 2, so a stack dropping
        # proposals is matched by batches of one only; the round-1-clean
        # stack is matched by the engine too.
        for from_round, vs_engine in ((1, False), (2, True)):
            perts = [
                CrashNodes(fraction=0.04, at_round=2),
                IIDMessageDrop(p=0.05, from_round=from_round),
            ]
            bound = bind_all(perts, engine.network, fault_seed=17)
            batch = sinkless_trial_batched(
                engine, SEEDS, min_degree=3, faults=DenseFaults(engine, bound),
                strict=False,
            )
            assert_sinkless_identical(
                engine, SEEDS, batch, min_degree=3, bound=bound, vs_engine=vs_engine
            )

    def test_crashed_receivers_stay_frozen_after_the_schedule_expires(self):
        # A crash-only stack expires the round after its crash; flips aimed
        # at the crashed nodes afterwards must still leave their slots alone.
        engine = CSREngine(Network(random_sparse_graph(30, 3.0, seed=4)))
        bound = bind_all((CrashNodes(fraction=0.3, at_round=2),), engine.network, 7)
        batch = sinkless_trial_batched(
            engine, SEEDS, min_degree=2, max_rounds=30,
            faults=DenseFaults(engine, bound), strict=False,
        )
        assert batch.crashed.any()
        for t, s in enumerate(SEEDS):
            out, crashed, rounds = engine_sinkless(engine, s, 2, max_rounds=30, bound=bound)
            assert np.array_equal(batch.out[t], out)
            assert int(batch.rounds[t]) == rounds

    def test_strict_raises_when_any_trial_unfinished(self):
        engine = regular_engine()
        with pytest.raises(RuntimeError):
            sinkless_trial_batched(engine, SEEDS, min_degree=3, max_rounds=1)


class TestSplittingBatchedBitIdentity:
    RUN_SEEDS = [3, 17, 2**31 - 1, 0, 99]

    def test_rows_match_single_attempts_and_engine(self):
        engine = CSREngine(Network(configuration_model_regular(200, 16, seed=3)))
        spec = UniformSplittingSpec(eps=0.3, min_constrained_degree=8)
        batch = uniform_splitting_batched(engine, spec, self.RUN_SEEDS)
        assert_split_identical(engine, spec, self.RUN_SEEDS, batch)
        assert list(batch.rounds) == [1] * len(self.RUN_SEEDS)

    def test_mask_mode_scenario_identical(self):
        engine = CSREngine(Network(configuration_model_regular(200, 16, seed=3)))
        spec = UniformSplittingSpec(eps=0.3, min_constrained_degree=8)
        perts = [CrashNodes(fraction=0.05, at_round=1), IIDMessageDrop(p=0.05)]
        bound = bind_all(perts, engine.network, fault_seed=23)
        batch = uniform_splitting_batched(
            engine, spec, self.RUN_SEEDS, faults=DenseFaults(engine, bound)
        )
        assert_split_identical(engine, spec, self.RUN_SEEDS, batch, bound=bound)

    def test_seed_list_matches_sequential_retry_loops(self):
        # eps tight enough that seeds retry (two of SEEDS never land in 64
        # attempts; a seed list raises if any trial fails, so they sit out)
        adj = configuration_model_regular(200, 16, seed=3)
        spec = UniformSplittingSpec(eps=0.3, min_constrained_degree=8)
        engine = CSREngine(Network(adj))
        landing, attempts, singles = [], [], []
        for s in SEEDS:
            ledger = RoundLedger()
            try:
                colors = uniform_splitting(adj, spec, method="dense", seed=s, ledger=ledger)
            except RuntimeError:
                continue
            assert colors == uniform_splitting(adj, spec, method="local", seed=s)
            landing.append(s)
            attempts.append(ledger.total)
            singles.append(colors)
        assert len(landing) >= 5 and len(set(attempts)) >= 2
        ledger = RoundLedger()
        batch = uniform_splitting(
            adj, spec, method="dense", seed=landing, engine=engine, ledger=ledger
        )
        assert batch == singles
        assert ledger.total == sum(attempts)

    def test_exhausted_trials_raise_like_single_seed_calls(self):
        adj = configuration_model_regular(200, 16, seed=3)
        spec = UniformSplittingSpec(eps=0.12, min_constrained_degree=8)
        failing = 0
        for s in SEEDS:
            try:
                uniform_splitting(adj, spec, method="dense", seed=s, max_attempts=5)
            except RuntimeError:
                failing += 1
        assert failing
        with pytest.raises(RuntimeError):
            uniform_splitting(adj, spec, method="dense", seed=SEEDS, max_attempts=5)


class TestByzantineBatched:
    """Corruption masks on the batched kernels: B=3 rows == the engine."""

    B3 = [0, 5, 11]

    def test_luby(self):
        engine = sparse_engine(n=200, deg=6, gseed=12)
        perts = (CorruptMessages(p=0.1, until_round=6), CrashNodes(0.05, at_round=3))
        bound = bind_all(perts, engine.network, fault_seed=8)
        batch = luby_mis_batched(engine, self.B3, faults=DenseFaults(engine, bound))
        assert_luby_identical(engine, self.B3, batch, bound=bound)

    def test_sinkless(self):
        engine = regular_engine(n=100, deg=4, gseed=13)
        bound = bind_all(
            (CorruptMessages(p=0.1, from_round=2, until_round=6),), engine.network, 9
        )
        batch = sinkless_trial_batched(
            engine, self.B3, min_degree=3, faults=DenseFaults(engine, bound),
            strict=False,
        )
        assert_sinkless_identical(engine, self.B3, batch, min_degree=3, bound=bound)

    def test_sinkless_refuses_a_corrupted_proposal_round(self):
        engine = regular_engine(n=40, deg=4, gseed=13)
        bound = bind_all((CorruptMessages(p=0.5),), engine.network, 9)
        with pytest.raises(ValueError, match="corruption-free proposal round"):
            sinkless_trial_batched(engine, self.B3, faults=DenseFaults(engine, bound))

    def test_splitting(self):
        engine = sparse_engine(n=200, deg=24, gseed=14)
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=8)
        bound = bind_all((CorruptMessages(p=0.1, until_round=1),), engine.network, 10)
        batch = uniform_splitting_batched(
            engine, spec, self.B3, faults=DenseFaults(engine, bound)
        )
        assert_split_identical(engine, spec, self.B3, batch, bound=bound)


class TestRecoverWithSeedLists:
    """``recover=True`` runs the repair tail once per trial row."""

    def test_luby(self):
        adj = random_sparse_graph(150, 6, seed=21)
        engine = CSREngine(Network(adj))
        bound = bind_all((CorruptMessages(p=0.1, until_round=6),), engine.network, 2)
        kw = {"method": "dense", "engine": engine, "recover": True,
              "faults": DenseFaults(engine, bound)}
        batch = luby_mis(adj, seed=[1, 2, 3], **kw)
        assert batch == [luby_mis(adj, seed=s, **kw) for s in (1, 2, 3)]

    def test_sinkless(self):
        adj = configuration_model_regular(80, 4, seed=22)
        engine = CSREngine(Network(adj))
        bound = bind_all(
            (CorruptMessages(p=0.1, from_round=2, until_round=6),), engine.network, 3
        )
        kw = {"min_degree": 3, "method": "dense", "engine": engine, "recover": True,
              "faults": DenseFaults(engine, bound)}
        batch = run_trial_and_fix(adj, seed=[1, 2, 3], **kw)
        assert batch == [run_trial_and_fix(adj, seed=s, **kw) for s in (1, 2, 3)]

    def test_splitting(self):
        adj = random_sparse_graph(150, 24, seed=23)
        engine = CSREngine(Network(adj))
        spec = UniformSplittingSpec(eps=0.25, min_constrained_degree=8)
        bound = bind_all((IIDMessageDrop(p=0.2, until_round=3),), engine.network, 4)
        kw = {"method": "dense", "engine": engine, "recover": True,
              "faults": DenseFaults(engine, bound)}
        batch = uniform_splitting(adj, spec, seed=[1, 2, 3], **kw)
        assert batch == [uniform_splitting(adj, spec, seed=s, **kw) for s in (1, 2, 3)]


class TestRoundRecords:
    """A batch of one traces the engine's active-set trajectory."""

    def test_luby_records_match_engine(self):
        engine = sparse_engine(n=300, deg=6, gseed=31)
        bound = bind_all((CrashNodes(0.1, at_round=3),), engine.network, 5)
        for faults, hooks in ((None, None), (DenseFaults(engine, bound), bound)):
            dense_tracer, engine_tracer = Tracer(), Tracer()
            result = luby_mis_batched(engine, [4], faults=faults, tracer=dense_tracer)
            eng = engine.run(
                LubyMIS(), seed=4,
                hooks=TracingHooks(engine_tracer, inner=hooks_of(hooks or ())),
            )
            records = dense_tracer.round_records()
            assert [r["round"] for r in records] == list(range(1, eng.rounds + 1))
            assert int(result.rounds[0]) == eng.rounds
            assert [r["active"] for r in records] == [
                r["active"] for r in engine_tracer.round_records()
            ]

    def test_batch_records_sum_over_running_trials(self):
        engine = sparse_engine(n=200, deg=6, gseed=32)
        singles = []
        for s in SEEDS[:4]:
            tracer = Tracer()
            luby_mis_batched(engine, [s], tracer=tracer)
            singles.append({r["round"]: r["active"] for r in tracer.round_records()})
        tracer = Tracer()
        batch = luby_mis_batched(engine, SEEDS[:4], tracer=tracer)
        records = tracer.round_records()
        assert len(records) == int(batch.rounds.max())
        for r in records:
            assert r["active"] == sum(one.get(r["round"], 0) for one in singles)

    def test_sinkless_records_match_engine(self):
        engine = regular_engine(n=100, deg=4, gseed=33)
        bound = bind_all((CrashNodes(0.1, at_round=2),), engine.network, 6)
        dense_tracer, engine_tracer = Tracer(), Tracer()
        result = sinkless_trial_batched(
            engine, [2], min_degree=3, max_rounds=30, faults=DenseFaults(engine, bound),
            strict=False, tracer=dense_tracer,
        )
        adj = engine.network.adjacency

        def probe(round_no, views):
            if round_no < 2:
                return False
            orientation = orientation_from_views(adj, views)
            return not any(
                not views[v].state.get("crashed") for v in sinks(adj, orientation, 3)
            )

        eng = engine.run(
            TrialAndFixSinkless(min_degree=3), max_rounds=30, seed=2, probe=probe,
            hooks=TracingHooks(engine_tracer, inner=PerturbationHooks(bound)),
        )
        assert int(result.rounds[0]) == eng.rounds
        assert [r["active"] for r in dense_tracer.round_records()] == [
            r["active"] for r in engine_tracer.round_records()
        ]


class TestKeyedCoins:
    """Every coin is a pure function of (seed, counter, round)."""

    def test_purity_and_order_insensitivity(self):
        sh = mix64(42)
        idx = np.array([3, 1, 4], dtype=np.int64)
        a = keyed_u01(np, sh, idx, 5)
        b = keyed_u01(np, sh, idx, 5)
        assert np.array_equal(a, b)  # drawing twice changes nothing
        # per-element values don't depend on which call draws them
        single = keyed_u01(np, sh, np.array([1], dtype=np.int64), 5)
        assert a[1] == single[0]

    def test_tag_and_seed_dependence(self):
        idx = np.arange(32, dtype=np.int64)
        s42, s43 = mix64(42), mix64(43)
        assert not np.array_equal(keyed_u01(np, s42, idx, 1), keyed_u01(np, s42, idx, 2))
        assert not np.array_equal(keyed_u01(np, s42, idx, 1), keyed_u01(np, s43, idx, 1))

    def test_values_are_uniform_range(self):
        u = keyed_u01(np, mix64(7), np.arange(1000, dtype=np.int64), 1)
        assert ((u >= 0) & (u < 1)).all()
        assert 0.4 < u.mean() < 0.6

    def test_randints_respect_bounds(self):
        bounds = np.arange(1, 101, dtype=np.int64)
        u = keyed_u01(np, mix64(7), np.arange(100, dtype=np.int64), 3)
        draws = (u * bounds).astype(np.int64)
        assert ((draws >= 0) & (draws < bounds)).all()
