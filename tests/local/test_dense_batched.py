"""Trial-batched dense kernels: bit-identity to sequential keyed runs.

The contract under test (``repro/local/dense.py``): a batched run over
seeds ``s1..sk`` is **bit-identical** — MIS membership, orientation slot
states, splitting colors, round counts, completion flags and crash
records — to ``k`` independent sequential runs of the same kernel,
because every coin is a pure hash of ``(seed, counter, round)`` and the
batched kernels recompute exactly those hashes at whatever (trial, node,
round) triples are still active.  Property-tested on random graphs,
including a faulty scenario, ragged termination, and mid-phase
``max_rounds`` caps.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.bipartite.generators import (  # noqa: E402
    configuration_model_regular,
    random_sparse_graph,
)
from repro.core.problems import UniformSplittingSpec  # noqa: E402
from repro.local import CSREngine, Network  # noqa: E402
from repro.local.dense import (  # noqa: E402
    luby_mis_batched,
    luby_mis_dense,
    sinkless_trial_batched,
    sinkless_trial_dense,
    uniform_splitting_batched,
    uniform_splitting_dense,
)
from repro.scenarios.base import bind_all  # noqa: E402
from repro.scenarios.faults import CrashNodes, IIDMessageDrop  # noqa: E402
from repro.scenarios.masks import DenseFaults  # noqa: E402
from repro.utils.rng import ensure_rng, keyed_u01, mix64  # noqa: E402

SEEDS = list(range(10))


def sparse_engine(n=300, deg=6, gseed=7):
    return CSREngine(Network(random_sparse_graph(n, deg, seed=gseed)))


def regular_engine(n=120, deg=4, gseed=11):
    return CSREngine(Network(configuration_model_regular(n, deg, seed=gseed)))


def assert_luby_identical(engine, seeds, batch, **kwargs):
    for t, s in enumerate(seeds):
        seq = luby_mis_dense(engine, seed=s, **kwargs)
        assert np.array_equal(batch.in_mis[t], seq.in_mis)
        assert np.array_equal(batch.crashed[t], seq.crashed)
        assert int(batch.rounds[t]) == seq.rounds
        assert bool(batch.completed[t]) == seq.completed


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
        # active-trial mask must freeze each one exactly where the
        # sequential run stops
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
        seq = luby_mis_dense(engine, seed=1)
        assert np.array_equal(one.in_mis, seq.in_mis)
        assert one.rounds == seq.rounds


class TestLubyBatchedFaulty:
    def test_mask_mode_scenario_identical(self):
        engine = sparse_engine(n=250, deg=6, gseed=5)
        perts = [CrashNodes(fraction=0.05, at_round=3), IIDMessageDrop(p=0.08)]
        bound = bind_all(perts, engine.network, fault_seed=99)
        faults = DenseFaults(engine, bound)
        batch = luby_mis_batched(engine, SEEDS, faults=faults)
        assert_luby_identical(engine, SEEDS, batch, faults=faults)

    def test_faulty_mid_phase_caps(self):
        engine = sparse_engine(n=150, deg=5, gseed=9)
        perts = [CrashNodes(fraction=0.06, at_round=2), IIDMessageDrop(p=0.1)]
        bound = bind_all(perts, engine.network, fault_seed=4)
        faults = DenseFaults(engine, bound)
        for cap in (1, 2, 3, 4, 5):
            batch = luby_mis_batched(engine, SEEDS, faults=faults, max_rounds=cap)
            assert_luby_identical(engine, SEEDS, batch, faults=faults, max_rounds=cap)


class TestSinklessBatchedBitIdentity:
    def test_matches_sequential_keyed_runs(self):
        engine = regular_engine()
        batch = sinkless_trial_batched(engine, SEEDS, min_degree=3)
        for t, s in enumerate(SEEDS):
            seq = sinkless_trial_dense(engine, min_degree=3, seed=s)
            assert np.array_equal(batch.out[t], seq.out)
            assert int(batch.rounds[t]) == seq.rounds
            assert bool(batch.completed[t]) == seq.completed
        # fix rounds are ragged across seeds
        assert np.unique(batch.rounds).shape[0] >= 2

    def test_mask_mode_scenario_identical(self):
        engine = regular_engine()
        perts = [CrashNodes(fraction=0.04, at_round=2), IIDMessageDrop(p=0.05)]
        bound = bind_all(perts, engine.network, fault_seed=17)
        faults = DenseFaults(engine, bound)
        batch = sinkless_trial_batched(
            engine, SEEDS, min_degree=3, faults=faults, strict=False
        )
        for t, s in enumerate(SEEDS):
            seq = sinkless_trial_dense(
                engine, min_degree=3, seed=s, faults=faults,
                strict=False,
            )
            assert np.array_equal(batch.out[t], seq.out)
            assert np.array_equal(batch.crashed[t], seq.crashed)
            assert int(batch.rounds[t]) == seq.rounds
            assert bool(batch.completed[t]) == seq.completed

    def test_strict_raises_when_any_trial_unfinished(self):
        engine = regular_engine()
        with pytest.raises(RuntimeError):
            sinkless_trial_batched(engine, SEEDS, min_degree=3, max_rounds=1)


class TestSplittingBatchedBitIdentity:
    def sequential_las_vegas(self, engine, spec, seed, max_attempts, faults=None):
        rng = ensure_rng(int(seed))
        for attempt in range(1, max_attempts + 1):
            run_seed = rng.randrange(2**31)
            dense = uniform_splitting_dense(
                engine, spec, seed=run_seed, faults=faults
            )
            if dense.ok:
                return dense, attempt
        return dense, max_attempts

    def test_matches_sequential_retry_loops(self):
        engine = CSREngine(Network(configuration_model_regular(200, 16, seed=3)))
        # eps tight enough that some seeds retry, loose enough that all land
        spec = UniformSplittingSpec(eps=0.3, min_constrained_degree=8)
        batch = uniform_splitting_batched(engine, spec, SEEDS)
        for t, s in enumerate(SEEDS):
            seq, attempts = self.sequential_las_vegas(engine, spec, s, 64)
            assert bool(batch.ok[t]) == seq.ok
            assert int(batch.attempts[t]) == attempts
            assert np.array_equal(batch.colors[t], seq.colors)

    def test_exhausted_trials_keep_last_colors(self):
        engine = CSREngine(Network(configuration_model_regular(200, 16, seed=3)))
        spec = UniformSplittingSpec(eps=0.12, min_constrained_degree=8)
        batch = uniform_splitting_batched(engine, spec, SEEDS, max_attempts=5)
        for t, s in enumerate(SEEDS):
            seq, attempts = self.sequential_las_vegas(engine, spec, s, 5)
            assert bool(batch.ok[t]) == seq.ok
            assert int(batch.attempts[t]) == attempts
            assert np.array_equal(batch.colors[t], seq.colors)

    def test_mask_mode_scenario_identical(self):
        engine = CSREngine(Network(configuration_model_regular(200, 16, seed=3)))
        spec = UniformSplittingSpec(eps=0.3, min_constrained_degree=8)
        perts = [CrashNodes(fraction=0.05, at_round=1), IIDMessageDrop(p=0.05)]
        bound = bind_all(perts, engine.network, fault_seed=23)
        faults = DenseFaults(engine, bound)
        batch = uniform_splitting_batched(engine, spec, SEEDS, faults=faults)
        for t, s in enumerate(SEEDS):
            seq, attempts = self.sequential_las_vegas(engine, spec, s, 64, faults)
            assert bool(batch.ok[t]) == seq.ok
            assert int(batch.attempts[t]) == attempts
            assert np.array_equal(batch.colors[t], seq.colors)
            assert np.array_equal(batch.crashed[t], seq.crashed)


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
