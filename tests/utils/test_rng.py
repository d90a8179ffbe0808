"""Unit tests for repro.utils.rng."""

import random

import pytest

from repro.local import CSREngine, LocalAlgorithm, Network, run_local
from repro.utils.rng import NodeCoins, ensure_rng, keyed_u01, mix64, seed_batch


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_int_is_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()

    def test_generator_passes_through(self):
        rng = random.Random(3)
        assert ensure_rng(rng) is rng


class TestSeedBatch:
    def test_single_seeds_are_batches_of_one(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(3)
        for seed in (None, 7, np.int64(7), rng):
            assert seed_batch(seed) == ([seed], False)

    def test_sequences_are_batches(self):
        assert seed_batch(range(3)) == ([0, 1, 2], True)
        assert seed_batch([5]) == ([5], True)
        assert seed_batch(()) == ([], True)


class TestKeyedU01:
    """The kernels' coin function: a pure hash of (seed, counter, tag)."""

    def test_keyed_deterministic_per_seed(self):
        np = pytest.importorskip("numpy")
        a = keyed_u01(np, mix64(5), range(5), 0)
        b = keyed_u01(np, mix64(5), range(5), 0)
        c = keyed_u01(np, mix64(6), range(5), 0)
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_keyed_bounds_and_shapes(self):
        np = pytest.importorskip("numpy")
        u = keyed_u01(np, mix64(1), range(5), 0)
        assert u.shape == (5,) and u.dtype == np.float64
        assert ((u >= 0) & (u < 1)).all()
        bounds = np.array([1, 4, 7])
        r = (keyed_u01(np, mix64(1), [0, 1, 2], 0) * bounds).astype(np.int64)
        assert (r >= 0).all() and (r < bounds).all()

    def test_keyed_setup_is_o1(self):
        # No per-node state: any counter is drawn directly.
        np = pytest.importorskip("numpy")
        assert keyed_u01(np, mix64(0), [10**7 - 1], 0).shape == (1,)


class _DrawProbe(LocalAlgorithm):
    """Records ``(round, value)`` for one draw in ``init`` and three per round."""

    def init(self, view):
        view.state["draws"] = [(1, view.rng.random())]

    def send(self, view, round_no):
        view.state["draws"] += [(round_no, view.rng.random()) for _ in range(3)]
        view.state["port"] = view.rng.randrange(5)
        return {}

    def receive(self, view, round_no, inbox):
        if round_no == 2:
            view.halted = True


class TestNodeCoins:
    """``NodeView.rng``: draw j of node i in round r is keyed_u01 at (i + j*n, r)."""

    def expected(self, np, seed, i, n):
        # init draws key as round 1 and share round 1's draw counter.
        keys = [(i + j * n, 1) for j in range(4)] + [(i + j * n, 2) for j in range(3)]
        return [(r, float(keyed_u01(np, mix64(seed), [c], r)[0])) for c, r in keys]

    @pytest.mark.parametrize("executor", ["reference", "engine"])
    def test_executor_draws_match_keyed_u01(self, executor):
        np = pytest.importorskip("numpy")
        net = Network([[1], [0, 2], [1], []])
        if executor == "reference":
            result = run_local(net, _DrawProbe(), seed=9)
        else:
            result = CSREngine(net).run(_DrawProbe(), seed=9)
        n = net.n
        for i, view in enumerate(result.views):
            assert view.state["draws"] == self.expected(np, 9, i, n)
            # randrange(k) is floor(u * k) on round 2's fourth draw (j = 3).
            u = float(keyed_u01(np, mix64(9), [i + 3 * n], 2)[0])
            assert view.state["port"] == int(u * 5)

    def test_other_nodes_consumption_is_irrelevant(self):
        clock = [1]
        a = NodeCoins(mix64(5), 3, 10, clock)
        b = NodeCoins(mix64(5), 4, 10, clock)
        b.random()  # consuming b's draws must not perturb a
        assert a.random() == NodeCoins(mix64(5), 3, 10, clock).random()

    def test_draw_counter_restarts_each_round(self):
        clock = [1]
        coins = NodeCoins(mix64(2), 0, 4, clock)
        first = coins.random()
        coins.random()
        clock[0] = 2
        fresh = NodeCoins(mix64(2), 0, 4, clock)
        assert coins.random() == fresh.random() != first

    def test_pure_function_of_seed_and_index(self):
        a = NodeCoins(mix64(5), 3, 10, [1])
        b = NodeCoins(mix64(5), 3, 10, [1])
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_nodes_independent_streams(self):
        clock = [1]
        assert NodeCoins(mix64(5), 3, 10, clock).random() != NodeCoins(
            mix64(5), 4, 10, clock
        ).random()

    def test_seed_separates_streams(self):
        clock = [1]
        assert NodeCoins(mix64(5), 3, 10, clock).random() != NodeCoins(
            mix64(6), 3, 10, clock
        ).random()

    def test_round_draws_match_keyed_u01_vector(self):
        # One round of two draws per node is two keyed_u01 calls over all nodes.
        np = pytest.importorskip("numpy")
        n, clock = 6, [3]
        streams = [NodeCoins(mix64(11), i, n, clock) for i in range(n)]
        first = [s.random() for s in streams]
        second = [s.random() for s in streams]
        assert first == list(keyed_u01(np, mix64(11), range(n), 3))
        assert second == list(keyed_u01(np, mix64(11), range(n, 2 * n), 3))

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_randrange_is_floor_of_uniform(self, k):
        clock = [1]
        for i in range(20):
            u = NodeCoins(mix64(4), i, 20, clock).random()
            d = NodeCoins(mix64(4), i, 20, clock).randrange(k)
            assert d == int(u * k) and 0 <= d < k
