"""Unit tests for repro.utils.rng."""

import random

import pytest

from repro.utils.rng import CoinTable, as_coin_table, ensure_rng, node_rng, spawn


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


class TestNodeRng:
    def test_pure_function_of_seed_and_id(self):
        assert node_rng(5, 3).random() == node_rng(5, 3).random()

    def test_different_nodes_independent_streams(self):
        assert node_rng(5, 3).random() != node_rng(5, 4).random()

    def test_salt_separates_streams(self):
        assert node_rng(5, 3, "a").random() != node_rng(5, 3, "b").random()

    def test_other_nodes_consumption_is_irrelevant(self):
        a = node_rng(5, 3)
        b = node_rng(5, 4)
        b.random()  # consuming b's bits must not perturb a
        assert a.random() == node_rng(5, 3).random()


class TestSpawn:
    def test_deterministic_given_parent_state(self):
        a = spawn(random.Random(1), "x").random()
        b = spawn(random.Random(1), "x").random()
        assert a == b

    def test_labels_separate(self):
        parent = random.Random(1)
        parent2 = random.Random(1)
        assert spawn(parent, "x").random() != spawn(parent2, "y").random()


class TestCoinTable:
    """The dense backend's coin supply: replay exactness + keyed contract."""

    IDS = [10, 11, 12, 13, 14]

    def test_replay_matches_node_rng_streams(self):
        np = pytest.importorskip("numpy")
        table = CoinTable(7, self.IDS, kind="replay")
        # Interleaved draws across nodes must track each node's own stream.
        a = table.uniforms([0, 2, 4])
        b = table.uniforms([0, 1, 2, 3, 4])
        streams = {uid: node_rng(7, uid) for uid in self.IDS}
        expect_a = [streams[10].random(), streams[12].random(), streams[14].random()]
        expect_b = [streams[uid].random() for uid in self.IDS]
        assert list(a) == expect_a
        assert list(b) == expect_b
        assert a.dtype == np.float64

    def test_replay_uniform_runs_draw_in_port_order(self):
        pytest.importorskip("numpy")
        table = CoinTable(3, self.IDS, kind="replay")
        out = table.uniform_runs([1, 3], [2, 3])
        s1, s3 = node_rng(3, 11), node_rng(3, 13)
        assert list(out) == [s1.random(), s1.random(), s3.random(), s3.random(), s3.random()]

    def test_replay_randints_use_randrange(self):
        pytest.importorskip("numpy")
        table = CoinTable(9, self.IDS, kind="replay")
        out = table.randints([0, 4], [5, 3])
        assert list(out) == [node_rng(9, 10).randrange(5), node_rng(9, 14).randrange(3)]

    def test_keyed_deterministic_per_seed(self):
        pytest.importorskip("numpy")
        a = CoinTable(5, self.IDS).uniforms(range(5))
        b = CoinTable(5, self.IDS).uniforms(range(5))
        c = CoinTable(6, self.IDS).uniforms(range(5))
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_keyed_bounds_and_shapes(self):
        np = pytest.importorskip("numpy")
        table = CoinTable(1, self.IDS)
        u = table.uniforms(range(5))
        assert u.shape == (5,) and ((u >= 0) & (u < 1)).all()
        r = table.randints([0, 1, 2], [1, 4, 7])
        assert r.shape == (3,)
        assert (r >= 0).all() and (r < np.array([1, 4, 7])).all()
        runs = table.uniform_runs([0, 1], [3, 0])
        assert runs.shape == (3,)

    def test_keyed_setup_is_o1(self):
        # The whole point: no per-node generator objects.
        pytest.importorskip("numpy")
        table = CoinTable(0, range(10**7))
        assert table.uniforms([0]).shape == (1,)

    def test_unknown_kind_rejected(self):
        pytest.importorskip("numpy")
        with pytest.raises(ValueError):
            CoinTable(0, self.IDS, kind="sha512")

    def test_as_coin_table_passthrough_and_coercion(self):
        pytest.importorskip("numpy")
        table = CoinTable(2, self.IDS, kind="replay")
        assert as_coin_table(table, 99, []) is table
        made = as_coin_table("keyed", 2, self.IDS)
        assert isinstance(made, CoinTable) and made.kind == "keyed"
