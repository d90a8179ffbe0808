"""The benchmark's three workloads.

Each workload has ``setup(seed, spans)`` returning a state, then per trial
``solve(state, k, spans)`` and ``check(state, outputs, spans)``.  ``check``
judges the outputs with the program's own validity functions, never with
golden values, and returns ``(ok, counts, times)``: ``counts`` are exact
integers (or ledger rounds) that repeat for a fixed seed, ``times`` are
per-trial durations the program reports about itself.  Every span name is
a per-layer metric (``<span>_s``); see README.md for the layer table.

Only ``method="dense"`` and the message-passing engine are used, with the
default coins: ROADMAP item 3 deletes the other coin kinds and folds
``dense-batched``/``dense-sharded`` into one ``shards=`` option, so this
file calls nothing it plans to remove.  ``fault_mode="mask"`` is passed
only while ``run_scenario`` still has that parameter.
"""

from __future__ import annotations

import inspect
import random

from repro.bipartite import random_left_regular, random_sparse_graph
from repro.bipartite.instance import BipartiteInstance
from repro.core import solve_weak_splitting
from repro.local import CSREngine, Network, RoundLedger
from repro.mis import is_mis, luby_mis
from repro.orientation import is_sinkless, run_trial_and_fix
from repro.scenarios import run_scenario


def derive(seed: int, *path) -> int:
    """A non-negative seed drawn from ``seed`` and a label path."""
    return random.Random(":".join(map(str, (seed,) + path))).randrange(2**31)


def trial_seed(seed: int, k: int) -> int:
    """Seed of timed trial ``k``: always even, so no warm-up seed collides."""
    return 2 * derive(seed, "trial", k)


def warmup_seed(seed: int) -> int:
    return 2 * derive(seed, "warmup") + 1


# Minimum degree of the sinkless orientation in ``sparse-dense``.
MIN_DEGREE = 3

# Instances per family in ``det-splitting``'s pool.  Odd, so traced (even k)
# and untraced (odd k) trials run the same mix of instances.
POOL = 3


class SparseDense:
    """Luby MIS and sinkless orientation with the dense kernels on one big graph."""

    name = "sparse-dense"
    setups = 2

    def __init__(self, n: int = 50_000, degree: float = 20):
        self.n, self.degree = n, degree

    def setup(self, seed, spans):
        with spans.span("bipartite.generate"):
            adj = random_sparse_graph(self.n, self.degree, seed=derive(seed, "graph"))
        with spans.span("local.network"):
            network = Network(adj)
        with spans.span("local.pack"):
            engine = CSREngine(network)
        return {
            "seed": seed, "adj": adj, "engine": engine,
            "counts": {"graph.m": sum(map(len, adj)) // 2},
        }

    def solve(self, st, k, spans):
        seed = trial_seed(st["seed"], k)
        with spans.span("mis.luby"):
            mis, mis_rounds = luby_mis(st["adj"], seed=seed, method="dense", engine=st["engine"])
        with spans.span("orientation.sinkless"):
            orientation, rounds = run_trial_and_fix(
                st["adj"], min_degree=MIN_DEGREE, seed=seed, method="dense",
                engine=st["engine"],
            )
        return {"mis": mis, "mis_rounds": mis_rounds, "orientation": orientation,
                "orientation_rounds": rounds}

    def check(self, st, out, spans):
        with spans.span("verify.is_mis"):
            ok = is_mis(st["adj"], out["mis"])
        with spans.span("verify.is_sinkless"):
            ok = is_sinkless(st["adj"], out["orientation"], min_degree=MIN_DEGREE) and ok
        counts = {
            "mis.rounds": out["mis_rounds"],
            "mis.size": len(out["mis"]),
            "orientation.rounds": out["orientation_rounds"],
        }
        return ok, counts, {}


# (scenario, backend) cells of one faults-recover trial.
CELLS = (
    ("luby/crash", "engine"),
    ("luby/byzantine", "engine"),
    ("luby/crash-correlated", "dense"),
    ("luby/byzantine", "dense"),
    ("sinkless/crash", "dense"),
    ("sinkless/byzantine", "dense"),
    ("splitting/drop-iid", "dense"),
    ("splitting/byzantine", "dense"),
)


def cell_name(scenario: str, backend: str) -> str:
    """``luby/byzantine`` on ``engine`` -> ``luby-byzantine.engine``."""
    return f"{scenario.replace('/', '-')}.{backend}"


class FaultsRecover:
    """Registered fault scenarios with the self-stabilizing repair tail.

    Setup is one untimed warm-up trial on a seed outside the timed list.
    """

    name = "faults-recover"
    setups = 1

    def __init__(self, n: int = 5000):
        self.n = n
        self.options = {"recover": True, "return_state": True}
        if "fault_mode" in inspect.signature(run_scenario).parameters:
            self.options["fault_mode"] = "mask"

    def setup(self, seed, spans):
        st = {"seed": seed, "graph_seed": derive(seed, "graph"), "counts": {}}
        self._run(st, warmup_seed(seed), spans)
        return st

    def _run(self, st, seed, spans):
        results = []
        for scenario, backend in CELLS:
            with spans.span("scenarios." + cell_name(scenario, backend)):
                metrics, state = run_scenario(
                    scenario, n=self.n, seed=seed, graph_seed=st["graph_seed"],
                    backend=backend, **self.options,
                )
            results.append((scenario, backend, metrics, state["settles"]))
        return results

    def solve(self, st, k, spans):
        return self._run(st, trial_seed(st["seed"], k), spans)

    def check(self, st, out, spans):
        ok = True
        counts = {}
        times = {"scenarios.setup_s": 0.0, "scenarios.solve_s": 0.0}
        for scenario, backend, metrics, settles in out:
            # Never-settling schedules only promise best-effort repair.
            if settles and metrics["violations"] != 0:
                ok = False
            cell = "scenarios." + cell_name(scenario, backend)
            counts[cell + ".rounds"] = metrics["rounds"]
            counts[cell + ".repair_rounds"] = metrics["repair_rounds"]
            counts[cell + ".violations_before"] = metrics["violations_before_recovery"]
            times["scenarios.setup_s"] += metrics["setup_seconds"]
            times["scenarios.solve_s"] += metrics["solve_seconds"]
        return ok, counts, times


def _internals():
    """Public functions inside ``solve_weak_splitting`` wrapped in traced trials."""
    from repro.coloring import distance
    from repro.core import reduction, verifiers
    from repro.derand import conditional
    from repro.orientation import degree_splitting

    return (
        (distance, "power_graph", "coloring.power_graph"),
        (conditional, "greedy_minimize", "derand.greedy_minimize"),
        (degree_splitting, "directed_degree_splitting", "orientation.degree_splitting"),
        (reduction, "degree_rank_reduction_one", "core.reduction"),
        (BipartiteInstance, "subgraph", "bipartite.subgraph"),
        (verifiers, "is_weak_splitting", "verify.is_weak_splitting"),
    )


class DetSplitting:
    """Theorem 2.5's deterministic weak splitting on a low- and a high-degree instance.

    ``low`` (δ=40) takes the Lemma 2.2 path: B² power-graph coloring plus
    the conditional-expectation greedy.  ``high`` (δ=500 > 48 log n) first
    runs the degree-rank reduction through Eulerian degree splitting.
    """

    name = "det-splitting"
    setups = 3

    def __init__(self, low=(2000, 2000, 40), high=(250, 750, 500)):
        self.low, self.high = low, high

    def setup(self, seed, spans):
        with spans.span("bipartite.generate"):
            lows = [random_left_regular(*self.low, seed=derive(seed, "low", i))
                    for i in range(POOL)]
            highs = [random_left_regular(*self.high, seed=derive(seed, "high", i))
                     for i in range(POOL)]
        m = sum(inst.n_edges for inst in lows + highs)
        return {"lows": lows, "highs": highs, "counts": {"graph.m": m}}

    def solve(self, st, k, spans):
        out = {"ledger_rounds": 0.0}
        with spans.wrap(_internals()):
            for family in ("low", "high"):
                inst = st[family + "s"][k % POOL]
                ledger = RoundLedger()
                with spans.span("core.solve_" + family):
                    coloring = solve_weak_splitting(
                        inst, method="deterministic", ledger=ledger, verify=True,
                    )
                out[family] = (inst, coloring)
                out["ledger_rounds"] += ledger.total
        return out

    def check(self, st, out, spans):
        # solve_weak_splitting(verify=True) raised already if a coloring is
        # not a weak splitting; here only its shape is left to check.
        ok = all(len(coloring) == inst.n_right for inst, coloring in (out["low"], out["high"]))
        return ok, {"core.ledger_rounds": out["ledger_rounds"]}, {}


WORKLOADS = {w.name: w for w in (SparseDense, FaultsRecover, DetSplitting)}

END_TO_END = (
    ("setup_s", "s"),
    ("trial_p50_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    [(name + "_s", "s") for name in (
        "bipartite.generate", "local.network", "local.pack",
        "mis.luby", "orientation.sinkless", "verify.is_mis", "verify.is_sinkless",
    )]
    + [("scenarios." + cell_name(*cell) + "_s", "s") for cell in CELLS]
    + [("scenarios.setup_s", "s"), ("scenarios.solve_s", "s")]
    + [(name + "_s", "s") for name in (
        "core.solve_low", "core.solve_high",
        "coloring.power_graph", "derand.greedy_minimize", "orientation.degree_splitting",
        "core.reduction", "bipartite.subgraph", "verify.is_weak_splitting",
    )]
    + [(name, "count") for name in (
        "graph.m", "mis.rounds", "mis.size", "orientation.rounds",
    )]
    + [("scenarios." + cell_name(*cell) + "." + count, "count")
       for cell in CELLS for count in ("rounds", "repair_rounds", "violations_before")]
    + [("core.ledger_rounds", "count")]
    + [("obs.unattributed_frac", "ratio"), ("obs.trace_overhead_frac", "ratio")]
)
