"""Self-test of the benchmark at tiny sizes.

Run from the repository root with either of::

    python3 e2ebench/test_selftest.py
    python3 -m pytest -q e2ebench/test_selftest.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    DetSplitting,
    FaultsRecover,
    SparseDense,
)

TINY = {
    "sparse-dense": lambda: SparseDense(n=2000, degree=8),
    "faults-recover": lambda: FaultsRecover(n=300),
    "det-splitting": lambda: DetSplitting(low=(300, 300, 40), high=(50, 600, 500)),
}

# Layers each workload must exercise (self time > 0 in a traced run).
EXERCISED = {
    "sparse-dense": ("bipartite.generate_s", "local.network_s", "local.pack_s", "mis.luby_s",
                     "orientation.sinkless_s", "verify.is_mis_s", "verify.is_sinkless_s"),
    "faults-recover": tuple(name for name, unit in PER_LAYER
                            if name.startswith("scenarios.") and unit == "s"),
    "det-splitting": ("bipartite.generate_s", "core.solve_low_s", "core.solve_high_s",
                      "coloring.power_graph_s", "derand.greedy_minimize_s",
                      "orientation.degree_splitting_s", "core.reduction_s",
                      "bipartite.subgraph_s", "verify.is_weak_splitting_s"),
}


def _run(name, trace, seed=7, seconds=0.0):
    raw = run.run_workload(TINY[name](), seed, seconds, trace)
    if trace:
        return raw, run.per_layer_metrics(raw, PER_LAYER)
    return raw, run.end_to_end_metrics(raw)


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(TINY)


def test_counts_repeat_and_every_metric_is_emitted():
    units = dict(END_TO_END + tuple(PER_LAYER))
    for name in TINY:
        first_raw, first = _run(name, trace=True, seconds=0.3)
        second_raw, second = _run(name, trace=True, seconds=0.0)
        for raw in (first_raw, second_raw):
            assert raw["failed"] == 0, name
        counts = [m for m, unit in PER_LAYER if unit == "count"]
        assert {m: first[m] for m in counts} == {m: second[m] for m in counts}, name
        for layer in EXERCISED[name]:
            assert first[layer] > 0, (name, layer)
        line = json.loads(run.result_line(first_raw, first, units))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert {m: v["unit"] for m, v in line["metrics"].items()} == dict(PER_LAYER)

        raw, e2e = _run(name, trace=False)
        line = json.loads(run.result_line(raw, e2e, units))
        assert {m: v["unit"] for m, v in line["metrics"].items()} == dict(END_TO_END)
        assert all(v["value"] > 0 for v in line["metrics"].values()), (name, line)


class _DropOneMISNode(SparseDense):
    def solve(self, st, k, spans):
        out = super().solve(st, k, spans)
        out["mis"].pop()
        return out


class _Raises(DetSplitting):
    def solve(self, st, k, spans):
        raise RuntimeError("injected")


def test_corrupted_or_raising_trials_are_counted_failed():
    raw = run.run_workload(_DropOneMISNode(n=2000, degree=8), 3, 0.2, False)
    assert raw["attempted"] >= 1 and raw["failed"] == raw["attempted"]
    line = json.loads(run.result_line(raw, run.end_to_end_metrics(raw), dict(END_TO_END)))
    assert line["correct"] is False
    raw = run.run_workload(_Raises(low=(300, 300, 40), high=(50, 600, 500)), 3, 0.0, False)
    assert raw["attempted"] == 1 and raw["failed"] == 1


if __name__ == "__main__":
    for test in (test_benchmark_json_matches_catalogue,
                 test_counts_repeat_and_every_metric_is_emitted,
                 test_corrupted_or_raising_trials_are_counted_failed):
        test()
        print("ok", test.__name__)
