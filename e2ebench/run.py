"""End-to-end benchmark of the splitting reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload sparse-dense --seed 1 --seconds 18 --trace 0

Workloads: ``sparse-dense``, ``faults-recover``, ``det-splitting`` (see
README.md for why each exists).  Each is a closed loop with one client in
this one process: set up (several times, reporting the median), then run
trials back to back until ``--seconds`` have passed.  Every trial's outputs
are checked; a trial that raises or fails its check is counted as failed
and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run that records spans around the program's calls on every other trial
and prints the per-layer metrics instead; the spans are written to
``e2ebench_out/`` when the run ends.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from spans import NULL_SPANS, Spans, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "e2ebench_out")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``workload``, run timed trials for ``seconds``, return the raw result."""
    spans = Spans() if trace else NULL_SPANS
    setup_times = []
    state = None
    for i in range(workload.setups):
        state = None
        gc.collect()
        if trace:
            spans.unit = f"setup{i}"
        start = time.perf_counter()
        with spans.span("setup"):
            state = workload.setup(seed, spans)
        setup_times.append(time.perf_counter() - start)

    durations = {True: [], False: []}  # traced?, trial durations
    counts = dict(state["counts"])
    times = {}
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        k = attempted
        traced = trace and k % 2 == 0
        if traced:
            spans.unit = f"trial{k}"
        trial_spans = spans if traced else NULL_SPANS
        t0 = time.perf_counter()
        ok, trial_counts, trial_times = _attempt(workload, state, k, trial_spans)
        durations[traced].append(time.perf_counter() - t0)
        attempted += 1
        failed += not ok
        if k == 0:
            counts.update(trial_counts)
        if traced:
            for name, value in trial_times.items():
                times.setdefault(name, []).append(value)
    wall = time.perf_counter() - start
    return {
        "attempted": attempted,
        "failed": failed,
        "setup_times": setup_times,
        "durations": durations,
        "wall": wall,
        "counts": counts,
        "times": times,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _attempt(workload, state, k, spans):
    # The benchmark's boundary: any exception is one failed trial.
    try:
        with spans.span("trial"):
            out = workload.solve(state, k, spans)
            return workload.check(state, out, spans)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, {}, {}


def end_to_end_metrics(raw: dict) -> dict:
    trials = raw["durations"][False]
    return {
        "setup_s": statistics.median(raw["setup_times"]),
        "trial_p50_s": statistics.median(trials),
        "trials_per_s": (raw["attempted"] - raw["failed"]) / raw["wall"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(raw: dict, catalogue) -> dict:
    """Median self time per layer over traced trials (or over setups, for
    layers that only run in setup), trial-0 counts, and the two ``obs.`` ratios."""
    by_unit = self_times(raw["spans"].records)
    trial_units = [u for u in by_unit if u.startswith("trial")]
    setup_units = [u for u in by_unit if u.startswith("setup")]
    values = {}
    for name, unit in catalogue:
        if unit != "s":
            continue
        layer = name[:-2]
        if name in raw["times"]:
            values[name] = statistics.median(raw["times"][name])
            continue
        for units in (trial_units, setup_units):
            seen = [by_unit[u][layer] for u in units if layer in by_unit[u]]
            if seen:
                values[name] = statistics.median(seen)
                break
    values.update(raw["counts"])
    traced, untraced = raw["durations"][True], raw["durations"][False]
    values["obs.unattributed_frac"] = statistics.median(
        by_unit[u]["trial"] / d for u, d in zip(trial_units, traced)
    )
    values["obs.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0 if untraced else 0.0
    )
    return {name: values.get(name, 0.0) for name, unit in catalogue}


def result_line(raw: dict, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def stamp() -> dict:
    """What a claim must be re-checked against: interpreter, numpy, cores, commit."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _git_commit():
    """HEAD's commit read from ``.git`` directly; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over ``src/``'s Python files, naming the code where git cannot."""
    digest = hashlib.sha256()
    for dirpath, _dirnames, filenames in sorted(os.walk(SRC)):
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    info = stamp()
    print("# stamp " + json.dumps(info))
    raw = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))

    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = (per_layer_metrics(raw, catalogue) if args.trace else end_to_end_metrics(raw))
    units = dict(catalogue)
    for name, value in metrics.items():
        print(f"{args.workload:15s} {name:45s} {value:14.6g} {units[name]}")
    failed_frac = raw["failed"] / raw["attempted"]
    print(f"{args.workload:15s} {'failed_frac':45s} {failed_frac:14.6g} ratio"
          f"  ({raw['failed']} of {raw['attempted']} trials failed)")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        raw["spans"].write(path, dict(info, workload=args.workload, seed=args.seed))
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    print(result_line(raw, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
