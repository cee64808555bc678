"""Seeded, offline benchmark of the cmfuse command line.

One workload, one seed:

    python3 benchmarks/run.py --workload sparse-literal --seed 1 --seconds 30 --trace 0

sets the workload up in a child process, then runs the timed cmfuse
commands as fresh child processes, one at a time, until ``--seconds``
have passed, repeating the set-up between runs (``setup_s`` is the
median set-up) and checking every run's output. It prints a table of
the metrics with quartiles and sample counts, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` instead alternates untraced and traced
in-process runs of ``cmfuse.cli.main`` and reports the per-layer
metrics, the tracing overhead and three micro-timings.

Everything at once:

    python3 benchmarks/run.py --all --label baseline

runs every workload untraced and traced, a sparse-literal scaling sweep
and the known-defect probe, prints every metric per workload and writes
``benchmarks/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    WORK,
    Checker,
    MissingSource,
    Verifier,
    last_line,
    require_source,
    run_setup,
    setup_into,
    timed_run,
    tree_digests,
)
from tracing import LAYER_UNITS, TIMED, Tracer, layer_metrics, micro_timings  # noqa: E402
from workloads import COLLISION_PROBE, PIPELINE, WORKLOADS  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"

# an untraced measurement sets up at least SETUPS times and, while set-up
# is cheap, until SETUP_BUDGET_S have been spent, so that its median is steady
SETUPS = 3
SETUP_BUDGET_S = 2.0
MAX_SETUPS = 20
MIN_RUNS = 3
# the first timed run of each measurement warms the page cache and the
# processor; it is checked and counted as attempted but not reported
WARMUP_RUNS = 1
SCALING_PER_SIDE = (10, 40, 160)
ROADMAP_BASELINE = {"per_side": 80, "members": 8, "align_s": 0.86, "render_s": 0.90}

# reported with --trace 0 and bounded in BENCHMARK.json. cmfuse runs in
# one thread, so its processor time (cpu_s) equals its wall time on an
# idle machine but, unlike wall time, does not grow while other tenants
# of a shared machine keep it off the processor. Both still drift by a
# few percent with the machine's speed, which sets the time bounds.
END_TO_END = {
    "run_s": ("s", "lower", 0.2),
    "cpu_s": ("s", "lower", 0.2),
    "pairs_per_s": ("1/s", "higher", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "artifact_bytes": ("bytes", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}
# failed runs / attempted runs; printed and recorded, but it is zero on a
# healthy run, so it travels as "attempted"/"failed" in the result line
FAILED_RATIO = ("failed_ratio", "ratio")
HIGHER_IS_BETTER = {
    "transform.anchored_ratio",
    "similarity.hit_ratio",
    "similarity.synonym_ratio",
}


def manifest() -> dict:
    """The content of BENCHMARK.json, derived from the definitions above."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
            }
            for name, unit in LAYER_UNITS.items()
        ],
    }


def summarize(values: list[float], unit: str) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class SetUps:
    """Repeated set-ups of one workload and seed; every one must write the same inputs."""

    def __init__(self, workload, seed: int, scale: float, work: Path, tally):
        self.workload, self.seed, self.scale, self.work, self.tally = workload, seed, scale, work, tally
        self.inputs = work / "setup0"
        self.count = 0
        self.spent = 0.0
        self.first: dict | None = None

    def wanted(self) -> bool:
        return self.count < SETUPS or (self.spent < SETUP_BUDGET_S and self.count < MAX_SETUPS)

    def run(self) -> float:
        """One set-up in a child process; returns its wall time. The first copy is kept."""
        directory = self.work / f"setup{self.count}"
        child = run_setup(self.workload, self.seed, self.scale, directory)
        problems = []
        if child.exit_code != 0:
            problems.append(f"set-up exited {child.exit_code}: {last_line(child.stderr)}")
        digests = tree_digests(directory)
        if (directory / "out").is_dir():
            digests.update({f"out/{n}": d for n, d in tree_digests(directory / "out").items()})
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            problems.append("set-up wrote different inputs for one seed")
        self.tally.setup(child.seconds, problems)
        if self.count:
            shutil.rmtree(directory)
        self.count += 1
        self.spent += child.seconds
        return child.seconds


class Tally:
    """Timed runs and their failures.

    ``attempted`` and ``failed`` count timed runs only. Set-ups and checks
    across runs are kept apart: a failed one (``faults``) makes the
    measurement incorrect without counting as a run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.setups = 0
        self.faults = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []

    def run(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{what} {self.attempted}: {p}" for p in problems]

    def setup(self, seconds: float, problems: list[str]):
        self.setups += 1
        self.setup_s.append(seconds)
        self.fault(f"set-up {self.setups}", problems)

    def fault(self, what: str, problems: list[str]):
        if problems:
            self.faults += 1
            self.failures += [f"{what}: {p}" for p in problems]

    def json(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            FAILED_RATIO[0]: self.failed / self.attempted,
            "setups": self.setups,
            "faults": self.faults,
            "failures": self.failures,
        }


def measure_untraced(workload, seed: int, seconds: float, scale: float, work: Path) -> dict:
    """End-to-end metrics from child-process runs."""
    tally = Tally()
    setups = SetUps(workload, seed, scale, work, tally)
    setups.run()
    out = {"workload": workload.name, "seed": seed, "scale": scale}
    if tally.faults:
        tally.run("run", ["not started: the set-up failed"])
        return {**out, **tally.json(), "end_to_end": {}}
    checker = Checker(workload, setups.inputs)
    samples = []
    start = time.perf_counter()
    while len(samples) < WARMUP_RUNS + MIN_RUNS or time.perf_counter() - start < seconds:
        run_dir = work / f"run{len(samples)}"
        sample = timed_run(workload, setups.inputs, run_dir)
        sample.problems += checker.check(run_dir, sample.digests)
        tally.run("run", sample.problems)
        samples.append(sample)
        shutil.rmtree(run_dir)
        if setups.wanted():
            # set-ups are spread over the window so that they meet the same
            # machine state as the runs; their time does not use up the window
            start += setups.run()
    samples = samples[WARMUP_RUNS:]
    series = {
        "run_s": [s.run_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "pairs_per_s": [checker.pairs / s.run_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "artifact_bytes": [s.artifact_bytes for s in samples],
        "setup_s": tally.setup_s,
    }
    metrics = {name: summarize(series[name], END_TO_END[name][0]) for name in END_TO_END}
    result = tally.json()
    metrics[FAILED_RATIO[0]] = {
        "unit": FAILED_RATIO[1],
        "median": result.pop(FAILED_RATIO[0]),
        "n": tally.attempted,
    }
    return {**out, **result, "pairs": checker.pairs, "digests": checker.reference, "end_to_end": metrics}


def _in_process_run(workload, inputs: Path, out: Path, tracer: Tracer | None) -> tuple[float, list[str]]:
    import cmfuse.cli

    out.mkdir(parents=True)
    logs = out.parent / f"{out.name}.logs"
    logs.mkdir()
    problems = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, (args, stdout_name) in enumerate(workload.timed_commands(inputs, out)):
            stdout_path = out / stdout_name if stdout_name else logs / f"{i}.out"
            with open(stdout_path, "w", encoding="utf-8") as sink, open(
                logs / f"{i}.err", "w", encoding="utf-8"
            ) as err, redirect_stdout(sink), redirect_stderr(err):
                if tracer is None:
                    code = cmfuse.cli.main(args)
                else:
                    code = tracer.run("cli.main", lambda: cmfuse.cli.main(args))
            if code != 0:
                problems.append(f"cmfuse {args[0]} returned {code}")
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return seconds, problems


def measure_traced(workload, seed: int, seconds: float, scale: float, work: Path) -> dict:
    """Per-layer metrics from alternating untraced and traced in-process runs."""
    tally = Tally()
    setups = SetUps(workload, seed, scale, work, tally)
    setups.run()
    inputs = setups.inputs
    out = {"workload": workload.name, "seed": seed, "scale": scale}
    if tally.faults:
        tally.run("run", ["not started: the set-up failed"])
        return {**out, **tally.json(), "per_layer": {}, "missing": []}
    checker = Checker(workload, inputs)
    untraced: list[float] = []
    runs: list[dict] = []
    missing: list[str] = []
    start = time.perf_counter()
    index = 0
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        for tracer in (None, Tracer()):
            run_dir = work / f"run{index}"
            index += 1
            run_s, problems = _in_process_run(workload, inputs, run_dir, tracer)
            problems += checker.check(run_dir, tree_digests(run_dir))
            tally.run("traced run" if tracer else "run", problems)
            shutil.rmtree(run_dir)
            if tracer is None:
                untraced.append(run_s)
            else:
                runs.append(layer_metrics(tracer, run_s))
                missing = tracer.missing
    per_layer = {}
    for name, value in runs[0].items():
        values = [r[name] for r in runs]
        if name in TIMED:
            per_layer[name] = summarize(values, LAYER_UNITS[name])
        else:
            if len(set(values)) != 1:
                tally.fault("traced runs", [f"count {name} differs between them: {values}"])
            per_layer[name] = {"unit": LAYER_UNITS[name], "value": values[0], "n": len(values)}
    ratio = statistics.median(r["trace.run_s"] for r in runs) / statistics.median(untraced)
    per_layer["trace.overhead_ratio"] = {"unit": "ratio", "median": ratio, "n": len(runs)}
    domain = (inputs / "domain.json").read_text(encoding="utf-8")
    for name, value in micro_timings(domain, seed).items():
        per_layer[name] = {"unit": LAYER_UNITS[name], "median": value, "n": 1}
    return {**out, **tally.json(), "missing": missing, "per_layer": per_layer}


def value_of(entry: dict) -> float:
    return entry["value"] if "value" in entry else entry["median"]


def _fmt(entry: dict) -> str:
    if "value" in entry:
        return f"{entry['value']:>14.6g}   (exact, n={entry['n']})"
    if "q1" in entry:
        return f"{entry['median']:>14.6g}   [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}] n={entry['n']}"
    return f"{entry['median']:>14.6g}   n={entry['n']}"


def print_rows(by_workload: dict[str, dict], key: str):
    names = list(dict.fromkeys(n for r in by_workload.values() for n in r.get(key, {})))
    for name in names:
        for workload, result in by_workload.items():
            entry = result.get(key, {}).get(name)
            if entry is not None:
                print(f"{name:<32} {entry['unit']:<6} {workload:<20} {_fmt(entry)}")


def result_line(result: dict, key: str, names) -> str:
    metrics = {
        name: {"value": value_of(result[key][name]), "unit": result[key][name]["unit"]}
        for name in names
        if name in result[key]
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0 and result["faults"] == 0 and len(metrics) == len(names),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _report_failures(result: dict):
    for line in result["failures"]:
        print(f"FAILED {result['workload']}: {line}")
    for name in result.get("missing", []):
        print(f"missing traced name {name}: its calls read zero")


def _in_workdir(tag: str, measure, *args):
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(*args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()


def single(args) -> int:
    workload = WORKLOADS[args.workload]
    measure, key, names = (
        (measure_traced, "per_layer", list(LAYER_UNITS))
        if args.trace
        else (measure_untraced, "end_to_end", list(END_TO_END))
    )
    result = _in_workdir(workload.name, measure, workload, args.seed, args.seconds, args.scale)
    print(
        f"workload {workload.name}, seed {args.seed}: {result['attempted']} runs attempted,"
        f" {result['failed']} failed; {result['setups']} set-ups, {result['faults']} set-up or cross-run faults"
    )
    _report_failures(result)
    print_rows({workload.name: result}, key)
    for name, sha in (result.get("digests") or {}).items():
        print(f"sha256 {sha}  {name}")
    print(result_line(result, key, names))
    return 0


def _predictions(results: dict) -> dict:
    def layer(workload, name):
        entry = results[workload]["traced"]["per_layer"].get(name)
        return value_of(entry) if entry else None

    pipelines = [w.name for w in WORKLOADS.values() if w.kind == PIPELINE]
    merge_calls = {w: layer(w, "integrate.merge_semantic_calls") for w in results}
    return {
        "assignment_calls_zero_on_sparse_literal": layer("sparse-literal", "assignment.calls") == 0,
        "assignment_calls_positive_on_dense_bipartite": (layer("dense-bipartite", "assignment.calls") or 0) > 0,
        "rescore_calls_equal_pairs": {
            w: layer(w, "report.rescore_calls") == results[w]["untraced"].get("pairs") for w in pipelines
        },
        "merge_semantic_calls_largest_on_consolidate_replay": max(merge_calls, key=lambda w: merge_calls[w] or 0)
        == "consolidate-replay",
    }


def full(args) -> int:
    untraced = {
        w.name: _in_workdir(w.name, measure_untraced, w, args.seed, args.seconds, args.scale)
        for w in WORKLOADS.values()
    }
    sparse = WORKLOADS["sparse-literal"]
    scaling = []
    for per_side in SCALING_PER_SIDE:
        r = _in_workdir(f"scaling-{per_side}", measure_untraced, sparse, args.seed, 0,
                        per_side / sparse.shape.per_side)
        scaling.append(
            {
                "per_side": per_side,
                "pairs": r.get("pairs"),
                "failed": r["failed"],
                **{name: value_of(e) for name, e in r["end_to_end"].items()},
            }
        )
    probe = _in_workdir(COLLISION_PROBE.name, measure_untraced, COLLISION_PROBE, args.seed, 0, 1.0)
    # traced runs come last: they import cmfuse into this process, and a
    # child's reported peak size includes the size of its parent
    results = {
        w.name: {
            "why": w.why,
            "untraced": untraced[w.name],
            "traced": _in_workdir(w.name, measure_traced, w, args.seed, args.seconds, args.scale),
        }
        for w in WORKLOADS.values()
    }

    traced = results["sparse-literal"]["traced"]["per_layer"]
    baseline = {
        "roadmap": ROADMAP_BASELINE,
        "measured": {
            "per_side": sparse.shape.per_side,
            "members": sparse.shape.members,
            "pairs": results["sparse-literal"]["untraced"].get("pairs"),
            "align_s": value_of(traced["integrate.align_s"]),
            "render_s": value_of(traced["report.render_s"]),
            "merge_s": value_of(traced["integrate.merge_s"]),
            "serialize_s": value_of(traced["integrate.serialize_s"]),
            "rescore_calls": value_of(traced["report.rescore_calls"]),
        },
    }
    document = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": results,
        "predictions": _predictions(results),
        "roadmap_baseline": baseline,
        "scaling_sparse_literal": scaling,
        "known_defects": {
            "merge_name_collision": {
                "corpus": COLLISION_PROBE.why,
                "attempted": probe["attempted"],
                "failed": probe["failed"],
                "faults": probe["faults"],
                "failures": probe["failures"],
            }
        },
    }

    print("end-to-end metrics (child processes, tracing off)")
    print_rows({n: r["untraced"] for n, r in results.items()}, "end_to_end")
    print()
    print("per-layer metrics (in-process traced runs)")
    print_rows({n: r["traced"] for n, r in results.items()}, "per_layer")
    for r in results.values():
        _report_failures(r["untraced"])
        _report_failures(r["traced"])
    print()
    print("scaling, sparse-literal (one-off)")
    for row in scaling:
        print(
            f"  N={row['per_side']:<4} pairs={row['pairs']}  run_s={row.get('run_s', float('nan')):.4g}"
            f"  pairs_per_s={row.get('pairs_per_s', float('nan')):.6g}"
            f"  peak_rss_mb={row.get('peak_rss_mb', float('nan')):.4g}  failed={row['failed']}"
        )
    print(f"roadmap baseline: {json.dumps(baseline['measured'])}")
    print(f"layer predictions: {json.dumps(document['predictions'])}")
    print(f"known defect probe: {probe['failed']} of {probe['attempted']} runs failed")
    for line in probe["failures"][:3]:
        print(f"  {line}")
    RESULTS.mkdir(exist_ok=True)
    target = RESULTS / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(document, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {target.relative_to(RESULTS.parent.parent)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help=", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiply every corpus count")
    parser.add_argument("--all", action="store_true", help="every workload, sweep and probe")
    parser.add_argument("--label", default="local", help="names the BENCH_<label>.json of --all")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--verify", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("CMFUSE_COLOR", None)
    try:
        require_source()
        known = {**WORKLOADS, COLLISION_PROBE.name: COLLISION_PROBE}
        if args.setup_into is not None:
            return setup_into(known[args.workload], args.seed, args.scale, args.setup_into)
        if args.verify is not None:
            print(json.dumps(Verifier(known[args.workload], args.inputs).verify(args.verify)))
            return 0
        if args.all:
            return full(args)
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}, or use --all")
        return single(args)
    except MissingSource as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
