"""Smoke test of the benchmark at tiny size: schema, names, units, repeatability.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
There are no timing bounds here; timings are only checked to be present.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from harness import Checker, run_setup, timed_run  # noqa: E402
from tracing import TIMED  # noqa: E402
from workloads import COLLISION_PROBE, WORKLOADS  # noqa: E402

SEED = 3
SCALE = 0.1


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--scale", str(SCALE), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results():
    return {
        (w, trace): [bench(w, trace), bench(w, trace)] for w in WORKLOADS for trace in (0, 1)
    }


def test_manifest_matches_the_code(manifest):
    assert manifest == run.manifest()


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(results, manifest, workload, trace):
    expected = manifest["per_layer" if trace else "end_to_end"]
    for result in results[(workload, trace)]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected
        }
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(results, workload):
    first, second = results[(workload, 1)]
    counts = {n for n in first["metrics"] if n not in TIMED}
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    e2e = [r["metrics"]["artifact_bytes"] for r in results[(workload, 0)]]
    assert e2e[0] == e2e[1]


def test_layer_predictions_hold_at_tiny_size(results):
    def layer(workload, name):
        return results[(workload, 1)][0]["metrics"][name]["value"]

    assert layer("sparse-literal", "assignment.calls") == 0
    assert layer("dense-bipartite", "assignment.calls") > 0
    for workload in ("sparse-literal", "dense-bipartite"):
        assert layer(workload, "report.rescore_calls") == layer(workload, "integrate.pairs")


def test_a_broken_artifact_fails_the_run_with_its_reason(tmp_path):
    workload = WORKLOADS["sparse-literal"]
    inputs = tmp_path / "inputs"
    assert run_setup(workload, SEED, SCALE, inputs).exit_code == 0
    checker = Checker(workload, inputs)
    good = timed_run(workload, inputs, tmp_path / "good")
    assert checker.check(tmp_path / "good", good.digests) == []

    bad_dir = tmp_path / "bad"
    bad = timed_run(workload, inputs, bad_dir)
    (bad_dir / "cm_r.json").write_text('{"system": "x", "components": [1]}\n', encoding="utf-8")
    from harness import tree_digests

    problems = checker.check(bad_dir, tree_digests(bad_dir))
    assert any("artifacts differ" in p and "cm_r.json" in p for p in problems)
    assert any(p.startswith("cm_r.json does not parse back") for p in problems)


def test_every_failed_run_is_reported_with_a_reason(tmp_path):
    result = run.measure_untraced(COLLISION_PROBE, SEED, 0, 1.0, tmp_path)
    # with no measuring window only the warm-up and the minimum runs are
    # attempted; the set-ups are counted apart from them
    assert result["attempted"] == run.WARMUP_RUNS + run.MIN_RUNS
    assert result["setups"] >= run.SETUPS
    assert len(result["failures"]) >= result["failed"]
    assert all(line.split(": ", 1)[1] for line in result["failures"])
    assert result["end_to_end"]["failed_ratio"]["median"] == result["failed"] / result["attempted"]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    copy = tmp_path / "bare" / "benchmarks"
    copy.mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sparse-literal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy.parent, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
