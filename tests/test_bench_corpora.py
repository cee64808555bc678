"""Byte-identical artifacts on the benchmark's seed-1 corpora.

The benchmark generates its own corpora (benchmarks/corpus.py) and runs
the commands of each workload (benchmarks/workloads.py) on them. This
test generates the same seed-1 corpora, runs the same commands in
process, and pins the sha256 of every artifact, so a change that moves
one byte of them fails in tier-1 and not only in a hand run.

Both benchmark modules are imported as they are; harness.py is not,
since it needs Python 3.11.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

import pytest

from cmfuse.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from corpus import generate  # noqa: E402
from workloads import PIPELINE, WORKLOADS  # noqa: E402

SEED = 1

# sha256 of each workload's artifacts: the pipeline's files, or for the
# replay the alignment.json its set-up pipeline writes, the files merge
# writes from it, and report's stdout in text and in JSON
GOLDEN = {
    "sparse-literal": {
        "alignment.json": "d1b3f067b50fdf550e591f1d9e45b3499a65c16d1bc71fafdf0b9d4a0b3be9e3",
        "ocm_r.json": "f9228669c451a2237f428db4522dc042a3e0e1e812bfaf904171e1e26bdda658",
        "cm_r.json": "3a8344e8b7ba42bfe9d98aa5350bfc578b85215bb9d297e685af9a655cf19bb7",
        "report.txt": "eda414df7a60a546ac8baaf74abb7c4874948ce2d3044d7618b8380b4be558d9",
    },
    "dense-bipartite": {
        "alignment.json": "0f936f1c8af2a69e02c74d694793012c0610bd2b42fc44651f7c98053ce7e1d8",
        "ocm_r.json": "3ddb411593214fe41d18ac18bdc973c12d26d52e45efb04c1dca13924727d5d5",
        "cm_r.json": "8b9709e9be8401740f9d05d1ee950f4dd12fa448433298f86dea2282fb6ffd18",
        "report.txt": "3792d0ad96050219915edb0b832909eb8cf56c57cebd6826e2d9f605107ffd89",
    },
    "consolidate-replay": {
        "alignment.json": "0c2a0983ac034da1c79bb8844a0021b7c74d2c3a0dcb73efa9cbabe02bdc2340",
        "ocm_r.json": "634c97ff0c8de5cd196609be2b8596e9fa2fc71873a7653696d158a7d6fca62e",
        "cm_r.json": "440f72a5d2acd6511508b023fbdc12bffed8e7c55cf57f8a5b30db8198b6bae3",
        "report text": "fb8d8be7d5868089612f0d215ff93800d62baceaecb291ce12c9b1c290d6bd08",
        "report json": "713c54fb2d5e86b0b9426cad909e8eb8aa0ac52b0cdd6da3fe550aab7b341be2",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifacts(name: str, directory: Path, capsys) -> dict[str, str]:
    workload = WORKLOADS[name]
    # the seed that benchmarks/harness.py gives each workload's corpus
    rng = random.Random(f"cmfuse-bench/{name}/{SEED}")
    inputs = directory / "inputs"
    generate(workload.shape, rng).write(inputs)
    out = directory / "out"
    if workload.kind == PIPELINE:
        assert main(workload.pipeline_argv(inputs, out)) == 0
        names = ("alignment.json", "ocm_r.json", "cm_r.json", "report.txt")
        return {n: _digest((out / n).read_bytes()) for n in names}
    assert main(workload.pipeline_argv(inputs, inputs / "out")) == 0
    (merge_argv, _), (report_argv, _) = workload.timed_commands(inputs, out)
    assert main(merge_argv) == 0
    digests = {"alignment.json": _digest((inputs / "out" / "alignment.json").read_bytes())}
    digests.update((n, _digest((out / n).read_bytes())) for n in ("ocm_r.json", "cm_r.json"))
    for fmt in ("text", "json"):
        capsys.readouterr()
        assert main([*report_argv, "--format", fmt]) == 0
        digests[f"report {fmt}"] = _digest(capsys.readouterr().out.encode("utf-8"))
    return digests


@pytest.mark.parametrize("name", list(GOLDEN))
def test_seed_1_artifacts(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CMFUSE_COLOR", raising=False)
    assert _artifacts(name, tmp_path, capsys) == GOLDEN[name]
