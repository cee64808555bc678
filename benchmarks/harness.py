"""Child processes, workload set-up and the correctness check of every run.

The timed program is the real ``cmfuse`` command line, started with
``python -m cmfuse`` from the checkout's ``src`` directory, one process
at a time. Wall time is taken around the child; its processor time and
peak resident size come from ``os.wait4``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from corpus import SOURCE_A, SOURCE_B, generate, scaled
from workloads import PIPELINE, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_PY = Path(__file__).resolve().parent / "run.py"

CHILD_TIMEOUT_S = 150
MAX_PROBLEMS = 10  # reported per checked run; the rest are counted
SYNONYM_CLASSES = ("synonym_pair", "equivalent")


class MissingSource(RuntimeError):
    pass


def require_source():
    """Make the checkout's cmfuse importable, or fail when there is none."""
    if not (SRC / "cmfuse" / "__init__.py").is_file():
        raise MissingSource(f"no cmfuse sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CMFUSE_COLOR", None)
    return env


@dataclass
class ChildRun:
    seconds: float
    cpu_s: float
    peak_rss_kb: int
    exit_code: int
    stderr: str


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path) -> ChildRun:
    """Run one process to completion; a hung child is killed after CHILD_TIMEOUT_S."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        seconds,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        proc.returncode,
        stderr_path.read_text(encoding="utf-8", errors="replace"),
    )


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def cmfuse_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cmfuse", *args]


def shape_of(workload: Workload, scale: float):
    return workload.shape if scale == 1 else scaled(workload.shape, scale)


def corpus_rng(workload: Workload, seed: int) -> random.Random:
    return random.Random(f"cmfuse-bench/{workload.name}/{seed}")


def setup_into(workload: Workload, seed: int, scale: float, directory: Path) -> int:
    """Write a workload's inputs and planted truth; body of the set-up child.

    For a replay workload it also runs the untimed pipeline whose
    alignment document the timed commands read back.
    """
    require_source()
    import cmfuse.cli

    corpus = generate(shape_of(workload, scale), corpus_rng(workload, seed))
    corpus.write(directory)
    truth = corpus.truth_json()
    truth["a"] = [c["name"] for c in corpus.set_a["components"]]
    truth["b"] = [c["name"] for c in corpus.set_b["components"]]
    (directory / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    if workload.kind == PIPELINE:
        return 0
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        return cmfuse.cli.main(workload.pipeline_argv(directory, directory / "out"))


def run_setup(workload: Workload, seed: int, scale: float, directory: Path) -> ChildRun:
    argv = [
        sys.executable,
        str(RUN_PY),
        "--setup-into",
        str(directory),
        "--workload",
        workload.name,
        "--seed",
        str(seed),
        "--scale",
        repr(scale),
    ]
    directory.mkdir(parents=True)
    return run_child(argv, directory.parent / f"{directory.name}.out", directory.parent / f"{directory.name}.err")


def digest(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def tree_digests(directory: Path) -> dict[str, str]:
    return {p.name: digest(p) for p in sorted(directory.iterdir()) if p.is_file()}


@dataclass
class Sample:
    """One timed run: the workload's cmfuse calls, back to back."""

    run_s: float
    cpu_s: float
    peak_rss_mb: float
    artifact_bytes: int
    digests: dict[str, str]
    problems: list[str] = field(default_factory=list)


def timed_run(workload: Workload, inputs: Path, out: Path) -> Sample:
    out.mkdir(parents=True)
    logs = out.parent / f"{out.name}.logs"
    logs.mkdir()
    total = cpu = 0.0
    peak = 0
    problems = []
    for i, (args, stdout_name) in enumerate(workload.timed_commands(inputs, out)):
        stdout_path = out / stdout_name if stdout_name else logs / f"{i}.out"
        child = run_child(cmfuse_argv(args), stdout_path, logs / f"{i}.err")
        total += child.seconds
        cpu += child.cpu_s
        peak = max(peak, child.peak_rss_kb)
        if child.exit_code != 0:
            problems.append(f"cmfuse {args[0]} exited {child.exit_code}: {last_line(child.stderr)}")
    size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return Sample(total, cpu, peak / 1024, size, tree_digests(out), problems)


class Checker:
    """Checks run outputs against the planted truth and against each other.

    Runs of one workload and seed must write byte-identical artifacts,
    so the documents are parsed once per distinct set of digests, in a
    child process: the benchmark process never imports cmfuse for an
    untraced measurement, which keeps it small, and the peak size a
    child reports includes the size of the process that started it.
    """

    def __init__(self, workload: Workload, inputs: Path):
        self.workload = workload
        self.inputs = inputs
        truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        self.pairs = len(truth["a"]) * len(truth["b"])
        self.reference: dict[str, str] | None = None
        self._verdicts: dict[tuple, list[str]] = {}

    def check(self, out: Path, digests: dict[str, str]) -> list[str]:
        problems = []
        if self.reference is None:
            self.reference = dict(digests)
        elif digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            problems.append(f"artifacts differ from the first run: {', '.join(changed)}")
        key = tuple(sorted(digests.items()))
        if key not in self._verdicts:
            self._verdicts[key] = self._verify(out)
        return problems + self._verdicts[key]

    def _verify(self, out: Path) -> list[str]:
        argv = [sys.executable, str(RUN_PY), "--verify", str(out), "--inputs", str(self.inputs),
                "--workload", self.workload.name]
        report = out.parent / f"{out.name}.verify"
        child = run_child(argv, report, out.parent / f"{out.name}.verify.err")
        if child.exit_code != 0:
            return [f"output check exited {child.exit_code}: {last_line(child.stderr)}"]
        return json.loads(report.read_text(encoding="utf-8"))


class Verifier:
    """The document checks of one run's outputs; imports cmfuse."""

    def __init__(self, workload: Workload, inputs: Path):
        require_source()
        self.workload = workload
        self.truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        self.pairs = len(self.truth["a"]) * len(self.truth["b"])
        self.inputs = inputs

    def verify(self, out: Path) -> list[str]:
        problems = []
        if self.workload.kind != PIPELINE:
            problems += self._alignment(self.inputs / "out" / "alignment.json")
        present = {p.name for p in out.iterdir() if p.is_file()}
        for name in sorted(present):
            problems += self._document(out / name)
        expected = {"cm_r.json", "ocm_r.json", "report.txt"}
        if self.workload.kind == PIPELINE:
            expected.add("alignment.json")
        missing = sorted(expected - present)
        if missing:
            problems.append(f"missing artifacts: {', '.join(missing)}")
        if len(problems) > MAX_PROBLEMS:
            problems[MAX_PROBLEMS:] = [f"and {len(problems) - MAX_PROBLEMS} more problems"]
        return problems

    def _document(self, path: Path) -> list[str]:
        from cmfuse import IntegrationError, parse_component_set

        text = path.read_text(encoding="utf-8")
        if path.name == "alignment.json":
            return self._alignment(path)
        if path.name == "cm_r.json":
            try:
                result = parse_component_set(text, source=path.name)
            except IntegrationError as exc:
                return [f"cm_r.json does not parse back: {str(exc).splitlines()[-1]}"]
            return self._result_set(result)
        if path.name == "ocm_r.json":
            try:
                json.loads(text)
            except ValueError as exc:
                return [f"ocm_r.json is not JSON: {exc}"]
            return []
        if path.name == "report.txt":
            return [] if text.strip() else ["report.txt is empty"]
        return []

    def _alignment(self, path: Path) -> list[str]:
        from cmfuse import IntegrationError, parse_alignment

        try:
            doc = parse_alignment(path.read_text(encoding="utf-8"), source=path.name)
        except (OSError, IntegrationError) as exc:
            return [f"alignment.json does not parse back: {str(exc).splitlines()[-1]}"]
        synonyms = {tuple(p) for p in self.truth["synonyms"]}
        homonyms = {tuple(p) for p in self.truth["homonyms"]}
        problems = []
        seen = set()
        for c in doc.alignment.roots:
            if (c.left.source, c.right.source) != (SOURCE_A, SOURCE_B):
                problems.append(f"unexpected root pair {c.left.path} ~ {c.right.path}")
                continue
            key = (c.left.origin, c.right.origin)
            seen.add(key)
            if key in synonyms and c.classification not in SYNONYM_CLASSES:
                problems.append(f"planted synonym {key} classified {c.classification}")
            elif key in homonyms and c.classification != "homonym_conflict":
                problems.append(f"planted homonym {key} classified {c.classification}")
            elif key not in synonyms and c.classification in SYNONYM_CLASSES:
                problems.append(f"unplanted pair {key} classified {c.classification}")
        if len(seen) != self.pairs:
            problems.append(f"{len(seen)} root pairs in the alignment, expected {self.pairs}")
        return problems

    def _result_set(self, result) -> list[str]:
        # every synonym class collapses to one component, the rest pass through
        names = {(SOURCE_A, n) for n in self.truth["a"]} | {(SOURCE_B, n) for n in self.truth["b"]}
        parent = {k: k for k in names}

        def find(k):
            while parent[k] != k:
                k = parent[k]
            return k

        for left, right in self.truth["synonyms"]:
            parent[find((SOURCE_B, right))] = find((SOURCE_A, left))
        classes = len({find(k) for k in names})
        problems = []
        if len(result.components) != classes:
            problems.append(
                f"cm_r.json has {len(result.components)} components, expected {classes}"
            )
        got = {c.name for c in result.components}
        for left, right in self.truth["homonyms"]:
            for qualified in (f"{SOURCE_A}.{left}", f"{SOURCE_B}.{right}"):
                if qualified not in got:
                    problems.append(f"homonym {qualified} not qualified in cm_r.json")
        return problems
