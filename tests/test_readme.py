"""The README's examples stay true on the fixtures.

"Library use" runs as written, with the fixture paths put in for its
file names, in a child process that turns a text open without an
encoding into an error; the two `text` blocks of "Quick start" are cut
from the report the fixture pipeline writes.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import cmfuse
from cmfuse.cli import main

from conftest import FIXTURES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FILES = {
    "od.json": FIXTURES / "library_ontology.json",
    "a.json": FIXTURES / "biblio1.json",
    "b.json": FIXTURES / "biblio2.json",
}


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def _blocks(section: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_use_runs_and_prints_what_its_comments_show():
    (code,) = _blocks(_section("Library use"), "python")
    for name, path in FILES.items():
        assert code.count(f'"{name}"') == 1, name
        code = code.replace(f'"{name}"', repr(str(path)))
    env = dict(os.environ, PYTHONPATH=str(Path(cmfuse.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", code],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["1 synonym", "((0, 0), (1, 1), (2, 2), (3, 3))"]


def test_quick_start_shows_the_report_the_pipeline_writes(tmp_path):
    blocks = _blocks(_section("Quick start"), "text")
    assert len(blocks) == 2
    argv = [str(FILES["a.json"]), str(FILES["b.json"]), "--domain", str(FILES["od.json"])]
    assert main(["pipeline", *argv, "-o", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    for block in blocks:
        assert block in report
