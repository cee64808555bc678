"""What a cmfuse process pays for besides its command's work.

A process that imports the command line loads no dataclasses (nor the
inspect module it pulls in), the commands that render nothing never
import the report module, and a command process runs with the cyclic
GC off and its heap frozen at exit. main(), called in a process of its
own, leaves that process's GC as it found it.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmfuse
from cmfuse.cli import main

from conftest import FIXTURES

BIBLIO1 = str(FIXTURES / "biblio1.json")
BIBLIO2 = str(FIXTURES / "biblio2.json")
DOMAIN = str(FIXTURES / "library_ontology.json")


def _env() -> dict:
    # the children import the cmfuse this suite imported
    return dict(os.environ, PYTHONPATH=str(Path(cmfuse.__file__).parent.parent))


def _python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, encoding="utf-8", env=_env()
    )


@pytest.fixture
def alignment(tmp_path) -> str:
    assert main(["align", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path)]) == 0
    return str(tmp_path / "alignment.json")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    proc = _python(
        "-c",
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cmfuse.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _imported(*argv: str) -> set[str]:
    # the modules a cmfuse process imports, as -X importtime lists them
    proc = _python("-X", "importtime", "-m", "cmfuse", *argv)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_merge_and_validate_do_not_load_the_report_module(tmp_path, alignment):
    merge = ["merge", alignment, "-o", str(tmp_path / "out")]
    for argv in (merge, ["validate", alignment, BIBLIO1]):
        imported = _imported(*argv)
        assert "cmfuse.integrate" in imported
        assert "cmfuse.report" not in imported, argv[0]
    assert "cmfuse.report" in _imported("report", alignment)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_gc_as_it_found_it(tmp_path, capsys, enabled, alignment):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        for argv in (
            ["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path / "p")],
            ["merge", alignment, "-o", str(tmp_path / "m")],
            ["report", alignment],
            ["validate", alignment, str(tmp_path / "missing.json")],
        ):
            main(argv)
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


# runs cmfuse as python -m does, or as the console script does, then
# prints its exit code and the state the GC was left in
_LAUNCH = {
    "module": "import runpy\nrunpy.run_module('cmfuse', run_name='__main__')\n",
    "script": "from cmfuse.cli import entry_point\nsys.exit(entry_point())\n",
}


@pytest.mark.parametrize("launcher", sorted(_LAUNCH))
def test_a_command_process_runs_without_the_cyclic_gc(launcher, alignment):
    proc = _python(
        "-c",
        "import gc, sys\n"
        "from cmfuse import cli\n"
        "seen = []\n"
        "run = cli.main\n"
        "cli.main = lambda argv=None: seen.append(gc.isenabled()) or run(argv)\n"
        "sys.argv[1:] = ['report', sys.argv[1]]\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in _LAUNCH[launcher].splitlines())
        + "except SystemExit as exc:\n"
        "    print(exc.code, seen, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n",
        alignment,
    )
    assert proc.stdout.startswith("correspondences"), proc.stderr
    assert proc.stderr == "0 [False] False True\n"
