"""End-to-end checks of the command line interface."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from importlib.metadata import Distribution
from pathlib import Path

import pytest

import cmfuse
from cmfuse import (
    CLASS_DISTINCT,
    Alignment,
    Correspondence,
    Endpoint,
    parse_alignment,
    parse_component_ontology,
    parse_component_set,
    serialize_alignment,
)
from cmfuse.cli import _BLOCK, main

from conftest import FIXTURES
from helpers import EMPTY_ONTOLOGY

BIBLIO1 = str(FIXTURES / "biblio1.json")
BIBLIO2 = str(FIXTURES / "biblio2.json")
DOMAIN = str(FIXTURES / "library_ontology.json")
PROJECT = Path(__file__).resolve().parent.parent

# an entity that requires what a process provides: valid, with a layering warning
LAYERED = {
    "system": "S",
    "components": [
        {
            "name": "Flow",
            "kind": "process",
            "attributes": [],
            "operations": [],
            "provides": ["run()"],
        },
        {
            "name": "Store",
            "kind": "entity",
            "attributes": [],
            "operations": [],
            "requires": ["run()"],
        },
    ],
}

# the stdout of TestValidate::test_golden_stdout, with its directory as <dir>
VALIDATE_GOLDEN = """\
warning: <dir>/layered.json: S/Store (entity) requires 'run()' provided by S/Flow (process), which sits on a higher layer
ok: <dir>/layered.json: component set, 2 components
ok: <dir>/domain.json: ontology, 5 concepts
ok: <dir>/graph.json: concept graph, 4 members
ok: <dir>/alignment.json: alignment, 10 correspondences, 4 graphs
ok: <dir>/ocm_r.json: representation, 3 roots, 5 equivalences
error: <dir>/odd.json: unrecognized document shape
error: <dir>/mixed.json: missing required key 'thesaurus'
error: <dir>/mixed.json: unknown key 'root'
error: <dir>/mixed.json: concepts: must be a list
error: <dir>/list.json: unrecognized document shape
error: <dir>/bad.json: syntax error at line 1, column 12: Expecting value
error: <dir>/missing.json: cannot read: No such file or directory
"""


@pytest.fixture(scope="session")
def transformed(tmp_path_factory):
    out = tmp_path_factory.mktemp("graphs")
    assert main(["transform", BIBLIO1, "--domain", DOMAIN, "-o", str(out)]) == 0
    assert main(["transform", BIBLIO2, "--domain", DOMAIN, "-o", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def aligned(tmp_path_factory):
    out = tmp_path_factory.mktemp("aligned")
    code = main(["align", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(out)])
    assert code == 0
    return out / "alignment.json"


class TestValidate:
    def test_accepts_fixture_documents(self, capsys):
        assert main(["validate", BIBLIO1, DOMAIN]) == 0
        out = capsys.readouterr().out
        assert f"ok: {BIBLIO1}: component set, 2 components" in out
        assert f"ok: {DOMAIN}: ontology, 5 concepts" in out

    def test_accepts_graph_and_alignment(self, capsys, transformed, aligned):
        graph = transformed / "Biblio1.Personne.ocm.json"
        assert main(["validate", str(graph), str(aligned)]) == 0
        out = capsys.readouterr().out
        assert "concept graph, 4 members" in out
        assert "alignment, 10 correspondences, 4 graphs" in out

    def test_rejects_bad_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_rejects_unrecognized_shape(self, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        odd.write_text('{"foo": 1}', encoding="utf-8")
        assert main(["validate", str(odd)]) == 2
        assert "unrecognized document shape" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "depth,code,line",
        [
            # concept graphs are flat: the first member's members are
            # reported, and nothing below them is walked
            pytest.param(
                100,
                2,
                "error: {}: root.members[0].members: must be empty; concept graphs are flat",
                id="100-2-flat",
            ),
            (600, 2, "error: {}: nesting too deep to read"),
        ],
    )
    def test_deep_nesting_never_ends_in_a_traceback(self, tmp_path, capsys, depth, code, line):
        # written as text, since the json encoder itself cannot nest 600 levels
        member = '{"term": "m%d", "raw_label": "m%d", "kind": "attribute", "members": ['
        text = (
            '{"source": "S", "origin": "C", "root": {"term": "c", "raw_label": "C",'
            ' "kind": "component", "members": ['
            + "".join(member % (d, d) for d in range(depth))
            + "]}" * depth
            + "]}}"
        )
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == line.format(path) + "\n"
        assert "Traceback" not in captured.err

    def test_keeps_going_after_a_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["validate", str(bad), BIBLIO1]) == 2
        out = capsys.readouterr().out
        assert "error:" in out and f"ok: {BIBLIO1}" in out

    def test_reports_layering_warnings(self, tmp_path, capsys):
        path = tmp_path / "layered.json"
        path.write_text(json.dumps(LAYERED), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning:" in out and "higher layer" in out

    def test_missing_file_fails(self, capsys):
        assert main(["validate", "/nonexistent/x.json"]) == 2

    def test_decodes_each_file_once(self, transformed, aligned, tmp_path, monkeypatch, capsys):
        assert main(["merge", str(aligned), "-o", str(tmp_path)]) == 0
        files = [
            BIBLIO1,
            DOMAIN,
            str(transformed / "Biblio1.Personne.ocm.json"),
            str(aligned),
            str(tmp_path / "ocm_r.json"),
            str(tmp_path / "cm_r.json"),
        ]
        calls = []
        loads = json.loads

        def counted(text, *args, **kwargs):
            calls.append(len(text))
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        capsys.readouterr()
        assert main(["validate", *files]) == 0
        assert len(calls) == len(files)
        assert capsys.readouterr().out.count("ok: ") == len(files)

    def test_matches_an_alignment_from_a_pipe(self, aligned, monkeypatch, capsys):
        # read through a pipe, the correspondence list is matched and never
        # decoded; only the fields after it go through json.loads
        text = aligned.read_text(encoding="utf-8")
        calls = []
        loads = json.loads

        def counted(document, *args, **kwargs):
            calls.append(len(document))
            return loads(document, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        read, write = os.pipe()

        def feed():
            with os.fdopen(write, "w", encoding="utf-8") as pipe:
                pipe.write(text)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            assert main(["validate", f"/dev/fd/{read}"]) == 0
        finally:
            feeder.join(timeout=10)
            os.close(read)
        assert not feeder.is_alive()
        assert "alignment, 10 correspondences, 4 graphs" in capsys.readouterr().out
        after = len(text) - text.index('\n  "conflicts": ')
        assert len(calls) == 1 and calls[0] <= after + 1, (calls, after)

    def test_accepts_the_representation_a_merge_writes(self, aligned, tmp_path, capsys):
        assert main(["merge", str(aligned), "-o", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["validate", str(tmp_path / "ocm_r.json")]) == 0
        out = capsys.readouterr().out
        assert out == f"ok: {tmp_path / 'ocm_r.json'}: representation, 3 roots, 5 equivalences\n"

    def test_reports_a_malformed_representation(self, aligned, tmp_path, capsys):
        assert main(["merge", str(aligned), "-o", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "ocm_r.json").read_text(encoding="utf-8"))
        rep["roots"][0]["merged_from"] = ["no-slash"]
        del rep["roots"][1]["merged_from"]
        rep["equivalences"][0] = ["only one"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rep), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"error: {bad}: roots[0].merged_from[0]: must be a path 'source/origin'",
            f"error: {bad}: roots[1]: missing required key 'merged_from'",
            f"error: {bad}: equivalences[0]: must be a pair of strings",
        ]

    def test_rejects_a_graph_whose_source_holds_a_slash(self, transformed, tmp_path, capsys):
        graph = json.loads((transformed / "Biblio1.Personne.ocm.json").read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**graph, "source": "Biblio/1"}), encoding="utf-8")
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().out == f"error: {bad}: source must not hold '/'\n"

    def test_golden_stdout(self, transformed, tmp_path, capsys):
        # every document shape and every kind of failure in one run; the
        # expected text was captured before validate was rewritten
        assert main(["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path)]) == 0
        (tmp_path / "layered.json").write_text(json.dumps(LAYERED), encoding="utf-8")
        shutil.copy(DOMAIN, tmp_path / "domain.json")
        shutil.copy(transformed / "Biblio2.Lecteur.ocm.json", tmp_path / "graph.json")
        (tmp_path / "odd.json").write_text('{"foo": 1}', encoding="utf-8")
        (tmp_path / "bad.json").write_text('{"system": ', encoding="utf-8")
        # a shape is told by its first marker key: concepts before root
        (tmp_path / "mixed.json").write_text('{"root": {}, "concepts": {}}', encoding="utf-8")
        (tmp_path / "list.json").write_text("[]", encoding="utf-8")
        names = "layered domain graph alignment ocm_r odd mixed list bad missing".split()
        capsys.readouterr()
        assert main(["validate", *(str(tmp_path / f"{n}.json") for n in names)]) == 2
        assert capsys.readouterr().out.replace(str(tmp_path), "<dir>") == VALIDATE_GOLDEN


class TestTransform:
    def test_writes_one_graph_per_component(self, tmp_path, capsys):
        assert main(["transform", BIBLIO1, "--domain", DOMAIN, "-o", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["Biblio1.Personne.ocm.json", "Biblio1.Publication.ocm.json"]
        assert all(str(tmp_path / n) in captured.out for n in names)

    def test_ambiguity_warning_goes_to_stderr(self, tmp_path, capsys):
        main(["transform", BIBLIO1, "--domain", DOMAIN, "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert "left unanchored" in captured.err
        assert "left unanchored" not in captured.out

    def test_colliding_file_names_are_numbered(self, tmp_path, capsys):
        # three distinct terms whose file names differ at most in case
        doc = {
            "system": "S",
            "components": [
                {"name": name, "kind": "entity", "attributes": [{"name": attr}], "operations": []}
                for name, attr in (("Client Pro", "nom"), ("Client_Pro", "code"), ("client/pro", "rang"))
            ],
        }
        path = tmp_path / "set.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["transform", str(path), "--domain", DOMAIN, "-o", str(out)]) == 0
        names = ["S.Client_Pro.ocm.json", "S.Client_Pro.2.ocm.json", "S.client_pro.3.ocm.json"]
        assert capsys.readouterr().out.splitlines() == [str(out / n) for n in names]
        graphs = [parse_component_ontology((out / n).read_text(encoding="utf-8")) for n in names]
        assert [g.origin for g in graphs] == ["Client Pro", "Client_Pro", "client/pro"]

    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["transform", BIBLIO2, "--domain", DOMAIN, "-o", str(a)])
        main(["transform", BIBLIO2, "--domain", DOMAIN, "-o", str(b)])
        for path in a.iterdir():
            assert path.read_bytes() == (b / path.name).read_bytes()


class TestSim:
    def test_text_output(self, transformed, capsys):
        left = str(transformed / "Biblio1.Personne.ocm.json")
        right = str(transformed / "Biblio2.Lecteur.ocm.json")
        assert main(["sim", left, right, "--domain", DOMAIN]) == 0
        out = capsys.readouterr().out
        assert "aggregate: 1" in out
        assert "verdict:   synonym" in out
        assert "class:     synonym_pair" in out
        assert "Biblio1/Personne \\ Biblio2/Lecteur" in out

    def test_json_output(self, transformed, capsys):
        left = str(transformed / "Biblio1.Publication.ocm.json")
        right = str(transformed / "Biblio2.Publication.ocm.json")
        assert main(["sim", left, right, "--domain", DOMAIN, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["aggregate"] == "2/3"
        assert data["verdict"] == "not_synonym"
        assert data["class"] == "homonym_conflict"
        assert data["cells"] == [["1", "0"], ["0", "1"], ["0", "0"]]

    def test_fail_on_conflict(self, transformed):
        left = str(transformed / "Biblio1.Publication.ocm.json")
        right = str(transformed / "Biblio2.Publication.ocm.json")
        assert main(["sim", left, right, "--domain", DOMAIN]) == 0
        assert (
            main(["sim", left, right, "--domain", DOMAIN, "--fail-on-conflict"]) == 3
        )

    def test_mode_changes_the_aggregate(self, tmp_path, capsys):
        # one member against two synonymous members: the literal sum
        # clamps to 1, the one-to-one matching stays at 1/2
        od = {
            "concepts": [{"id": "ACT", "label": "lire"}],
            "thesaurus": [{"concept": "ACT", "terms": ["lire()", "consulter()"]}],
        }
        (tmp_path / "od.json").write_text(json.dumps(od), encoding="utf-8")
        left = {
            "source": "A",
            "origin": "X",
            "root": {
                "term": "x",
                "raw_label": "X",
                "kind": "component",
                "members": [
                    {"term": "lire()", "raw_label": "lire()", "kind": "operation", "members": []}
                ],
            },
        }
        right = {
            "source": "B",
            "origin": "Y",
            "root": {
                "term": "y",
                "raw_label": "Y",
                "kind": "component",
                "members": [
                    {"term": "lire()", "raw_label": "lire()", "kind": "operation", "members": []},
                    {
                        "term": "consulter()",
                        "raw_label": "consulter()",
                        "kind": "operation",
                        "members": [],
                    },
                ],
            },
        }
        (tmp_path / "left.json").write_text(json.dumps(left), encoding="utf-8")
        (tmp_path / "right.json").write_text(json.dumps(right), encoding="utf-8")
        args = [
            "sim",
            str(tmp_path / "left.json"),
            str(tmp_path / "right.json"),
            "--domain",
            str(tmp_path / "od.json"),
        ]
        main(args)
        assert "aggregate: 1" in capsys.readouterr().out
        main(args + ["--mode", "bipartite"])
        assert "aggregate: 1/2" in capsys.readouterr().out


class TestAlign:
    def test_writes_alignment_document(self, aligned):
        text = aligned.read_text(encoding="utf-8")
        doc = parse_alignment(text)
        assert len(doc.alignment.correspondences) == 10
        assert len(doc.graphs) == 4
        assert doc.alignment.mode == "literal"
        # the format keeps recursive, always written true
        assert '  "settings": {\n    "mode": "literal",\n    "recursive": true\n  },\n' in text

    def test_conflict_count_on_stderr(self, tmp_path, capsys):
        main(["align", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path)])
        assert "1 homonym conflict(s) detected" in capsys.readouterr().err

    def test_fail_on_conflict(self, tmp_path):
        code = main(
            [
                "align",
                BIBLIO1,
                BIBLIO2,
                "--domain",
                DOMAIN,
                "-o",
                str(tmp_path),
                "--fail-on-conflict",
            ]
        )
        assert code == 3
        assert (tmp_path / "alignment.json").exists()

    def test_settings_are_recorded(self, tmp_path):
        main(
            [
                "align",
                BIBLIO1,
                BIBLIO2,
                "--domain",
                DOMAIN,
                "-o",
                str(tmp_path),
                "--mode",
                "bipartite",
            ]
        )
        text = (tmp_path / "alignment.json").read_text(encoding="utf-8")
        assert parse_alignment(text).alignment.mode == "bipartite"
        assert '  "settings": {\n    "mode": "bipartite",\n    "recursive": true\n  },\n' in text


class TestMerge:
    def test_result_files(self, aligned, tmp_path, capsys):
        assert main(["merge", str(aligned), "-o", str(tmp_path)]) == 0
        result = parse_component_set(
            (tmp_path / "cm_r.json").read_text(encoding="utf-8")
        )
        assert result.system == "Biblio1+Biblio2"
        assert [c.name for c in result.components] == [
            "personne",
            "Biblio1.Publication",
            "Biblio2.Publication",
        ]
        rep = json.loads((tmp_path / "ocm_r.json").read_text(encoding="utf-8"))
        assert len(rep["roots"]) == 3
        assert len(rep["equivalences"]) == 5

    def test_alignment_settings_drive_the_merge(self, tmp_path):
        # under the literal sum X and Y count as synonyms and fold into
        # one component; under bipartite matching they stay apart
        seta = {
            "system": "A",
            "components": [
                {"name": "X", "kind": "entity", "attributes": [], "operations": [{"name": "lire"}]}
            ],
        }
        setb = {
            "system": "B",
            "components": [
                {
                    "name": "Y",
                    "kind": "entity",
                    "attributes": [],
                    "operations": [{"name": "lire"}, {"name": "consulter"}],
                }
            ],
        }
        od = {
            "concepts": [{"id": "ACT", "label": "lire"}],
            "thesaurus": [{"concept": "ACT", "terms": ["lire()", "consulter()"]}],
        }
        for name, doc in (("a.json", seta), ("b.json", setb), ("od.json", od)):
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        results = {}
        for mode in ("literal", "bipartite"):
            out = tmp_path / mode
            main(
                [
                    "align",
                    str(tmp_path / "a.json"),
                    str(tmp_path / "b.json"),
                    "--domain",
                    str(tmp_path / "od.json"),
                    "-o",
                    str(out),
                    "--mode",
                    mode,
                ]
            )
            assert main(["merge", str(out / "alignment.json"), "-o", str(out)]) == 0
            results[mode] = parse_component_set(
                (out / "cm_r.json").read_text(encoding="utf-8")
            )
        assert len(results["literal"].components) == 1
        assert len(results["bipartite"].components) == 2


    def test_a_blank_interface_name_is_rejected(self, aligned, tmp_path, capsys):
        # a graph read back may not provide a name that the result set's
        # reader would reject
        doc = json.loads(aligned.read_text(encoding="utf-8"))
        doc["ontologies"][0]["metadata"]["provides"] = ["lire()", "  "]
        edited = tmp_path / "alignment.json"
        edited.write_text(json.dumps(doc), encoding="utf-8")
        line = f"{edited}: ontologies[0].metadata.provides[1]: must be a non-empty string"
        assert main(["validate", str(edited)]) == 2
        assert capsys.readouterr().out == f"error: {line}\n"
        assert main(["merge", str(edited), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"cmfuse: error: {line}\n"
        assert not (tmp_path / "out").exists()


class TestReport:
    def test_text_sections(self, aligned, capsys):
        assert main(["report", str(aligned)]) == 0
        out = capsys.readouterr().out
        assert "correspondences" in out
        assert "naming conflicts" in out
        assert "member matches" in out
        assert "diagnostics" in out

    def test_json_shape(self, aligned, capsys):
        assert main(["report", str(aligned), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"correspondences", "conflicts", "flagged", "diagnostics"}
        assert len(data["flagged"]) == 2

    @staticmethod
    def large_alignment(tmp_path) -> Path:
        # a report of more lines than several blocks hold
        corrs = tuple(
            Correspondence(Endpoint("S1", f"C{i}"), Endpoint("S2", f"D{i % 7}", f"m{i}"), Fraction(1), CLASS_DISTINCT)
            for i in range(5 * _BLOCK)
        )
        path = tmp_path / "alignment.json"
        path.write_text(serialize_alignment(Alignment(corrs), [], EMPTY_ONTOLOGY), encoding="utf-8")
        return path

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_unbuffered_stdout_gets_the_same_bytes(self, tmp_path, fmt):
        path = self.large_alignment(tmp_path)
        outputs = []
        for unbuffered in (True, False):
            env = TestInstalledEntryPoints.child_env()
            env.pop("PYTHONUNBUFFERED", None)
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            proc = subprocess.run(
                [sys.executable, "-m", "cmfuse", "report", str(path), *fmt],
                capture_output=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0 and proc.stderr == b""
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_stdout_is_written_in_blocks(self, tmp_path, monkeypatch, fmt):
        # a write-through stdout makes one write(2) per call: the calls
        # grow with the text's size over the block, not with its lines
        class Counted(io.StringIO):
            calls = 0

            def write(self, text):
                self.calls += 1
                return super().write(text)

        path = self.large_alignment(tmp_path)
        out = Counted()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["report", str(path), *fmt]) == 0
        lines = out.getvalue().count("\n")
        assert lines > 4 * _BLOCK
        assert 1 <= out.calls <= lines // _BLOCK + 1


class TestPipeline:
    ARTIFACTS = ("alignment.json", "ocm_r.json", "cm_r.json", "report.txt")

    def test_writes_all_artifacts(self, tmp_path):
        code = main(
            ["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path)]
        )
        assert code == 0
        for name in self.ARTIFACTS:
            assert (tmp_path / name).exists()

    def test_report_content(self, tmp_path):
        main(["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path)])
        report = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "semantic integration report" in report
        assert "pair similarity" in report
        assert "result set 'Biblio1+Biblio2': 3 components" in report
        assert "\x1b[" not in report

    def test_a_slash_in_a_system_fails_before_anything_is_written(self, tmp_path, capsys):
        # "Sys/A" + "/Client" would be written as the path "Sys/A/Client",
        # which ocm_r.json reads back as source "Sys", origin "A/Client"
        client = {"name": "Client", "kind": "entity", "attributes": [], "operations": []}
        inputs = {
            "a.json": {"system": "Sys/A", "components": [client]},
            "b.json": {"system": "SysB", "components": [client]},
            "domain.json": {
                "concepts": [{"id": "C", "label": "client"}],
                "thesaurus": [{"concept": "C", "terms": ["client"]}],
            },
        }
        for name, document in inputs.items():
            (tmp_path / name).write_text(json.dumps(document), encoding="utf-8")
        a, b, d = (str(tmp_path / name) for name in inputs)
        out = tmp_path / "out"
        assert main(["pipeline", a, b, "--domain", d, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"cmfuse: error: {a}: system: must not hold '/'\n"
        assert not out.exists()

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(a)])
        main(["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(b)])
        for name in self.ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    # sha256 of each artifact; the merge, and so ocm_r.json, cm_r.json and
    # report.txt, come out the same under every setting for the fixtures
    MERGED = {
        "ocm_r.json": "bf0fd3f9d0d542fb7163d3d2f99ab299d857968ff191b05daa50d2ba9bc91756",
        "cm_r.json": "fba6bc6adb6538ec7fea4b6c9746fb2cabc600ceb2a40d0a6932299aa6e8bcb7",
        "report.txt": "8fe883bfffb2f2b9583024391d08fcad4efcacc333a9c6eb0820ac4c17abe7be",
    }
    GOLDEN_ALIGNMENT = {
        ("--mode", "literal"): "9bb292c4c9353a325efcd847f1df24f67fc90b95a0cd1b216d270300cba8ad62",
        ("--mode", "bipartite"): "4e59ad9d7a796315295ad3535a069a2e2d43198619fe9debe90c3b947f802432",
    }

    @pytest.mark.parametrize("settings", list(GOLDEN_ALIGNMENT), ids=" ".join)
    def test_golden_bytes(self, tmp_path, settings):
        # pinned digests: a fast path that changes one byte of any artifact fails here
        argv = ["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path)]
        assert main([*argv, *settings]) == 0
        expected = {"alignment.json": self.GOLDEN_ALIGNMENT[settings], **self.MERGED}
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()) for name in expected}
        assert {name: d.hexdigest() for name, d in digests.items()} == expected

    # sha256 of sim's stdout; these two pairs print the same under every setting
    GOLDEN_SIM = {
        ("Personne", "Lecteur", "text"): "55cb1782756faa6a91a30173ffd1c9c0c012ea41e3fcb9941bd59d57240dfba6",
        ("Personne", "Lecteur", "json"): "24ab2b80efa566845da885cf4fabb43353229506f8272fb07e482e3e1f734e83",
        ("Publication", "Publication", "text"): "fac72619e0169e71b21654ce8294ee3a1904fdf18f6e449d86f78df3713935a5",
        ("Publication", "Publication", "json"): "cc688dd00772fe83d3c88ecdbf6df830e7240ed527a60f4495ebccc668c5cdfd",
    }

    @pytest.mark.parametrize("settings", list(GOLDEN_ALIGNMENT), ids=" ".join)
    def test_golden_bytes_of_sim(self, transformed, capsys, settings):
        digests = {}
        for left, right, fmt in self.GOLDEN_SIM:
            argv = [
                "sim",
                str(transformed / f"Biblio1.{left}.ocm.json"),
                str(transformed / f"Biblio2.{right}.ocm.json"),
                "--domain",
                DOMAIN,
                "--format",
                fmt,
            ]
            assert main([*argv, *settings]) == 0
            out = capsys.readouterr().out
            digests[left, right, fmt] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests == self.GOLDEN_SIM

    # sha256 of merge's files and report's stdout for the fixtures' alignment.json
    GOLDEN_REPLAY = {
        "ocm_r.json": MERGED["ocm_r.json"],
        "cm_r.json": MERGED["cm_r.json"],
        "report text": "927b2e01d5bbb916be39cf32ea7e730329180fd3983c59ebca31abffb3d3c301",
        "report json": "b77f12cbe23f26987936d29a49b3dcab229f8e948407df6f7f206e9c87b20339",
    }

    def test_golden_bytes_of_merge_and_report(self, aligned, tmp_path, capsys):
        assert main(["merge", str(aligned), "-o", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("ocm_r.json", "cm_r.json")
        }
        for fmt in ("text", "json"):
            capsys.readouterr()
            assert main(["report", str(aligned), "--format", fmt]) == 0
            out = capsys.readouterr().out
            digests[f"report {fmt}"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digests == self.GOLDEN_REPLAY

    def test_an_alignment_recorded_without_recursion_replays_the_same(
        self, aligned, tmp_path, capsys
    ):
        # earlier versions could write "recursive": false; it still reads,
        # and changes no byte of what merge and report write
        text = aligned.read_text(encoding="utf-8")
        old = tmp_path / "alignment.json"
        old.write_text(text.replace('"recursive": true', '"recursive": false'), encoding="utf-8")
        assert old.read_text(encoding="utf-8") != text
        assert main(["validate", str(old)]) == 0
        assert capsys.readouterr().out.startswith(f"ok: {old}: alignment,")
        outputs = {}
        for recorded, path in (("true", aligned), ("false", old)):
            out = tmp_path / recorded
            assert main(["merge", str(path), "-o", str(out)]) == 0
            files = {name: (out / name).read_bytes() for name in ("ocm_r.json", "cm_r.json")}
            for fmt in ("text", "json"):
                capsys.readouterr()
                assert main(["report", str(path), "--format", fmt]) == 0
                files[f"report {fmt}"] = capsys.readouterr().out
            outputs[recorded] = files
        assert outputs["false"] == outputs["true"]

    def test_fail_on_conflict(self, tmp_path):
        code = main(
            [
                "pipeline",
                BIBLIO1,
                BIBLIO2,
                "--domain",
                DOMAIN,
                "-o",
                str(tmp_path),
                "--fail-on-conflict",
            ]
        )
        assert code == 3

    def test_result_set_passes_validate_when_a_class_name_is_taken(self, tmp_path, capsys):
        # the synonym class Lecteur~Usager is named by its label, personne,
        # which B's unrelated Personne already uses
        documents = {
            "od.json": {
                "concepts": [{"id": "PERSON", "label": "personne"}],
                "thesaurus": [{"concept": "PERSON", "terms": ["lecteur", "usager"]}],
            },
            "a.json": {"system": "A", "components": [
                {"name": "Lecteur", "kind": "entity", "attributes": [{"name": "nom"}], "operations": []},
            ]},
            "b.json": {"system": "B", "components": [
                {"name": "Usager", "kind": "entity", "attributes": [{"name": "nom"}], "operations": []},
                {"name": "Personne", "kind": "entity", "attributes": [{"name": "titre"}], "operations": []},
            ]},
        }
        for name, doc in documents.items():
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["pipeline", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main([*argv, "--domain", str(tmp_path / "od.json"), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out / "cm_r.json")]) == 0
        assert "component set, 2 components" in capsys.readouterr().out
        result = parse_component_set((out / "cm_r.json").read_text(encoding="utf-8"))
        assert [c.name for c in result.components] == ["personne", "B.Personne"]

    def test_a_qualified_name_that_is_taken_is_numbered(self, tmp_path, capsys):
        # A's X is qualified A.X for its homonym conflict with B's X, and A
        # already has a component named A.X, which keeps its name
        documents = {
            "od.json": {"concepts": [], "thesaurus": []},
            "a.json": {"system": "A", "components": [
                {"name": "X", "kind": "entity", "attributes": [{"name": "nom"}], "operations": []},
                {"name": "A.X", "kind": "entity", "attributes": [{"name": "titre"}], "operations": []},
            ]},
            "b.json": {"system": "B", "components": [
                {"name": "X", "kind": "entity", "attributes": [{"name": "code"}], "operations": []},
            ]},
        }
        for name, doc in documents.items():
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["pipeline", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main([*argv, "--domain", str(tmp_path / "od.json"), "-o", str(out)]) == 0
        capsys.readouterr()
        artifacts = [str(out / name) for name in ("alignment.json", "ocm_r.json", "cm_r.json")]
        assert main(["validate", *artifacts]) == 0
        assert capsys.readouterr().out.count("ok: ") == 3
        result = parse_component_set((out / "cm_r.json").read_text(encoding="utf-8"))
        assert [c.name for c in result.components] == ["A.X.2", "A.X", "B.X"]
        assert [a.name for a in result.components[1].attributes] == ["titre"]

    @pytest.mark.parametrize("mode", ["literal", "bipartite"])
    def test_merge_qualifies_an_operation_named_like_an_attribute(self, tmp_path, capsys, mode):
        # nom≡prénom hits two cells on each side, so literal mode scores
        # min(1, 4/3) = 1 and the class keeps attribute age and operation age()
        documents = {
            "od.json": {
                "concepts": [{"id": "PERSON", "label": "personne"}, {"id": "NAME", "label": "nom"}],
                "thesaurus": [
                    {"concept": "PERSON", "terms": ["personne", "lecteur"]},
                    {"concept": "NAME", "terms": ["nom", "prénom"]},
                ],
            },
            "a.json": {"system": "A", "components": [
                {"name": "Personne", "kind": "entity", "operations": [],
                 "attributes": [{"name": "nom"}, {"name": "prénom"}, {"name": "age"}]},
            ]},
            "b.json": {"system": "B", "components": [
                {"name": "Lecteur", "kind": "entity", "attributes": [{"name": "nom"}, {"name": "prénom"}],
                 "operations": [{"name": "age"}]},
            ]},
        }
        for name, doc in documents.items():
            (tmp_path / name).write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["pipeline", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--mode", mode]
        assert main([*argv, "--domain", str(tmp_path / "od.json"), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out / "cm_r.json"), str(out / "ocm_r.json")]) == 0
        result = parse_component_set((out / "cm_r.json").read_text(encoding="utf-8"))
        if mode == "literal":
            (merged,) = result.components
            assert [a.name for a in merged.attributes] == ["nom", "age"]
            assert [o.name for o in merged.operations] == ["B.Lecteur.age"]
        else:
            assert len(result.components) == 2


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main([]) == 1
        assert main(["unknown-command"]) == 1
        assert main(["transform", BIBLIO1]) == 1

    @pytest.mark.parametrize("command", ["sim", "align", "pipeline"])
    def test_the_recursion_flag_is_gone(self, transformed, tmp_path, capsys, command):
        # concept graphs are flat, so no member recursion is left to turn off
        graph = str(sorted(transformed.glob("*.ocm.json"))[0])
        argv = {
            "sim": [graph, graph, "--domain", DOMAIN],
            "align": [BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path / "out")],
            "pipeline": [BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path / "out")],
        }[command]
        assert main([command, *argv, "--no-recursive-semantics"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --no-recursive-semantics\n")
        assert not (tmp_path / "out").exists()

    def test_input_error_is_two(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["transform", missing, "--domain", DOMAIN, "-o", str(tmp_path)]) == 2
        assert "cmfuse: error:" in capsys.readouterr().err


    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("command", ["pipeline", "align", "merge", "transform"])
    def test_an_unwritable_output_directory_is_two(self, aligned, tmp_path, command, below):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out" if below else blocker
        inputs = {
            "pipeline": [BIBLIO1, BIBLIO2, "--domain", DOMAIN],
            "align": [BIBLIO1, BIBLIO2, "--domain", DOMAIN],
            "merge": [str(aligned)],
            "transform": [BIBLIO1, "--domain", DOMAIN],
        }[command]
        proc = subprocess.run(
            [sys.executable, "-m", "cmfuse", command, *inputs, "-o", str(out)],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env=TestInstalledEntryPoints.child_env(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(f"cmfuse: error: {out}{os.sep}")
        assert ": cannot write: " in proc.stderr.splitlines()[-1]
        assert proc.stdout == ""


    @pytest.mark.parametrize(
        "command", ["validate", "transform", "sim", "align", "merge", "report", "pipeline"]
    )
    def test_text_that_is_not_utf8_is_two(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"a": "\xff"}')
        out = ["-o", str(tmp_path / "out")]
        argv = {
            "validate": [str(bad), BIBLIO1],
            "transform": [str(bad), "--domain", DOMAIN, *out],
            "sim": [str(bad), str(bad), "--domain", DOMAIN],
            "align": [str(bad), BIBLIO2, "--domain", DOMAIN, *out],
            "merge": [str(bad), *out],
            "report": [str(bad)],
            "pipeline": [str(bad), BIBLIO2, "--domain", DOMAIN, *out],
        }[command]
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        message = f"{bad}: not UTF-8 text at byte 7"
        if command == "validate":
            # the next file is still checked
            assert captured.out == f"error: {message}\nok: {BIBLIO1}: component set, 2 components\n"
        else:
            assert captured.err == f"cmfuse: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,shape",
        [("validate", "graph"), ("sim", "graph"), ("validate", "alignment"), ("merge", "alignment"),
         ("report", "alignment"), ("validate", "representation")],
    )
    def test_a_member_with_members_is_two(self, transformed, aligned, tmp_path, capsys, command, shape):
        # concept graphs are flat, in every document that holds them
        if shape == "graph":
            data = json.loads(sorted(transformed.glob("*.ocm.json"))[0].read_text(encoding="utf-8"))
            graph, where = data, "root"
        elif shape == "alignment":
            data = json.loads(aligned.read_text(encoding="utf-8"))
            graph, where = data["ontologies"][0], "ontologies[0].root"
        else:
            assert main(["merge", str(aligned), "-o", str(tmp_path)]) == 0
            capsys.readouterr()
            data = json.loads((tmp_path / "ocm_r.json").read_text(encoding="utf-8"))
            graph, where = data["roots"][0], "roots[0].root"
        # two members with members, each holding a member that breaks the
        # spec: nothing below a member is walked
        for member in graph["root"]["members"][:2]:
            member["members"] = [{"term": "rue", "kind": "op", "members": 1}]
        bad = tmp_path / "nested.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        argv = {
            "validate": [str(bad)],
            "sim": [str(bad), str(bad), "--domain", DOMAIN],
            "merge": [str(bad), "-o", str(tmp_path / "out")],
            "report": [str(bad)],
        }[command]
        assert main([command, *argv]) == 2
        messages = [
            f"{bad}: {where}.members[{i}].members: must be empty; concept graphs are flat"
            for i in range(2)
        ]
        captured = capsys.readouterr()
        if command == "validate":
            assert captured.out == "".join(f"error: {m}\n" for m in messages)
        else:
            assert captured.err == "".join(f"cmfuse: error: {m}\n" for m in messages)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "merge", "report"])
    def test_an_alignment_broken_deep_in_its_correspondences_names_the_byte(
        self, aligned, tmp_path, capsys, command
    ):
        # what the streamed reader has read is dropped, and the whole-file
        # read names the byte
        data = aligned.read_bytes()
        at = data.index(b'"member": "') + len(b'"member": "')
        bad = tmp_path / "alignment.json"
        bad.write_bytes(data[:at] + b"\xc3" + data[at:])
        argv = {"merge": ["-o", str(tmp_path / "out")]}.get(command, [])
        assert main([command, str(bad), *argv]) == 2
        captured = capsys.readouterr()
        assert f"{bad}: not UTF-8 text at byte {at}\n" in captured.out + captured.err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("command", ["pipeline", "align", "merge", "transform"])
    def test_an_unwritable_output_directory_fails_before_any_input_is_read(
        self, tmp_path, capsys, command, below
    ):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out" if below else blocker
        missing = str(tmp_path / "missing.json")
        inputs = {
            "pipeline": [missing, missing, "--domain", missing],
            "align": [missing, missing, "--domain", missing],
            "merge": [missing],
            "transform": [missing, "--domain", missing],
        }[command]
        assert main([command, *inputs, "-o", str(out)]) == 2
        first = {"merge": "ocm_r.json", "transform": "*.ocm.json"}.get(command, "alignment.json")
        assert capsys.readouterr().err == f"cmfuse: error: {out / first}: cannot write: Not a directory\n"

    def test_a_missing_output_directory_is_made_only_for_a_run_that_writes(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "out"
        argv = [BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(out)]
        assert main(["pipeline", str(tmp_path / "missing.json"), *argv[1:]]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        assert main(["pipeline", *argv]) == 0
        assert (out / "report.txt").is_file()


    def test_a_reader_that_stops_reading_is_not_an_error(self, tmp_path):
        corrs = tuple(
            Correspondence(Endpoint("S1", f"C{i}"), Endpoint("S2", f"D{i}"), Fraction(0), CLASS_DISTINCT)
            for i in range(5000)
        )
        path = tmp_path / "alignment.json"
        path.write_text(serialize_alignment(Alignment(corrs), [], EMPTY_ONTOLOGY), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "cmfuse", "report", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=TestInstalledEntryPoints.child_env(),
        )
        # the text is far larger than a pipe holds
        assert proc.stdout.read(16) == b"correspondences\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestColor:
    def test_opt_in_color_on_stdout(self, transformed, capsys, monkeypatch):
        left = str(transformed / "Biblio1.Personne.ocm.json")
        right = str(transformed / "Biblio2.Lecteur.ocm.json")
        monkeypatch.setenv("CMFUSE_COLOR", "1")
        main(["sim", left, right, "--domain", DOMAIN])
        assert "\x1b[32msynonym\x1b[0m" in capsys.readouterr().out

    def test_no_color_by_default(self, transformed, capsys, monkeypatch):
        left = str(transformed / "Biblio1.Personne.ocm.json")
        right = str(transformed / "Biblio2.Lecteur.ocm.json")
        monkeypatch.delenv("CMFUSE_COLOR", raising=False)
        main(["sim", left, right, "--domain", DOMAIN])
        assert "\x1b[" not in capsys.readouterr().out
        monkeypatch.setenv("CMFUSE_COLOR", "0")
        main(["sim", left, right, "--domain", DOMAIN])
        assert "\x1b[" not in capsys.readouterr().out

    def test_color_takes_no_column(self, transformed, aligned, capsys, monkeypatch):
        # stdout in color, with its escape codes taken out, is the plain
        # stdout byte for byte: a painted name is padded as a plain one
        sims = [
            ["sim", str(transformed / f"Biblio1.{a}.ocm.json"), str(transformed / f"Biblio2.{b}.ocm.json")]
            for a, b in (("Personne", "Lecteur"), ("Publication", "Publication"))
        ]
        for argv in [["report", str(aligned)], *([*sim, "--domain", DOMAIN] for sim in sims)]:
            outputs = []
            for color in ("1", "0"):
                monkeypatch.setenv("CMFUSE_COLOR", color)
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
            colored, plain = outputs
            assert "\x1b[" in colored and "\x1b[" not in plain
            assert re.sub("\x1b\\[[0-9;]*m", "", colored) == plain

    def test_files_are_never_colored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMFUSE_COLOR", "1")
        main(["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(tmp_path)])
        for name in TestPipeline.ARTIFACTS:
            assert "\x1b[" not in (tmp_path / name).read_text(encoding="utf-8")


class TestInstalledEntryPoints:
    """Run cmfuse the two ways a user launches it after installing.

    Each child process imports the same ``cmfuse`` this suite imported:
    ``PYTHONPATH`` is set to the directory that holds the package, so the
    result depends neither on how pytest was started nor on any other
    ``cmfuse`` installed site-wide.
    """

    # what an installer-generated console-script wrapper does, given the
    # entry point's name, value and group as its first three arguments
    WRAPPER = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "ep = EntryPoint(*sys.argv[1:4])\n"
        "sys.argv[:4] = [ep.name]\n"
        "sys.exit(ep.load()())\n"
    )

    @staticmethod
    def child_env():
        return dict(os.environ, PYTHONPATH=str(Path(cmfuse.__file__).parent.parent))

    @staticmethod
    def declared_console_script(tmp_path):
        """The ``cmfuse`` console-script entry point, as packaging declares it.

        Builds the distribution metadata with the build backend named in
        ``pyproject.toml`` from a copy of the project in ``tmp_path``, so
        nothing is written into the checkout.
        """
        project = tmp_path / "project"
        project.mkdir()
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(PROJECT / name, project / name)
        shutil.copytree(
            PROJECT / "src", project / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        egg_base = tmp_path / "metadata"
        egg_base.mkdir()
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from setuptools import setup; setup()",
                "egg_info",
                "--egg-base",
                str(egg_base),
            ],
            cwd=project,
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert proc.returncode == 0, proc.stderr
        dist = Distribution.at(egg_base / "cmfuse.egg-info")
        scripts = dist.entry_points.select(group="console_scripts", name="cmfuse")
        assert len(scripts) == 1, "no 'cmfuse' console script is declared"
        return next(iter(scripts))

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cmfuse", "validate", BIBLIO1],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env=self.child_env(),
        )
        assert proc.returncode == 0
        assert "ok:" in proc.stdout

    def test_console_script(self, tmp_path):
        pytest.importorskip("setuptools")
        ep = self.declared_console_script(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")

        def run(*args):
            return subprocess.run(
                [sys.executable, "-c", self.WRAPPER, ep.name, ep.value, ep.group, *args],
                capture_output=True,
                text=True,
                encoding="utf-8",
                cwd=tmp_path,
                env=self.child_env(),
            )

        proc = run("validate", BIBLIO1)
        assert proc.returncode == 0, proc.stderr
        assert f"ok: {BIBLIO1}" in proc.stdout
        # the exit code reaches the shell through the wrapper's sys.exit
        proc = run("validate", str(bad))
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stdout

    def test_module_and_console_script_give_the_same_bytes(self, tmp_path):
        pytest.importorskip("setuptools")
        ep = self.declared_console_script(tmp_path)
        # both launchers start at the one entry function
        assert ep.value == "cmfuse.cli:entry_point"
        bad = tmp_path / "bad.json"
        bad.write_text('{"correspondences": 1}', encoding="utf-8")
        launchers = (
            [sys.executable, "-m", "cmfuse"],
            [sys.executable, "-c", self.WRAPPER, ep.name, ep.value, ep.group],
        )
        cases = [
            (["validate", BIBLIO1, BIBLIO2, DOMAIN], 0),
            (["merge", str(bad), "-o", "out"], 2),
            (["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", "out", "--fail-on-conflict"], 3),
        ]
        for args, code in cases:
            seen = []
            for launcher in launchers:
                shutil.rmtree(tmp_path / "out", ignore_errors=True)
                proc = subprocess.run(
                    [*launcher, *args], capture_output=True, cwd=tmp_path, env=self.child_env()
                )
                files = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*")}
                seen.append((proc.returncode, proc.stdout, proc.stderr, files))
            assert seen[0][0] == code, seen[0][2]
            assert seen[0] == seen[1]
