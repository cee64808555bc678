"""The named workloads: corpus shape, the timed cmfuse commands, and why each exists."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from corpus import Shape

PIPELINE = "pipeline"
REPLAY = "replay"


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    mode: str
    kind: str
    why: str

    def pipeline_argv(self, inputs: Path, out: Path) -> list[str]:
        return [
            "pipeline",
            str(inputs / "a.json"),
            str(inputs / "b.json"),
            "--domain",
            str(inputs / "domain.json"),
            "-o",
            str(out),
            "--mode",
            self.mode,
        ]

    def timed_commands(self, inputs: Path, out: Path) -> list[tuple[list[str], str | None]]:
        """The argv of each timed cmfuse call, with the file its stdout is kept in."""
        if self.kind == PIPELINE:
            return [(self.pipeline_argv(inputs, out), None)]
        alignment = str(inputs / "out" / "alignment.json")
        return [
            (["merge", alignment, "-o", str(out)], None),
            (["report", alignment], "report.txt"),
        ]


# Sizes were chosen so that one timed run takes one to three seconds on a
# two-core machine: long enough that process start-up is a small share,
# short enough for ten or more runs in the measured window.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-literal",
            Shape(
                per_side=80,
                members=8,
                member_concepts=250,
                synonym_pairs=8,
                homonym_pairs=4,
                ambiguous_terms=6,
            ),
            "literal",
            PIPELINE,
            "default literal pipeline on a realistic catalog where most pairs share no member key;"
            " exercises pair scoring, re-anchoring and the re-scoring report",
        ),
        Workload(
            "dense-bipartite",
            Shape(
                per_side=30,
                members=10,
                member_concepts=24,
                synonym_pairs=3,
                homonym_pairs=2,
                ambiguous_terms=2,
            ),
            "bipartite",
            PIPELINE,
            "bipartite pipeline over a small vocabulary so every pair shares member keys;"
            " exact Kuhn-Munkres dominates and blocking cannot prune",
        ),
        Workload(
            "consolidate-replay",
            Shape(
                per_side=6,
                members=10,
                member_concepts=40,
                homonym_pairs=2,
                groups=2,
                group_size=30,
            ),
            "literal",
            REPLAY,
            "merge plus report read back from a large alignment document with big synonym"
            " classes; the read path, merge member folding and alignment parsing",
        ),
    )
}

# Reproduces the known name collision of a merged class with a
# pass-through component; run once per full benchmark as a defect probe,
# never as a timed workload.
COLLISION_PROBE = Workload(
    "name-collision-probe",
    Shape(per_side=4, members=4, member_concepts=12, synonym_pairs=1, homonym_pairs=1, collisions=1),
    "literal",
    PIPELINE,
    "a planted synonym pair named by non-label terms next to a component named by the label",
)
