"""In-process tracing of one cmfuse run, from outside the package.

Wrappers replace the public names that cmfuse's own callers look up
(``cmfuse.cli.align``, ``cmfuse.report.similarity_matrix``, ...) and are
removed again after the run. Coarse calls record a span (name, start,
end, parent); calls that happen hundreds of thousands of times per run
only count and sum their time, so the trace stays small. Time spent in
the tracer's own result hooks is subtracted from every enclosing span.
A name that no longer exists is reported as missing and reads zero.
"""

from __future__ import annotations

import importlib
import random
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction

SPAN = "span"
COUNT = "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, hook seconds inside]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.values: Counter = Counter()
        self.hook_s = 0.0
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    def install(self):
        for module, attr, name, style, hook in PATCHES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrap = self._span if style == SPAN else self._count
            setattr(mod, attr, wrap(name, original, hook))
            self._patches.append((mod, attr, original))

    def restore(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _hook(self, hook, args, kwargs, result):
        if hook is not None:
            t = time.perf_counter()
            hook(self.values, args, kwargs, result)
            self.hook_s += time.perf_counter() - t

    def _span(self, name, fn, hook):
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.hook_s]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                self.stack.pop()
                span[4] = self.hook_s - span[4]
                self.calls[name] += 1
            self._hook(hook, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn, hook):
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            t = perf()
            result = fn(*args, **kwargs)
            self.busy[name] += perf() - t
            self.calls[name] += 1
            self._hook(hook, args, kwargs, result)
            return result

        return wrapper

    def run(self, name, fn):
        """Call fn under a root span."""
        return self._span(name, fn, None)()

    def durations(self) -> defaultdict:
        total = defaultdict(float)
        for name, start, end, _, hooks in self.spans:
            total[name] += end - start - hooks
        for name, seconds in self.busy.items():
            total[name] += seconds
        return total

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus what their direct children cover."""
        own = {i: s[2] - s[1] - s[4] for i, s in enumerate(self.spans) if s[0] == name}
        for _, start, end, parent, hooks in self.spans:
            if parent in own:
                own[parent] -= end - start - hooks
        return sum(own.values())


def _matrix_stats(values, args, kwargs, result):
    cells = result.cells
    values["similarity.cells_requested"] += len(result.left_members) * len(result.right_members)
    values["similarity.hits"] += sum(1 for row in cells for c in row if c.num == c.den)
    values["similarity.synonyms"] += result.aggregate.num == result.aggregate.den


def _members(values, args, kwargs, result):
    members = result.root.members
    values["transform.members"] += len(members)
    values["transform.anchored"] += sum(1 for m in members if m.anchor is not None)


def _assignment(values, args, kwargs, result):
    weights = args[0]
    values["assignment.k_total"] += max(len(weights), len(weights[0]) if weights else 0)


def _merged(values, args, kwargs, result):
    for root in result.representation.roots:
        if len(root.merged_from) > 1:
            values["integrate.classes"] += 1
        elif root.ontology.origin != root.merged_from[0].origin:
            values["integrate.qualified"] += 1
        else:
            values["integrate.passthrough"] += 1


def _aligned(values, args, kwargs, result):
    values["integrate.correspondences"] = len(result.correspondences)
    values["integrate.pairs"] = len(result.roots)


def _parsed(values, args, kwargs, result):
    values["integrate.correspondences"] = len(result.alignment.correspondences)
    values["integrate.pairs"] = len(result.alignment.roots)


def _text_bytes(key):
    def hook(values, args, kwargs, result):
        values[key] += len(result.encode("utf-8"))

    return hook


# (module, name looked up by the caller, span name, style, result hook)
PATCHES = [
    ("cmfuse.cli", "parse_component_set", "components.parse", SPAN, None),
    ("cmfuse.cli", "union", "components.layering", SPAN, None),
    ("cmfuse.cli", "check_layering", "components.layering", SPAN, None),
    ("cmfuse.cli", "serialize_component_set", "components.serialize", SPAN, None),
    ("cmfuse.cli", "load_domain_ontology", "ontology.load", SPAN, None),
    ("cmfuse.integrate", "load_domain_ontology", "ontology.load", SPAN, None),
    ("cmfuse.cli", "to_ontology", "transform.to_ontology", SPAN, _members),
    ("cmfuse.cli", "align", "integrate.align", SPAN, _aligned),
    ("cmfuse.integrate", "similarity_matrix", "similarity.matrix", SPAN, _matrix_stats),
    ("cmfuse.report", "similarity_matrix", "report.rescore", SPAN, _matrix_stats),
    ("cmfuse.similarity", "max_assignment", "assignment", SPAN, _assignment),
    ("cmfuse.similarity", "anchor", "similarity.reanchor", COUNT, None),
    ("cmfuse.cli", "merge", "integrate.merge", SPAN, _merged),
    ("cmfuse.integrate", "semantic_similarity", "integrate.merge_semantic", COUNT, None),
    ("cmfuse.cli", "serialize_alignment", "integrate.serialize", SPAN,
     _text_bytes("integrate.alignment_bytes")),
    ("cmfuse.cli", "serialize_representation", "integrate.serialize", SPAN, None),
    ("cmfuse.cli", "parse_alignment", "integrate.parse_alignment", SPAN, _parsed),
    ("cmfuse.integrate", "dump_json", "jsonio.dump", SPAN, None),
    ("cmfuse.integrate", "load_json", "jsonio.load", SPAN, None),
    ("cmfuse.cli", "render_pipeline_report", "report.render", SPAN, _text_bytes("report.bytes")),
    ("cmfuse.cli", "render_alignment_text", "report.render", SPAN, _text_bytes("report.bytes")),
    ("cmfuse.cli", "_write", "cli.write", SPAN, None),
]

# per-layer metric -> unit
LAYER_UNITS = {
    "components.parse_s": "s",
    "components.layering_s": "s",
    "components.serialize_s": "s",
    "ontology.load_s": "s",
    "transform.to_ontology_s": "s",
    "transform.members": "count",
    "transform.anchored_ratio": "ratio",
    "integrate.align_s": "s",
    "integrate.align_self_s": "s",
    "similarity.matrix_calls": "count",
    "similarity.matrix_s": "s",
    "similarity.cells_requested": "count",
    "similarity.hit_ratio": "ratio",
    "similarity.synonym_ratio": "ratio",
    "similarity.reanchor_calls": "count",
    "assignment.calls": "count",
    "assignment.s": "s",
    "assignment.mean_k": "count",
    "report.render_s": "s",
    "report.rescore_calls": "count",
    "report.bytes": "bytes",
    "integrate.merge_s": "s",
    "integrate.merge_semantic_calls": "count",
    "integrate.classes": "count",
    "integrate.qualified": "count",
    "integrate.passthrough": "count",
    "integrate.serialize_s": "s",
    "integrate.alignment_bytes": "bytes",
    "integrate.parse_alignment_s": "s",
    "integrate.correspondences": "count",
    "integrate.pairs": "count",
    "jsonio.dump_s": "s",
    "jsonio.load_s": "s",
    "cli.write_s": "s",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
    "ontology.anchor_us": "us",
    "similarity.cell_us": "us",
    "assignment.k8_ms": "ms",
    "assignment.k16_ms": "ms",
}

# measured times, summarized by median and quartiles; every other
# per-layer metric is a count that must repeat exactly
TIMED = {n for n, u in LAYER_UNITS.items() if u in ("s", "us", "ms")} | {"trace.overhead_ratio"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (without overhead and micro-timings)."""
    d = tracer.durations()
    c = tracer.calls
    v = tracer.values
    matrix_calls = c["similarity.matrix"] + c["report.rescore"]
    return {
        "components.parse_s": d["components.parse"],
        "components.layering_s": d["components.layering"],
        "components.serialize_s": d["components.serialize"],
        "ontology.load_s": d["ontology.load"],
        "transform.to_ontology_s": d["transform.to_ontology"],
        "transform.members": v["transform.members"],
        "transform.anchored_ratio": _ratio(v["transform.anchored"], v["transform.members"]),
        "integrate.align_s": d["integrate.align"],
        "integrate.align_self_s": tracer.self_time("integrate.align"),
        "similarity.matrix_calls": matrix_calls,
        "similarity.matrix_s": d["similarity.matrix"] + d["report.rescore"],
        "similarity.cells_requested": v["similarity.cells_requested"],
        "similarity.hit_ratio": _ratio(v["similarity.hits"], v["similarity.cells_requested"]),
        "similarity.synonym_ratio": _ratio(v["similarity.synonyms"], matrix_calls),
        "similarity.reanchor_calls": c["similarity.reanchor"],
        "assignment.calls": c["assignment"],
        "assignment.s": d["assignment"],
        "assignment.mean_k": _ratio(v["assignment.k_total"], c["assignment"]),
        "report.render_s": d["report.render"],
        "report.rescore_calls": c["report.rescore"],
        "report.bytes": v["report.bytes"],
        "integrate.merge_s": d["integrate.merge"],
        "integrate.merge_semantic_calls": c["integrate.merge_semantic"],
        "integrate.classes": v["integrate.classes"],
        "integrate.qualified": v["integrate.qualified"],
        "integrate.passthrough": v["integrate.passthrough"],
        "integrate.serialize_s": d["integrate.serialize"],
        "integrate.alignment_bytes": v["integrate.alignment_bytes"],
        "integrate.parse_alignment_s": d["integrate.parse_alignment"],
        "integrate.correspondences": v["integrate.correspondences"],
        "integrate.pairs": v["integrate.pairs"],
        "jsonio.dump_s": d["jsonio.dump"],
        "jsonio.load_s": d["jsonio.load"],
        "cli.write_s": d["cli.write"],
        "trace.run_s": run_s,
    }


def _per_call(fn, calls: int, repeats: int = 7) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def micro_timings(domain_text: str, seed: int) -> dict[str, float]:
    """Three single-call timings: anchor, one atomic cell, k-by-k assignment."""
    from cmfuse import ANCHOR_UNIQUE, KIND_ATTRIBUTE, Concept, anchor, load_domain_ontology
    from cmfuse import semantic_similarity
    from cmfuse.assignment import max_assignment

    od = load_domain_ontology(domain_text)
    term, concept = next(
        (t, anchor(t, od).concepts[0])
        for e in od.thesaurus.entries
        for t in e.terms
        if anchor(t, od).kind == ANCHOR_UNIQUE
    )
    left = Concept(term, term, KIND_ATTRIBUTE, anchor=concept)
    right = Concept(term, term.upper(), KIND_ATTRIBUTE, anchor=concept)
    rng = random.Random(f"cmfuse-bench/micro/{seed}")
    out = {
        "ontology.anchor_us": _per_call(lambda: anchor(term, od), 5000) * 1e6,
        "similarity.cell_us": _per_call(lambda: semantic_similarity(left, right, od), 5000) * 1e6,
    }
    for k, calls in ((8, 20), (16, 4)):
        weights = [[Fraction(rng.randrange(9), 8) for _ in range(k)] for _ in range(k)]
        out[f"assignment.k{k}_ms"] = _per_call(lambda: max_assignment(weights), calls) * 1e3
    return out
