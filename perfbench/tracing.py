"""Spans around braidcat's public functions, for the traced run.

The wrappers live in the benchmark, not in braidcat.  ``Tracer.install``
rebinds each wrapped function in every loaded braidcat module that holds
it under its own name, because callers look names up where they imported
them: ``braidcat.audit`` imports ``find_embeddings`` by name, so both
``braidcat.embed.find_embeddings`` and ``braidcat.audit.find_embeddings``
are patched.  Methods are patched on their class.  ``uninstall`` puts the
originals back.

A span is a list ``[name, start, end, parent, job, tag, detail]``: start
and end from ``time.perf_counter`` (a clock shared by every process on
Linux), ``parent`` the index of the enclosing span or -1, ``job`` and
``tag`` the benchmark job it ran under.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

NAME, START, END, PARENT, JOB, TAG, DETAIL = range(7)
SPAN_FIELDS = ("name", "start", "end", "parent", "job", "tag", "detail")
CLI_MARKER = "PERFBENCH-SPANS "

PRUNE_REASONS = (
    "degree",
    "target-node-used",
    "distance",
    "length-mismatch",
    "injectivity-clash",
    "local-isometry-clash",
)
# Job tags from workloads.py and the identifier prefixes of the audit
# catalogue, spelled out because the metric names are fixed in
# BENCHMARK.json.
LENGTH_TAGS = ("L50", "L100", "L200", "L400", "L800")
COSET_TAGS = ("S5-1", "S6-1", "S7-abc", "S7-abce")
STRATEGIES = ("hlt", "felsch")
AUDIT_SURFACES = (
    "brady", "center", "complex", "convention", "dictionary", "embed", "identity", "index",
    "link", "matrix", "orbit", "perm", "presentation", "relator", "symmetry", "wing",
)


def _count_normal_form(counts: Counter, result, args, kwargs) -> None:
    counts["garside.factors_out"] += len(result.factors)


def _strategy(args, kwargs) -> str:
    return kwargs.get("strategy", args[2] if len(args) > 2 else "hlt")


def _count_enumeration(counts: Counter, result, args, kwargs) -> None:
    counts[f"cosets.defined.{result.strategy}"] += result.defined
    counts[f"cosets.count.{result.strategy}"] += getattr(result, "count", 0)


def _search_kind(args, kwargs) -> str:
    # The audit's main search is the one run with a trace and a symmetry.
    return "main" if kwargs.get("with_trace") and kwargs.get("automorphisms") else ""


def _count_search(counts: Counter, result, args, kwargs) -> None:
    counts["embed.nodes_explored"] += result.nodes_explored
    counts["embed.certificates"] += len(result.certificates)
    for reason, n in result.prunes.items():
        counts[f"embed.prunes.{reason}"] += n


# (module, function, span name, detail from the arguments, counts from the result)
FUNCTIONS = (
    ("braidcat.garside", "normal_form", "garside.normal_form", None, _count_normal_form),
    ("braidcat.garside", "equals", "garside.equals", None, None),
    ("braidcat.words", "parse", "words.parse", None, None),
    ("braidcat.cosets", "enumerate_cosets", "cosets.enumerate", _strategy, _count_enumeration),
    ("braidcat.cosets", "verify_table", "cosets.verify_table", None, None),
    ("braidcat.embed", "find_embeddings", "embed.find_embeddings", _search_kind, _count_search),
    ("braidcat.embed", "verify_embedding", "embed.verify_embedding", None, None),
    ("braidcat.complexes", "vertex_link", "complexes.vertex_link", None, None),
    ("braidcat.reps", "evaluate_matrix", "reps.evaluate", None, None),
    ("braidcat.reps", "evaluate_permutation", "reps.evaluate", None, None),
    ("braidcat.reps", "generated_subgroup", "reps.generated_subgroup", None, None),
    ("braidcat.fixtures", "g0_presentation", "fixtures.build", None, None),
    ("braidcat.fixtures", "sl2_presentation", "fixtures.build", None, None),
    ("braidcat.fixtures", "graph_fixture", "fixtures.build", None, None),
    ("braidcat.fixtures", "complex_fixture", "fixtures.build", None, None),
    ("braidcat.fixtures", "link_symmetry", "fixtures.build", None, None),
    ("braidcat.audit", "run_audit", "audit.run_audit", None, None),
)
# (module, class, method, span name)
METHODS = (
    ("braidcat.words", "Word", "__mul__", "words.mul"),
    ("braidcat.metric_graph", "MetricGraph", "distance", "metric_graph.distance"),
    ("braidcat.metric_graph", "MetricGraph", "girth", "metric_graph.girth"),
    ("braidcat.metric_graph", "MetricGraph", "girth_exhaustive", "metric_graph.girth_exhaustive"),
    ("braidcat.metric_graph", "MetricGraph", "smooth", "metric_graph.smooth"),
)


# Every per-layer metric as (name, unit, better).
PER_LAYER = (
    ("garside.normal_form.calls", "count", "lower"),
    ("garside.normal_form_s", "s", "lower"),
    *((f"garside.normal_form_s.{t}", "s", "lower") for t in LENGTH_TAGS),
    ("garside.equals_s", "s", "lower"),
    ("garside.factors_out", "count", "lower"),
    ("words.mul.calls", "count", "lower"),
    ("words.mul_s", "s", "lower"),
    ("words.parse_s", "s", "lower"),
    ("cosets.verify_table_s", "s", "lower"),
    *((f"cosets.verify_table_s.{t}", "s", "lower") for t in COSET_TAGS),
    *((f"cosets.enumerate_s.{s}", "s", "lower") for s in STRATEGIES),
    *((f"cosets.defined.{s}", "count", "lower") for s in STRATEGIES),
    *((f"cosets.useful_ratio.{s}", "ratio", "higher") for s in STRATEGIES),
    ("metric_graph.distance.calls", "count", "lower"),
    ("metric_graph.distance_s", "s", "lower"),
    ("metric_graph.girth_s", "s", "lower"),
    ("metric_graph.girth_exhaustive_s", "s", "lower"),
    ("metric_graph.smooth_s", "s", "lower"),
    ("embed.search_self_s", "s", "lower"),
    ("embed.main_search_s", "s", "lower"),
    ("embed.nodes_explored", "count", "lower"),
    ("embed.certificates", "count", "higher"),
    *((f"embed.prunes.{r}", "count", "lower") for r in PRUNE_REASONS),
    ("embed.useful_ratio", "ratio", "higher"),
    ("embed.verify_embedding_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("audit.run_audit_s", "s", "lower"),
    *((f"audit.check_s.{s}", "s", "lower") for s in AUDIT_SURFACES),
    ("fixtures.build_s", "s", "lower"),
    ("complexes.vertex_link_s", "s", "lower"),
    ("reps.evaluate_s", "s", "lower"),
    ("reps.generated_subgroup_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self.tag: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    # -- patching -------------------------------------------------------

    def _wrap(self, name, fn, detail=None, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, tracer.tag,
                    detail(args, kwargs) if detail else ""]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, result, args, kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, key, value, mapping=False) -> None:
        old = owner[key] if mapping else getattr(owner, key)
        self._undo.append((owner, key, old, mapping))
        if mapping:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "braidcat"]
        wrappers = {}
        for module_name, attr, name, detail, count in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrappers[original] = self._wrap(name, original, detail, count)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrappers[original])
        # fixtures.SUBGROUPS holds the presentation factories themselves.
        subgroups = getattr(sys.modules.get("braidcat.fixtures"), "SUBGROUPS", {})
        for key, (factory, subgroup) in list(subgroups.items()):
            if factory in wrappers:
                self._set(subgroups, key, (wrappers[factory], subgroup), mapping=True)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            if cls is not None:
                self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old, mapping = self._undo.pop()
            if mapping:
                owner[key] = old
            else:
                setattr(owner, key, old)

    # -- spans from traced command-line processes -----------------------

    def absorb_cli_job(self, wall: float, report: dict, stderr: str) -> dict:
        """Take in one traced ``braidcat audit`` process: its spans, its
        counts, its startup, and the report's per-check seconds.

        The checks are closures inside audit.py, so they are not wrapped.
        Their spans are rebuilt by laying the report's per-check seconds
        end to end from the start of ``run_audit``, in the order the audit
        runs them.  Each span recorded directly under ``run_audit`` is hung
        under the check whose interval holds its midpoint.  Returns where
        the main search landed and what each check reported."""
        line = next(l for l in reversed(stderr.splitlines()) if l.startswith(CLI_MARKER))
        data = json.loads(line[len(CLI_MARKER):])
        base = len(self.spans)
        for span in data["spans"]:
            span[PARENT] = span[PARENT] + base if span[PARENT] >= 0 else -1
            span[JOB], span[TAG] = self.job, self.tag
            self.spans.append(span)
        self.counts.update(data["counts"])

        checks = sorted(report["results"], key=lambda r: r["ident"])
        checked = sum(r["seconds"] for r in checks)
        self.counts["cli.startup_s"] += data["startup_s"]
        self.counts["audit.run_audit_s"] += checked
        self.counts["cli.overhead_s"] += wall - data["startup_s"] - checked
        for r in checks:
            self.counts[f"audit.check_s.{r['ident'].split(':')[0]}"] += r["seconds"]

        recorded = range(base, len(self.spans))
        top = next(i for i in recorded if self.spans[i][NAME] == "audit.run_audit")
        at, intervals = self.spans[top][START], []
        for r in checks:
            intervals.append((at, at + r["seconds"], len(self.spans), r))
            self.spans.append(
                ["audit.check", at, at + r["seconds"], top, self.job, self.tag, r["ident"]]
            )
            at += r["seconds"]
        reported = {r["ident"]: r["seconds"] for r in checks if r["ident"].startswith("embed:")}
        main = {}
        for i in recorded:
            span = self.spans[i]
            middle = (span[START] + span[END]) / 2
            holder = next((x for x in intervals if x[0] <= middle < x[1]), None)
            if span[PARENT] != top or holder is None:
                continue
            span[PARENT] = holder[2]
            if span[DETAIL] == "main":
                main = {
                    "search_s": span[END] - span[START],
                    "charged_to": holder[3]["ident"],
                    "reported_s": reported,
                }
        return main


def tally(spans: list[list], counts: Counter) -> Counter:
    """Additive totals of one stretch of spans: seconds and calls per
    span name, per name and tag, per name and detail, and the search's
    self time."""
    out = Counter(counts)
    distance_under = Counter()
    for span in spans:
        name, seconds = span[NAME], span[END] - span[START]
        out[f"{name}_s"] += seconds
        out[f"{name}.calls"] += 1
        if span[TAG]:
            out[f"{name}_s.{span[TAG]}"] += seconds
        if span[DETAIL]:
            out[f"{name}_s.{span[DETAIL]}"] += seconds
        if name == "metric_graph.distance" and span[PARENT] >= 0:
            distance_under[span[PARENT]] += seconds
    for i, span in enumerate(spans):
        if span[NAME] == "embed.find_embeddings":
            out["embed.search_self_s"] += span[END] - span[START] - distance_under[i]
    return out


def layer_metrics(t: Counter, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics from a tally; work not done reads as zero."""
    m = {name: float(t[name]) for name, _, _ in PER_LAYER}
    for s in STRATEGIES:
        defined = t[f"cosets.defined.{s}"]
        m[f"cosets.useful_ratio.{s}"] = t[f"cosets.count.{s}"] / defined if defined else 0.0
    m["embed.main_search_s"] = float(t["embed.find_embeddings_s.main"])
    explored = t["embed.nodes_explored"]
    pruned = sum(t[f"embed.prunes.{r}"] for r in PRUNE_REASONS)
    m["embed.useful_ratio"] = (explored - pruned) / explored if explored else 0.0
    m["trace.overhead_s"] = overhead_s
    return m
