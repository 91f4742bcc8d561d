"""The braidcat benchmark: time to verdict on four closed-loop workloads.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client issues the workload's jobs one at a time, in passes over a
fixed job list built from the seed, and judges every verdict against an
answer known without the code under test (see ``workloads.py``).  A pass
is started while it is expected to end within ``--seconds``; every run
makes at least two passes (with ``--trace 1``, at least one untraced and
one traced).

Every end-to-end time is scaled to a fixed machine speed: a thread
times a short pure-Python reference loop all through the run
(``speed.py``), and each job's wall seconds are multiplied by the
reference's mean speed during that job over its nominal speed.  The
human-readable lines give the raw wall times too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones, timed from wrappers around braidcat's public functions
(``tracing.py``) and written as spans to ``.perfbench/``.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any verdict was wrong, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from speed import REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "pass_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def tail_percentile(jobs_per_pass: int) -> int:
    """The highest whole percentile with at least ten jobs beyond it in the
    two passes every run makes, or with one beyond it when two passes hold
    ten jobs or fewer.  It depends on the job list only, so a faster build
    that fits more passes in a run reads the same percentile."""
    n = 2 * jobs_per_pass
    beyond = 10 if n > 10 else 1
    return 100 * (n - beyond) // n


def percentile(samples: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int, env: dict) -> list[tuple[float, float]]:
    """The intervals from starting a fresh interpreter to its inputs being
    built, for several fresh interpreters."""
    intervals = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            intervals.append((start, time.perf_counter()))
            proc.stdout.read()
        finally:
            proc.stdout.close()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe for {workload} failed")
    return intervals


class Runner:
    """Runs passes over a job list and keeps what they measured.
    ``setup_spans`` are the spans recorded while the jobs were built.

    A pass is kept as (traced, wall seconds, job intervals); ``scale``
    turns its jobs' intervals into seconds at the reference speed once
    the reference samples are all in."""

    def __init__(self, jobs, tracer, setup_spans, setup_counts):
        self.jobs = jobs
        self.tracer = tracer
        self.setup_spans = setup_spans
        self.setup_tally = tracing.tally(setup_spans, setup_counts)
        self.passes: list[tuple[bool, float, list[tuple[float, float]]]] = []
        self.scaled: list[tuple[bool, list[float]]] = []
        self.traced_tallies = []
        self.first_traced_spans: list[list] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool) -> None:
        if traced:
            self.tracer.install()
        intervals = []
        start = time.perf_counter()
        try:
            for job in self.jobs:
                self.tracer.job, self.tracer.tag = job.name, job.tag
                t0 = time.perf_counter()
                try:
                    job.run(traced)
                except Exception as exc:  # a wrong or crashed job is counted, the run goes on
                    self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
                intervals.append((t0, time.perf_counter()))
                self.attempted += 1
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes.append((traced, time.perf_counter() - start, intervals))
        if traced:
            spans, counts = self.tracer.take()
            self.traced_tallies.append(tracing.tally(spans, counts))
            if self.first_traced_spans is None:
                self.first_traced_spans = spans

    def run(self, seconds: float, modes: tuple[bool, ...]) -> None:
        """Alternate the modes, at least two passes in all and one of each
        mode, and start a pass only while it is expected to end in time."""
        start = time.perf_counter()
        for i in itertools.count():
            mode = modes[i % len(modes)]
            done = [s for t, s, _ in self.passes if t == mode]
            if i >= max(2, len(modes)) and done:
                if time.perf_counter() + statistics.median(done) > start + seconds:
                    break
            self.run_pass(mode)

    def scale(self, speed: Speed) -> None:
        self.scaled = [
            (traced, [(b - a) * speed.scale(a, b) for a, b in intervals])
            for traced, _, intervals in self.passes
        ]

    def pass_seconds(self, traced: bool) -> float:
        """Median over the passes of the sum of their scaled job times."""
        return statistics.median(sum(s) for t, s in self.scaled if t == traced)

    def raw_pass_seconds(self, traced: bool) -> float:
        return statistics.median(w for t, w, _ in self.passes if t == traced)


def end_to_end(runner: Runner, speed: Speed, setup: list[tuple[float, float]],
               subprocess_jobs: bool) -> dict:
    setup_s = statistics.median((b - a) * speed.scale(a, b) for a, b in setup)
    raw_setup_s = statistics.median(b - a for a, b in setup)
    samples = [x for traced, s in runner.scaled if not traced for x in s]
    p = tail_percentile(len(runner.jobs))
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if subprocess_jobs:
        usage = max(usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "pass_s": runner.pass_seconds(False),
        "job_s.p50": statistics.median(samples),
        "job_s.tail": percentile(samples, p),
        "setup_s": setup_s,
        "peak_rss_mb": usage / 1024,
    }
    times = " ".join(f"{s:.3f}" for _, s, _ in runner.passes)
    print(f"passes        {len(runner.passes)} of {len(runner.jobs)} jobs, "
          f"{len(samples)} job samples; raw wall pass seconds {times}")
    print(f"raw wall      pass_s {runner.raw_pass_seconds(False):.6f} s, "
          f"setup_s {raw_setup_s:.6f} s; reference sample median "
          f"{speed.median_sample():.6f} s of {len(speed.cpu)}, nominal {REFERENCE_S} s")
    for name, value in values.items():
        print(f"{name:<13} {value:.6f} {END_TO_END_UNITS[name]}")
    print(f"job_s.tail is p{p} of {len(samples)} job samples")
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(runner: Runner, workload: str, seed: int, main_search: dict) -> dict:
    untraced, traced = runner.pass_seconds(False), runner.pass_seconds(True)
    overhead = traced - untraced
    print(f"pass_s untraced {untraced:.6f} s, traced {traced:.6f} s, "
          f"tracing overhead {overhead:.6f} s")
    per_pass = []
    for t in runner.traced_tallies:
        t.update(runner.setup_tally)
        per_pass.append(tracing.layer_metrics(t, overhead))
    names = [name for name, _, _ in tracing.PER_LAYER]
    values = {name: statistics.median(m[name] for m in per_pass) for name in names}
    if main_search:
        reported = ", ".join(f"{k} {v:.6f} s" for k, v in main_search["reported_s"].items())
        print(f"main search span {main_search['search_s']:.6f} s ran inside "
              f"{main_search['charged_to']}; the report's seconds: {reported}")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "note": "spans of the in-process input build and the first traced pass; "
                "audit.check spans are rebuilt from the report's per-check seconds",
        "fields": tracing.SPAN_FIELDS,
        "setup_spans": runner.setup_spans,
        "spans": runner.first_traced_spans,
        "main_search": main_search,
    }))
    print(f"spans written to {path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "braidcat" / "__init__.py").is_file():
        print(f"error: no braidcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    traced = bool(args.trace)
    tracer = tracing.Tracer()
    main_search: dict = {}

    def on_traced_job(wall, report, stderr):
        found = tracer.absorb_cli_job(wall, report, stderr)
        if not main_search:
            main_search.update(found)

    with Speed() as reference:
        if not traced:
            setup = measure_setup(args.workload, args.seed, workloads.subprocess_env())
        if traced:
            tracer.install()
        try:
            if args.workload == "audit-cli":
                jobs = workloads.audit_jobs(args.seed, on_traced_job)
            else:
                jobs = workloads.BUILDERS[args.workload](args.seed)
        finally:
            tracer.uninstall()
        runner = Runner(jobs, tracer, *tracer.take())
        runner.run(args.seconds, (False, True) if traced else (False,))
    runner.scale(reference)
    if traced:
        metrics = per_layer(runner, args.workload, args.seed, main_search)
    else:
        metrics = end_to_end(runner, reference, setup, args.workload == "audit-cli")
    failed = len(runner.failures)
    print(f"failed_frac   {failed / runner.attempted:.6f} ({failed} of {runner.attempted} jobs)")
    for line in runner.failures[:20]:
        print(f"wrong verdict: {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
