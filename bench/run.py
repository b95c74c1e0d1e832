"""The algoeff benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) from the root of a source checkout,
against the code under src/. Every command's output is checked against
answers the input generators computed themselves. With --trace 0 the
end-to-end metrics are measured, as wall times scaled to a nominal host
speed (see REF_SECONDS); with --trace 1 every command runs twice,
untraced and then traced, and the per-layer metrics are reported, with
the tracing overhead. A summary of every metric goes to stderr, the
spans of a traced run to .bench_work/, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

SETUP_REPEATS = 5
PROBES = 5
# a run goes on until the 90th percentile has ten samples beyond it
MIN_SAMPLES = 100
CHILD_TIMEOUT = 120
# stop starting commands this long after start, so a run always ends in time
WALL_LIMIT = 140.0
CLI_ENTRY = "import sys; from algoeff.cli import main; sys.exit(main())"
# Gated times are wall times scaled to a nominal host speed: each command's
# wall time is multiplied by REF_SECONDS over the time of a fixed reference
# loop run just before it. The host this benchmark runs on changes speed by
# tens of percent from minute to minute; the same in-process command read
# 91-112 ms across 30-second windows while its ratio to the loop stayed
# within 55-60. REF_SECONDS only sets the scale: the loop's time on a host
# of nominal speed. Raw wall times are printed on stderr as wall.*.
REF_SECONDS = 0.002
ENV = dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Sample:
    kind: str
    fmt: str
    bucket: str
    nodes: int
    records: int
    seconds: float
    #: REF_SECONDS over the reference loop's time just before the command
    scale: float
    failure: str | None = None
    traced_seconds: float | None = None
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    rc_traced: int = 0


def reference_scale() -> float:
    """REF_SECONDS over the fastest of three runs of a fixed interpreter loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total, table = 0, {}
        for i in range(10_000):
            total += i * i
            table[i & 255] = (i, total)
        best = min(best, time.perf_counter() - t0)
    return REF_SECONDS / best


def child(args: list[str]) -> tuple[int, str, str, float]:
    """Run the interpreter on args; (exit code, stdout, stderr, wall seconds)."""
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV,
                       cwd=ROOT, timeout=CHILD_TIMEOUT)
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - t0


class Runner:
    """Executes commands, in this process or each in a fresh one."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.cli_main = None
        if workload.in_process:
            sys.path.insert(0, str(SRC))
            from algoeff import cli
            self.cli_main = cli.main
        self.tracer = tracing.Tracer()

    def untraced(self, argv: list[str]) -> tuple[int, str, str, float]:
        if self.cli_main is None:
            return child(["-c", CLI_ENTRY, *argv])
        return self._in_process(self.cli_main, argv)

    def traced(self, argv: list[str]) -> tuple[int, str, str, float, list, Counter]:
        if self.cli_main is None:
            spans_file = self.workload.work / "spans.json"
            rc, out, err, seconds = child([str(BENCH / "trace_child.py"), str(spans_file), *argv])
            data = json.loads(spans_file.read_text())
            spans_file.unlink()
            return rc, out, err, seconds, data["spans"], Counter(data["counts"])
        rc, out, err, seconds = self._in_process(
            lambda a: self.tracer.run(self.cli_main, a), argv)
        return rc, out, err, seconds, self.tracer.spans, self.tracer.counts

    @staticmethod
    def _in_process(fn, argv):
        out, err = io.StringIO(), io.StringIO()
        # Collect the previous command's garbage, then move everything alive
        # (inputs, expected answers, samples) out of the collector's sight,
        # so the command's collections scan about what a fresh process would.
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = fn(argv)
            except (Exception, SystemExit) as exc:  # a traceback is a failed command
                rc = -1
                err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), seconds


def judge(cmd: Command, rc: int, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    try:
        return cmd.check(check.parse(out, cmd.fmt)) or (cmd.after() if cmd.after else None)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, OSError) as exc:
        return f"unreadable output: {exc!r}"


def execute(runner: Runner, cmd: Command, trace: bool) -> Sample:
    argv = cmd.full_argv()
    if cmd.prepare:
        cmd.prepare()
    scale = reference_scale()
    rc, out, err, seconds = runner.untraced(argv)
    sample = Sample(cmd.kind, cmd.fmt, cmd.bucket, cmd.nodes, cmd.records, seconds, scale,
                    judge(cmd, rc, out, err))
    if trace:
        if cmd.prepare:
            cmd.prepare()
        rc, out, err, sample.traced_seconds, sample.spans, sample.counts = runner.traced(argv)
        sample.rc_traced = rc
        sample.failure = sample.failure or judge(cmd, rc, out, err)
    return sample


def set_up(workload: Workload) -> tuple[float, float, list[str]]:
    """Median scaled and wall time of generating the warm-up input and running it cold.

    Each repeat regenerates the warm-up input from the seed and runs the
    warm-up command in a fresh interpreter, so the import of algoeff.cli
    and everything the first command sets up are counted every time.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        scale = reference_scale()
        t0 = time.perf_counter()
        argv = workload.warmup(random.Random(workload.seed))
        rc, _, err, _ = child(["-c", CLI_ENTRY, *argv])
        if rc != 0:
            raise SystemExit(f"warm-up command {argv} failed: {err.strip()}")
        wall.append(time.perf_counter() - t0)
        scaled.append(wall[-1] * scale)
    return statistics.median(scaled), statistics.median(wall), argv


def percentile_with_tail(values: list[float], q: float = 0.9, tail: int = 10) -> float:
    """Nearest-rank q-th percentile, lowered until `tail` samples lie beyond it."""
    ordered = sorted(values)
    k = min(math.ceil(q * len(ordered)) - 1, len(ordered) - 1 - tail)
    return ordered[max(k, 0)]


def timings(seconds: list[float], samples: list[Sample], setup_s: float) -> dict:
    busy = sum(seconds)
    times = [t * 1000.0 for t in seconds]
    return {
        "cmd_ms_p50": (statistics.median(times), "ms"),
        "cmd_ms_p90": (percentile_with_tail(times), "ms"),
        "cmds_per_s": (len(samples) / busy, "1/s"),
        "items_per_s": (sum(s.nodes + s.records for s in samples) / busy, "1/s"),
        "setup_s": (setup_s, "s"),
    }


def end_to_end(samples: list[Sample], setup_s: float, in_process: bool) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    m = timings([s.seconds * s.scale for s in samples], samples, setup_s)
    m["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, "MB")
    return m


SCALE_BUCKETS = {
    "us_per_node": ("flops_per_layer", "nodes", ("1k", "4k", "16k", "50k")),
    "us_per_record": ("report", "records", ("2k", "10k", "40k", "100k")),
}


def aggregate(samples: list[Sample]) -> tuple[dict[str, list], Counter]:
    """Summed [self seconds, calls] per span name, and summed counters."""
    selfs: dict[str, list] = defaultdict(lambda: [0.0, 0])
    counts: Counter = Counter()
    for s in samples:
        for name, (secs, calls) in tracing.self_times(s.spans).items():
            selfs[name][0] += secs
            selfs[name][1] += calls
        counts.update(s.counts)
    return selfs, counts


def by_kind(samples: list[Sample]) -> dict[str, list[Sample]]:
    groups: dict[str, list[Sample]] = defaultdict(list)
    for s in samples:
        groups[s.kind].append(s)
    return dict(sorted(groups.items()))


def per_layer(samples: list[Sample], probes: dict) -> dict:
    n = len(samples)
    selfs, counts = aggregate(samples)
    groups = by_kind(samples)
    # main's exceptions become exit codes, so a failed command is a nonzero one
    counts["cli.errors"] = sum(s.rc_traced != 0 for s in samples)

    def ms(name):
        return (selfs[name][0] * 1000.0 / n, "ms/cmd")

    def calls(name):
        return (selfs[name][1] / n, "1/cmd")

    def ratio(num, den):
        return num / den if den else 0.0

    def kind_calls(kind, name):
        group = groups.get(kind, [])
        return (ratio(aggregate(group)[0][name][1], len(group)), "1/cmd")

    m = {f"import.{k}_ms": (v, "ms") for k, v in probes["import"].items()}
    m["python.pass_ms"] = (probes["pass_ms"], "ms")
    m.update({
        "cli.self_ms": ms(tracing.ROOT_SPAN),
        "zoo.builtin_arch_ms": ms("zoo.builtin_arch"),
        "zoo.builtin_arch_calls": calls("zoo.builtin_arch"),
        "datasets.load_ms": ms("datasets.load"),
        "datasets.load_calls": calls("datasets.load"),
        "graph.arch_from_json_ms": ms("graph.arch_from_json"),
        "graph.validate_arch_ms": ms("graph.validate_arch"),
        "graph.validate_arch_calls": calls("graph.validate_arch"),
        "shapes.infer_shapes_ms": ms("shapes.infer_shapes"),
        "shapes.infer_shapes_calls_per_cmd": calls("shapes.infer_shapes"),
        "shapes.infer_shapes_calls_per_cmd.flops_per_layer":
            kind_calls("flops_per_layer", "shapes.infer_shapes"),
        "shapes.infer_shapes_calls_per_cmd.shapes": kind_calls("shapes", "shapes.infer_shapes"),
        "shapes.nodes_inferred_per_node":
            (ratio(counts["nodes_inferred"], counts["nodes_loaded"]), "ratio"),
        "counting.count_flops_ms": ms("counting.count_flops"),
        "counting.count_flops_calls": calls("counting.count_flops"),
        "trends.records_from_json_ms": ms("trends.records_from_json"),
        "trends.records_to_json_ms": ms("trends.records_to_json"),
        "trends.frontier_ms": ms("trends.frontier"),
        "trends.frontier_calls_per_cmd": calls("trends.frontier"),
        "trends.frontier_calls_per_cmd.report": kind_calls("report", "trends.frontier"),
        "trends.frontier_calls_per_cmd.report_figures":
            kind_calls("report_figures", "trends.frontier"),
        "trends.total_evals_per_record":
            (ratio(counts["total_reads"], counts["records_loaded"]), "ratio"),
        "trends.fit_trend_ms": ms("trends.fit_trend"),
        "curves.parse_curve_ms": ms("curves.parse_curve"),
        "curves.rows_parsed": (counts["rows_parsed"] / n, "1/cmd"),
        "curves.threshold_ms": ms("curves.threshold"),
        "curves.to_compute_curve_ms": ms("curves.to_compute_curve"),
        "reports.tables_ms": ms("reports.tables"),
        "reports.render_ms": ms("reports.render"),
        "reports.bytes_out": (counts["bytes_out"] / n, "B/cmd"),
    })
    m.update({f"{layer}.errors": (counts[f"{layer}.errors"] / n, "1/cmd")
              for layer in tracing.LAYERS})
    untraced = statistics.median(s.seconds for s in samples) * 1000.0
    traced = statistics.median(s.traced_seconds for s in samples) * 1000.0
    m["trace.overhead_ms"] = (traced - untraced, "ms")
    m["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    for metric, (kind, attr, buckets) in SCALE_BUCKETS.items():
        for bucket in buckets:
            per_item = [s.seconds * 1e6 / getattr(s, attr) for s in samples
                        if s.kind == kind and s.fmt == "markdown" and s.bucket == bucket]
            m[f"scale.{metric}.{bucket}"] = (statistics.median(per_item) if per_item else 0.0, "us")
    return m


def startup_probes() -> dict:
    """Medians of bare interpreter start and of -X importtime per algoeff module."""
    passes = [child(["-c", "pass"])[3] * 1000.0 for _ in range(PROBES)]
    imports = [tracing.parse_importtime(child(["-X", "importtime", "-c", "import algoeff.cli"])[2])
               for _ in range(PROBES)]
    return {"pass_ms": statistics.median(passes),
            "import": {k: statistics.median(p[k] for p in imports) for k in imports[0]}}


def write_trace(path: Path, samples: list[Sample], metrics: dict) -> None:
    """Per-layer metrics, a per-command-kind summary and every command's spans."""
    summary = {}
    for kind, group in by_kind(samples).items():
        selfs, counts = aggregate(group)
        summary[kind] = {
            "commands": len(group),
            "self_ms_per_cmd": {k: v[0] * 1000.0 / len(group) for k, v in selfs.items()},
            "calls_per_cmd": {k: v[1] / len(group) for k, v in selfs.items()},
            "counts_per_cmd": {k: v / len(group) for k, v in counts.items()},
        }
    doc = {
        "per_layer": {k: v for k, (v, _) in metrics.items()},
        "by_kind": summary,
        "commands": [
            {"id": i, "kind": s.kind, "format": s.fmt, "bucket": s.bucket, "nodes": s.nodes,
             "records": s.records, "untraced_s": s.seconds, "traced_s": s.traced_seconds,
             "counts": s.counts, "spans": s.spans}
            for i, s in enumerate(samples)
        ],
    }
    path.write_text(json.dumps(doc))


def report(workload: Workload, samples: list[Sample], metrics: dict, extra: dict) -> None:
    err = sys.stderr
    print(f"workload {workload.name}: {workload.why}", file=err)
    print(f"  loads: {workload.loads}\n  bypasses: {workload.bypasses}", file=err)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:52s} {value:14.4f} {unit}", file=err)
    for s in [s for s in samples if s.failure][:20]:
        print(f"  FAILED {s.kind} [{s.bucket}]: {s.failure}", file=err)


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    setup_s, setup_wall, warm_argv = set_up(workload)
    runner = Runner(workload)
    if workload.in_process:
        runner.untraced(warm_argv)
    samples: list[Sample] = []
    busy = 0.0
    for index in itertools.count():
        for cmd in workload.round(index):
            if time.perf_counter() - start > WALL_LIMIT:
                break
            sample = execute(runner, cmd, trace)
            busy += sample.seconds
            samples.append(sample)
        if (busy >= seconds and len(samples) >= MIN_SAMPLES
                or time.perf_counter() - start > WALL_LIMIT):
            break
    rounds = index + 1
    failed = sum(1 for s in samples if s.failure)
    extra = {
        "samples": (len(samples), "count"),
        "rounds": (rounds, "count"),
        "failed_ratio": (failed / len(samples), "ratio"),
        "nodes_per_s": (sum(s.nodes for s in samples) / busy, "1/s"),
        "records_per_s": (sum(s.records for s in samples) / busy, "1/s"),
    }
    if trace:
        metrics = per_layer(samples, startup_probes())
        out = ROOT / ".bench_work" / f"trace-{workload.name}-seed{workload.seed}.json"
        write_trace(out, samples, metrics)
        print(f"spans and per-kind summary: {out.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(samples, setup_s, workload.in_process)
        wall = timings([s.seconds for s in samples], samples, setup_wall)
        extra.update({f"wall.{k}": v for k, v in wall.items()})
        extra["host_speed"] = (statistics.median(s.scale for s in samples), "ratio")
        if not workload.in_process:
            extra["python_pass_ms"] = (
                statistics.median(child(["-c", "pass"])[3] * 1000.0 for _ in range(PROBES)), "ms")
    report(workload, samples, metrics, extra)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "algoeff" / "cli.py").is_file():
        print(f"bench: no algoeff sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload](ROOT, work, args.seed), args.seconds,
                     bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
