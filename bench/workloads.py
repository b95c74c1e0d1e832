"""The three benchmark workloads, and why each exists.

Each workload is one closed-loop client: it sends the next command only
after the previous one has finished, uses no threads and runs at most
one child process at a time. Work is grouped in rounds. A round is a
fixed multiset of (command, input size, format) slots; the seed only
orders the slots and fills the inputs. A run always finishes whole
rounds, so every run's samples come from the same mix, and the slot
counts are chosen so that the median and the 90th percentile fall well
inside one size class rather than on the edge between two.
"""
from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import check
import gen

FORMATS = ("csv", "json", "markdown")
UNITS = ("table", "raw", "stated")

# Facts about the sixteen bundled graphs: multiply-accumulates at the
# default convention and 3x224x224 input, and node counts.
BUILTIN_MACS = {
    "AlexNet": 714_188_480, "Vgg-11": 7_609_090_048, "GoogLeNet": 2_032_600_064,
    "Resnet-18": 1_814_073_344, "Resnet-34": 3_663_761_408, "Resnet-50": 4_089_184_256,
    "Wide_ResNet_50": 11_398_021_120, "ResNext_50": 4_230_479_872,
    "DenseNet121": 2_834_161_664, "Squeezenet_v1_1": 349_151_936,
    "MobileNet_v1": 568_740_352, "MobileNet_v2": 300_774_272,
    "ShuffleNet_v1_1x": 137_460_672, "ShuffleNet_v2_1x": 144_907_992,
    "ShuffleNet_v2_1_5x": 295_759_392, "EfficientNet-b0": 385_187_552,
}
BUILTIN_NODES = {
    "AlexNet": 22, "Vgg-11": 30, "GoogLeNet": 232, "Resnet-18": 69, "Resnet-34": 125,
    "Resnet-50": 175, "Wide_ResNet_50": 175, "ResNext_50": 175, "DenseNet121": 427,
    "Squeezenet_v1_1": 66, "MobileNet_v1": 84, "MobileNet_v2": 152,
    "ShuffleNet_v1_1x": 170, "ShuffleNet_v2_1x": 159, "ShuffleNet_v2_1_5x": 159,
    "EfficientNet-b0": 160,
}


@dataclass
class Command:
    """One CLI invocation and how to judge its output."""

    kind: str
    argv: list[str]
    fmt: str
    #: parsed tables -> None when right, else the reason
    check: Callable[[list], str | None]
    #: graph nodes, and records plus curve rows, that the command reads
    nodes: int = 0
    records: int = 0
    #: input-size class, for the scaling view
    bucket: str = ""
    #: untimed step before each execution, such as copying a file it rewrites
    prepare: Callable[[], None] | None = None
    #: checks files the command wrote
    after: Callable[[], str | None] | None = None

    def full_argv(self) -> list[str]:
        return self.argv + ["--format", self.fmt]


class Workload:
    name = ""
    why = ""
    loads = ""
    bypasses = ""
    #: True: commands run as algoeff.cli.main(argv) in the benchmark process
    in_process = True

    def __init__(self, root: Path, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.data = root / "src" / "algoeff" / "data"

    def warmup(self, rng: random.Random) -> list[str]:
        """Generate the warm-up input and return the warm-up command."""
        raise NotImplementedError

    def round(self, index: int) -> Iterator[Command]:
        raise NotImplementedError

    def bundled_curve_rows(self) -> int:
        return sum(len(_curve_rows((self.data / "curves" / f"{n}.csv").read_text()))
                   for n in ("alexnet", "googlenet", "resnet50", "vgg11"))


def _curve_rows(text: str) -> list[str]:
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return rows[1:]


# ---------------------------------------------------------------------------
# cold-cli
# ---------------------------------------------------------------------------

class ColdCli(Workload):
    name = "cold-cli"
    why = ("fresh algoeff process per command over bundled data: interpreter start, "
           "imports, argparse and dataset loading dominate; repeated inputs")
    loads = "import, cli, datasets, zoo; start-up cost and caches keyed on repeated inputs"
    bypasses = "graph, shapes and counting at scale, trends and reports at scale"
    in_process = False

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.records = json.loads((self.data / "imagenet_records.json").read_text())
        self.by_name = {r["name"]: r for r in self.records}
        self.front = gen.frontier_of(self.records)
        self.curves = {}
        for name, arch in (("alexnet", "AlexNet"), ("vgg11", "Vgg-11"),
                           ("googlenet", "GoogLeNet"), ("resnet50", "Resnet-50")):
            text = (self.data / "curves" / f"{name}.csv").read_text()
            self.curves[name] = (arch, check.crossing(text), len(_curve_rows(text)))
        self.curve_rows = self.bundled_curve_rows()

    def warmup(self, rng):
        return ["flops", "AlexNet"]

    def round(self, index):
        n = len(self.records)
        cmds = []
        for i, name in enumerate(BUILTIN_MACS):
            per_layer = i % 2 == 0
            cmds.append(Command(
                "flops_per_layer" if per_layer else "flops",
                ["flops", name] + (["--per-layer"] if per_layer else []), FORMATS[i // 2 % 3],
                lambda t, name=name, pl=per_layer: check.check_flops(
                    t, BUILTIN_MACS[name], nodes=BUILTIN_NODES[name] if pl else None),
                nodes=BUILTIN_NODES[name]))
        for fmt, name in zip(FORMATS, ("Resnet-50", "DenseNet121", "EfficientNet-b0")):
            cmds.append(Command(
                "shapes", ["shapes", name], fmt,
                lambda t, name=name: check.check_shapes(
                    t, nodes=BUILTIN_NODES[name], output="1000x1x1"),
                nodes=BUILTIN_NODES[name]))
        for i, (curve, (arch, epoch, rows)) in enumerate(self.curves.items()):
            unit = UNITS[i % 3]
            total = check.analysis_total(epoch, BUILTIN_MACS[arch])
            cmds.append(Command(
                "analyze", ["analyze", arch, curve, "--unit", unit], FORMATS[i % 3],
                lambda t, e=epoch, tot=total, u=unit: check.check_analyze(t, e, tot, u),
                nodes=BUILTIN_NODES[arch], records=rows))
        a, b = self.by_name["AlexNet"], self.by_name["EfficientNet-b0"]
        c = self.by_name["ShuffleNet_v2_1x"]
        doubling_44 = f"{84.0 / math.log2(44.0):.2f} months"
        for i, (kind, argv, chk, recs) in enumerate((
            ("factor", ["factor", "AlexNet", "EfficientNet-b0"],
             lambda t: check.check_factor(t, a, b), n),
            ("decompose", ["decompose", "AlexNet", "ShuffleNet_v2_1x"],
             lambda t: check.check_decompose(t, a, c), n),
            ("doubling", ["doubling"],
             lambda t: check.table_count(t, 1) or check.check_doubling_table(t[0]), 0),
            ("doubling", ["doubling", "AlexNet", "EfficientNet-b0"],
             lambda t: check.check_doubling_pair(t, a, b), n),
            ("doubling", ["doubling", "--factor", "44", "--period", "84"],
             lambda t: check.expect(t[0].cell("doubling") == doubling_44, "doubling 44/84"), 0),
            ("frontier", ["frontier"], lambda t: check.check_frontier(t, self.front), n),
            ("trend", ["trend"], lambda t: check.check_trend(t, self.front, "regression"), n),
            ("trend", ["trend", "--method", "endpoints"],
             lambda t: check.check_trend(t, self.front, "endpoints"), n),
            ("effective", ["effective"],
             lambda t: check.expect(t[0].rows[-1] == ["total_factor", "7,500,000"],
                                    "effective model total"), 0),
            ("effective", ["effective", "2", "3.5"],
             lambda t: check.expect(t[0].rows[-1] == ["effective", "7"], "effective product"), 0),
            ("report", ["report"],
             lambda t: check.check_report(t, n, self.front, False, self.curve_rows), n),
            ("report_figures", ["report", "--figures"],
             lambda t: check.check_report(t, n, self.front, True, self.curve_rows), n),
        )):
            cmds.append(Command(kind, argv, FORMATS[i % 3], chk, records=recs))
        random.Random(self.seed * 1000 + index).shuffle(cmds)
        yield from cmds


# ---------------------------------------------------------------------------
# deep-graphs
# ---------------------------------------------------------------------------

_DEFAULT_KINDS = ("conv2d", "linear")
# (kind, format, extra argv, counted kinds, unit, include bias)
_GRAPH_SLOTS = (
    ("flops_per_layer", "markdown", [], _DEFAULT_KINDS, "mac", False),
    ("flops_per_layer", "csv", [], _DEFAULT_KINDS, "mac", False),
    ("flops_per_layer", "json", [], _DEFAULT_KINDS, "mac", False),
    ("flops", "markdown", ["--counted-kinds", "conv2d,linear,squeeze_excite"],
     ("conv2d", "linear", "squeeze_excite"), "mac", False),
    ("flops", "csv", ["--count-unit", "flop2"], _DEFAULT_KINDS, "flop2", False),
    ("flops", "json", ["--include-bias"], _DEFAULT_KINDS, "mac", True),
    ("flops", "markdown",
     ["--counted-kinds", "conv2d,batchnorm,linear,elementwise_add", "--count-unit", "flop2",
      "--include-bias"],
     ("conv2d", "batchnorm", "linear", "elementwise_add"), "flop2", True),
    ("shapes", "markdown", [], None, None, None),
    ("shapes", "csv", [], None, None, None),
    ("shapes", "json", [], None, None, None),
)
# (bucket, nodes, slot indices): 27 commands, 67% / 85% / 96% / 100% cumulative
_GRAPH_CLASSES = (
    ("1k", 1_000, tuple(range(10)) + tuple(range(8))),
    ("4k", 4_000, (0, 4, 8, 2, 5)),
    ("16k", 16_000, (0, 7, 5)),
    ("50k", 50_000, (0,)),
)


class DeepGraphs(Workload):
    name = "deep-graphs"
    why = ("in-process cli.main on distinct seeded graph files of 1k to 50k nodes; "
           "graph parsing, validation, triple shape inference and counting dominate")
    loads = "graph (arch_from_json, validate_arch), shapes, counting, reports rendering"
    bypasses = "import and start-up, datasets, curves, trends; no input repeats"

    def warmup(self, rng):
        case = gen.make_graph(rng, 1_000, str(self.work / "warmup-graph.json"))
        return ["flops", case.path, "--per-layer"]

    def round(self, index):
        rng = random.Random(self.seed * 1000 + index)
        slots = [(bucket, size, s) for bucket, size, idx in _GRAPH_CLASSES for s in idx]
        rng.shuffle(slots)
        for i, (bucket, size, s) in enumerate(slots):
            kind, fmt, extra, kinds, unit, bias = _GRAPH_SLOTS[s]
            case = gen.make_graph(rng, size, str(self.work / f"graph-{index}-{i}.json"))
            if kind == "shapes":
                chk = (lambda t, c=case: check.check_shapes(t, shapes=c.shapes, nodes=c.nodes))
            else:
                per_layer = kind == "flops_per_layer"
                chk = (lambda t, c=case, k=kinds, u=unit, b=bias, pl=per_layer:
                       check.check_flops(t, c.expected_total(k, u, b), kinds=k,
                                         nodes=c.nodes if pl else None,
                                         shapes=c.shapes if pl else None))
                extra = extra + (["--per-layer"] if per_layer else [])
            yield Command(kind, [kind.split("_")[0], case.path] + extra, fmt, chk,
                          nodes=case.nodes, bucket=bucket)
            Path(case.path).unlink()


# ---------------------------------------------------------------------------
# big-records
# ---------------------------------------------------------------------------

# (kind, format, extra argv)
_RECORD_SLOTS = (
    ("frontier", "markdown", []),
    ("trend", "json", []),
    ("factor", "csv", []),
    ("decompose", "markdown", []),
    ("report", "markdown", []),
    ("report_figures", "csv", ["--figures"]),
    ("write", "markdown", []),
    ("frontier", "json", ["--unit", "raw"]),
    ("trend", "markdown", ["--all-records"]),
    ("write", "json", ["--unit", "stated"]),
)
# (bucket, records, files, slot indices per file): 53 commands,
# 75% / 94% / 98% / 100% cumulative
_RECORD_CLASSES = (
    ("2k", 2_000, 4, tuple(range(10))),
    ("10k", 10_000, 1, tuple(range(10))),
    ("40k", 40_000, 1, (4, 6)),
    ("100k", 100_000, 1, (4,)),
)
# (rows, has cumulative_flops) of the curves the writes analyze
_CURVES = ((2_000, True), (2_000, False), (8_000, True), (8_000, False))
_WRITE_ARCHS = ("Resnet-18", "MobileNet_v2", "AlexNet")


class BigRecords(Workload):
    name = "big-records"
    why = ("in-process cli.main on seeded record files of 2k to 100k records and long "
           "curve csvs; about one command in five appends to a fresh copy of its file")
    loads = "trends (records json, frontier, fit_trend), curves parsing, reports tables and rendering"
    bypasses = "import and start-up, graph, shapes and counting at scale"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.rng = random.Random(seed)
        self.files: dict[tuple[str, int], gen.RecordsCase] = {}
        self.curves: list[gen.CurveCase] = []
        self.curve_rows = self.bundled_curve_rows()

    def warmup(self, rng):
        case = gen.make_records(rng, 2_000, str(self.work / "warmup-records.json"))
        return ["report", "--records", case.path]

    def _records(self, bucket: str, size: int, j: int) -> gen.RecordsCase:
        key = (bucket, j)
        if key not in self.files:
            self.files[key] = gen.make_records(
                self.rng, size, str(self.work / f"records-{bucket}-{j}.json"))
        return self.files[key]

    def round(self, index):
        if not self.curves:
            self.curves = [gen.make_curve(self.rng, rows, cum, str(self.work / f"curve-{i}.csv"))
                           for i, (rows, cum) in enumerate(_CURVES)]
        rng = random.Random(self.seed * 1000 + index)
        slots = [(bucket, size, j, s) for bucket, size, files, idx in _RECORD_CLASSES
                 for j in range(files) for s in idx]
        # a write's curve and architecture belong to its slot, not to its turn,
        # so every round analyzes the same curves whatever the order
        write_no = {slot: k for k, slot in
                    enumerate(sl for sl in slots if _RECORD_SLOTS[sl[3]][0] == "write")}
        rng.shuffle(slots)
        for slot in slots:
            bucket, size, j, s = slot
            case = self._records(bucket, size, j)
            kind, fmt, extra = _RECORD_SLOTS[s]
            if kind == "write":
                yield self._write(case, fmt, extra, write_no[slot], index, bucket)
            else:
                yield self._read(rng, case, kind, fmt, extra, bucket)

    def _read(self, rng, case: gen.RecordsCase, kind, fmt, extra, bucket) -> Command:
        n, front = len(case.records), case.frontier
        argv = [kind.split("_")[0]]
        if kind == "frontier":
            chk = lambda t: check.check_frontier(t, front)
        elif kind == "trend":
            pts = case.records if "--all-records" in extra else front
            chk = lambda t: check.check_trend(t, pts, "regression")
        elif kind in ("factor", "decompose"):
            pool = case.records if kind == "factor" else [r for r in case.records if "epochs" in r]
            a, b = rng.sample(pool, 2)
            argv += [a["name"], b["name"]]
            fn = check.check_factor if kind == "factor" else check.check_decompose
            chk = lambda t: fn(t, a, b)
        else:
            figures = kind == "report_figures"
            chk = lambda t: check.check_report(t, n, front, figures, self.curve_rows)
        return Command(kind, argv + ["--records", case.path] + extra, fmt, chk,
                       records=n, bucket=bucket)

    def _write(self, case: gen.RecordsCase, fmt, extra, k: int, index: int, bucket) -> Command:
        curve = self.curves[k % len(self.curves)]
        arch = _WRITE_ARCHS[k % len(_WRITE_ARCHS)]
        unit = extra[1] if extra else "table"
        if curve.crossing_compute is not None:
            total = curve.crossing_compute
        else:
            total = check.analysis_total(curve.crossing_epoch, BUILTIN_MACS[arch])
        target = str(self.work / "append.json")
        name = f"appended-{index}-{k}"
        n = len(case.records)
        return Command(
            "write",
            ["analyze", arch, curve.path, "--append-records", target, "--date", "2021-06-01",
             "--name", name] + extra,
            fmt,
            lambda t: check.check_analyze(t, curve.crossing_epoch, total, unit),
            nodes=BUILTIN_NODES[arch], records=n + curve.rows, bucket=bucket,
            prepare=lambda: shutil.copyfile(case.path, target),
            after=lambda: check.check_appended(target, n, name, total),
        )


WORKLOADS = {w.name: w for w in (ColdCli, DeepGraphs, BigRecords)}
