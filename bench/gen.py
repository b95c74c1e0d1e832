"""Seeded input generators that also compute their own expected answers.

Every generator takes an explicit random.Random, so one seed always gives
the same files. None of them calls into algoeff: the expected answers
(mac totals, per-node shapes, frontier membership, crossing epochs) are
worked out here from the values the generator itself chose, so a check
against them is a check of the program and not of itself.
"""
from __future__ import annotations

import datetime
import json
import math
import random
from dataclasses import dataclass

IMAGES_PER_EPOCH = 1.28e6
BACKWARD_MULTIPLIER = 3.0
THRESHOLD = {"metric": "top5", "value": 0.791}
MONTH_DAYS = 30.436875


def out_dim(size: int, kernel: int, stride: int = 1, padding: int = 0,
            dilation: int = 1) -> int:
    """Floor window arithmetic, written out independently of the program."""
    return (size + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


# ---------------------------------------------------------------------------
# layer graphs
# ---------------------------------------------------------------------------

@dataclass
class GraphCase:
    """A generated graph file and what the program must say about it."""

    path: str
    nodes: int
    #: mac count per layer kind, at the default 1-mac-per-multiply-add unit
    macs: dict[str, int]
    #: extra operations per kind that --include-bias adds
    bias: dict[str, int]
    #: node id -> "CxHxW", in declaration order, network input first
    shapes: dict[str, str]

    def expected_total(self, kinds=("conv2d", "linear"), unit="mac",
                       include_bias=False) -> int:
        total = sum(self.macs.get(k, 0) for k in kinds)
        if include_bias:
            total += sum(self.bias.get(k, 0) for k in kinds)
        return total * (2 if unit == "flop2" else 1)


class _GraphBuilder:
    def __init__(self, rng: random.Random, c: int, h: int, w: int):
        self.rng = rng
        self.nodes: list[dict] = []
        self.shape: dict[str, tuple[int, int, int]] = {"input": (c, h, w)}
        self.macs: dict[str, int] = {}
        self.bias: dict[str, int] = {}

    def _count(self, kind: str, macs: int, bias: int = 0) -> None:
        self.macs[kind] = self.macs.get(kind, 0) + macs
        if bias:
            self.bias[kind] = self.bias.get(kind, 0) + bias

    def add(self, kind: str, inputs: list[str], params: dict | None = None) -> str:
        params = params or {}
        nid = f"n{len(self.nodes)}"
        ins = [self.shape[i] for i in inputs]
        c, h, w = ins[0]
        if kind == "conv2d":
            k, s, p = params["kernel_h"], params.get("stride", 1), params.get("padding", 0)
            g = params.get("groups", 1)
            oc, oh, ow = params["out_channels"], out_dim(h, k, s, p), out_dim(w, k, s, p)
            out = (oc, oh, ow)
            elems = oc * oh * ow
            self._count(kind, elems * (c // g) * k * params["kernel_w"],
                        elems if params.get("has_bias") else 0)
        elif kind == "linear":
            f = params["out_features"]
            out = (f, 1, 1)
            self._count(kind, c * h * w * f, f if params.get("has_bias", True) else 0)
        elif kind in ("maxpool", "avgpool"):
            k = params["kernel"]
            s, p = params.get("stride", k), params.get("padding", 0)
            out = (c, out_dim(h, k, s, p), out_dim(w, k, s, p))
            self._count(kind, out[0] * out[1] * out[2] * k * k)
        elif kind == "global_avgpool":
            out = (c, 1, 1)
            self._count(kind, c * h * w)
        elif kind == "squeeze_excite":
            squeeze = max(1, c // params["reduction"])
            out = (c, h, w)
            self._count(kind, 2 * c * squeeze, squeeze + c)
        elif kind == "concat":
            out = (sum(s[0] for s in ins), h, w)
            self._count(kind, 0)
        elif kind == "flatten":
            out = (c * h * w, 1, 1)
            self._count(kind, 0)
        elif kind == "dropout":
            out = (c, h, w)
            self._count(kind, 0)
        else:  # batchnorm, activation, elementwise_add: one op per output element
            out = (c, h, w)
            self._count(kind, c * h * w)
        self.nodes.append({"id": nid, "kind": kind, "params": params, "inputs": inputs})
        self.shape[nid] = out
        return nid

    def conv(self, x: str, out_c: int, k: int = 3, groups: int = 1) -> str:
        params = {"out_channels": out_c, "kernel_h": k, "kernel_w": k}
        if k > 1:
            params["padding"] = k // 2
        elif self.rng.random() < 0.5:
            params["padding"] = 0  # explicit default
        if groups != 1:
            params["groups"] = groups
        if self.rng.random() < 0.3:
            params["has_bias"] = True
        return self.add("conv2d", [x], params)

    def cba(self, x: str, out_c: int, k: int = 3, groups: int = 1) -> str:
        x = self.conv(x, out_c, k, groups)
        x = self.add("batchnorm", [x])
        return self.add("activation", [x], {"function": "relu"})


_WIDTHS = (16, 24, 32, 48, 64)


def make_graph(rng: random.Random, target_nodes: int, path: str) -> GraphCase:
    """A conv network of about target_nodes nodes, written to path as JSON.

    Blocks mix conv chains with residual adds, dense concat blocks,
    grouped and depthwise convs, squeeze-excite and shrinking pools, and
    end in a pooled linear head. Spatial size halves at evenly spaced
    points so it never falls below 2x2 before the head.
    """
    side = rng.choice((32, 48, 64))
    b = _GraphBuilder(rng, 3, side, side)
    width = rng.choice(_WIDTHS)
    x = b.cba("input", width)
    pools = max(1, int(math.log2(side)) - 2)
    pool_at = [target_nodes * (i + 1) // (pools + 1) for i in range(pools)]
    body_end = target_nodes - 4
    while len(b.nodes) < body_end:
        if pool_at and len(b.nodes) >= pool_at[0]:
            pool_at.pop(0)
            if rng.random() < 0.5:
                x = b.add("maxpool", [x], {"kernel": 2, "stride": 2})
            else:
                x = b.add("avgpool", [x], {"kernel": 3, "stride": 2, "padding": 1})
            continue
        block = rng.choices(("residual", "dense", "grouped", "depthwise", "se"),
                            weights=(4, 2, 2, 2, 1))[0]
        c = b.shape[x][0]
        if block == "residual":
            y = b.cba(x, c)
            y = b.conv(y, c)
            y = b.add("batchnorm", [y])
            y = b.add("elementwise_add", [x, y])
            x = b.add("activation", [y], {"function": "relu"})
        elif block == "dense":
            growth = rng.choice((8, 16))
            y1 = b.cba(x, growth)
            y2 = b.conv(y1, growth)
            cat = b.add("concat", [x, y1, y2])
            x = b.conv(cat, rng.choice(_WIDTHS), k=1)
        elif block == "grouped":
            groups = rng.choice([g for g in (2, 4, 8) if c % g == 0])
            x = b.cba(x, c, groups=groups)
        elif block == "depthwise":
            y = b.cba(x, c, groups=c)
            x = b.cba(y, rng.choice(_WIDTHS), k=1)
        else:
            x = b.add("squeeze_excite", [x], {"reduction": rng.choice((4, 8))})
    x = b.add("global_avgpool", [x], {"target": 1} if rng.random() < 0.5 else {})
    x = b.add("flatten", [x])
    x = b.add("dropout", [x], {"p": 0.2})
    x = b.add("linear", [x], {"out_features": rng.choice((10, 100, 1000)), "has_bias": True})

    c, h, w = b.shape["input"]
    doc = {"name": f"gen{target_nodes}", "default_input": {"c": c, "h": h, "w": w},
           "nodes": b.nodes, "output": x}
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, separators=(",", ":")))
    return GraphCase(
        path=path, nodes=len(b.nodes), macs=b.macs, bias=b.bias,
        shapes={k: f"{c}x{h}x{w}" for k, (c, h, w) in b.shape.items()},
    )


# ---------------------------------------------------------------------------
# training records
# ---------------------------------------------------------------------------

def record_total(obj: dict) -> float:
    """A record's total in raw flops, by the documented record rule.

    An explicit total_compute wins; otherwise the product of backward
    multiplier, epochs, per-image cost and images per epoch, multiplied
    in that order so the float matches bit for bit.
    """
    if "total_compute" in obj:
        return float(obj["total_compute"])
    return (obj.get("backward_multiplier", BACKWARD_MULTIPLIER) * obj["epochs"]
            * obj["flops_per_image"] * obj.get("images_per_epoch", IMAGES_PER_EPOCH))


def frontier_of(records: list[dict]) -> list[dict]:
    """Running strict minimum of total over date; same-date ties keep the first cheapest."""
    order = sorted(range(len(records)), key=lambda i: (records[i]["date"], i))
    kept: list[dict] = []
    best_total = math.inf
    k = 0
    while k < len(order):
        day = records[order[k]]["date"]
        cheapest = None
        while k < len(order) and records[order[k]]["date"] == day:
            r = records[order[k]]
            if cheapest is None or record_total(r) < record_total(cheapest):
                cheapest = r
            k += 1
        if record_total(cheapest) < best_total:
            best_total = record_total(cheapest)
            kept.append(cheapest)
    return kept


def doubling_months(records: list[dict]) -> float:
    """Least-squares doubling time of log2(total) against month count."""
    pts = sorted(records, key=lambda r: r["date"])
    xs = [datetime.date.fromisoformat(r["date"]).toordinal() / MONTH_DAYS for r in pts]
    ys = [math.log2(record_total(r)) for r in pts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return -1.0 / slope


@dataclass
class RecordsCase:
    path: str
    records: list[dict]
    frontier: list[dict]


def make_records(rng: random.Random, n: int, path: str) -> RecordsCase:
    """n records over ten years whose compute falls about 0.8 log2 per year.

    About one record in three is in triple form (per-image cost and
    epochs), some of those also carry the matching explicit total; the
    rest give the total only. Dates are drawn from 3650 days, so larger
    sets have many same-date ties.
    """
    start = datetime.date(2010, 1, 1).toordinal()
    days = sorted(int(rng.random() * 3650) for _ in range(n))
    records = []
    for i, d in enumerate(days):
        target = 2.0 ** (62.0 - 0.07 * (d / MONTH_DAYS) + 3.0 * (rng.random() - 0.5))
        obj: dict = {"name": f"r{i:06d}",
                     "date": datetime.date.fromordinal(start + d).isoformat(),
                     "threshold": THRESHOLD}
        if rng.random() < 0.35:
            epochs = float(rng.randint(2, 120))
            obj["flops_per_image"] = float(round(
                target / (BACKWARD_MULTIPLIER * epochs * IMAGES_PER_EPOCH)))
            obj["epochs"] = epochs
            if rng.random() < 0.3:
                obj["images_per_epoch"] = IMAGES_PER_EPOCH
            if rng.random() < 0.3:
                obj["backward_multiplier"] = BACKWARD_MULTIPLIER
            if rng.random() < 0.3:
                obj["total_compute"] = record_total(obj)
        else:
            obj["total_compute"] = float(f"{target:.6e}")
        records.append(obj)
    rng.shuffle(records)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(records, separators=(",", ":")))
    return RecordsCase(path=path, records=records, frontier=frontier_of(records))


# ---------------------------------------------------------------------------
# learning curves
# ---------------------------------------------------------------------------

@dataclass
class CurveCase:
    path: str
    rows: int
    crossing_epoch: int
    #: cumulative flops at the crossing row, None for a curve without the column
    crossing_compute: float | None


def make_curve(rng: random.Random, rows: int, cumulative: bool, path: str) -> CurveCase:
    """A top5 curve that first reaches 0.791 at a known row.

    The row before the crossing reads 0.79099 and the crossing row reads
    exactly 0.791, so an off-by-one in the threshold comparison shows.
    """
    cross = rng.randrange(rows // 4, 3 * rows // 4)
    lines = ["# generated learning curve",
             "epoch,top5_accuracy" + (",cumulative_flops" if cumulative else "")]
    epoch = 0
    compute = 0.0
    crossing_epoch = 0
    crossing_compute = None
    for i in range(rows):
        epoch += rng.choice((1, 1, 2))
        if i == cross - 1:
            acc = 0.79099  # just under the threshold
        elif i < cross:
            acc = 0.1 + 0.685 * i / cross
        elif i == cross:
            acc = 0.791  # exactly on it: the first row that counts
        else:
            acc = 0.792 + 0.15 * rng.random()
        line = f"{epoch},{acc:.5f}"
        if cumulative:
            compute += rng.uniform(1e17, 5e17)
            line += f",{compute!r}"
        if i == cross:
            crossing_epoch, crossing_compute = epoch, (compute if cumulative else None)
        lines.append(line)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return CurveCase(path=path, rows=rows, crossing_epoch=crossing_epoch,
                     crossing_compute=crossing_compute)
