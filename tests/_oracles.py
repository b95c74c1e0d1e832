"""Independent reference implementations the tests compare against.

Everything here recomputes results by a different route than the
package: window placement by walking candidate positions instead of
closed-form division, operation counts by looping over output
positions, dominance by dense grid evaluation with numpy, frontier by
a quadratic scan of the exclusion rule, a curve's first bad point by
one search per rule, a records file by json.dumps, markdown by one join
per table, json tables by json.dumps of lists. Slow and simple on
purpose. The rules the oracles rely on are written out here, not taken
from the package: the layer parameter defaults, from README's table of
parameters, and the key order of a records file's objects.
"""
from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right

import numpy as np

from algoeff.archflops import INPUT_ID

# README's parameter defaults for the kinds whose parameters the oracles
# read; a pool's stride defaults to its kernel.
_POOL_DEFAULTS = {"padding": 0, "ceil": False}
_DEFAULTS = {
    "conv2d": {"stride": 1, "padding": 0, "dilation": 1, "groups": 1, "has_bias": False},
    "linear": {"has_bias": True},
    "maxpool": _POOL_DEFAULTS,
    "avgpool": _POOL_DEFAULTS,
    "global_avgpool": {"target": 1},
}


def _params(node) -> dict:
    """The node's parameters over README's defaults."""
    p = {**_DEFAULTS.get(node.kind, {}), **node.params}
    if node.kind in ("maxpool", "avgpool"):
        p.setdefault("stride", p["kernel"])
    return p


def window_positions_floor(in_dim: int, kernel: int, stride: int, padding: int,
                           dilation: int) -> list[int]:
    """Start offsets of every window fully inside the padded extent."""
    eff = dilation * (kernel - 1) + 1
    starts = []
    pos = -padding
    while pos + eff <= in_dim + padding:
        starts.append(pos)
        pos += stride
    return starts


def out_dim_floor(in_dim, kernel, stride=1, padding=0, dilation=1) -> int:
    return len(window_positions_floor(in_dim, kernel, stride, padding, dilation))


def out_dim_by_bisection(in_dim, kernel, stride=1, padding=0, dilation=1,
                         ceil=False) -> int:
    """Window count found by bisection with integer products only.

    Floor mode: the most windows whose last one still ends inside the
    padded extent. Ceil mode: the fewest windows whose last one reaches
    its end, less one when that last window would start in the right
    padding. Exact for dimensions far beyond float precision.
    """
    eff = dilation * (kernel - 1) + 1
    extent = in_dim + 2 * padding

    def first_true(pred) -> int:
        lo, hi = 1, extent + 1   # pred(hi) holds in both modes
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    if not ceil:
        return first_true(lambda n: n * stride + eff > extent)
    n = first_true(lambda n: (n - 1) * stride + eff >= extent)
    if (n - 1) * stride >= in_dim + padding:
        n -= 1
    return n


def shapes_oracle(arch, input_shape) -> dict[str, tuple[int, int, int]]:
    """Shape inference by position walking; mirrors only the kind semantics."""
    shapes = {INPUT_ID: (input_shape.channels, input_shape.height, input_shape.width)}
    for node in arch.nodes:
        ins = [shapes[i] for i in node.inputs]
        c, h, w = ins[0]
        k, p = node.kind, _params(node)
        if k == "conv2d":
            window = p["stride"], p["padding"], p["dilation"]
            shapes[node.id] = (p["out_channels"], out_dim_floor(h, p["kernel_h"], *window),
                               out_dim_floor(w, p["kernel_w"], *window))
        elif k == "linear":
            shapes[node.id] = (p["out_features"], 1, 1)
        elif k in ("maxpool", "avgpool"):
            # bundled graphs and the random generator stay in floor mode
            assert not p["ceil"]
            window = p["kernel"], p["stride"], p["padding"]
            shapes[node.id] = (c, out_dim_floor(h, *window), out_dim_floor(w, *window))
        elif k == "global_avgpool":
            shapes[node.id] = (c, p["target"], p["target"])
        elif k == "flatten":
            shapes[node.id] = (c * h * w, 1, 1)
        elif k == "concat":
            shapes[node.id] = (sum(i[0] for i in ins), h, w)
        elif k in ("elementwise_add", "elementwise_mul"):
            shapes[node.id] = ins[0]
        else:
            # batchnorm, activation, dropout, local_response_norm,
            # squeeze_excite, channel_shuffle keep their input shape
            shapes[node.id] = ins[0]
    return shapes


def macs_oracle(arch, input_shape, counted_kinds=("conv2d", "linear"),
                include_bias=False) -> dict[str, int]:
    """Multiply-accumulate counts by looping over output positions."""
    shapes = shapes_oracle(arch, input_shape)
    counted = set(counted_kinds)
    out = {}
    for node in arch.nodes:
        k, p = node.kind, _params(node)
        macs = 0
        if k not in counted:
            out[node.id] = 0
            continue
        ins = [shapes[i] for i in node.inputs]
        c, h, w = ins[0]
        oc, oh, ow = shapes[node.id]
        if k == "conv2d":
            kh, kw = p["kernel_h"], p["kernel_w"]
            window = p["stride"], p["padding"], p["dilation"]
            ys = window_positions_floor(h, kh, *window)
            xs = window_positions_floor(w, kw, *window)
            for _ in ys:
                for _ in xs:
                    macs += oc * (c // p["groups"]) * kh * kw
            if include_bias and p["has_bias"]:
                macs += oc * len(ys) * len(xs)
        elif k == "linear":
            in_elems = c * h * w
            for _ in range(p["out_features"]):
                macs += in_elems
            if include_bias and p["has_bias"]:
                macs += p["out_features"]
        elif k == "squeeze_excite":
            squeezed = max(1, c // p["reduction"])
            macs = c * squeezed + squeezed * c
            if include_bias:
                macs += squeezed + c
        elif k in ("maxpool", "avgpool"):
            macs = oc * oh * ow * p["kernel"] * p["kernel"]
        elif k == "global_avgpool":
            macs = c * h * w
        elif k in ("batchnorm", "activation", "elementwise_add", "elementwise_mul",
                   "local_response_norm"):
            macs = oc * oh * ow
        else:
            # concat, flatten, dropout, channel_shuffle move data only
            macs = 0
        out[node.id] = macs
    return out


def dominance_oracle(a, b, grid_points: int = 10_000) -> str:
    """Relation between two compute curves via dense numpy evaluation."""
    lo = max(a.compute[0], b.compute[0])
    hi = min(a.compute[-1], b.compute[-1])
    if lo > hi:
        return "incomparable"
    log_lo, log_hi = math.log(lo), math.log(hi)
    grid = set(np.linspace(log_lo, log_hi, grid_points).tolist())
    for c in a.compute + b.compute:
        if lo <= c <= hi:
            grid.add(math.log(c))
    xs = np.array(sorted(grid))
    fa = np.interp(xs, np.log(np.array(a.compute)), np.array(a.accuracies))
    fb = np.interp(xs, np.log(np.array(b.compute)), np.array(b.accuracies))
    d = fa - fb
    pos = bool((d > 0).any())
    neg = bool((d < 0).any())
    if pos and neg:
        return "incomparable"
    if pos:
        return "a_dominates"
    if neg:
        return "b_dominates"
    return "equivalent"


def frontier_oracle(records) -> list[str]:
    """Quadratic exclusion scan: a record survives when nothing beats it."""
    kept = []
    for i, r in enumerate(records):
        beaten = False
        for j, other in enumerate(records):
            if other.date < r.date and other.total <= r.total:
                beaten = True
            elif other.date == r.date:
                if other.total < r.total:
                    beaten = True
                elif other.total == r.total and j < i:
                    beaten = True
        if not beaten:
            kept.append(r)
    kept.sort(key=lambda r: r.date)
    return [r.name for r in kept]


def regression_oracle(xs, ys) -> tuple[float, float, float]:
    """Least squares via numpy: slope, intercept, r_squared."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


_FLOAT_MAX = sys.float_info.max


def _positive_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= _FLOAT_MAX


def _first_break(values, end: int) -> int:
    """Index of the first of values[:end] that is not positive, finite and
    above the value before it; end when every one is."""
    if end == 0 or not _positive_finite(values[0]):
        return 0
    i = next((i for i in range(1, end) if not values[i - 1] < values[i]), end)  # also for NaN
    # values[:i] rise from a positive start, so those too large for a float come last
    return i if _positive_finite(values[i - 1]) else bisect_right(values, _FLOAT_MAX, 0, i)


def first_bad_point_oracle(name, epochs, accuracies, compute, lines=None) -> str | None:
    """The message for a curve's first bad point, or None when every point is good.

    One search per rule finds the first point that breaks it, and the
    earliest of those wins, a tie going to the earlier rule: accuracy,
    integer epoch, rising epoch, rising compute. Takes numbers only, and
    equally long non-empty series.
    """
    n = len(accuracies)

    def epoch_problem(i):
        e = epochs[i]
        if i and e <= epochs[i - 1]:
            return f"epoch {e} not greater than {epochs[i - 1]}"
        return f"epoch {e} is not positive" if e <= 0 else f"epoch {e} is too large for a float"

    breaks = [(next((i for i, a in enumerate(accuracies) if not 0.0 <= a <= 1.0), n),
               lambda i: f"accuracy {accuracies[i]!r} outside [0, 1]")]
    if epochs is not None:
        k = next((i for i, e in enumerate(epochs) if type(e) is not int), n)
        breaks += [(k, lambda i: f"epoch {epochs[i]!r} is not an integer"),
                   (_first_break(epochs, k), epoch_problem)]
    if compute is not None:
        breaks.append((_first_break(compute, n),
                       lambda _: "compute must be finite, positive and strictly increasing"))
    i, problem = min(breaks, key=lambda b: b[0])
    if i == n:
        return None
    at = f"line {lines[i]}" if lines else f"epoch {epochs[i]}" if epochs else f"point {i + 1}"
    return f"{name} {at}: {problem(i)}"


def _record_object(r) -> dict:
    """A record's json object, keys in the order records_to_json documents."""
    obj = {"name": r.name, "date": r.date.isoformat(),
           "threshold": {"metric": r.threshold.metric, "value": r.threshold.value},
           "total_compute": r.total}
    if r.flops_per_image is not None:
        obj.update(flops_per_image=r.flops_per_image, epochs=r.epochs,
                   images_per_epoch=r.images_per_epoch)
    obj["backward_multiplier"] = r.backward_multiplier
    if r.notes:
        obj["notes"] = r.notes
    return obj


def records_json_oracle(records) -> str:
    """The records file text, by json's own indent=2 encoder."""
    return json.dumps([_record_object(r) for r in records], indent=2) + "\n"


def markdown_oracle(tables) -> str:
    """Tables as markdown: each table's lines joined on their own, then the tables.

    A table is its title, a blank line, the header, the rule and the rows,
    then a blank line and a note per warning; a blank line parts two
    tables, and the text ends in a newline, even with no tables.
    """
    parts = []
    for t in tables:
        lines = [f"## {t.title}", "", "| " + " | ".join(t.columns) + " |",
                 "|" + "|".join(" --- " for _ in t.columns) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in t.rows]
        for w in t.warnings:
            lines += ["", f"> note: {w}"]
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def json_oracle(tables) -> str:
    """Tables as json: each table's columns, rows and warnings as lists, indented by two."""
    return json.dumps({"tables": [
        {"key": t.key, "title": t.title, "columns": list(t.columns),
         "rows": [list(r) for r in t.rows], "warnings": list(t.warnings)}
        for t in tables
    ]}, indent=2) + "\n"
