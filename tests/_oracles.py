"""Independent reference implementations the tests compare against.

Everything here recomputes results by a different route than the
package: window placement by walking candidate positions instead of
closed-form division, operation counts by looping over output
positions, dominance by dense grid evaluation with numpy, frontier by
a quadratic scan of the exclusion rule. Slow and simple on purpose.
"""
from __future__ import annotations

import math

import numpy as np

from algoeff.archflops import INPUT_ID, node_param


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
        k = node.kind
        if k == "conv2d":
            oc = node_param(node, "out_channels")
            oh = out_dim_floor(h, node_param(node, "kernel_h"), node_param(node, "stride"),
                               node_param(node, "padding"), node_param(node, "dilation"))
            ow = out_dim_floor(w, node_param(node, "kernel_w"), node_param(node, "stride"),
                               node_param(node, "padding"), node_param(node, "dilation"))
            shapes[node.id] = (oc, oh, ow)
        elif k == "linear":
            shapes[node.id] = (node_param(node, "out_features"), 1, 1)
        elif k in ("maxpool", "avgpool"):
            kk = node_param(node, "kernel")
            s = node_param(node, "stride")
            s = kk if s is None else s
            p = node_param(node, "padding")
            # bundled graphs and the random generator stay in floor mode
            assert not node_param(node, "ceil")
            shapes[node.id] = (c, out_dim_floor(h, kk, s, p), out_dim_floor(w, kk, s, p))
        elif k == "global_avgpool":
            t = node_param(node, "target")
            shapes[node.id] = (c, t, t)
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
        k = node.kind
        macs = 0
        if k not in counted:
            out[node.id] = 0
            continue
        ins = [shapes[i] for i in node.inputs]
        c, h, w = ins[0]
        oc, oh, ow = shapes[node.id]
        if k == "conv2d":
            groups = node_param(node, "groups")
            kh = node_param(node, "kernel_h")
            kw = node_param(node, "kernel_w")
            ys = window_positions_floor(h, kh, node_param(node, "stride"),
                                        node_param(node, "padding"),
                                        node_param(node, "dilation"))
            xs = window_positions_floor(w, kw, node_param(node, "stride"),
                                        node_param(node, "padding"),
                                        node_param(node, "dilation"))
            for _ in ys:
                for _ in xs:
                    macs += oc * (c // groups) * kh * kw
            if include_bias and node_param(node, "has_bias"):
                macs += oc * len(ys) * len(xs)
        elif k == "linear":
            in_elems = c * h * w
            for _ in range(node_param(node, "out_features")):
                macs += in_elems
            if include_bias and node_param(node, "has_bias"):
                macs += node_param(node, "out_features")
        elif k == "squeeze_excite":
            squeezed = max(1, c // node_param(node, "reduction"))
            macs = c * squeezed + squeezed * c
            if include_bias:
                macs += squeezed + c
        elif k in ("maxpool", "avgpool"):
            kk = node_param(node, "kernel")
            macs = oc * oh * ow * kk * kk
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
