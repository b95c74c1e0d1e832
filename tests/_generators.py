"""Seeded random test-case generators shared across the suite.

Everything random takes an explicit random.Random so failures reproduce
from a seed. Random architectures stay small (input dims at most 16, at
most five counted layers) so the literal oracles in _oracles.py stay
fast; chain_graph_json makes one as long as asked, and traced measures
what a call allocates.
"""
from __future__ import annotations

import datetime
import json
import random
import tracemalloc

from algoeff.archflops import INPUT_ID, ArchitectureSpec, LayerNode, TensorShape, require_valid
from algoeff.curves import ComputeCurve, Threshold
from algoeff.trends import EfficiencyRecord

from _oracles import out_dim_floor

MAX_DIM = 16


def arch_file_text(arch: ArchitectureSpec) -> str:
    """arch as a graph file, for arch_from_json; the format has no field for metadata."""
    di = arch.default_input
    return json.dumps({
        "name": arch.name,
        "default_input": {"c": di.channels, "h": di.height, "w": di.width},
        "nodes": [{"id": n.id, "kind": n.kind, "params": dict(n.params), "inputs": list(n.inputs)}
                  for n in arch.nodes],
        "output": arch.output,
    }, indent=2)


def chain_graph_json(blocks: int) -> str:
    """A residual chain of conv, batchnorm, activation and add, four nodes a block."""
    nodes, prev = [], INPUT_ID
    for b in range(blocks):
        nodes += [
            {"id": f"c{b}", "kind": "conv2d", "inputs": [prev],
             "params": {"out_channels": 8, "kernel_h": 3, "kernel_w": 3, "padding": 1}},
            {"id": f"b{b}", "kind": "batchnorm", "inputs": [f"c{b}"]},
            {"id": f"a{b}", "kind": "activation", "inputs": [f"b{b}"]},
            {"id": f"s{b}", "kind": "elementwise_add", "inputs": [f"a{b}", prev]} if b
            else {"id": f"s{b}", "kind": "activation", "inputs": [f"a{b}"]},
        ]
        prev = f"s{b}"
    return json.dumps({"name": "chain", "default_input": {"c": 8, "h": 8, "w": 8},
                       "nodes": nodes, "output": prev})


def traced(call):
    """(result, bytes still held after call, peak bytes during call) by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - before, peak - before


def _conv_draw(rng: random.Random, c: int, h: int, w: int):
    """Parameters for a conv2d that provably fits, plus its output shape."""
    for _ in range(100):
        kh = rng.randint(1, min(3, h))
        kw = rng.randint(1, min(3, w))
        stride = rng.choice((1, 1, 2))
        padding = rng.randint(0, 1)
        dilation = rng.choice((1, 1, 2))
        if dilation * (kh - 1) + 1 > h + 2 * padding:
            continue
        if dilation * (kw - 1) + 1 > w + 2 * padding:
            continue
        groups = rng.choice([g for g in (1, 2, 3, 4) if c % g == 0])
        out_c = groups * rng.randint(1, max(1, 8 // groups))
        oh = out_dim_floor(h, kh, stride, padding, dilation)
        ow = out_dim_floor(w, kw, stride, padding, dilation)
        if not (1 <= oh <= MAX_DIM and 1 <= ow <= MAX_DIM):
            continue
        params = {"out_channels": out_c, "kernel_h": kh, "kernel_w": kw}
        if stride != 1:
            params["stride"] = stride
        if padding:
            params["padding"] = padding
        if dilation != 1:
            params["dilation"] = dilation
        if groups != 1:
            params["groups"] = groups
        if rng.random() < 0.3:
            params["has_bias"] = True
        return params, (out_c, oh, ow)
    raise AssertionError(f"no conv fits in {c}x{h}x{w}")


def random_arch(rng: random.Random, index: int = 0) -> ArchitectureSpec:
    """A valid random graph with 1..5 counted (conv2d/linear) layers."""
    c = rng.randint(1, 6)
    h = rng.randint(4, MAX_DIM)
    w = rng.randint(4, MAX_DIM)
    input_shape = TensorShape(c, h, w)

    nodes: list[LayerNode] = []

    def add(kind: str, params: dict, inputs: list[str]) -> str:
        node = LayerNode(id=f"n{len(nodes)}", kind=kind, params=params, inputs=tuple(inputs))
        nodes.append(node)
        return node.id

    prev = "input"
    budget = rng.randint(1, 5)  # counted layers, final linear included
    used = 0
    flat = False

    attempts = 0
    while used < budget - 1 and attempts < 200:
        attempts += 1
        if flat:
            if rng.random() < 0.4:
                prev = add("activation", {"function": "relu"}, [prev])
            feats = rng.randint(2, 12)
            params = {"out_features": feats}
            if rng.random() < 0.3:
                params["has_bias"] = False
            prev = add("linear", params, [prev])
            c, h, w = feats, 1, 1
            used += 1
            continue
        roll = rng.random()
        if roll < 0.45:
            params, (c, h, w) = _conv_draw(rng, c, h, w)
            prev = add("conv2d", params, [prev])
            used += 1
        elif roll < 0.60:
            if used + 2 > budget - 1 or min(h, w) < 3:
                continue
            join = rng.choice(("concat", "elementwise_add"))
            k1 = rng.randint(1, 4)
            k2 = k1 if join == "elementwise_add" else rng.randint(1, 4)
            a = add("conv2d", {"out_channels": k1, "kernel_h": 1, "kernel_w": 1}, [prev])
            b = add("conv2d",
                    {"out_channels": k2, "kernel_h": 3, "kernel_w": 3, "padding": 1},
                    [prev])
            prev = add(join, {}, [a, b])
            c = k1 + k2 if join == "concat" else k1
            used += 2
        elif roll < 0.75:
            if min(h, w) < 2:
                continue
            k = rng.randint(2, min(3, h, w))
            params = {"kernel": k}
            if rng.random() < 0.5:
                params["stride"] = rng.randint(1, 2)
            if rng.random() < 0.3 and k // 2 >= 1:
                params["padding"] = rng.randint(0, k // 2)
            stride = params.get("stride", k)
            pad = params.get("padding", 0)
            oh = out_dim_floor(h, k, stride, pad)
            ow = out_dim_floor(w, k, stride, pad)
            if not (1 <= oh <= MAX_DIM and 1 <= ow <= MAX_DIM):
                continue
            prev = add(rng.choice(("maxpool", "avgpool")), params, [prev])
            h, w = oh, ow
        elif roll < 0.85:
            extra = rng.choice(
                ("batchnorm", "activation", "dropout", "local_response_norm", "squeeze_excite")
            )
            params = {"reduction": rng.choice((1, 2, 4))} if extra == "squeeze_excite" else {}
            prev = add(extra, params, [prev])
        elif roll < 0.92:
            gs = [g for g in (2, 3, 4) if c % g == 0]
            if not gs:
                continue
            prev = add("channel_shuffle", {"groups": rng.choice(gs)}, [prev])
        else:
            prev = add("global_avgpool", {"target": 1}, [prev])
            prev = add("flatten", {}, [prev])
            c, h, w = c, 1, 1
            flat = True

    if not flat and rng.random() < 0.5:
        prev = add("flatten", {}, [prev])
        c, h, w = c * h * w, 1, 1
    prev = add("linear", {"out_features": rng.randint(2, 10)}, [prev])

    return require_valid(ArchitectureSpec(
        name=f"rand{index}",
        default_input=input_shape,
        nodes=tuple(nodes),
        output=prev,
    ))


def random_records(rng: random.Random, max_records: int = 12) -> list[EfficiencyRecord]:
    """Records with deliberately collided dates and totals to force ties."""
    n = rng.randint(1, max_records)
    pool = sorted(rng.sample(range(0, 4000), rng.randint(1, n)))
    base = datetime.date(2012, 1, 1)
    return [
        EfficiencyRecord(
            name=f"r{i}",
            date=base + datetime.timedelta(days=rng.choice(pool)),
            total_compute=float(rng.randint(1, 30)) * 1e15,
        )
        for i in range(n)
    ]


def records_file_records(rng: random.Random, n: int) -> list[EfficiencyRecord]:
    """n distinct-named records in every form a records file holds.

    About a third are in triple form, some with images_per_epoch or an
    explicit matching total; some carry notes or a second threshold.
    """
    base = datetime.date(2010, 1, 1)
    thresholds = (Threshold("top5", 0.791), Threshold("top1", 0.7))
    records = []
    for i in range(n):
        kwargs = {"name": f"run {i:05d}", "threshold": thresholds[rng.random() < 0.1],
                  "date": base + datetime.timedelta(days=rng.randrange(3650))}
        if rng.random() < 0.2:
            kwargs["backward_multiplier"] = rng.choice((2.0, 3.5))
        if rng.random() < 0.35:
            kwargs["flops_per_image"] = float(rng.randint(10**6, 10**10))
            kwargs["epochs"] = float(rng.randint(1, 120))
            if rng.random() < 0.3:
                kwargs["images_per_epoch"] = rng.choice((1.28e6, 5e4))
            if rng.random() < 0.3:
                kwargs["total_compute"] = EfficiencyRecord(**kwargs).total
        else:
            kwargs["total_compute"] = 2.0 ** rng.uniform(50.0, 70.0)
        if rng.random() < 0.1:
            kwargs["notes"] = rng.choice(("hand-entered", "résumé \"quoted\"\n", "\\ tab\t"))
        records.append(EfficiencyRecord(**kwargs))
    return records


def _random_compute_curve(rng: random.Random, name: str, lo_exp: float, hi_exp: float,
                          n: int | None = None) -> ComputeCurve:
    n = n or rng.randint(2, 8)
    xs = sorted({round(10 ** rng.uniform(lo_exp, hi_exp), 3) for _ in range(n)})
    while len(xs) < 2:
        xs.append(xs[-1] * 2.0)
    ys = [round(rng.uniform(0.05, 0.98), 5) for _ in xs]
    return ComputeCurve(name=name, metric="top5", compute=tuple(xs), accuracies=tuple(ys))


def random_curve_pair(rng: random.Random) -> tuple[ComputeCurve, ComputeCurve]:
    """Curve pairs spanning all four dominance relations."""
    mode = rng.randrange(4)
    a = _random_compute_curve(rng, "a", 13, 19)
    if mode == 0:  # independent spans and knots
        b = _random_compute_curve(rng, "b", 13, 19)
    elif mode == 1:  # same knots, constant offset (possibly zero, possibly clipped)
        delta = rng.choice((-0.07, -0.02, 0.0, 0.02, 0.07))
        ys = tuple(min(1.0, max(0.0, y + delta)) for y in a.accuracies)
        b = ComputeCurve(name="b", metric="top5", compute=a.compute, accuracies=ys)
    elif mode == 2:  # b is a knot-subset slice of a (identical where it exists)
        if len(a.compute) >= 4:
            i = rng.randint(0, len(a.compute) - 2 - 1)
            j = rng.randint(i + 1, len(a.compute) - 1)
            b = ComputeCurve(name="b", metric="top5",
                             compute=a.compute[i:j + 1], accuracies=a.accuracies[i:j + 1])
        else:
            b = ComputeCurve(name="b", metric="top5", compute=a.compute, accuracies=a.accuracies)
    else:  # disjoint spans
        b = _random_compute_curve(rng, "b", 20, 22)
    return a, b
