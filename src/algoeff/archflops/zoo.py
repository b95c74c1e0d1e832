"""Bundled architecture graphs for the 2012-2019 ImageNet classifiers.

``_GRAPHS`` is the registry: one row per network, keyed by its canonical
name, holding the function that builds its graph, that function's
arguments, the reported gigaops per image (benchmark: value the bundled
records use; counter: an independent counting tool; original: the
architecture's own publication) and the reported accuracy, or None where
none is published. A builder adds nodes to a ``_Builder`` and returns
the id of the output node; ``builtin_arch`` wraps the nodes in an
``ArchitectureSpec`` at the 3x224x224 input, with the row's figures
verbatim in ``metadata``. Rows of one family share a builder: ``_resnet``
serves the five ResNet rows, ``_shufflenet_v2`` both ShuffleNet v2 widths
and ``_inverted_residuals`` MobileNet_v2 and EfficientNet-b0. Metadata is
documentation only and never feeds computation. ``benchmark`` is the
bundled records' ``flops_per_image`` in gigaops, and a test checks that
they agree. ``builtin_arch`` is the one public name.

Each builder mirrors a widely used reference implementation of the
architecture. Counted with the default convention (conv2d + linear
macs), the graphs land within ten percent of the reported benchmark
figures; exact expectations live in the test suite.

Implementation notes that affect counts:

* GoogLeNet here is the batch-norm flavour whose inception blocks use a
  double 3x3 tower in place of a 5x5 branch and whose reduction blocks
  are strided inceptions. The plain single-tower graph counts about
  1.5e9 macs, a quarter below the figure the bundled records carry; the
  double-tower variant matches it.
* ShuffleNet v2 alternates a pass-through half and a processed half per
  unit. There is no channel-split node kind, so units keep the halves as
  two parallel streams and concatenate at stage boundaries. Arithmetic
  is identical layer for layer; only grouping of ids differs.
* EfficientNet squeeze-excite blocks are dedicated nodes. The default
  convention does not count them (they are well under one percent of
  the network); add "squeeze_excite" to counted_kinds to include them.
* AlexNet is the 224-input variant (first conv padded by 2). Several
  reported per-image figures for it are a few percent above what the
  reference graph arithmetic yields; the graph is left faithful.
"""
from __future__ import annotations

import re
from typing import Any, Callable

from .graph import ArchitectureSpec, GraphError, LayerNode, TensorShape


class _Builder:
    """Accumulates nodes with readable auto-generated ids."""

    def __init__(self) -> None:
        self.nodes: list[LayerNode] = []

    def add(self, kind: str, inputs: list[str] | tuple[str, ...] | str, id: str, **params: Any) -> str:
        if isinstance(inputs, str):
            inputs = (inputs,)
        self.nodes.append(LayerNode(id=id, kind=kind, params=params, inputs=tuple(inputs)))
        return id

    def conv(self, x: str, id: str, out_c: int, k: int, s: int = 1, p: int = 0,
             groups: int = 1, bias: bool = False) -> str:
        return self.add("conv2d", x, id, out_channels=out_c, kernel_h=k, kernel_w=k,
                        stride=s, padding=p, groups=groups, has_bias=bias)

    def cba(self, x: str, prefix: str, out_c: int, k: int, s: int = 1, p: int = 0,
            groups: int = 1, act: str | None = "relu") -> str:
        """conv + batchnorm + optional activation."""
        x = self.conv(x, f"{prefix}.conv", out_c, k, s, p, groups)
        x = self.add("batchnorm", x, f"{prefix}.bn")
        if act:
            x = self.add("activation", x, f"{prefix}.{act}", function=act)
        return x

    def conv_relu(self, x: str, prefix: str, out_c: int, k: int, s: int = 1, p: int = 0) -> str:
        x = self.conv(x, f"{prefix}.conv", out_c, k, s, p, bias=True)
        return self.add("activation", x, f"{prefix}.relu", function="relu")

    def maxpool(self, x: str, id: str, k: int, s: int, p: int = 0) -> str:
        return self.add("maxpool", x, id, kernel=k, stride=s, padding=p)

    def avgpool(self, x: str, id: str, k: int, s: int, p: int = 0) -> str:
        return self.add("avgpool", x, id, kernel=k, stride=s, padding=p)

    def classifier(self, x: str, dropout: bool = False) -> str:
        """Global average pool to 1x1, flatten, optional dropout, 1000-way linear."""
        x = self.add("global_avgpool", x, "head.pool", target=1)
        x = self.add("flatten", x, "head.flatten")
        if dropout:
            x = self.add("dropout", x, "head.dropout")
        return self.add("linear", x, "head.fc", out_features=1000, has_bias=True)


# ---------------------------------------------------------------------------
# plain feed-forward stacks
# ---------------------------------------------------------------------------

def _alexnet(b: _Builder) -> str:
    x = "input"
    x = b.conv_relu(x, "conv1", 64, k=11, s=4, p=2)
    x = b.maxpool(x, "pool1", 3, 2)
    x = b.conv_relu(x, "conv2", 192, k=5, p=2)
    x = b.maxpool(x, "pool2", 3, 2)
    x = b.conv_relu(x, "conv3", 384, k=3, p=1)
    x = b.conv_relu(x, "conv4", 256, k=3, p=1)
    x = b.conv_relu(x, "conv5", 256, k=3, p=1)
    x = b.maxpool(x, "pool5", 3, 2)
    x = b.add("global_avgpool", x, "avgpool", target=6)
    x = b.add("flatten", x, "flatten")
    x = b.add("dropout", x, "drop6")
    x = b.add("linear", x, "fc6", out_features=4096, has_bias=True)
    x = b.add("activation", x, "relu6", function="relu")
    x = b.add("dropout", x, "drop7")
    x = b.add("linear", x, "fc7", out_features=4096, has_bias=True)
    x = b.add("activation", x, "relu7", function="relu")
    return b.add("linear", x, "fc8", out_features=1000, has_bias=True)


def _vgg11(b: _Builder) -> str:
    x = "input"
    block = 0
    for spec in (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"):
        if spec == "M":
            x = b.maxpool(x, f"pool{block}", 2, 2)
        else:
            block += 1
            x = b.conv_relu(x, f"conv{block}", int(spec), k=3, p=1)
    x = b.add("global_avgpool", x, "avgpool", target=7)
    x = b.add("flatten", x, "flatten")
    x = b.add("linear", x, "fc1", out_features=4096, has_bias=True)
    x = b.add("activation", x, "fc1.relu", function="relu")
    x = b.add("dropout", x, "drop1")
    x = b.add("linear", x, "fc2", out_features=4096, has_bias=True)
    x = b.add("activation", x, "fc2.relu", function="relu")
    x = b.add("dropout", x, "drop2")
    return b.add("linear", x, "fc3", out_features=1000, has_bias=True)


# ---------------------------------------------------------------------------
# inception
# ---------------------------------------------------------------------------

def _googlenet_inception(b: _Builder, x: str, prefix: str, c1: int, c3r: int, c3: int,
                         cd3r: int, cd3: int, pool_proj: int | None,
                         stride: int = 1, pool: str = "avgpool") -> str:
    branches = []
    if c1:
        branches.append(b.cba(x, f"{prefix}.b1", c1, k=1))
    t = b.cba(x, f"{prefix}.b2.reduce", c3r, k=1)
    branches.append(b.cba(t, f"{prefix}.b2", c3, k=3, s=stride, p=1))
    t = b.cba(x, f"{prefix}.b3.reduce", cd3r, k=1)
    t = b.cba(t, f"{prefix}.b3.a", cd3, k=3, p=1)
    branches.append(b.cba(t, f"{prefix}.b3.b", cd3, k=3, s=stride, p=1))
    if stride == 1:
        t = b.add(pool, x, f"{prefix}.b4.pool", kernel=3, stride=1, padding=1)
        branches.append(b.cba(t, f"{prefix}.b4", pool_proj, k=1))
    else:
        branches.append(b.maxpool(x, f"{prefix}.b4.pool", 3, 2, 1))
    return b.add("concat", branches, f"{prefix}.concat")


def _googlenet(b: _Builder) -> str:
    x = "input"
    x = b.cba(x, "stem.1", 64, k=7, s=2, p=3)
    x = b.maxpool(x, "stem.pool1", 3, 2, 1)
    x = b.cba(x, "stem.2", 64, k=1)
    x = b.cba(x, "stem.3", 192, k=3, p=1)
    x = b.maxpool(x, "stem.pool2", 3, 2, 1)
    inc = _googlenet_inception
    x = inc(b, x, "3a", 64, 64, 64, 64, 96, 32)
    x = inc(b, x, "3b", 64, 64, 96, 64, 96, 64)
    x = inc(b, x, "3c", 0, 128, 160, 64, 96, None, stride=2)
    x = inc(b, x, "4a", 224, 64, 96, 96, 128, 128)
    x = inc(b, x, "4b", 192, 96, 128, 96, 128, 128)
    x = inc(b, x, "4c", 160, 128, 160, 128, 160, 128)
    x = inc(b, x, "4d", 96, 128, 192, 160, 192, 128)
    x = inc(b, x, "4e", 0, 128, 192, 192, 256, None, stride=2)
    x = inc(b, x, "5a", 352, 192, 320, 160, 224, 128)
    x = inc(b, x, "5b", 352, 192, 320, 192, 224, 128, pool="maxpool")
    return b.classifier(x)


# ---------------------------------------------------------------------------
# resnets
# ---------------------------------------------------------------------------

def _resnet(b: _Builder, block: str, layers: tuple[int, ...], groups: int = 1,
            base_width: int = 64) -> str:
    x = b.cba("input", "stem", 64, k=7, s=2, p=3)
    x = b.maxpool(x, "stem.pool", 3, 2, 1)
    expansion = 4 if block == "bottleneck" else 1
    in_c = 64
    for stage, (planes, blocks) in enumerate(zip((64, 128, 256, 512), layers), start=1):
        for i in range(blocks):
            stride = 2 if (i == 0 and stage > 1) else 1
            prefix = f"layer{stage}.{i}"
            out_c = planes * expansion
            if block == "bottleneck":
                width = int(planes * (base_width / 64.0)) * groups
                y = b.cba(x, f"{prefix}.a", width, k=1)
                y = b.cba(y, f"{prefix}.b", width, k=3, s=stride, p=1, groups=groups)
                y = b.cba(y, f"{prefix}.c", out_c, k=1, act=None)
            else:
                y = b.cba(x, f"{prefix}.a", planes, k=3, s=stride, p=1)
                y = b.cba(y, f"{prefix}.b", planes, k=3, p=1, act=None)
            if stride != 1 or in_c != out_c:
                shortcut = b.cba(x, f"{prefix}.down", out_c, k=1, s=stride, act=None)
            else:
                shortcut = x
            x = b.add("elementwise_add", [y, shortcut], f"{prefix}.add")
            x = b.add("activation", x, f"{prefix}.relu", function="relu")
            in_c = out_c
    return b.classifier(x)


# ---------------------------------------------------------------------------
# densenet
# ---------------------------------------------------------------------------

def _densenet121(b: _Builder) -> str:
    growth, bn_size = 32, 4
    x = b.cba("input", "stem", 64, k=7, s=2, p=3)
    x = b.maxpool(x, "stem.pool", 3, 2, 1)
    channels = 64
    for stage, layers in enumerate((6, 12, 24, 16), start=1):
        for i in range(layers):
            prefix = f"block{stage}.{i}"
            y = b.add("batchnorm", x, f"{prefix}.bn1")
            y = b.add("activation", y, f"{prefix}.relu1", function="relu")
            y = b.conv(y, f"{prefix}.conv1", bn_size * growth, k=1)
            y = b.add("batchnorm", y, f"{prefix}.bn2")
            y = b.add("activation", y, f"{prefix}.relu2", function="relu")
            y = b.conv(y, f"{prefix}.conv2", growth, k=3, p=1)
            x = b.add("concat", [x, y], f"{prefix}.cat")
            channels += growth
        if stage < 4:
            prefix = f"trans{stage}"
            x = b.add("batchnorm", x, f"{prefix}.bn")
            x = b.add("activation", x, f"{prefix}.relu", function="relu")
            channels //= 2
            x = b.conv(x, f"{prefix}.conv", channels, k=1)
            x = b.avgpool(x, f"{prefix}.pool", 2, 2)
    x = b.add("batchnorm", x, "final.bn")
    x = b.add("activation", x, "final.relu", function="relu")
    return b.classifier(x)


# ---------------------------------------------------------------------------
# squeezenet
# ---------------------------------------------------------------------------

def _squeezenet11(b: _Builder) -> str:

    def fire(x: str, prefix: str, squeeze: int, expand: int) -> str:
        s = b.conv_relu(x, f"{prefix}.squeeze", squeeze, k=1)
        e1 = b.conv_relu(s, f"{prefix}.expand1", expand, k=1)
        e3 = b.conv_relu(s, f"{prefix}.expand3", expand, k=3, p=1)
        return b.add("concat", [e1, e3], f"{prefix}.cat")

    x = b.conv_relu("input", "conv1", 64, k=3, s=2)
    x = b.maxpool(x, "pool1", 3, 2)
    x = fire(x, "fire2", 16, 64)
    x = fire(x, "fire3", 16, 64)
    x = b.maxpool(x, "pool3", 3, 2)
    x = fire(x, "fire4", 32, 128)
    x = fire(x, "fire5", 32, 128)
    x = b.maxpool(x, "pool5", 3, 2)
    x = fire(x, "fire6", 48, 192)
    x = fire(x, "fire7", 48, 192)
    x = fire(x, "fire8", 64, 256)
    x = fire(x, "fire9", 64, 256)
    x = b.add("dropout", x, "drop")
    x = b.conv_relu(x, "conv10", 1000, k=1)
    x = b.add("global_avgpool", x, "head.pool", target=1)
    return b.add("flatten", x, "head.flatten")


# ---------------------------------------------------------------------------
# mobilenets
# ---------------------------------------------------------------------------

def _mobilenet_v1(b: _Builder) -> str:
    x = b.cba("input", "stem", 32, k=3, s=2, p=1)
    channels = 32
    plan = [(64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
            (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2), (1024, 1)]
    for i, (out_c, stride) in enumerate(plan, start=1):
        prefix = f"dw{i}"
        x = b.cba(x, f"{prefix}.depth", channels, k=3, s=stride, p=1, groups=channels)
        x = b.cba(x, f"{prefix}.point", out_c, k=1)
        channels = out_c
    return b.classifier(x)


def _inverted_residuals(b: _Builder, block: str, act: str, plan: tuple[tuple[int, ...], ...],
                        se: bool = False, dropout: bool = False) -> str:
    """MobileNet v2 style: each plan row (t, out_c, n, k, stride) is n blocks of
    expansion t and kernel k, the first of them strided."""
    x = b.cba("input", "stem", 32, k=3, s=2, p=1, act=act)
    channels = 32
    idx = 0
    for t, out_c, n, k, first_stride in plan:
        for i in range(n):
            idx += 1
            stride = first_stride if i == 0 else 1
            prefix = f"{block}{idx}"
            y = x
            hidden = channels * t
            if t != 1:
                y = b.cba(y, f"{prefix}.expand", hidden, k=1, act=act)
            y = b.cba(y, f"{prefix}.depth", hidden, k=k, s=stride, p=(k - 1) // 2,
                      groups=hidden, act=act)
            if se:
                # squeeze width is a quarter of the block input, i.e. hidden/(4t)
                y = b.add("squeeze_excite", y, f"{prefix}.se", reduction=4 * t)
            y = b.cba(y, f"{prefix}.project", out_c, k=1, act=None)
            if stride == 1 and channels == out_c:
                y = b.add("elementwise_add", [x, y], f"{prefix}.add")
            x = y
            channels = out_c
    x = b.cba(x, "head.conv", 1280, k=1, act=act)
    return b.classifier(x, dropout=dropout)


# ---------------------------------------------------------------------------
# shufflenets
# ---------------------------------------------------------------------------

def _shufflenet_v1(b: _Builder) -> str:
    groups = 3
    x = b.cba("input", "stem", 24, k=3, s=2, p=1)
    x = b.maxpool(x, "stem.pool", 3, 2, 1)
    in_c = 24
    stage_out = {2: 240, 3: 480, 4: 960}
    repeats = {2: 3, 3: 7, 4: 3}
    for stage in (2, 3, 4):
        out_c = stage_out[stage]
        for i in range(repeats[stage] + 1):
            prefix = f"stage{stage}.{i}"
            first = i == 0
            # bottleneck width follows the nominal stage output
            mid = out_c // 4
            branch_out = out_c - in_c if first else out_c
            g1 = 1 if (first and stage == 2) else groups
            y = b.cba(x, f"{prefix}.compress", mid, k=1, groups=g1)
            y = b.add("channel_shuffle", y, f"{prefix}.shuffle", groups=groups)
            y = b.cba(y, f"{prefix}.depth", mid, k=3, s=2 if first else 1, p=1,
                      groups=mid, act=None)
            y = b.cba(y, f"{prefix}.expand", branch_out, k=1, groups=groups, act=None)
            if first:
                shortcut = b.avgpool(x, f"{prefix}.pool", 3, 2, 1)
                x = b.add("concat", [shortcut, y], f"{prefix}.cat")
            else:
                x = b.add("elementwise_add", [x, y], f"{prefix}.add")
            x = b.add("activation", x, f"{prefix}.relu", function="relu")
            in_c = out_c
    return b.classifier(x)


def _shufflenet_v2(b: _Builder, stage_out: tuple[int, int, int]) -> str:
    # no channel-split kind: the two halves of each unit run as parallel streams
    x = b.cba("input", "stem", 24, k=3, s=2, p=1)
    x = b.maxpool(x, "stem.pool", 3, 2, 1)
    in_c = 24
    repeats = {2: 4, 3: 8, 4: 4}
    for stage, out_c in zip((2, 3, 4), stage_out):
        branch = out_c // 2
        for i in range(repeats[stage]):
            prefix = f"stage{stage}.{i}"
            if i == 0:
                a = b.cba(x, f"{prefix}.left.depth", in_c, k=3, s=2, p=1,
                          groups=in_c, act=None)
                a = b.cba(a, f"{prefix}.left.point", branch, k=1)
                y = b.cba(x, f"{prefix}.right.point1", branch, k=1)
                y = b.cba(y, f"{prefix}.right.depth", branch, k=3, s=2, p=1,
                          groups=branch, act=None)
                y = b.cba(y, f"{prefix}.right.point2", branch, k=1)
                streams = (a, y)
            else:
                passed, active = streams
                y = b.cba(active, f"{prefix}.point1", branch, k=1)
                y = b.cba(y, f"{prefix}.depth", branch, k=3, p=1, groups=branch, act=None)
                y = b.cba(y, f"{prefix}.point2", branch, k=1)
                streams = (passed, y)
        x = b.add("concat", list(streams), f"stage{stage}.cat")
        x = b.add("channel_shuffle", x, f"stage{stage}.shuffle", groups=2)
        in_c = out_c
    x = b.cba(x, "head.conv", 1024, k=1)
    return b.classifier(x)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (builder, its arguments, reported gigaops per image as (benchmark,
# counter, original), reported accuracy as (metric, benchmark_run,
# reference_impl, original_publication) or None)
_GRAPHS: dict[str, tuple[Callable[..., str], dict[str, Any], tuple, tuple | None]] = {
    "AlexNet": (_alexnet, {}, (0.77, 0.77, None), ("top5", 79.0, 79.1, 83.0)),
    "Vgg-11": (_vgg11, {}, (7.98, 7.98, None), ("top5", 86.8, 88.6, 93.0)),
    "GoogLeNet": (_googlenet, {}, (2.00, 2.00, None), ("top5", 88.0, 89.5, 89.9)),
    "Resnet-18": (_resnet, {"block": "basic", "layers": (2, 2, 2, 2)}, (1.70, 1.70, None), None),
    "Resnet-34": (_resnet, {"block": "basic", "layers": (3, 4, 6, 3)}, (3.43, 3.43, None), None),
    "Resnet-50": (_resnet, {"block": "bottleneck", "layers": (3, 4, 6, 3)},
                  (3.86, 3.86, None), ("top5", 92.8, 92.9, 93.3)),
    "Wide_ResNet_50": (_resnet, {"block": "bottleneck", "layers": (3, 4, 6, 3), "base_width": 128},
                       (11.46, 11.46, None), None),
    "ResNext_50": (_resnet, {"block": "bottleneck", "layers": (3, 4, 6, 3), "groups": 32,
                             "base_width": 4}, (4.29, 4.29, None), None),
    "DenseNet121": (_densenet121, {}, (2.70, 2.70, None), None),
    "Squeezenet_v1_1": (_squeezenet11, {}, (0.36, 0.36, None), ("top5", 80.6, 80.6, 80.3)),
    "MobileNet_v1": (_mobilenet_v1, {}, (0.57, 0.58, 0.57), ("top1", 71.0, None, 70.6)),
    "MobileNet_v2": (_inverted_residuals, {"block": "ir", "act": "relu6", "plan": (
        (1, 16, 1, 3, 1), (6, 24, 2, 3, 2), (6, 32, 3, 3, 2), (6, 64, 4, 3, 2),
        (6, 96, 3, 3, 1), (6, 160, 3, 3, 2), (6, 320, 1, 3, 1))},
        (0.33, 0.33, None), ("top1", 68.5, 71.9, 72.0)),
    "ShuffleNet_v1_1x": (_shufflenet_v1, {}, (0.14, 0.15, 0.14), ("top1", 64.6, None, 67.6)),
    "ShuffleNet_v2_1x": (_shufflenet_v2, {"stage_out": (116, 232, 464)}, (0.14, 0.15, 0.14), None),
    "ShuffleNet_v2_1_5x": (_shufflenet_v2, {"stage_out": (176, 352, 704)},
                           (0.31, 0.31, None), ("top1", 69.3, 69.4, 71.6)),
    "EfficientNet-b0": (_inverted_residuals, {"block": "mb", "act": "swish", "se": True,
                                              "dropout": True, "plan": (
        (1, 16, 1, 3, 1), (6, 24, 2, 3, 2), (6, 40, 2, 5, 2), (6, 80, 3, 3, 2),
        (6, 112, 3, 5, 1), (6, 192, 4, 5, 2), (6, 320, 1, 3, 1))}, (0.39, None, 0.39), None),
}

_GIGAOPS_KEYS = ("benchmark", "counter", "original")
_ACCURACY_KEYS = ("metric", "benchmark_run", "reference_impl", "original_publication")


def _normalize(name: str) -> str:
    return re.sub(r"[-_.\s]", "", name).lower()


_CANONICAL = {_normalize(k): k for k in _GRAPHS}


def builtin_arch(name: str) -> ArchitectureSpec:
    """Return a bundled architecture graph by name.

    Lookup ignores case and punctuation, so "VGG-11", "vgg11" and
    "Vgg-11" resolve to the same graph. Unknown names raise GraphError
    listing what is available.
    """
    key = _normalize(name)
    if key not in _CANONICAL:
        known = ", ".join(sorted(_GRAPHS))
        raise GraphError(f"unknown architecture {name!r}; bundled graphs: {known}")
    canonical = _CANONICAL[key]
    build, args, gigaops, accuracy = _GRAPHS[canonical]
    b = _Builder()
    output = build(b, **args)
    metadata: dict[str, Any] = {"reported_gigaops_per_image": dict(zip(_GIGAOPS_KEYS, gigaops))}
    if accuracy:
        metadata["reported_accuracy"] = dict(zip(_ACCURACY_KEYS, accuracy))
    return ArchitectureSpec(name=canonical, default_input=TensorShape(3, 224, 224),
                            nodes=tuple(b.nodes), output=output, metadata=metadata)
