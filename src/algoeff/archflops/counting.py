"""Analytic operation counts for a layer graph.

Counts are exact integers derived from shapes, never measured. The base
unit is the multiply-accumulate (mac): one multiply plus one add counts
as a single operation. The ``flop2`` unit counts the same work as two
operations per mac.

Per-layer mac rules, given input channels ic and output shape oc x oh x ow:

    conv2d           oc * oh * ow * (ic / groups) * kernel_h * kernel_w
    linear           in_features * out_features   (in_features = ic*ih*iw)
    squeeze_excite   ic * squeeze + squeeze * ic, squeeze = max(1, ic // reduction)
    maxpool/avgpool  oc * oh * ow * kernel * kernel
    global_avgpool   ic * ih * iw
    batchnorm        ic * ih * iw  (one scale-and-shift per element)
    activation       output elements
    elementwise_*    output elements
    local_response_norm  output elements
    concat, flatten, dropout, channel_shuffle   0 (data movement)

Only kinds listed in the convention's counted_kinds contribute to the
total; everything else contributes an explicit zero in the breakdown.
The default convention counts conv2d and linear, which is how per-image
operation figures for these networks are conventionally quoted. When
include_bias is set, conv2d and linear layers whose has_bias parameter
is true add one operation per output element, and squeeze_excite adds
squeeze + ic for the biases of its two layers.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping

from .graph import (
    _KINDS, LAYER_KINDS, ArchitectureSpec, GraphError, TensorShape, _resolve, walked_layers,
)

UNITS = ("mac", "flop2")

#: Kinds whose operations are conventionally quoted for these networks.
DEFAULT_COUNTED_KINDS = frozenset({"conv2d", "linear"})


@dataclass(frozen=True)
class CountingConvention:
    """How raw layer arithmetic is turned into a single number."""

    unit: str = "mac"
    counted_kinds: frozenset[str] = DEFAULT_COUNTED_KINDS
    include_bias: bool = False

    def __post_init__(self) -> None:
        if self.unit not in UNITS:
            raise GraphError(f"unknown unit {self.unit!r}; expected one of {UNITS}")
        given = self.counted_kinds
        try:
            kinds = None if isinstance(given, str) else frozenset(given)
        except TypeError:  # not iterable, or an item is unhashable
            kinds = None
        if kinds is None:
            raise GraphError(f"counted_kinds must be a set of layer kinds, not {given!r}")
        if not kinds:
            raise GraphError("counted_kinds needs at least one layer kind")
        if not kinds <= LAYER_KINDS:
            unknown = sorted(kinds - LAYER_KINDS, key=str)
            raise GraphError(f"unknown layer kinds in counted_kinds: {unknown}")
        object.__setattr__(self, "counted_kinds", kinds)


@dataclass(frozen=True)
class FlopCount:
    """Result of counting one architecture at one input shape; per_layer is held, not copied."""

    total_per_image: int
    per_layer: Mapping[str, int]
    convention: CountingConvention
    input: TensorShape

    @property
    def per_image_float(self) -> float:
        """The exact per-image count as a float; GraphError if it exceeds the float range."""
        if self.total_per_image > sys.float_info.max:
            raise GraphError("per-image count exceeds the float range")
        return float(self.total_per_image)

    @property
    def gigaops(self) -> float:
        return self.per_image_float / 1e9


def count_flops(
    arch: ArchitectureSpec,
    input_shape: TensorShape | None = None,
    convention: CountingConvention | None = None,
) -> FlopCount:
    """Count per-image operations for every node.

    The per-layer map carries every node id (zeros included), so the total
    always equals the sum of the breakdown. Shapes and layer signatures
    are read in place from graph.walked_layers; a malformed spec raises
    ShapeError. The mac rule runs once per signature, at its first node,
    and the signature's other nodes share that node's count.
    """
    convention = convention or CountingConvention()
    shapes, layers = walked_layers(arch, input_shape)
    scale = 2 if convention.unit == "flop2" else 1

    per_layer: dict[str, int] = {}
    for node, first in zip(arch.nodes, layers):
        macs = per_layer.get(first.id)
        if macs is None:
            macs = 0
            if node.kind in convention.counted_kinds:
                kind = _KINDS[node.kind]
                ins = [shapes[ref] for ref in node.inputs]
                macs = kind.macs(_resolve(node, kind), ins, shapes[node.id],
                                 convention.include_bias) * scale
        per_layer[node.id] = macs

    return FlopCount(
        total_per_image=sum(per_layer.values()),
        per_layer=per_layer,
        convention=convention,
        input=shapes["input"],
    )
