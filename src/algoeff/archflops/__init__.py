"""Static per-image operation counting for convolutional classifiers.

Architectures are plain dataflow graphs (see graph.py). One walk per
graph and input shape checks every node and infers its shape, so
``infer_shapes`` and ``count_flops`` raise ShapeError for a malformed
spec; graph.py states how the walk is memoized. Each layer's
multiply-accumulate count then follows from its kind and resolved
shapes. Sixteen reference graphs for well-known ImageNet classifiers
ship in zoo.py.
"""
from .counting import (
    DEFAULT_COUNTED_KINDS,
    CountingConvention,
    FlopCount,
    count_flops,
)
from .graph import (
    INPUT_ID,
    LAYER_KINDS,
    ArchitectureSpec,
    GraphError,
    LayerNode,
    ShapeError,
    TensorShape,
    arch_from_json,
    require_valid,
    validate_arch,
    window_out_dim,
)
from .shapes import infer_shapes
from .zoo import builtin_arch

__all__ = [
    "ArchitectureSpec",
    "CountingConvention",
    "DEFAULT_COUNTED_KINDS",
    "FlopCount",
    "GraphError",
    "INPUT_ID",
    "LAYER_KINDS",
    "LayerNode",
    "ShapeError",
    "TensorShape",
    "arch_from_json",
    "builtin_arch",
    "count_flops",
    "infer_shapes",
    "require_valid",
    "validate_arch",
    "window_out_dim",
]
