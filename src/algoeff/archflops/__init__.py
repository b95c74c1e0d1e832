"""Static per-image operation counting for convolutional classifiers.

Architectures are plain dataflow graphs (see graph.py). Shapes are
inferred once per graph and input shape, then each layer's
multiply-accumulate count follows from its kind and resolved shapes.
The inferred shapes are memoized on the spec instance, so validation,
counting and shape tables share one walk; this holds because specs are
immutable values that are never changed in place. Sixteen reference
graphs for well-known ImageNet classifiers ship in zoo.py.
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
    TensorShape,
    arch_from_json,
    arch_to_json,
    node_param,
    require_valid,
    validate_arch,
)
from .shapes import ShapeError, infer_shapes, window_out_dim
from .zoo import builtin_arch, builtin_names

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
    "arch_to_json",
    "builtin_arch",
    "builtin_names",
    "count_flops",
    "infer_shapes",
    "node_param",
    "require_valid",
    "validate_arch",
    "window_out_dim",
]
