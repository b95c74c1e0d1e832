"""Shape inference for library callers: a copy of the walk's shape map.

graph.py owns the walk, its shape map and ShapeError; the package's own
commands read the map in place (graph.walked_shapes).
"""
from __future__ import annotations

from .graph import ArchitectureSpec, TensorShape, walked_shapes


def infer_shapes(
    arch: ArchitectureSpec, input_shape: TensorShape | None = None
) -> dict[str, TensorShape]:
    """Map every node id to its output shape, in a fresh dict the caller may change.

    input_shape defaults to the architecture's default_input; the dict also
    carries the network input under ``"input"``. ShapeError lists the
    problems validate_arch would return for this input shape. A repeated
    input shape is not walked again (see graph.py).
    """
    return dict(walked_shapes(arch, input_shape))
