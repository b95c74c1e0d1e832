"""Shape propagation through a layer graph.

Each layer kind's shape rule sits in its entry of the kind table in
graph.py; the one walk there that checks a graph's nodes also infers
their shapes. Every error names the offending node.
"""
from __future__ import annotations

from .graph import ArchitectureSpec, GraphError, TensorShape, _walk


class ShapeError(GraphError):
    """Shape inference met a node that is malformed or does not fit its inputs."""


def infer_shapes(
    arch: ArchitectureSpec, input_shape: TensorShape | None = None
) -> dict[str, TensorShape]:
    """Map every node id to its output shape.

    input_shape defaults to the architecture's default_input. The
    returned dict also carries the network input under ``"input"``.

    Every node is checked as validate_arch checks it: ShapeError lists
    the problems validate_arch would return for this input shape. The
    spec keeps its most recent successful walk, so a repeated input shape
    is not walked again (see graph.py); each call returns a fresh copy, so
    callers may change what they get back.
    """
    return dict(_walked_shapes(arch, input_shape))


def _walked_shapes(
    arch: ArchitectureSpec, input_shape: TensorShape | None
) -> dict[str, TensorShape]:
    """infer_shapes without the copy: the walk's own dict, which the caller must not change."""
    problems, shapes = _walk(arch, input_shape or arch.default_input)
    if problems:
        raise ShapeError("; ".join(problems))
    return shapes
