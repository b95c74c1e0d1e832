"""Shape propagation through a layer graph.

Each layer kind's shape rule sits in its entry of the kind table in
graph.py, next to ``window_out_dim``; this module walks a graph with
those rules. Every error names the offending node.
"""
from __future__ import annotations

from .graph import (  # node_param and window_out_dim are re-exported
    _KINDS,
    INPUT_ID,
    ArchitectureSpec,
    GraphError,
    LayerNode,
    TensorShape,
    _resolve,
    node_param,
    window_out_dim,
)


class ShapeError(GraphError):
    """Shape propagation failed for a specific node."""


# Instance attribute of an ArchitectureSpec that holds its inferred
# shapes by input shape. It is not a dataclass field, so equality, repr
# and dataclasses.replace ignore it.
_MEMO_ATTR = "_inferred_shapes"


def infer_shapes(
    arch: ArchitectureSpec, input_shape: TensorShape | None = None
) -> dict[str, TensorShape]:
    """Map every node id to its output shape.

    input_shape defaults to the architecture's default_input. The
    returned dict also carries the network input under ``"input"``.

    The graph is walked once per spec and input shape: a successful
    result is memoized on the spec instance, and later calls return a
    fresh copy of it, so callers may change what they get back. Failed
    inference is not memoized and raises again on every call. This is
    sound because specs are immutable values (see graph.py); a spec whose
    nodes or parameters are changed in place after inference keeps
    reporting the shapes of its earlier state.
    """
    key = input_shape or arch.default_input
    memo = arch.__dict__.setdefault(_MEMO_ATTR, {})
    if key not in memo:
        memo[key] = _walk(arch, key)
    return dict(memo[key])


def _walk(arch: ArchitectureSpec, input_shape: TensorShape) -> dict[str, TensorShape]:
    shapes: dict[str, TensorShape] = {INPUT_ID: input_shape}
    for node in arch.nodes:
        try:
            ins = []
            for ref in node.inputs:
                if ref not in shapes:
                    raise ValueError(f"input {ref!r} not declared earlier")
                ins.append(shapes[ref])
            shapes[node.id] = _node_shape(node, ins)
        except ValueError as exc:
            raise ShapeError(f"node {node.id!r}: {exc}") from None
        except KeyError as exc:  # only a spec that skipped validation lacks a parameter
            raise ShapeError(
                f"node {node.id!r}: missing required parameter {exc.args[0]!r}"
            ) from None
    if arch.output not in shapes:
        raise ShapeError(f"output {arch.output!r} does not name a node")
    return shapes


def _node_shape(node: LayerNode, ins: list[TensorShape]) -> TensorShape:
    kind = _KINDS.get(node.kind)
    if kind is None:
        raise ValueError(f"unknown kind {node.kind!r}")
    return kind.shape(_resolve(node, kind), ins)
