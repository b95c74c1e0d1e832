"""Shape propagation through a layer graph.

Convolution and pooling windows follow floor arithmetic:

    out = floor((in + 2*padding - dilation*(kernel - 1) - 1) / stride) + 1

Pool nodes accept ``ceil: true`` to switch that division to ceiling, with
the usual guard that a window may not start entirely inside the padding.
Every error names the offending node.
"""
from __future__ import annotations

from .graph import (
    INPUT_ID,
    ArchitectureSpec,
    GraphError,
    LayerNode,
    TensorShape,
    node_param,
)


class ShapeError(GraphError):
    """Shape propagation failed for a specific node."""


def window_out_dim(
    in_dim: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    ceil: bool = False,
) -> int:
    """Output length of a sliding window along one dimension.

    Raises ValueError when the effective kernel does not fit in the
    padded input.
    """
    effective = dilation * (kernel - 1) + 1
    span = in_dim + 2 * padding - effective
    if span < 0:
        raise ValueError(
            f"window (kernel {kernel}, dilation {dilation}) exceeds "
            f"padded input of size {in_dim} + 2*{padding}"
        )
    # integer division stays exact where float division rounds (span > 2**53)
    out = (-(-span // stride) if ceil else span // stride) + 1
    if ceil and (out - 1) * stride >= in_dim + padding:
        # last window would start beyond the real input; drop it
        out -= 1
    return out


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
        ins = []
        for ref in node.inputs:
            if ref not in shapes:
                raise ShapeError(f"node {node.id!r}: input {ref!r} not declared earlier")
            ins.append(shapes[ref])
        shapes[node.id] = _node_shape(node, ins)
    if arch.output not in shapes:
        raise ShapeError(f"output {arch.output!r} does not name a node")
    return shapes


def _node_shape(node: LayerNode, ins: list[TensorShape]) -> TensorShape:
    kind = node.kind
    if kind == "conv2d":
        (x,) = ins
        groups = node_param(node, "groups")
        if x.channels % groups:
            raise ShapeError(
                f"node {node.id!r}: groups={groups} does not divide input channels={x.channels}"
            )
        try:
            h = window_out_dim(
                x.height,
                node_param(node, "kernel_h"),
                node_param(node, "stride"),
                node_param(node, "padding"),
                node_param(node, "dilation"),
            )
            w = window_out_dim(
                x.width,
                node_param(node, "kernel_w"),
                node_param(node, "stride"),
                node_param(node, "padding"),
                node_param(node, "dilation"),
            )
        except ValueError as exc:
            raise ShapeError(f"node {node.id!r}: {exc}") from None
        return TensorShape(node_param(node, "out_channels"), h, w)

    if kind == "linear":
        (x,) = ins
        return TensorShape(node_param(node, "out_features"), 1, 1)

    if kind in ("maxpool", "avgpool"):
        (x,) = ins
        k = node_param(node, "kernel")
        try:
            h = window_out_dim(
                x.height, k, node_param(node, "stride"), node_param(node, "padding"),
                ceil=node_param(node, "ceil"),
            )
            w = window_out_dim(
                x.width, k, node_param(node, "stride"), node_param(node, "padding"),
                ceil=node_param(node, "ceil"),
            )
        except ValueError as exc:
            raise ShapeError(f"node {node.id!r}: {exc}") from None
        return TensorShape(x.channels, h, w)

    if kind == "global_avgpool":
        (x,) = ins
        t = node_param(node, "target")
        if x.height < t or x.width < t:
            raise ShapeError(
                f"node {node.id!r}: target {t}x{t} larger than input {x.height}x{x.width}"
            )
        return TensorShape(x.channels, t, t)

    if kind in ("batchnorm", "activation", "dropout", "local_response_norm", "squeeze_excite"):
        (x,) = ins
        return x

    if kind == "channel_shuffle":
        (x,) = ins
        groups = node_param(node, "groups")
        if x.channels % groups:
            raise ShapeError(
                f"node {node.id!r}: groups={groups} does not divide channels={x.channels}"
            )
        return x

    if kind in ("elementwise_add", "elementwise_mul"):
        first = ins[0]
        for other in ins[1:]:
            if other != first:
                raise ShapeError(
                    f"node {node.id!r}: operand shapes differ ({first} vs {other})"
                )
        return first

    if kind == "concat":
        first = ins[0]
        for other in ins[1:]:
            if (other.height, other.width) != (first.height, first.width):
                raise ShapeError(
                    f"node {node.id!r}: spatial dims differ ({first} vs {other})"
                )
        return TensorShape(sum(s.channels for s in ins), first.height, first.width)

    if kind == "flatten":
        (x,) = ins
        return TensorShape(x.elements, 1, 1)

    raise ShapeError(f"node {node.id!r}: unknown kind {node.kind!r}")
