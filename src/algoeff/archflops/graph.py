"""Layer-graph descriptions of convolutional image classifiers.

An architecture is a directed acyclic graph of layer nodes. Nodes are
declared in topological order: each node's inputs must name either an
earlier node or the reserved network input id ``"input"``.

What the package knows about each layer kind sits in one entry of
``_KINDS``: its parameters with their defaults and accepted values, its
input arity, any rule across its parameters, its shape rule and its mac
rule. One walk here checks every node and infers its shape; validation
and ``shapes.infer_shapes`` both go through it. ``counting`` walks a
checked graph with the mac rules.

Everything here is immutable. Treat specs as values: helpers return new
objects and never mutate their arguments, so sharing instances across
threads is safe. The walk relies on this: a successful walk is memoized
on the spec instance by input shape, so a memo entry means "valid, with
these shapes, for this input". A failed walk runs again on every call; a
spec changed in place after a walk keeps reporting its earlier state.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Mapping


class GraphError(ValueError):
    """Structural problem in an architecture description."""


#: Reserved id that layer inputs use to reference the network input tensor.
INPUT_ID = "input"


@dataclass(frozen=True)
class TensorShape:
    """Channels-first feature map shape, batch dimension omitted."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        for name in ("channels", "height", "width"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise GraphError(f"TensorShape.{name} must be a positive integer, got {v!r}")

    @property
    def elements(self) -> int:
        return self.channels * self.height * self.width

    @classmethod
    def parse(cls, text: str) -> "TensorShape":
        """Parse ``"CxHxW"`` (also accepts ',' separators)."""
        parts = re.split(r"[x,]", text.strip().lower())
        if len(parts) != 3:
            raise GraphError(f"expected CxHxW, got {text!r}")
        try:
            c, h, w = (int(p) for p in parts)
        except ValueError:
            raise GraphError(f"expected integer dimensions in {text!r}") from None
        return cls(c, h, w)

    def __str__(self) -> str:
        try:
            return f"{self.channels}x{self.height}x{self.width}"
        except ValueError:  # a dimension past the int-to-str digit limit
            raise GraphError("a shape has a dimension with too many digits to print") from None


@dataclass(frozen=True)
class LayerNode:
    """One layer in the graph.

    id:      unique within the architecture, never ``"input"``.
    kind:    one of LAYER_KINDS.
    params:  kind-specific parameters (see module docstring of counting
             for which parameters affect counts).
    inputs:  ids of earlier nodes, or INPUT_ID.
    """

    id: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    inputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # a bare string stays whole for the walk to report
        if type(self.inputs) is not tuple and not isinstance(self.inputs, str):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "params", dict(self.params))


def window_out_dim(
    in_dim: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    ceil: bool = False,
) -> int:
    """Output length of a sliding window along one dimension.

    Convolution and pooling windows follow floor arithmetic:

        out = floor((in + 2*padding - dilation*(kernel - 1) - 1) / stride) + 1

    ceil=True switches that division to ceiling, with the usual guard
    that a window may not start entirely inside the padding. Raises
    ValueError when the effective kernel does not fit in the padded input.
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


# ---------------------------------------------------------------------------
# Layer kinds
#
# A shape rule maps a node's resolved parameters and input shapes to its
# output shape and raises ValueError, without the node id, when the
# inputs do not fit. A mac rule maps resolved parameters, input shapes,
# output shape and include_bias to the node's mac count; counting.py's
# docstring states the mac rules as formulas.
# ---------------------------------------------------------------------------

def _same_shape(p, ins):
    (x,) = ins
    return x


def _conv_shape(p, ins):
    (x,) = ins
    if x.channels % p["groups"]:
        raise ValueError(f"groups={p['groups']} does not divide input channels={x.channels}")
    window = p["stride"], p["padding"], p["dilation"]
    return TensorShape(
        p["out_channels"],
        window_out_dim(x.height, p["kernel_h"], *window),
        window_out_dim(x.width, p["kernel_w"], *window),
    )


def _pool_shape(p, ins):
    (x,) = ins
    window = p["kernel"], p["stride"], p["padding"], 1, p["ceil"]
    return TensorShape(
        x.channels, window_out_dim(x.height, *window), window_out_dim(x.width, *window)
    )


def _global_pool_shape(p, ins):
    (x,) = ins
    t = p["target"]
    if x.height < t or x.width < t:
        raise ValueError(f"target {t}x{t} larger than input {x.height}x{x.width}")
    return TensorShape(x.channels, t, t)


def _shuffle_shape(p, ins):
    (x,) = ins
    if x.channels % p["groups"]:
        raise ValueError(f"groups={p['groups']} does not divide channels={x.channels}")
    return x


def _elementwise_shape(p, ins):
    first = ins[0]
    for other in ins[1:]:
        if other != first:
            raise ValueError(f"operand shapes differ ({first} vs {other})")
    return first


def _concat_shape(p, ins):
    first = ins[0]
    for other in ins[1:]:
        if (other.height, other.width) != (first.height, first.width):
            raise ValueError(f"spatial dims differ ({first} vs {other})")
    return TensorShape(sum(s.channels for s in ins), first.height, first.width)


def _conv_check(p):
    if p["out_channels"] % p["groups"]:
        return f"groups={p['groups']} does not divide out_channels={p['out_channels']}"


def _conv_macs(p, ins, out, include_bias):
    macs = out.elements * (ins[0].channels // p["groups"]) * p["kernel_h"] * p["kernel_w"]
    return macs + out.elements if include_bias and p["has_bias"] else macs


def _linear_macs(p, ins, out, include_bias):
    macs = ins[0].elements * p["out_features"]
    return macs + p["out_features"] if include_bias and p["has_bias"] else macs


def _squeeze_excite_macs(p, ins, out, include_bias):
    channels = ins[0].channels
    squeeze = max(1, channels // p["reduction"])
    return 2 * channels * squeeze + (squeeze + channels if include_bias else 0)


def _pool_macs(p, ins, out, include_bias):
    return out.elements * p["kernel"] * p["kernel"]


def _input_elements(p, ins, out, include_bias):
    return ins[0].elements


def _output_elements(p, ins, out, include_bias):
    return out.elements


def _no_macs(p, ins, out, include_bias):
    return 0


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# What an explicit parameter value must be: (description, test).
_POSITIVE = ("a positive integer", lambda v: _is_int(v) and v >= 1)
_NON_NEGATIVE = ("a non-negative integer", lambda v: _is_int(v) and v >= 0)
_FLAG = ("true or false", lambda v: isinstance(v, bool))
_NAME = ("a non-empty string", lambda v: isinstance(v, str) and v != "")
_FRACTION = ("a number in [0, 1]",
             lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1)

#: Default of a parameter that has none.
_REQUIRED = object()


class _Kind:
    """Everything the package knows about one layer kind.

    params: name -> (default or _REQUIRED, what an explicit value must be).
    arity:  (min, max) number of inputs, max None for unbounded.
    shape:  shape rule; macs: mac rule (see above).
    check:  None, or a rule across well-formed resolved parameters: a problem or None.
    """

    __slots__ = ("params", "arity", "shape", "macs", "check", "defaults")

    def __init__(self, params, shape, macs, arity=(1, 1), check=None):
        self.params = params
        self.arity = arity
        self.shape = shape
        self.macs = macs
        self.check = check
        # built once here so resolving a node is a single dict merge
        self.defaults = {n: d for n, (d, _) in params.items() if d is not _REQUIRED}


_POOL_PARAMS = {
    "kernel": (_REQUIRED, _POSITIVE),
    "stride": (None, _POSITIVE),  # None: the kernel
    "padding": (0, _NON_NEGATIVE),
    "ceil": (False, _FLAG),
}

_KINDS: dict[str, _Kind] = {
    "conv2d": _Kind({
        "out_channels": (_REQUIRED, _POSITIVE),
        "kernel_h": (_REQUIRED, _POSITIVE),
        "kernel_w": (_REQUIRED, _POSITIVE),
        "stride": (1, _POSITIVE),
        "padding": (0, _NON_NEGATIVE),
        "dilation": (1, _POSITIVE),
        "groups": (1, _POSITIVE),
        "has_bias": (False, _FLAG),
    }, _conv_shape, _conv_macs, check=_conv_check),
    "linear": _Kind(
        {"out_features": (_REQUIRED, _POSITIVE), "has_bias": (True, _FLAG)},
        lambda p, ins: TensorShape(p["out_features"], 1, 1), _linear_macs,
    ),
    "maxpool": _Kind(_POOL_PARAMS, _pool_shape, _pool_macs),
    "avgpool": _Kind(_POOL_PARAMS, _pool_shape, _pool_macs),
    "global_avgpool": _Kind({"target": (1, _POSITIVE)}, _global_pool_shape, _input_elements),
    "batchnorm": _Kind({}, _same_shape, _output_elements),
    "activation": _Kind({"function": ("relu", _NAME)}, _same_shape, _output_elements),
    "elementwise_add": _Kind({}, _elementwise_shape, _output_elements, arity=(2, None)),
    "elementwise_mul": _Kind({}, _elementwise_shape, _output_elements, arity=(2, None)),
    "concat": _Kind({}, _concat_shape, _no_macs, arity=(2, None)),
    "channel_shuffle": _Kind({"groups": (_REQUIRED, _POSITIVE)}, _shuffle_shape, _no_macs),
    "flatten": _Kind({}, lambda p, ins: TensorShape(ins[0].elements, 1, 1), _no_macs),
    "dropout": _Kind({"p": (0.5, _FRACTION)}, _same_shape, _no_macs),
    "local_response_norm": _Kind({"size": (5, _POSITIVE)}, _same_shape, _output_elements),
    "squeeze_excite": _Kind(
        {"reduction": (_REQUIRED, _POSITIVE)}, _same_shape, _squeeze_excite_macs
    ),
}

#: Every layer kind the toolkit understands.
LAYER_KINDS = frozenset(_KINDS)


def _resolve(node: LayerNode, kind: _Kind) -> dict[str, Any]:
    """The node's parameters over its kind's defaults; the walk checks them first."""
    params = {**kind.defaults, **node.params}
    if params.get("stride", 1) is None:  # pools default stride to kernel
        params["stride"] = params["kernel"]
    return params


def node_param(node: LayerNode, name: str) -> Any:
    """Parameter lookup with per-kind defaults. Raises on missing required."""
    if not isinstance(name, str):
        raise GraphError(f"node {node.id!r}: parameter name {name!r} is not a string")
    if name in node.params:
        return node.params[name]
    kind = _KINDS.get(node.kind) if isinstance(node.kind, str) else None
    if kind is None:
        raise GraphError(f"node {node.id!r}: unknown kind {node.kind!r}")
    if name not in kind.defaults:
        raise GraphError(f"node {node.id!r}: missing required parameter {name!r}")
    default = kind.defaults[name]
    return node_param(node, "kernel") if default is None else default  # pools: stride = kernel


@dataclass(frozen=True)
class ArchitectureSpec:
    """A named layer graph plus its default input shape.

    metadata carries documentation only (reported accuracies and reported
    operation counts for the bundled graphs). It never participates in
    shape inference or counting.
    """

    name: str
    default_input: TensorShape
    nodes: tuple[LayerNode, ...]
    output: str
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "metadata", dict(self.metadata))


# Instance attribute of an ArchitectureSpec holding its successful walks by input
# shape. Not a dataclass field, so equality, repr and dataclasses.replace ignore it.
_MEMO_ATTR = "_inferred_shapes"


def _walk(arch: ArchitectureSpec, input_shape: TensorShape) -> tuple[list[str], dict]:
    """Check every node and, while nothing is wrong, infer its shape.

    Returns (problems, shapes), shapes complete when problems is empty:
    the structural problems of every node, else the first shape problem.
    """
    if not isinstance(input_shape, TensorShape):
        return [f"input shape {input_shape!r} is not a TensorShape"], {}
    memo = arch.__dict__.setdefault(_MEMO_ATTR, {})
    if input_shape in memo:
        return [], memo[input_shape]
    problems: list[str] = [] if arch.nodes else ["architecture has no nodes"]
    shapes, seen, shape_problem = {INPUT_ID: input_shape}, set(), None
    for node in arch.nodes:
        start = len(problems)
        if not isinstance(node.id, str):
            problems.append(f"node {node.id!r}: id must be a string")
            continue
        if node.id == INPUT_ID:
            problems.append(f"id {INPUT_ID!r} is reserved for the network input")
        if node.id in seen:
            problems.append("duplicate id")
        kind = _KINDS.get(node.kind) if isinstance(node.kind, str) else None
        if kind is None:
            problems.append(f"unknown kind {node.kind!r}")
        else:
            lo, hi = kind.arity
            refs = node.inputs
            if isinstance(refs, str):
                problems.append(f"inputs {refs!r} is a string, not a list of node ids")
                refs = ()
            elif len(refs) < lo or (hi is not None and len(refs) > hi):
                expected = f"at least {lo}" if hi is None else str(lo)
                problems.append(f"takes {expected} input(s), got {len(refs)}")
            for ref in refs:
                if not isinstance(ref, str):
                    problems.append(f"input {ref!r} is not a node id string")
                elif ref != INPUT_ID and ref not in seen:
                    problems.append(
                        f"input {ref!r} is not an earlier node (cycle or ordering violation)"
                    )
            params = _check_params(node, kind, problems)
        seen.add(node.id)
        if len(problems) > start:  # only a node with problems pays for its label
            problems[start:] = [f"node {node.id!r}: {p}" for p in problems[start:]]
        elif not problems and shape_problem is None:
            try:
                shapes[node.id] = _node_shape(node, params, [shapes[r] for r in node.inputs])
            except ValueError as exc:
                shape_problem = f"node {node.id!r}: {exc}"
    if not isinstance(arch.output, str) or arch.output not in seen:
        problems.append(f"output {arch.output!r} does not name a node")
    if problems or shape_problem is not None:
        return problems or [shape_problem], shapes
    memo[input_shape] = shapes
    return problems, shapes


def _check_params(node: LayerNode, kind: _Kind, problems: list[str]) -> dict[str, Any] | None:
    """Append the node's parameter problems; resolve its parameters if there are none."""
    start = len(problems)
    for name, (default, (accepted, test)) in kind.params.items():
        if name in node.params:
            if not test(node.params[name]):
                problems.append(f"parameter {name!r} must be {accepted}, got {node.params[name]!r}")
        elif default is _REQUIRED:
            problems.append(f"missing required parameter {name!r}")
    if not node.params.keys() <= kind.params.keys():
        unknown = [name for name in node.params if name not in kind.params]
        problems.append(f"unknown parameter(s) {unknown}; {node.kind} takes {sorted(kind.params)}")
    if len(problems) > start:
        return None
    params = _resolve(node, kind)
    problem = kind.check and kind.check(params)
    if problem:
        problems.append(problem)
    return params


def _node_shape(node: LayerNode, params: dict[str, Any], ins: list[TensorShape]) -> TensorShape:
    """The walk's one call of a shape rule per node and input shape."""
    return _KINDS[node.kind].shape(params, ins)


def validate_arch(arch: ArchitectureSpec) -> list[str]:
    """Return a list of human-readable contract violations, empty if valid.

    Structural problems (ids, kinds, arity, parameter domains, declaration
    order) are listed for every node. If there are none, a problem that
    only appears with concrete shapes at the default input (group
    divisibility, mismatched operands, oversized kernels) is reported.
    """
    return _walk(arch, arch.default_input)[0]


def require_valid(arch: ArchitectureSpec) -> ArchitectureSpec:
    """Raise GraphError with all violations if the architecture is invalid."""
    problems = validate_arch(arch)
    if problems:
        raise GraphError(f"{arch.name}: " + "; ".join(problems))
    return arch


# ---------------------------------------------------------------------------
# JSON architecture files
#
# {"name": ..., "default_input": {"c":..,"h":..,"w":..},
#  "nodes": [{"id":..,"kind":..,"params":{..},"inputs":[..]}, ...],
#  "output": ...}
#
# Unknown fields are rejected so typos fail loudly instead of silently
# changing a count.
# ---------------------------------------------------------------------------

_TOP_FIELDS = {"name", "default_input", "nodes", "output"}
_NODE_FIELDS = {"id", "kind", "params", "inputs"}
_INPUT_FIELDS = {"c", "h", "w"}


def arch_from_json(text: str) -> ArchitectureSpec:
    """Parse and validate an architecture file. Raises GraphError."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # also a json int past the int-to-str digit limit
        raise GraphError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise GraphError("architecture file must contain a JSON object")

    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise GraphError(f"unknown field(s) {sorted(unknown)}; expected {sorted(_TOP_FIELDS)}")
    missing = _TOP_FIELDS - set(obj)
    if missing:
        raise GraphError(f"missing field(s) {sorted(missing)}")

    for key in ("name", "output"):
        if not isinstance(obj[key], str):
            raise GraphError(f"{key} must be a string, got {obj[key]!r}")
    di = obj["default_input"]
    if not isinstance(di, dict) or set(di) != _INPUT_FIELDS:
        raise GraphError('default_input must be an object with exactly the fields "c", "h", "w"')
    shape = TensorShape(di["c"], di["h"], di["w"])

    if not isinstance(obj["nodes"], list):
        raise GraphError("nodes must be an array")
    nodes = []
    for i, raw in enumerate(obj["nodes"]):
        if not isinstance(raw, dict):
            raise GraphError(f"nodes[{i}] must be an object")
        unknown = set(raw) - _NODE_FIELDS
        if unknown:
            raise GraphError(f"nodes[{i}]: unknown field(s) {sorted(unknown)}")
        for req in ("id", "kind"):
            if req not in raw:
                raise GraphError(f"nodes[{i}]: missing field {req!r}")
        params = raw.get("params", {})
        inputs = raw.get("inputs", [])
        if not isinstance(params, dict):
            raise GraphError(f"nodes[{i}]: params must be an object")
        if not isinstance(inputs, list) or not all(isinstance(s, str) for s in inputs):
            raise GraphError(f"nodes[{i}]: inputs must be an array of node ids")
        nodes.append(LayerNode(id=raw["id"], kind=raw["kind"], params=params, inputs=tuple(inputs)))

    arch = ArchitectureSpec(
        name=obj["name"],
        default_input=shape,
        nodes=tuple(nodes),
        output=obj["output"],
    )
    return require_valid(arch)


def arch_to_json(arch: ArchitectureSpec, indent: int | None = 2) -> str:
    """Serialize to the architecture file format.

    metadata is documentation carried by bundled specs only; the file
    format has no field for it, so it is dropped here.
    """
    obj = {
        "name": arch.name,
        "default_input": {
            "c": arch.default_input.channels,
            "h": arch.default_input.height,
            "w": arch.default_input.width,
        },
        "nodes": [
            {"id": n.id, "kind": n.kind, "params": dict(n.params), "inputs": list(n.inputs)}
            for n in arch.nodes
        ],
        "output": arch.output,
    }
    return json.dumps(obj, indent=indent)
