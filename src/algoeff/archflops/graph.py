"""Layer-graph descriptions of convolutional image classifiers.

An architecture is a directed acyclic graph of layer nodes. Nodes are
declared in topological order: each node's inputs must name either an
earlier node or the reserved network input id ``"input"``. The graph is
data only; shape propagation lives in ``shapes`` and operation counting
in ``counting``.

Everything here is immutable. Treat specs as values: helpers return new
objects and never mutate their arguments, so sharing instances across
threads is safe. Shape inference relies on this: it memoizes its result
on each spec instance, so a spec must not be changed in place once built.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


class GraphError(ValueError):
    """Structural problem in an architecture description."""


#: Reserved id that layer inputs use to reference the network input tensor.
INPUT_ID = "input"

#: Every layer kind the toolkit understands.
LAYER_KINDS = frozenset({
    "conv2d",
    "linear",
    "maxpool",
    "avgpool",
    "global_avgpool",
    "batchnorm",
    "activation",
    "elementwise_add",
    "elementwise_mul",
    "concat",
    "channel_shuffle",
    "flatten",
    "dropout",
    "local_response_norm",
    "squeeze_excite",
})

# Required parameter names by kind. Optional parameters are filled with
# defaults by `node_param`. Validation rejects any name in neither table,
# and a value that is not a bool where the default is one.
_REQUIRED_PARAMS: dict[str, tuple[str, ...]] = {
    "conv2d": ("out_channels", "kernel_h", "kernel_w"),
    "linear": ("out_features",),
    "maxpool": ("kernel",),
    "avgpool": ("kernel",),
    "channel_shuffle": ("groups",),
    "squeeze_excite": ("reduction",),
}

_OPTIONAL_PARAMS: dict[str, dict[str, Any]] = {
    "conv2d": {"stride": 1, "padding": 0, "dilation": 1, "groups": 1, "has_bias": False},
    "linear": {"has_bias": True},
    "maxpool": {"stride": None, "padding": 0, "ceil": False},
    "avgpool": {"stride": None, "padding": 0, "ceil": False},
    "global_avgpool": {"target": 1},
    "activation": {"function": "relu"},
    "dropout": {"p": 0.5},
    "local_response_norm": {"size": 5},
    "batchnorm": {},
    "elementwise_add": {},
    "elementwise_mul": {},
    "concat": {},
    "channel_shuffle": {},
    "flatten": {},
    "squeeze_excite": {},
}

# Input arity by kind: (min, max) where max None means unbounded.
_ARITY: dict[str, tuple[int, int | None]] = {
    "elementwise_add": (2, None),
    "elementwise_mul": (2, None),
    "concat": (2, None),
}
_DEFAULT_ARITY = (1, 1)


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
        return f"{self.channels}x{self.height}x{self.width}"


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
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "params", dict(self.params))


def node_param(node: LayerNode, name: str) -> Any:
    """Parameter lookup with per-kind defaults. Raises on missing required."""
    if name in node.params:
        return node.params[name]
    defaults = _OPTIONAL_PARAMS.get(node.kind, {})
    if name in defaults:
        value = defaults[name]
        if name == "stride" and value is None:  # pools default stride to kernel
            return node.params["kernel"]
        return value
    raise GraphError(f"node {node.id!r}: missing required parameter {name!r}")


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


def validate_arch(arch: ArchitectureSpec) -> list[str]:
    """Return a list of human-readable contract violations, empty if valid.

    Structural checks run first (ids, kinds, arity, parameter domains,
    declaration order). If those pass, shape inference over the default
    input runs as well, so problems that only appear with concrete shapes
    (group divisibility against input channels, mismatched elementwise
    operands, oversized kernels) are reported too.
    """
    problems: list[str] = []
    seen: set[str] = set()

    if not arch.nodes:
        problems.append("architecture has no nodes")
    for node in arch.nodes:
        label = f"node {node.id!r}"
        if not isinstance(node.id, str):
            problems.append(f"{label}: id must be a string")
            continue
        if node.id == INPUT_ID:
            problems.append(f"{label}: id {INPUT_ID!r} is reserved for the network input")
        if node.id in seen:
            problems.append(f"{label}: duplicate id")
        if not isinstance(node.kind, str) or node.kind not in LAYER_KINDS:
            problems.append(f"{label}: unknown kind {node.kind!r}")
            seen.add(node.id)
            continue

        lo, hi = _ARITY.get(node.kind, _DEFAULT_ARITY)
        if len(node.inputs) < lo or (hi is not None and len(node.inputs) > hi):
            expected = f"at least {lo}" if hi is None else str(lo)
            problems.append(f"{label}: takes {expected} input(s), got {len(node.inputs)}")
        for ref in node.inputs:
            if ref != INPUT_ID and ref not in seen:
                problems.append(
                    f"{label}: input {ref!r} is not an earlier node (cycle or ordering violation)"
                )

        problems.extend(f"{label}: {p}" for p in _check_params(node))
        seen.add(node.id)

    if arch.output not in seen:
        problems.append(f"output {arch.output!r} does not name a node")

    if not problems:
        from .shapes import ShapeError, infer_shapes  # local import avoids a cycle

        try:
            infer_shapes(arch)
        except ShapeError as exc:
            problems.append(str(exc))
    return problems


def _check_params(node: LayerNode) -> Iterable[str]:
    required = _REQUIRED_PARAMS.get(node.kind, ())
    optional = _OPTIONAL_PARAMS[node.kind]
    unknown = []
    for name, value in node.params.items():
        if name in optional:
            if isinstance(optional[name], bool) and not isinstance(value, bool):
                yield f"parameter {name!r} must be true or false, got {value!r}"
        elif name not in required:
            unknown.append(name)
    if unknown:
        known = sorted((*required, *optional))
        yield f"unknown parameter(s) {unknown}; {node.kind} takes {known}"
        return
    for name in required:
        if name not in node.params:
            yield f"missing required parameter {name!r}"
            return

    def positive(name: str) -> int | None:
        try:
            v = node_param(node, name)
        except GraphError:
            return None
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            yield_problems.append(f"parameter {name!r} must be a positive integer, got {v!r}")
            return None
        return v

    yield_problems: list[str] = []
    if node.kind == "conv2d":
        oc = positive("out_channels")
        positive("kernel_h")
        positive("kernel_w")
        positive("stride")
        positive("dilation")
        g = positive("groups")
        pad = node_param(node, "padding")
        if not isinstance(pad, int) or isinstance(pad, bool) or pad < 0:
            yield_problems.append(f"parameter 'padding' must be a non-negative integer, got {pad!r}")
        if oc is not None and g is not None and oc % g:
            yield_problems.append(f"groups={g} does not divide out_channels={oc}")
    elif node.kind == "linear":
        positive("out_features")
    elif node.kind in ("maxpool", "avgpool"):
        positive("kernel")
        positive("stride")
        pad = node_param(node, "padding")
        if not isinstance(pad, int) or isinstance(pad, bool) or pad < 0:
            yield_problems.append(f"parameter 'padding' must be a non-negative integer, got {pad!r}")
    elif node.kind == "global_avgpool":
        positive("target")
    elif node.kind == "channel_shuffle":
        positive("groups")
    elif node.kind == "squeeze_excite":
        positive("reduction")
    yield from yield_problems


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
    except json.JSONDecodeError as exc:
        raise GraphError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise GraphError("architecture file must contain a JSON object")

    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise GraphError(f"unknown field(s) {sorted(unknown)}; expected {sorted(_TOP_FIELDS)}")
    missing = _TOP_FIELDS - set(obj)
    if missing:
        raise GraphError(f"missing field(s) {sorted(missing)}")

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
        name=str(obj["name"]),
        default_input=shape,
        nodes=tuple(nodes),
        output=str(obj["output"]),
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
