"""Layer-graph descriptions of convolutional image classifiers.

An architecture is a directed acyclic graph of layer nodes. Nodes are
declared in topological order: each node's inputs must name either an
earlier node or the reserved network input id ``"input"``.

What the package knows about each layer kind sits in one entry of
``_KINDS``: its parameters with their defaults and accepted values, its
input arity, any rule across its parameters, its shape rule and its mac
rule. One walk here checks every node and infers its shape; validation
reads its problems and ``walked_shapes`` its shape map, which ``counting``
and the reports read in place and ``shapes.infer_shapes`` copies.

Everything here is immutable. Treat specs as values: helpers return new
objects and never mutate their arguments, so sharing instances across
threads is safe. The walk relies on this: a spec memoizes its latest
successful walk with the input shape, so the memo means "valid, with
these shapes, for this input", and a successful walk at another input
replaces it. A failed walk runs again on every call; a spec changed in
place after a walk keeps reporting its earlier state.
Equal specs and nodes hash equal, so a spec can key a dict: the hash skips
the ``params`` and ``metadata`` dicts, which equality still compares.

Memory: a graph is held once. ``arch_from_json`` builds each node as
the JSON parser closes its object (see ``_jsonfile``), and a known kind
string becomes the kind table's own key. ``LayerNode`` and
``TensorShape`` are slotted; ``ArchitectureSpec``'s ``__dict__`` holds
the walk memo.

Speed: the valid case is the cheap one, since every node of every graph
passes through it. ``_good_walk`` checks and shapes each distinct layer
once, and a graph it declines is walked again to word its problems;
``_check_params``, ``TensorShape`` and ``_json_node`` each test the
common case first and word a problem only when that test fails.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Any, Mapping

from .. import InputError, _jsonfile


class GraphError(InputError):
    """Structural problem in an architecture description."""


class ShapeError(GraphError):
    """Shape inference met a node that is malformed or does not fit its inputs."""


#: Reserved id that layer inputs use to reference the network input tensor.
INPUT_ID = "input"


@dataclass(frozen=True, slots=True)
class TensorShape:
    """Channels-first feature map shape, batch dimension omitted."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        c, h, w = self.channels, self.height, self.width
        # one test for plain positive ints, since the walk builds a shape per
        # node; otherwise _POSITIVE, which also accepts an int subclass,
        # words the first field it rejects
        if not (type(c) is int and type(h) is int and type(w) is int
                and c >= 1 and h >= 1 and w >= 1):
            accepted, test = _POSITIVE
            for name in ("channels", "height", "width"):
                v = getattr(self, name)
                if not test(v):
                    raise GraphError(f"TensorShape.{name} must be {accepted}, got {v!r}")

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
            if not text.isascii() or "_" in text:  # int() reads "_" separators, non-ASCII digits
                raise ValueError
            c, h, w = (int(p) for p in parts)
        except ValueError:
            raise GraphError(f"expected integer dimensions in {text!r}") from None
        return cls(c, h, w)

    def __str__(self) -> str:
        try:
            return f"{self.channels}x{self.height}x{self.width}"
        except ValueError:  # a dimension past the int-to-str digit limit
            raise GraphError("a shape has a dimension with too many digits to print") from None


@dataclass(frozen=True, slots=True)
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
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)
    inputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if type(self.inputs) is not tuple:
            try:
                if isinstance(self.inputs, str):  # one id, which tuple() would split
                    raise TypeError
                object.__setattr__(self, "inputs", tuple(self.inputs))
            except TypeError:
                raise GraphError(
                    f"node {self.id!r}: inputs must be a list of node ids, got {self.inputs!r}"
                ) from None
        try:
            object.__setattr__(self, "params", dict(self.params))
        except (TypeError, ValueError):
            raise GraphError(
                f"node {self.id!r}: params must be a mapping, got {self.params!r}"
            ) from None


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
    window = p["kernel"], p["stride"] or p["kernel"], p["padding"], 1, p["ceil"]
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


# What an explicit parameter value must be: (description, test). An int that
# is not a bool is `type(v) is not bool`, since bool cannot be subclassed.
_POSITIVE = ("a positive integer", lambda v: isinstance(v, int) and type(v) is not bool and v >= 1)
_NON_NEGATIVE = ("a non-negative integer",
                 lambda v: isinstance(v, int) and type(v) is not bool and v >= 0)
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

    defaults, tests and required are views of params built once, for the
    walk's good path: name -> default, name -> test, and the names with
    no default.
    """

    __slots__ = ("params", "arity", "shape", "macs", "check", "defaults", "tests", "required")

    def __init__(self, params, shape, macs, arity=(1, 1), check=None):
        self.params = params
        self.arity = arity
        self.shape = shape
        self.macs = macs
        self.check = check
        self.defaults = {n: d for n, (d, _) in params.items() if d is not _REQUIRED}
        self.tests = {n: test for n, (_, (_, test)) in params.items()}
        self.required = frozenset(n for n, (d, _) in params.items() if d is _REQUIRED)


_POOL_PARAMS = {
    "kernel": (_REQUIRED, _POSITIVE),
    "stride": (None, _POSITIVE),  # None: the kernel; an explicit stride is >= 1
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

# Each kind name mapped to itself: a graph file's kind string becomes the
# table's own key, so a loaded graph holds one str per kind, not per node.
_KIND_NAMES = {name: name for name in _KINDS}


def _resolve(node: LayerNode, kind: _Kind) -> dict[str, Any]:
    """The node's parameters over its kind's defaults; the walk checks them first."""
    return {**kind.defaults, **node.params}


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
    metadata: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "nodes", tuple(self.nodes))
        except TypeError:
            raise GraphError(
                f"architecture {self.name!r}: nodes must be a sequence of LayerNode, "
                f"got {self.nodes!r}"
            ) from None
        if not all(map(isinstance, self.nodes, repeat(LayerNode))):  # one type test per node
            i = next(i for i, n in enumerate(self.nodes) if not isinstance(n, LayerNode))
            raise GraphError(f"architecture {self.name!r}: nodes[{i}] must be a LayerNode, "
                             f"got {self.nodes[i]!r}")
        try:
            object.__setattr__(self, "metadata", dict(self.metadata))
        except (TypeError, ValueError):
            raise GraphError(
                f"architecture {self.name!r}: metadata must be a mapping, got {self.metadata!r}"
            ) from None


# Instance attribute of an ArchitectureSpec holding (input shape, shapes) of its latest
# successful walk. Not a dataclass field, so equality, repr and dataclasses.replace ignore it.
_MEMO_ATTR = "_inferred_shapes"

# The value types a layer signature may hold: equal values of one of these
# types pass the same tests and give the same shapes.
_PLAIN_TYPES = frozenset({int, float, bool, str})


def _good_walk(arch: ArchitectureSpec, input_shape: TensorShape) -> dict | None:
    """The walk's shape map if the walk would find no problem, else None.

    A layer's signature is its kind, its params with their value types and
    its input shapes. The arity test, the parameter check and the shape
    rule run once per signature, and the nodes of one signature share its
    output shape. Anything else gives None, for the walk to word: an id,
    kind or input that is not an exact str, a repeated or reserved id, a
    value of a type outside _PLAIN_TYPES, an input shape of int
    subclasses, any problem or error.
    """
    if not (type(input_shape.channels) is int and type(input_shape.height) is int
            and type(input_shape.width) is int):
        return None
    shapes = {INPUT_ID: input_shape}
    outputs: dict[tuple, TensorShape] = {}  # signature -> output shape
    # one object per shape value, so a signature holds its input shapes by id
    canonical = {input_shape: input_shape}
    try:
        for node in arch.nodes:
            kind_name, params, refs = node.kind, node.params, node.inputs
            if type(node.id) is not str or node.id in shapes or type(kind_name) is not str:
                return None
            ins = [shapes[r] for r in refs if type(r) is str]
            if len(ins) != len(refs):
                return None
            types = tuple(map(type, params.values()))
            signature = (kind_name, tuple(params.items()), types, *map(id, ins))
            out = outputs.get(signature)
            if out is None:
                kind = _KINDS.get(kind_name)
                if kind is None or not _PLAIN_TYPES.issuperset(types):
                    return None
                lo, hi = kind.arity
                if len(ins) < lo or (hi is not None and len(ins) > hi):
                    return None
                problems: list[str] = []
                resolved = _check_params(node, kind, problems)
                if resolved is None or problems:
                    return None
                out = kind.shape(resolved, ins)
                out = outputs[signature] = canonical.setdefault(out, out)
            shapes[node.id] = out
    except (KeyError, TypeError, ValueError):  # a dangling input, an unhashable value, a misfit
        return None
    output = arch.output
    if type(output) is not str or output == INPUT_ID or output not in shapes:
        return None
    return shapes


def _walk(arch: ArchitectureSpec, input_shape: TensorShape) -> tuple[list[str], dict]:
    """Check every node and, while nothing is wrong, infer its shape.

    Returns (problems, shapes), shapes complete when problems is empty:
    the structural problems of every node, else the first shape problem.
    The good path runs first; the loop below walks a graph it declines,
    which words the problems.
    """
    if not isinstance(input_shape, TensorShape):
        return [f"input shape {input_shape!r} is not a TensorShape"], {}
    memo_input, memo_shapes = arch.__dict__.get(_MEMO_ATTR, (None, None))
    if memo_input == input_shape:
        return [], memo_shapes
    shapes = _good_walk(arch, input_shape)
    if shapes is not None:
        arch.__dict__[_MEMO_ATTR] = (input_shape, shapes)
        return [], shapes
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
            if len(refs) < lo or (hi is not None and len(refs) > hi):
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
                shapes[node.id] = kind.shape(params, [shapes[r] for r in node.inputs])
            except ValueError as exc:
                shape_problem = f"node {node.id!r}: {exc}"
    if not isinstance(arch.output, str) or arch.output not in seen:
        problems.append(f"output {arch.output!r} does not name a node")
    if problems or shape_problem is not None:
        return problems or [shape_problem], shapes
    arch.__dict__[_MEMO_ATTR] = (input_shape, shapes)
    return problems, shapes


def walked_shapes(arch: ArchitectureSpec, input_shape: TensorShape | None) -> dict:
    """shapes.infer_shapes without the copy: the walk's own dict, which callers must not change."""
    problems, shapes = _walk(arch, input_shape or arch.default_input)
    if problems:
        raise ShapeError("; ".join(problems))
    return shapes


def _check_params(node: LayerNode, kind: _Kind, problems: list[str]) -> dict[str, Any] | None:
    """Append the node's parameter problems; resolve its parameters if there are none.

    The good path tests only the node's own parameters, then that none
    required is missing; the loop over the kind's schema runs only to
    word the problems, in schema order.
    """
    tests = kind.tests
    for name, value in node.params.items():
        test = tests.get(name)
        if test is None or not test(value):
            break
    else:
        if node.params.keys() >= kind.required:
            params = _resolve(node, kind)
            problem = kind.check and kind.check(params)
            if problem:
                problems.append(problem)
            return params
    for name, (default, (accepted, test)) in kind.params.items():
        if name in node.params:
            if not test(node.params[name]):
                problems.append(f"parameter {name!r} must be {accepted}, got {node.params[name]!r}")
        elif default is _REQUIRED:
            problems.append(f"missing required parameter {name!r}")
    if not node.params.keys() <= kind.params.keys():
        unknown = [name for name in node.params if name not in kind.params]
        problems.append(f"unknown parameter(s) {unknown}; {node.kind} takes {sorted(kind.params)}")
    return None


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

# The slot setters of LayerNode's fields, in field order: the loader fills a
# node through them, which skips the generated frozen __init__ and the
# params copy of __post_init__, whose checks the loader has already made.
_SET_ID, _SET_KIND, _SET_PARAMS, _SET_INPUTS = (
    LayerNode.__dict__[f.name].__set__ for f in fields(LayerNode))


def _json_node(obj: dict):
    """The LayerNode a well-formed node object describes, else the object itself.

    Well-formed: fields within id, kind, params and inputs, with id and
    kind present, params an object and inputs an array if given. The
    node holds the parsed params dict itself and its inputs as a tuple.
    """
    if "kind" in obj and "id" in obj and obj.keys() <= _NODE_FIELDS:
        params = obj.get("params", {})
        inputs = obj.get("inputs", [])
        if type(params) is dict and type(inputs) is list:
            kind = obj["kind"]
            if type(kind) is str:
                kind = _KIND_NAMES.get(kind, kind)
            node = object.__new__(LayerNode)
            _SET_ID(node, obj["id"])
            _SET_KIND(node, kind)
            _SET_PARAMS(node, params)
            _SET_INPUTS(node, tuple(inputs))
            return node
    return obj


def arch_from_json(text: str) -> ArchitectureSpec:
    """Parse and validate an architecture file's text. Raises GraphError.

    The parser's object hook builds each node as the parser closes its
    object; a node-shaped object where no node belongs is why a text with
    an error is parsed again without the hook (``_jsonfile.load``).
    """
    return _jsonfile.load(text, "not valid JSON", GraphError, _json_node, _arch_from_tree)


def _arch_from_tree(obj: Any) -> ArchitectureSpec:
    """The checked spec of a parse tree whose nodes are LayerNodes or node objects."""
    if not isinstance(obj, dict):
        raise GraphError("architecture file must contain a JSON object")

    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise GraphError(f"unknown field(s) {sorted(unknown)}; expected {sorted(_TOP_FIELDS)}")
    missing = _TOP_FIELDS - set(obj)
    if missing:
        raise GraphError(f"missing field(s) {sorted(missing)}")

    if not isinstance(obj["name"], str):
        raise GraphError(f"name must be a string, got {obj['name']!r}")
    di = obj["default_input"]
    if not isinstance(di, dict) or set(di) != _INPUT_FIELDS:
        raise GraphError('default_input must be an object with exactly the fields "c", "h", "w"')
    shape = TensorShape(di["c"], di["h"], di["w"])

    nodes = obj["nodes"]
    if not isinstance(nodes, list):
        raise GraphError("nodes must be an array")
    for i, raw in enumerate(nodes):
        if type(raw) is dict:  # parsed without the hook, or declined by it
            # each node object is dropped once its LayerNode exists
            nodes[i] = raw = _json_node(raw)
        if type(raw) is LayerNode:
            continue
        # word why the object is not a node
        if not isinstance(raw, dict):
            raise GraphError(f"nodes[{i}] must be an object")
        unknown = set(raw) - _NODE_FIELDS
        if unknown:
            raise GraphError(f"nodes[{i}]: unknown field(s) {sorted(unknown)}")
        for req in ("id", "kind"):
            if req not in raw:
                raise GraphError(f"nodes[{i}]: missing field {req!r}")
        if not isinstance(raw.get("params", {}), dict):
            raise GraphError(f"nodes[{i}]: params must be an object")
        raise GraphError(f"nodes[{i}]: inputs must be an array of node ids")

    arch = ArchitectureSpec(
        name=obj["name"],
        default_input=shape,
        nodes=tuple(nodes),
        output=obj["output"],
    )
    return require_valid(arch)
