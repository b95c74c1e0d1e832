"""Graph model: shapes as values, validation, and the json file format."""
import copy
import dataclasses
import json
import pickle
import platform
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algoeff.archflops.graph as graph_mod
from algoeff.archflops import (
    INPUT_ID,
    LAYER_KINDS,
    ArchitectureSpec,
    CountingConvention,
    GraphError,
    LayerNode,
    ShapeError,
    TensorShape,
    arch_from_json,
    builtin_arch,
    count_flops,
    infer_shapes,
    require_valid,
    validate_arch,
)

from _generators import arch_file_text, chain_graph_json, random_arch, traced
from _oracles import first_of_each_signature, layer_signatures


def tiny_arch(**overrides) -> ArchitectureSpec:
    fields = dict(
        name="tiny",
        default_input=TensorShape(3, 8, 8),
        nodes=(
            LayerNode(id="c1", kind="conv2d",
                      params={"out_channels": 4, "kernel_h": 3, "kernel_w": 3, "padding": 1},
                      inputs=("input",)),
            LayerNode(id="relu", kind="activation", params={}, inputs=("c1",)),
            LayerNode(id="fc", kind="linear", params={"out_features": 10}, inputs=("relu",)),
        ),
        output="fc",
    )
    fields.update(overrides)
    return ArchitectureSpec(**fields)


class _Int(int):
    """An int subclass, which every integer rule accepts as an int."""


class TestTensorShape:
    def test_parse_x_separator(self):
        assert TensorShape.parse("3x224x224") == TensorShape(3, 224, 224)

    def test_parse_comma_separator(self):
        assert TensorShape.parse("3,224,224") == TensorShape(3, 224, 224)

    def test_parse_strips_whitespace_and_case(self):
        assert TensorShape.parse(" 1X2X3 ") == TensorShape(1, 2, 3)

    def test_str_round_trips(self):
        s = TensorShape(64, 55, 55)
        assert TensorShape.parse(str(s)) == s

    def test_elements(self):
        assert TensorShape(3, 4, 5).elements == 60

    @pytest.mark.parametrize("bad", ["3x4", "3x4x5x6", "axbxc", "", "3x4x"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(GraphError):
            TensorShape.parse(bad)

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive_dims(self, dims):
        with pytest.raises(GraphError):
            TensorShape(*dims)

    def test_rejects_bool_dims(self):
        with pytest.raises(GraphError):
            TensorShape(True, 2, 2)

    def test_rejects_float_dims(self):
        with pytest.raises(GraphError):
            TensorShape(3.0, 4, 4)

    def test_int_subclass_dims_are_accepted(self):
        shape = TensorShape(_Int(3), _Int(4), 5)
        assert shape == TensorShape(3, 4, 5)
        assert hash(shape) == hash(TensorShape(3, 4, 5))
        assert shape.elements == 60

    @pytest.mark.parametrize("bad", [True, 0, -1, 2.0])
    @pytest.mark.parametrize("index,name", enumerate(("channels", "height", "width")))
    def test_bad_dim_is_named(self, bad, index, name):
        dims = [3, 4, 5]
        dims[index] = bad
        with pytest.raises(GraphError) as raised:
            TensorShape(*dims)
        assert str(raised.value) == f"TensorShape.{name} must be a positive integer, got {bad!r}"

    def test_first_bad_dim_in_field_order_is_named(self):
        with pytest.raises(GraphError, match=r"^TensorShape\.height .* got -1$"):
            TensorShape(_Int(2), -1, True)


class TestLayerNode:
    def test_params_are_copied(self):
        params = {"out_features": 10}
        node = LayerNode(id="fc", kind="linear", params=params, inputs=("input",))
        params["out_features"] = 99
        assert node.params["out_features"] == 10

    def test_inputs_normalized_to_tuple(self):
        node = LayerNode(id="fc", kind="linear", params={"out_features": 1},
                         inputs=["input"])
        assert node.inputs == ("input",)

    @pytest.mark.parametrize("build,message", [
        (lambda: LayerNode(id="a", kind="conv2d", params=5),
         "node 'a': params must be a mapping, got 5"),
        (lambda: LayerNode(id="a", kind="conv2d", params="ab"),
         "node 'a': params must be a mapping, got 'ab'"),
        (lambda: LayerNode(id="a", kind="conv2d", inputs=5),
         "node 'a': inputs must be a list of node ids, got 5"),
        (lambda: LayerNode(id="r", kind="activation", inputs="input"),
         "node 'r': inputs must be a list of node ids, got 'input'"),
        (lambda: ArchitectureSpec(name="t", default_input=TensorShape(3, 8, 8), nodes=5,
                                  output="a"),
         "architecture 't': nodes must be a sequence of LayerNode, got 5"),
        (lambda: ArchitectureSpec(name="t", default_input=TensorShape(3, 8, 8),
                                  nodes=({"id": "a"},), output="a"),
         "architecture 't': nodes[0] must be a LayerNode, got {'id': 'a'}"),
        (lambda: ArchitectureSpec(name="t", default_input=TensorShape(3, 8, 8),
                                  nodes=[LayerNode(id="a", kind="relu", inputs=("input",)), None],
                                  output="a"),
         "architecture 't': nodes[1] must be a LayerNode, got None"),
        (lambda: tiny_arch(metadata=5), "architecture 'tiny': metadata must be a mapping, got 5"),
    ])
    def test_python_built_containers_are_typed(self, build, message):
        with pytest.raises(GraphError) as raised:
            build()
        assert str(raised.value) == message


_NODE = LayerNode(id="c", kind="conv2d", params={"out_channels": 4, "kernel_h": 3,
                                                  "kernel_w": 3}, inputs=("input",))


class TestSlottedValues:
    """LayerNode and TensorShape carry slots, not a __dict__, and stay plain values."""

    @pytest.mark.parametrize("value", [_NODE, TensorShape(3, 8, 8)])
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value", [_NODE, TensorShape(3, 8, 8)])
    def test_copies_are_equal_values(self, value):
        for other in (dataclasses.replace(value), copy.copy(value),
                      pickle.loads(pickle.dumps(value))):
            assert other == value
            assert repr(other) == repr(value)
        assert dataclasses.replace(value) is not value

    def test_repr_and_hash(self):
        shape = TensorShape(3, 8, 8)
        assert repr(shape) == "TensorShape(channels=3, height=8, width=8)"
        assert hash(shape) == hash(TensorShape(3, 8, 8))
        assert repr(_NODE) == (
            "LayerNode(id='c', kind='conv2d', params={'out_channels': 4, 'kernel_h': 3, "
            "'kernel_w': 3}, inputs=('input',))")
        assert dataclasses.replace(_NODE, id="d").id == "d"

    @pytest.mark.parametrize("value,name", [
        (_NODE, "kind"), (_NODE, "inputs"), (TensorShape(3, 8, 8), "width"),
    ])
    def test_assignment_is_refused(self, value, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1)

    @pytest.mark.parametrize("value", [_NODE, TensorShape(3, 8, 8)])
    def test_no_new_attribute(self, value):
        # for a name that is not a field, CPython 3.11's frozen slotted
        # dataclasses raise TypeError rather than FrozenInstanceError
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1
        assert not hasattr(value, "extra")

    def test_loaded_nodes_share_one_kind_string(self):
        arch = arch_from_json(arch_file_text(builtin_arch("AlexNet")))
        convs = [n for n in arch.nodes if n.kind == "conv2d"]
        assert len(convs) == 5
        assert all(n.kind is convs[0].kind for n in convs)

    @pytest.mark.parametrize("index", [1, 2])
    def test_bad_node_after_good_ones_keeps_its_index(self, index):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][index] = "conv"
        with pytest.raises(GraphError, match=rf"^nodes\[{index}\] must be an object$"):
            arch_from_json(json.dumps(obj))
        obj["nodes"][index] = {"id": "x", "kind": "conv2d", "weights": []}
        with pytest.raises(GraphError, match=rf"^nodes\[{index}\]: unknown field"):
            arch_from_json(json.dumps(obj))


class TestLoadedNode:
    """A node arch_from_json fills through its slots is the node LayerNode(**fields) builds."""

    RAWS = [
        {"id": "c", "kind": "conv2d", "inputs": ["input"],
         "params": {"out_channels": 4, "kernel_h": 3, "kernel_w": 3}},
        {"id": "b", "kind": "batchnorm", "inputs": ["c"]},
        {"id": "a", "kind": "activation", "params": {"function": "relu"}},
        {"id": "n", "kind": "batchnorm"},
    ]

    @pytest.fixture
    def loaded(self, monkeypatch):
        # the last two nodes have no inputs, which the walk rejects, so the
        # loader's nodes are taken as built
        monkeypatch.setattr(graph_mod, "require_valid", lambda arch: arch)
        text = json.dumps({"name": "t", "default_input": {"c": 3, "h": 8, "w": 8},
                           "nodes": self.RAWS, "output": "b"})
        return arch_from_json(text).nodes

    def test_equals_the_constructed_node(self, loaded):
        for raw, node in zip(self.RAWS, loaded):
            built = LayerNode(**raw)
            assert node == built
            assert repr(node) == repr(built)
            assert type(node.params) is dict and type(node.inputs) is tuple
            assert not hasattr(node, "__dict__")

    def test_copies_and_hash_behave_as_for_the_constructed_node(self, loaded):
        for raw, node in zip(self.RAWS, loaded):
            built = LayerNode(**raw)
            assert hash(node) == hash(built) and {built: raw["id"]}[node] == raw["id"]
            assert pickle.loads(pickle.dumps(node)) == built
            assert copy.deepcopy(node) == built
            assert dataclasses.replace(node) == built
            assert dataclasses.replace(node, id="z") == dataclasses.replace(built, id="z")
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.id = "z"

    def test_spec_is_a_dict_key(self):
        built = tiny_arch()
        loaded = arch_from_json(arch_file_text(built))
        assert hash(loaded) == hash(built)
        assert {built: "tiny"}[loaded] == "tiny"
        # the hash skips params and metadata, equality still tells them apart
        other = tiny_arch(metadata={"note": 1})
        assert hash(other) == hash(built) and other not in {built}
        wider = _with_params(built, "fc", out_features=11)
        assert hash(wider) == hash(built) and wider not in {built}

    def test_one_shape_call_per_signature_per_walk(self, node_shape_calls):
        # every block after the first repeats the first block's signatures
        arch = arch_from_json(chain_graph_json(3))
        first = first_of_each_signature(arch, arch.default_input)
        assert node_shape_calls == first == ["c0", "b0", "a0", "s1"]
        infer_shapes(arch, TensorShape(8, 4, 4))
        assert node_shape_calls == first + first_of_each_signature(arch, TensorShape(8, 4, 4))


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="sizes are CPython's allocations")
def test_loading_holds_one_copy_of_the_graph():
    text = chain_graph_json(500)
    tree, tree_bytes, _ = traced(lambda: json.loads(text))
    assert len(tree["nodes"]) == 2000
    arch, _, peak = traced(lambda: arch_from_json(text))
    assert len(arch.nodes) == 2000
    # the parse tree and the spec would be both whole at 1.7x
    assert peak <= 1.1 * tree_bytes, (peak, tree_bytes)


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="sizes are CPython's allocations")
def test_nodes_are_built_while_the_parser_reads_them():
    # the parse tree's node objects are never all alive at once
    text = chain_graph_json(2500)
    _, _, tree_peak = traced(lambda: json.loads(text))
    arch, _, peak = traced(lambda: arch_from_json(text))
    assert len(arch.nodes) == 10_000
    assert peak < 0.95 * tree_peak, (peak, tree_peak)


# A node-shaped object: the loader's object hook makes a LayerNode of it
# wherever it sits, and the messages must still show the parsed object.
_NODE_SHAPED = {"id": "a", "kind": "batchnorm"}
_CONV = {"id": "c", "kind": "conv2d", "inputs": ["input"],
         "params": {"out_channels": 4, "kernel_h": 3, "kernel_w": 3}}


def _graph_with(**fields):
    obj = {"name": "t", "default_input": {"c": 3, "h": 8, "w": 8},
           "nodes": [_CONV, {"id": "b", "kind": "batchnorm", "inputs": ["c"]}], "output": "b"}
    obj.update(fields)
    return json.dumps(obj)


class TestNodeShapedObjects:
    @pytest.mark.parametrize("text,message", [
        (json.dumps(_NODE_SHAPED),
         "unknown field(s) ['id', 'kind']; expected ['default_input', 'name', 'nodes', 'output']"),
        (_graph_with(name=_NODE_SHAPED), "name must be a string, got {'id': 'a', 'kind': "
                                         "'batchnorm'}"),
        (_graph_with(output=_NODE_SHAPED),
         "t: output {'id': 'a', 'kind': 'batchnorm'} does not name a node"),
        (_graph_with(default_input=_NODE_SHAPED),
         'default_input must be an object with exactly the fields "c", "h", "w"'),
        (_graph_with(nodes=[_CONV, {"id": "b", "kind": "batchnorm", "inputs": [_NODE_SHAPED]}]),
         "t: node 'b': input {'id': 'a', 'kind': 'batchnorm'} is not a node id string"),
        (_graph_with(nodes=[{"id": "a", "kind": "batchnorm", "inputs": ["input"],
                             "params": _NODE_SHAPED}], output="a"),
         "t: node 'a': unknown parameter(s) ['id', 'kind']; batchnorm takes []"),
        (_graph_with(nodes=[{**_CONV, "params": {**_CONV["params"], "kernel_h": _NODE_SHAPED}}],
                     output="c"),
         "t: node 'c': parameter 'kernel_h' must be a positive integer, got "
         "{'id': 'a', 'kind': 'batchnorm'}"),
    ], ids=["top level", "name", "output", "default_input", "inputs entry", "params",
            "kernel_h"])
    def test_message_shows_the_parsed_object(self, text, message):
        with pytest.raises(GraphError) as raised:
            arch_from_json(text)
        assert str(raised.value) == message


def test_json_nested_too_deeply():
    # before, the parser's RecursionError escaped
    for text in ("[" * 200_000, '{"name": ' + "[" * 200_000):
        with pytest.raises(GraphError, match="^not valid JSON: nested too deeply$"):
            arch_from_json(text)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_loaded_spec_equals_the_constructed_one(seed):
    text = arch_file_text(random_arch(random.Random(seed)))
    obj = json.loads(text)
    di = obj["default_input"]
    built = ArchitectureSpec(
        name=obj["name"], default_input=TensorShape(di["c"], di["h"], di["w"]),
        nodes=tuple(LayerNode(**fields) for fields in obj["nodes"]), output=obj["output"])
    loaded = arch_from_json(text)
    assert loaded == built
    assert all(type(n.params) is dict and type(n.inputs) is tuple for n in loaded.nodes)
    keys = {id(k) for k in graph_mod._KINDS}
    assert all(id(n.kind) in keys for n in loaded.nodes)


class TestNodeParam:
    """A node's parameters over its kind's defaults, seen in the shapes and counts they give."""

    @staticmethod
    def one_node(kind, **params) -> ArchitectureSpec:
        return tiny_arch(nodes=(LayerNode(id="n", kind=kind, params=params, inputs=("input",)),),
                         output="n")

    def test_explicit_value_wins(self):
        arch = self.one_node("conv2d", out_channels=8, kernel_h=3, kernel_w=3, stride=2)
        assert infer_shapes(arch)["n"] == TensorShape(8, 3, 3)

    def test_conv_defaults(self):
        # stride 1, padding 0 and dilation 1: a 3x3 window fits 6 times across 8;
        # groups 1: each output reads all 3 input channels; has_bias false: no bias term
        arch = self.one_node("conv2d", out_channels=8, kernel_h=3, kernel_w=3)
        assert infer_shapes(arch)["n"] == TensorShape(8, 6, 6)
        counted = count_flops(arch, convention=CountingConvention(include_bias=True))
        assert counted.total_per_image == (8 * 6 * 6) * 3 * (3 * 3)

    def test_pool_stride_defaults_to_kernel(self):
        assert infer_shapes(self.one_node("maxpool", kernel=3))["n"] == TensorShape(3, 2, 2)
        stride_one = self.one_node("maxpool", kernel=3, stride=1)
        assert infer_shapes(stride_one)["n"] == TensorShape(3, 6, 6)

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
    def test_pool_without_kernel(self, kind):
        # padding 0 and floor mode: a 3-window at stride 2 fits 3 times across 8,
        # where padding 1 or ceil mode would fit 4
        assert infer_shapes(self.one_node(kind, kernel=3, stride=2))["n"] == TensorShape(3, 3, 3)
        with pytest.raises(ShapeError) as raised:
            infer_shapes(self.one_node(kind))
        assert str(raised.value) == "node 'n': missing required parameter 'kernel'"

    def test_linear_bias_defaults_true(self):
        arch = self.one_node("linear", out_features=5)
        counted = count_flops(arch, convention=CountingConvention(include_bias=True))
        assert counted.total_per_image == 3 * 8 * 8 * 5 + 5


class TestValidation:
    def test_valid_arch_has_no_problems(self):
        assert validate_arch(tiny_arch()) == []

    def test_require_valid_returns_arch(self):
        arch = tiny_arch()
        assert require_valid(arch) is arch

    def test_empty_graph(self):
        arch = tiny_arch(nodes=(), output="fc")
        problems = validate_arch(arch)
        assert any("no nodes" in p for p in problems)

    def test_reserved_input_id(self):
        bad = tiny_arch().nodes + (
            LayerNode(id=INPUT_ID, kind="activation", params={}, inputs=("fc",)),
        )
        problems = validate_arch(tiny_arch(nodes=bad))
        assert any("reserved" in p for p in problems)

    def test_duplicate_id(self):
        nodes = tiny_arch().nodes
        dup = nodes + (LayerNode(id="c1", kind="activation", params={}, inputs=("fc",)),)
        problems = validate_arch(tiny_arch(nodes=dup))
        assert any("duplicate id" in p for p in problems)

    def test_unknown_kind(self):
        nodes = (LayerNode(id="x", kind="transformer", params={}, inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="x"))
        assert any("unknown kind" in p for p in problems)

    def test_forward_reference(self):
        nodes = (
            LayerNode(id="a", kind="activation", params={}, inputs=("b",)),
            LayerNode(id="b", kind="activation", params={}, inputs=("input",)),
        )
        problems = validate_arch(tiny_arch(nodes=nodes, output="b"))
        assert any("not an earlier node" in p for p in problems)

    def test_self_reference_rejected(self):
        nodes = (LayerNode(id="a", kind="activation", params={}, inputs=("a",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="a"))
        assert any("not an earlier node" in p for p in problems)

    def test_bad_output(self):
        problems = validate_arch(tiny_arch(output="nope"))
        assert any("output" in p for p in problems)

    def test_concat_arity(self):
        nodes = (LayerNode(id="cat", kind="concat", params={}, inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="cat"))
        assert any("at least 2" in p for p in problems)

    def test_conv_arity(self):
        nodes = (
            LayerNode(id="c", kind="conv2d",
                      params={"out_channels": 4, "kernel_h": 1, "kernel_w": 1},
                      inputs=("input", "input")),
        )
        problems = validate_arch(tiny_arch(nodes=nodes, output="c"))
        assert any("takes 1 input" in p for p in problems)

    def test_missing_required_param(self):
        nodes = (LayerNode(id="c", kind="conv2d", params={"out_channels": 4},
                           inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="c"))
        assert any("missing required parameter" in p for p in problems)

    def test_nonpositive_param(self):
        nodes = (LayerNode(id="c", kind="conv2d",
                           params={"out_channels": 0, "kernel_h": 1, "kernel_w": 1},
                           inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="c"))
        assert any("positive integer" in p for p in problems)

    def test_bool_param_rejected(self):
        nodes = (LayerNode(id="c", kind="conv2d",
                           params={"out_channels": True, "kernel_h": 1, "kernel_w": 1},
                           inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="c"))
        assert any("positive integer" in p for p in problems)

    def test_negative_padding(self):
        nodes = (LayerNode(id="c", kind="conv2d",
                           params={"out_channels": 4, "kernel_h": 1, "kernel_w": 1,
                                   "padding": -1},
                           inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="c"))
        assert any("padding" in p for p in problems)

    def test_groups_must_divide_out_channels(self):
        nodes = (LayerNode(id="c", kind="conv2d",
                           params={"out_channels": 5, "kernel_h": 1, "kernel_w": 1,
                                   "groups": 3},
                           inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="c"))
        assert any("does not divide out_channels" in p for p in problems)

    def test_unknown_param_rejected(self):
        # a misspelt stride would otherwise be counted at the default of 1
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["default_input"] = {"c": 3, "h": 14, "w": 14}
        obj["nodes"][0]["params"] = {"out_channels": 4, "kernel_h": 7, "kernel_w": 7,
                                     "stride": 2}
        assert count_flops(arch_from_json(json.dumps(obj))).per_layer["c1"] == 9_408
        obj["nodes"][0]["params"]["stide"] = obj["nodes"][0]["params"].pop("stride")
        with pytest.raises(GraphError, match=r"node 'c1': unknown parameter\(s\) \['stide'\]"):
            arch_from_json(json.dumps(obj))

    @pytest.mark.parametrize("kind,params,name", [
        ("maxpool", {"kernel": 2, "ceil": "no"}, "ceil"),
        ("avgpool", {"kernel": 2, "ceil": 0}, "ceil"),
        ("conv2d", {"out_channels": 4, "kernel_h": 1, "kernel_w": 1, "has_bias": "yes"},
         "has_bias"),
        ("linear", {"out_features": 4, "has_bias": 1}, "has_bias"),
        ("activation", {"function": 5}, "function"),
        ("activation", {"function": ""}, "function"),
        ("dropout", {"p": "x"}, "p"),
        ("dropout", {"p": 1.5}, "p"),
        ("dropout", {"p": True}, "p"),
        ("local_response_norm", {"size": -3}, "size"),
    ])
    def test_non_bool_flag_rejected(self, kind, params, name):
        # flags must be bools; the other typed parameters are checked the same way
        accepted = {"function": "a non-empty string", "p": "a number in [0, 1]",
                    "size": "a positive integer"}.get(name, "true or false")
        nodes = (LayerNode(id="n", kind=kind, params=params, inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="n"))
        assert problems == [
            f"node 'n': parameter {name!r} must be {accepted}, got {params[name]!r}"
        ]

    @pytest.mark.parametrize("bad_id", [7, None, ["c1"]])
    def test_non_string_id_rejected(self, bad_id):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][1]["id"] = bad_id
        obj["nodes"][2]["inputs"] = ["c1"]
        expected = rf"node {re.escape(repr(bad_id))}: id must be a string"
        with pytest.raises(GraphError, match=expected):
            arch_from_json(json.dumps(obj))

    @pytest.mark.parametrize("field,value", [
        ("name", 5), ("name", None), ("name", ["tiny"]), ("output", 5), ("output", ["c1"]),
    ])
    def test_non_string_name_or_output_rejected(self, field, value):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj[field] = value
        expected = (rf"^name must be a string, got {re.escape(repr(value))}$" if field == "name"
                    else rf"^tiny: output {re.escape(repr(value))} does not name a node$")
        with pytest.raises(GraphError, match=expected):
            arch_from_json(json.dumps(obj))

    def test_non_string_kind_rejected(self):
        nodes = (LayerNode(id="x", kind=["conv2d"], params={}, inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="x"))
        assert problems == ["node 'x': unknown kind ['conv2d']"]

    def test_shape_problems_surface(self):
        # kernel larger than the padded input only shows up via shape inference
        nodes = (LayerNode(id="c", kind="conv2d",
                           params={"out_channels": 4, "kernel_h": 99, "kernel_w": 1},
                           inputs=("input",)),)
        problems = validate_arch(tiny_arch(nodes=nodes, output="c"))
        assert len(problems) == 1
        assert "exceeds" in problems[0]

    def test_require_valid_joins_all_problems(self):
        nodes = (
            LayerNode(id="input", kind="nonsense", params={}, inputs=()),
        )
        with pytest.raises(GraphError) as e:
            require_valid(tiny_arch(nodes=nodes, output="gone"))
        msg = str(e.value)
        assert "reserved" in msg and "unknown kind" in msg and "output" in msg


class TestConstants:
    def test_input_id(self):
        assert INPUT_ID == "input"

    def test_layer_kinds(self):
        assert LAYER_KINDS == frozenset({
            "conv2d", "linear", "maxpool", "avgpool", "global_avgpool",
            "batchnorm", "activation", "elementwise_add", "elementwise_mul",
            "concat", "channel_shuffle", "flatten", "dropout",
            "local_response_norm", "squeeze_excite",
        })


class TestJsonFormat:
    def test_round_trip(self):
        arch = tiny_arch()
        text = arch_file_text(arch)
        back = arch_from_json(text)
        assert back.name == arch.name
        assert back.default_input == arch.default_input
        assert back.output == arch.output
        assert [(n.id, n.kind, dict(n.params), n.inputs) for n in back.nodes] == [
            (n.id, n.kind, dict(n.params), n.inputs) for n in arch.nodes
        ]

    def test_metadata_not_serialized(self):
        arch = tiny_arch(metadata={"reported_accuracy": {"top5": 99.0}})
        obj = json.loads(arch_file_text(arch))
        assert "metadata" not in obj
        assert arch_from_json(arch_file_text(arch)).metadata == {}

    def test_rejects_invalid_json(self):
        with pytest.raises(GraphError, match="not valid JSON"):
            arch_from_json("{nope")

    def test_rejects_non_object(self):
        with pytest.raises(GraphError, match="JSON object"):
            arch_from_json("[1, 2]")

    def test_rejects_unknown_top_field(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["extra"] = 1
        with pytest.raises(GraphError, match="unknown field"):
            arch_from_json(json.dumps(obj))

    def test_rejects_missing_top_field(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        del obj["output"]
        with pytest.raises(GraphError, match="missing field"):
            arch_from_json(json.dumps(obj))

    def test_rejects_bad_default_input(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["default_input"] = {"c": 3, "h": 8}
        with pytest.raises(GraphError, match="default_input"):
            arch_from_json(json.dumps(obj))

    def test_rejects_nodes_not_array(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"] = {}
        with pytest.raises(GraphError, match="nodes must be an array"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_non_object(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][0] = "conv"
        with pytest.raises(GraphError, match=r"nodes\[0\]"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_unknown_field(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][0]["weights"] = [1.0]
        with pytest.raises(GraphError, match="unknown field"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_missing_id_or_kind(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        del obj["nodes"][0]["kind"]
        with pytest.raises(GraphError, match="missing field 'kind'"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_bad_params(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][0]["params"] = []
        with pytest.raises(GraphError, match="params must be an object"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_inputs_not_array(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][0]["inputs"] = "input"
        with pytest.raises(GraphError, match=r"^nodes\[0\]: inputs must be an array of node ids$"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_bad_inputs(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][0]["inputs"] = [1]
        with pytest.raises(GraphError, match=r"^tiny: node 'c1': input 1 is not a node id string$"):
            arch_from_json(json.dumps(obj))

    def test_every_node_problem_listed_with_the_output(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][0]["params"]["stide"] = 2
        obj["nodes"][1]["inputs"] = [5]
        obj["output"] = 7
        with pytest.raises(GraphError) as raised:
            arch_from_json(json.dumps(obj))
        assert str(raised.value) == (
            "tiny: node 'c1': unknown parameter(s) ['stide']; conv2d takes ['dilation', 'groups', "
            "'has_bias', 'kernel_h', 'kernel_w', 'out_channels', 'padding', 'stride']; "
            "node 'relu': input 5 is not a node id string; output 7 does not name a node")

    def test_from_json_validates_graph(self):
        obj = json.loads(arch_file_text(tiny_arch()))
        obj["nodes"][0]["params"]["kernel_h"] = 99  # larger than padded input
        with pytest.raises(GraphError, match="exceeds"):
            arch_from_json(json.dumps(obj))


# Every parameter name some kind takes; a name the mutated node's kind
# does not take makes an unknown parameter.
_PARAM_NAMES = ("out_channels", "kernel_h", "kernel_w", "stride", "padding", "dilation",
                "groups", "has_bias", "out_features", "kernel", "ceil", "target",
                "reduction", "p", "size", "function")
_BAD_VALUES = {"string": "3", "zero": 0, "float": 2.5, "bool": True}
_COUNT_ALL = CountingConvention(counted_kinds=LAYER_KINDS, include_bias=True)


@st.composite
def one_mutation(draw) -> ArchitectureSpec:
    """A random valid graph with one parameter of one node, one input reference,
    the output or the default input mutated."""
    arch = random_arch(random.Random(draw(st.integers(0, 2**32 - 1))))
    node = draw(st.sampled_from(arch.nodes))
    params, inputs = dict(node.params), list(node.inputs)
    how = draw(st.sampled_from(sorted(_BAD_VALUES) + [
        "missing", "unknown", "list_input", "int_input", "list_output", "tuple_default_input"]))
    if how == "missing" and params:
        del params[draw(st.sampled_from(sorted(params)))]
    elif how == "unknown":
        params["bogus"] = 1
    elif how in _BAD_VALUES:
        params[draw(st.sampled_from(sorted(set(params) | set(_PARAM_NAMES))))] = _BAD_VALUES[how]
    elif how in ("list_input", "int_input"):
        k = draw(st.integers(0, len(inputs) - 1))
        inputs[k] = [inputs[k]] if how == "list_input" else draw(st.integers(-1, 3))
    elif how == "list_output":
        arch = dataclasses.replace(arch, output=[arch.output])
    else:
        d = arch.default_input
        arch = dataclasses.replace(arch, default_input=(d.channels, d.height, d.width))
    nodes = tuple(dataclasses.replace(n, params=params, inputs=tuple(inputs)) if n is node else n
                  for n in arch.nodes)
    return dataclasses.replace(arch, nodes=nodes)


def _with_params(arch: ArchitectureSpec, node_id: str, **params) -> ArchitectureSpec:
    nodes = tuple(dataclasses.replace(n, params={**n.params, **params}) if n.id == node_id else n
                  for n in arch.nodes)
    return dataclasses.replace(arch, nodes=nodes)


class TestOneCheckedWalk:
    """validate_arch, infer_shapes and count_flops check a spec the same way."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(one_mutation())
    def test_infer_and_count_raise_exactly_when_validation_fails(self, arch):
        # each call gets its own copy, so none is served by another's memo
        problems = validate_arch(dataclasses.replace(arch))
        if not problems:
            assert infer_shapes(dataclasses.replace(arch))[arch.output]
            assert count_flops(dataclasses.replace(arch), convention=_COUNT_ALL).per_layer
            return
        with pytest.raises(ShapeError) as raised:
            infer_shapes(dataclasses.replace(arch))
        assert str(raised.value) == "; ".join(problems)
        with pytest.raises(GraphError):
            count_flops(dataclasses.replace(arch), convention=_COUNT_ALL)

    @pytest.mark.parametrize("node_id,params,message", [
        ("conv1.conv", {"kernel_h": "3"}, "parameter 'kernel_h' must be a positive integer"),
        ("conv1.conv", {"groups": 0}, "parameter 'groups' must be a positive integer, got 0"),
        ("pool1", {"stride": 0}, "parameter 'stride' must be a positive integer, got 0"),
    ])
    def test_malformed_parameter_is_a_shape_error(self, node_id, params, message):
        arch = _with_params(builtin_arch("AlexNet"), node_id, **params)
        for call in (infer_shapes, count_flops):
            with pytest.raises(ShapeError, match=re.escape(f"node {node_id!r}: {message}")):
                call(dataclasses.replace(arch))

    @pytest.mark.parametrize("inputs,output,default_input,problem", [
        ((["input"],), "r", TensorShape(3, 8, 8),
         "node 'r': input ['input'] is not a node id string"),
        ((0,), "r", TensorShape(3, 8, 8), "node 'r': input 0 is not a node id string"),
        (("input",), ["r"], TensorShape(3, 8, 8), "output ['r'] does not name a node"),
        (("input",), "r", (3, 8, 8), "input shape (3, 8, 8) is not a TensorShape"),
    ])
    def test_python_built_references_are_checked(self, inputs, output, default_input, problem):
        relu = LayerNode(id="r", kind="activation", inputs=inputs)
        arch = ArchitectureSpec(name="t", default_input=default_input, nodes=(relu,), output=output)
        assert validate_arch(arch) == [problem]
        for call in (infer_shapes, count_flops):
            with pytest.raises(ShapeError) as raised:
                call(dataclasses.replace(arch))
            assert str(raised.value) == problem

    def test_missing_required_parameter_is_a_shape_error(self):
        arch = tiny_arch(nodes=(LayerNode(id="se", kind="squeeze_excite", inputs=("input",)),),
                         output="se")
        for call in (infer_shapes, count_flops):
            with pytest.raises(ShapeError, match="node 'se': missing required parameter"):
                call(dataclasses.replace(arch))

    def test_shape_problem_is_reported_only_alone(self):
        big = LayerNode(id="c", kind="conv2d", inputs=("input",),
                        params={"out_channels": 4, "kernel_h": 99, "kernel_w": 1})

        def then_relu(**params):
            relu = LayerNode(id="r", kind="activation", params=params, inputs=("c",))
            return tiny_arch(nodes=(big, relu), output="r")

        [alone] = validate_arch(then_relu())
        assert alone.startswith("node 'c': window (kernel 99, dilation 1) exceeds")
        assert validate_arch(then_relu(bogus=1)) == [
            "node 'r': unknown parameter(s) ['bogus']; activation takes ['function']"
        ]


# What each accepted-value description of the kind table means, written out
# here so the property below does not test the table against itself.
_ACCEPTS = {
    "a positive integer": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
    "a non-negative integer":
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    "true or false": lambda v: isinstance(v, bool),
    "a non-empty string": lambda v: isinstance(v, str) and v != "",
    "a number in [0, 1]":
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1,
}
# Well-formed values for each description, some of them int subclasses and huge ints.
_GOOD = {
    "a positive integer": st.one_of(st.integers(1, 9), st.integers(2**63, 2**70),
                                    st.integers(1, 9).map(_Int)),
    "a non-negative integer": st.one_of(st.integers(0, 9), st.integers(0, 9).map(_Int)),
    "true or false": st.booleans(),
    "a non-empty string": st.sampled_from(["relu", "3"]),
    "a number in [0, 1]": st.one_of(st.floats(0, 1), st.sampled_from([0, 1])),
}
_ALL_PARAM_NAMES = sorted({n for k in graph_mod._KINDS.values() for n in k.params} | {"bogus"})
_ANY_VALUE = st.one_of(
    st.integers(-3, 9), st.integers(2**63, 2**70), st.integers(1, 9).map(_Int),
    st.booleans(), st.floats(-2, 2), st.sampled_from([2.0, 0.5, float("nan")]), st.none(),
    st.sampled_from(["", "relu", "3"]), st.lists(st.integers(1, 3), max_size=2),
)


def _schema_problems(node: LayerNode, kind) -> list[str]:
    """The node's parameter problems, kind by kind entry in schema order, then unknown names."""
    problems = []
    for name, (default, (accepted, _)) in kind.params.items():
        if name in node.params:
            if not _ACCEPTS[accepted](node.params[name]):
                problems.append(f"parameter {name!r} must be {accepted}, "
                                f"got {node.params[name]!r}")
        elif default is graph_mod._REQUIRED:
            problems.append(f"missing required parameter {name!r}")
    unknown = [n for n in node.params if n not in kind.params]
    if unknown:
        problems.append(f"unknown parameter(s) {unknown}; {node.kind} takes {sorted(kind.params)}")
    return problems


@st.composite
def _drawn_params(draw) -> tuple[str, dict]:
    """A kind and parameters for it in a drawn order. A clean draw gives each required
    name a well-formed value and leaves each other name out or well-formed; a spoiled
    one gives any name any value or none, and perhaps adds unknown names."""
    kind_name = draw(st.sampled_from(sorted(graph_mod._KINDS)))
    spoiled = draw(st.booleans())
    items = []
    for name, (default, (accepted, _)) in graph_mod._KINDS[kind_name].params.items():
        if spoiled:
            how = draw(st.sampled_from(["omit", "good", "any"]))
        else:
            how = "good" if default is graph_mod._REQUIRED else draw(st.sampled_from(["omit", "good"]))
        if how == "good":
            items.append((name, draw(_GOOD[accepted])))
        elif how == "any":
            items.append((name, draw(_ANY_VALUE)))
    names = st.lists(st.sampled_from(_ALL_PARAM_NAMES), max_size=2 if spoiled else 0, unique=True)
    for name in draw(names):
        if name not in graph_mod._KINDS[kind_name].params:
            items.append((name, draw(_ANY_VALUE)))
    return kind_name, dict(draw(st.permutations(items)))


class TestParamGoodPath:
    """_check_params's good path and its schema loop agree on every kind."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_drawn_params())
    def test_resolves_exactly_when_the_schema_finds_no_problem(self, drawn):
        kind_name, params = drawn
        kind = graph_mod._KINDS[kind_name]
        node = LayerNode(id="n", kind=kind_name, params=params, inputs=("input",))
        problems = ["an earlier problem"]
        resolved = graph_mod._check_params(node, kind, problems)
        expected = _schema_problems(node, kind)
        if expected:
            assert resolved is None
            assert problems == ["an earlier problem", *expected]
        else:
            assert resolved == graph_mod._resolve(node, kind)
            cross = kind.check and kind.check(resolved)
            assert problems == ["an earlier problem", *([cross] if cross else [])]

    def test_bool_is_no_integer_and_required_names_are_needed(self):
        for kind_name, kind in graph_mod._KINDS.items():
            for name, (_, (accepted, _)) in kind.params.items():
                if accepted.endswith("integer"):
                    node = LayerNode(id="n", kind=kind_name, params={name: True})
                    problems = []
                    assert graph_mod._check_params(node, kind, problems) is None
                    assert f"parameter {name!r} must be {accepted}, got True" in problems
            problems = []
            resolved = graph_mod._check_params(LayerNode(id="n", kind=kind_name), kind, problems)
            assert (resolved is None) == bool(kind.required)
            assert problems == [f"missing required parameter {n!r}" for n in kind.params
                                if n in kind.required]


class _Str(str):
    """A str subclass, which the walk takes for a str."""


class _StrLike:
    """Equal to a str and hashed as it, but not a str, which the walk refuses."""

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return self.text == other

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"_StrLike({self.text!r})"


class _Tagged(int):
    """An int subclass whose repr shows a tag that equality ignores."""

    def __new__(cls, value, tag):
        self = super().__new__(cls, value)
        self.tag = tag
        return self

    def __repr__(self):
        return f"{int(self)}{self.tag}"


def _validated(arch: ArchitectureSpec):
    """validate_arch and infer_shapes, or its message, each on its own copy so no memo serves it."""
    problems = validate_arch(dataclasses.replace(arch))
    try:
        return problems, infer_shapes(dataclasses.replace(arch))
    except ShapeError as e:
        return problems, str(e)


def _wording_walk_only():
    """The walk with its good path off: the full walk alone, which the good path must match."""
    return mock.patch.object(graph_mod, "_good_walk", lambda arch, input_shape: None)


class TestLayerSignatures:
    """A valid graph's walk checks and shapes each layer signature once, and every
    graph gets what the walk that words problems gives alone."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.integers(0, 2**32 - 1).map(lambda seed: random_arch(random.Random(seed))),
                     one_mutation()))
    def test_agrees_with_the_wording_walk(self, arch):
        got = _validated(arch)
        with _wording_walk_only():
            assert got == _validated(arch)

    @pytest.mark.parametrize("name,value", [("stride", True), ("kernel_h", 3.0)])
    def test_an_equal_value_of_another_type_is_checked(self, name, value):
        # True == 1 and 3.0 == 3 hash alike, but only the int is a positive integer
        params = {"out_channels": 4, "kernel_h": 3, "kernel_w": 3, "stride": 1}
        arch = ArchitectureSpec(name="twins", default_input=TensorShape(3, 8, 8), output="c2",
                                nodes=(LayerNode("c1", "conv2d", params, ("input",)),
                                       LayerNode("c2", "conv2d", {**params, name: value},
                                                 ("input",))))
        problem = f"node 'c2': parameter {name!r} must be a positive integer, got {value!r}"
        assert validate_arch(arch) == [problem]
        for build in (lambda: require_valid(arch), lambda: arch_from_json(arch_file_text(arch))):
            with pytest.raises(GraphError) as raised:
                build()
            assert str(raised.value) == f"twins: {problem}"

    @pytest.mark.parametrize("wrap", [_Str, _StrLike])
    @pytest.mark.parametrize("field", ["id", "kind", "inputs"])
    def test_python_built_strings_get_the_wording_walks_result(self, wrap, field):
        # r2 repeats r1's signature, with one str field wrapped
        r1 = LayerNode("r1", "activation", {}, ("c1",))
        r2 = dataclasses.replace(r1, id="r2")
        r2 = dataclasses.replace(r2, **{field: (wrap("c1"),) if field == "inputs"
                                        else wrap(getattr(r2, field))})
        conv = LayerNode("c1", "conv2d", {"out_channels": 4, "kernel_h": 3, "kernel_w": 3},
                         ("input",))
        arch = tiny_arch(nodes=(conv, r1, r2), output="r2")
        got = _validated(arch)
        with _wording_walk_only():
            assert got == _validated(arch)

    @pytest.mark.parametrize("tagged", ["input shape", "params"])
    def test_int_subclasses_keep_their_own_objects(self, tagged):
        # equal values that print apart are never shared between nodes
        def conv(node_id, channels):
            return LayerNode(node_id, "conv2d", {"out_channels": channels, "kernel_h": 1,
                                                 "kernel_w": 1}, ("input",))

        if tagged == "input shape":
            nodes = (LayerNode("r", "activation", {}, ("input",)), conv("c", 3))
            default_input = TensorShape(_Tagged(3, "t"), 8, 8)
        else:
            nodes = (conv("a", _Tagged(4, "a")), conv("b", _Tagged(4, "b")))
            default_input = TensorShape(3, 8, 8)
        arch = ArchitectureSpec(name="t", default_input=default_input, nodes=nodes,
                                output=nodes[-1].id)
        got = repr(infer_shapes(dataclasses.replace(arch)))
        with _wording_walk_only():
            assert got == repr(infer_shapes(dataclasses.replace(arch)))

    def test_equal_signatures_share_one_shape(self):
        arch = builtin_arch("ResNet-50")
        shapes = infer_shapes(arch)
        groups = layer_signatures(arch, arch.default_input)
        assert (len(groups), len(arch.nodes)) == (55, 175)
        for ids in groups:
            assert len({id(shapes[i]) for i in ids}) == 1, ids

    def test_an_output_naming_the_network_input_is_refused(self):
        assert validate_arch(tiny_arch(output=INPUT_ID)) == ["output 'input' does not name a node"]
