"""Graph model: shapes as values, validation, and the json file format."""
import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    arch_to_json,
    builtin_arch,
    count_flops,
    infer_shapes,
    node_param,
    require_valid,
    validate_arch,
)

from _generators import random_arch


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


class TestNodeParam:
    def test_explicit_value_wins(self):
        node = LayerNode(id="c", kind="conv2d",
                         params={"out_channels": 8, "kernel_h": 3, "kernel_w": 3, "stride": 2},
                         inputs=("input",))
        assert node_param(node, "stride") == 2

    def test_conv_defaults(self):
        node = LayerNode(id="c", kind="conv2d",
                         params={"out_channels": 8, "kernel_h": 3, "kernel_w": 3},
                         inputs=("input",))
        assert node_param(node, "stride") == 1
        assert node_param(node, "padding") == 0
        assert node_param(node, "dilation") == 1
        assert node_param(node, "groups") == 1
        assert node_param(node, "has_bias") is False

    def test_pool_stride_defaults_to_kernel(self):
        node = LayerNode(id="p", kind="maxpool", params={"kernel": 3}, inputs=("input",))
        assert node_param(node, "stride") == 3

    @pytest.mark.parametrize("kind", ["maxpool", "avgpool"])
    def test_pool_without_kernel(self, kind):
        node = LayerNode(id="p", kind=kind, params={}, inputs=("input",))
        assert node_param(node, "padding") == 0
        assert node_param(node, "ceil") is False
        with pytest.raises(GraphError) as raised:
            node_param(node, "stride")
        assert str(raised.value) == "node 'p': missing required parameter 'kernel'"

    def test_linear_bias_defaults_true(self):
        node = LayerNode(id="fc", kind="linear", params={"out_features": 5}, inputs=("input",))
        assert node_param(node, "has_bias") is True

    def test_missing_required_raises(self):
        node = LayerNode(id="c", kind="conv2d", params={}, inputs=("input",))
        with pytest.raises(GraphError, match="out_channels"):
            node_param(node, "out_channels")

    @pytest.mark.parametrize("node,name,message", [
        (LayerNode(id="p", kind=["maxpool"], params={}), "padding",
         "node 'p': unknown kind ['maxpool']"),
        (LayerNode(id="p", kind="maxpool", params={"kernel": 3}), ["x"],
         "node 'p': parameter name ['x'] is not a string"),
    ])
    def test_unhashable_kind_or_name_is_a_graph_error(self, node, name, message):
        with pytest.raises(GraphError) as raised:
            node_param(node, name)
        assert str(raised.value) == message


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
        obj = json.loads(arch_to_json(tiny_arch()))
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
        obj = json.loads(arch_to_json(tiny_arch()))
        obj["nodes"][1]["id"] = bad_id
        obj["nodes"][2]["inputs"] = ["c1"]
        expected = rf"node {re.escape(repr(bad_id))}: id must be a string"
        with pytest.raises(GraphError, match=expected):
            arch_from_json(json.dumps(obj))

    @pytest.mark.parametrize("field,value", [
        ("name", 5), ("name", None), ("name", ["tiny"]), ("output", 5), ("output", ["c1"]),
    ])
    def test_non_string_name_or_output_rejected(self, field, value):
        obj = json.loads(arch_to_json(tiny_arch()))
        obj[field] = value
        expected = rf"^{field} must be a string, got {re.escape(repr(value))}$"
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
        text = arch_to_json(arch)
        back = arch_from_json(text)
        assert back.name == arch.name
        assert back.default_input == arch.default_input
        assert back.output == arch.output
        assert [(n.id, n.kind, dict(n.params), n.inputs) for n in back.nodes] == [
            (n.id, n.kind, dict(n.params), n.inputs) for n in arch.nodes
        ]

    def test_metadata_not_serialized(self):
        arch = tiny_arch(metadata={"reported_accuracy": {"top5": 99.0}})
        obj = json.loads(arch_to_json(arch))
        assert "metadata" not in obj
        assert arch_from_json(arch_to_json(arch)).metadata == {}

    def test_rejects_invalid_json(self):
        with pytest.raises(GraphError, match="not valid JSON"):
            arch_from_json("{nope")

    def test_rejects_non_object(self):
        with pytest.raises(GraphError, match="JSON object"):
            arch_from_json("[1, 2]")

    def test_rejects_unknown_top_field(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        obj["extra"] = 1
        with pytest.raises(GraphError, match="unknown field"):
            arch_from_json(json.dumps(obj))

    def test_rejects_missing_top_field(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        del obj["output"]
        with pytest.raises(GraphError, match="missing field"):
            arch_from_json(json.dumps(obj))

    def test_rejects_bad_default_input(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        obj["default_input"] = {"c": 3, "h": 8}
        with pytest.raises(GraphError, match="default_input"):
            arch_from_json(json.dumps(obj))

    def test_rejects_nodes_not_array(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        obj["nodes"] = {}
        with pytest.raises(GraphError, match="nodes must be an array"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_non_object(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        obj["nodes"][0] = "conv"
        with pytest.raises(GraphError, match=r"nodes\[0\]"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_unknown_field(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        obj["nodes"][0]["weights"] = [1.0]
        with pytest.raises(GraphError, match="unknown field"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_missing_id_or_kind(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        del obj["nodes"][0]["kind"]
        with pytest.raises(GraphError, match="missing field 'kind'"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_bad_params(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        obj["nodes"][0]["params"] = []
        with pytest.raises(GraphError, match="params must be an object"):
            arch_from_json(json.dumps(obj))

    def test_rejects_node_bad_inputs(self):
        obj = json.loads(arch_to_json(tiny_arch()))
        obj["nodes"][0]["inputs"] = [1]
        with pytest.raises(GraphError, match="inputs must be an array"):
            arch_from_json(json.dumps(obj))

    def test_from_json_validates_graph(self):
        obj = json.loads(arch_to_json(tiny_arch()))
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
        ("input", "r", TensorShape(3, 8, 8),
         "node 'r': inputs 'input' is a string, not a list of node ids"),
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
