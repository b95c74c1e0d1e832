"""Operation counting against the loop-nest oracle and hand arithmetic."""
import dataclasses
import platform
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algoeff.archflops.graph as graph_mod
from algoeff.archflops import (
    DEFAULT_COUNTED_KINDS,
    ArchitectureSpec,
    CountingConvention,
    GraphError,
    LayerNode,
    TensorShape,
    arch_from_json,
    builtin_arch,
    count_flops,
    infer_shapes,
)
from algoeff.archflops.counting import UNITS
from algoeff.cli import main

from _generators import chain_graph_json, random_arch, traced
from _oracles import first_of_each_signature, macs_oracle

ALL_KINDS_COUNTED = frozenset({
    "conv2d", "linear", "maxpool", "avgpool", "global_avgpool", "batchnorm",
    "activation", "elementwise_add", "elementwise_mul", "concat",
    "channel_shuffle", "flatten", "dropout", "local_response_norm",
    "squeeze_excite",
})


def chain(*nodes, input_shape=TensorShape(3, 8, 8)):
    return ArchitectureSpec(
        name="t", default_input=input_shape, nodes=tuple(nodes), output=nodes[-1].id
    )


def conv(id_, inputs, out_c, k, stride=1, padding=0, groups=1, has_bias=False):
    params = {"out_channels": out_c, "kernel_h": k, "kernel_w": k,
              "stride": stride, "padding": padding, "groups": groups}
    if has_bias:
        params["has_bias"] = True
    return LayerNode(id=id_, kind="conv2d", params=params, inputs=tuple(inputs))


class TestConvention:
    def test_defaults(self):
        c = CountingConvention()
        assert c.unit == "mac"
        assert c.counted_kinds == frozenset({"conv2d", "linear"})
        assert c.include_bias is False
        assert DEFAULT_COUNTED_KINDS == frozenset({"conv2d", "linear"})

    def test_unknown_unit_rejected(self):
        with pytest.raises(GraphError, match="unknown unit"):
            CountingConvention(unit="flops")

    def test_counted_kinds_normalized_to_frozenset(self):
        c = CountingConvention(counted_kinds={"conv2d"})
        assert isinstance(c.counted_kinds, frozenset)

    @pytest.mark.parametrize("kinds,message", [
        ({"bogus"}, "unknown layer kinds in counted_kinds: ['bogus']"),
        (["linear", "zeta", "conv"], "unknown layer kinds in counted_kinds: ['conv', 'zeta']"),
        ({"conv2d", 5}, "unknown layer kinds in counted_kinds: [5]"),
        ("conv2d", "counted_kinds must be a set of layer kinds, not 'conv2d'"),
        (5, "counted_kinds must be a set of layer kinds, not 5"),
        ([["conv2d"]], "counted_kinds must be a set of layer kinds, not [['conv2d']]"),
        (set(), "counted_kinds needs at least one layer kind"),
        ((k for k in ()), "counted_kinds needs at least one layer kind"),
    ])
    def test_counted_kinds_checked(self, kinds, message):
        with pytest.raises(GraphError) as raised:
            CountingConvention(counted_kinds=kinds)
        assert str(raised.value) == message

    def test_counted_kinds_from_any_iterable(self):
        c = CountingConvention(counted_kinds=(k for k in ["conv2d", "maxpool"]))
        assert c.counted_kinds == frozenset({"conv2d", "maxpool"})


class TestHandArithmetic:
    def test_single_conv(self):
        # out 8x8x8 at kernel 3, same padding: 8*8*8 * 3*3*3 = 13824
        arch = chain(conv("c", ["input"], 8, 3, padding=1))
        result = count_flops(arch)
        assert result.total_per_image == 8 * 8 * 8 * 3 * 9
        assert result.per_layer == {"c": 13824}

    def test_grouped_conv_divides_input_channels(self):
        arch = chain(
            conv("c1", ["input"], 4, 1),             # 3 -> 4 channels
            conv("c2", ["c1"], 4, 3, padding=1, groups=2),
        )
        expected_c2 = (4 * 8 * 8) * (4 // 2) * 9
        assert count_flops(arch).per_layer["c2"] == expected_c2

    def test_depthwise_conv(self):
        arch = chain(
            conv("c1", ["input"], 8, 1),
            conv("dw", ["c1"], 8, 3, padding=1, groups=8),
        )
        assert count_flops(arch).per_layer["dw"] == (8 * 8 * 8) * 1 * 9

    def test_linear_counts_input_elements(self):
        arch = chain(LayerNode(id="fc", kind="linear", params={"out_features": 10},
                               inputs=("input",)))
        assert count_flops(arch).total_per_image == 3 * 8 * 8 * 10

    def test_total_equals_per_layer_sum(self):
        arch = chain(
            conv("c", ["input"], 4, 3, padding=1),
            LayerNode(id="r", kind="activation", params={}, inputs=("c",)),
            LayerNode(id="fc", kind="linear", params={"out_features": 5}, inputs=("r",)),
        )
        result = count_flops(arch)
        assert result.total_per_image == sum(result.per_layer.values())

    def test_uncounted_layers_present_as_zeros(self):
        arch = chain(
            conv("c", ["input"], 4, 1),
            LayerNode(id="r", kind="activation", params={}, inputs=("c",)),
            LayerNode(id="fc", kind="linear", params={"out_features": 5}, inputs=("r",)),
        )
        per_layer = count_flops(arch).per_layer
        assert set(per_layer) == {"c", "r", "fc"}
        assert per_layer["r"] == 0

    def test_gigaops(self):
        arch = chain(conv("c", ["input"], 8, 3, padding=1))
        assert count_flops(arch).gigaops == pytest.approx(13824 / 1e9)

    def test_gigaops_beyond_the_float_range(self):
        arch = builtin_arch("AlexNet")
        nodes = tuple(
            dataclasses.replace(n, params={**n.params, "out_channels": 10**310})
            if n.id == "conv1.conv" else n for n in arch.nodes
        )
        count = count_flops(dataclasses.replace(arch, nodes=nodes))
        assert count.total_per_image > 10**310
        with pytest.raises(GraphError, match="^per-image count exceeds the float range$"):
            count.gigaops

    def test_input_override_changes_counts(self):
        arch = chain(conv("c", ["input"], 8, 3, padding=1))
        doubled = count_flops(arch, input_shape=TensorShape(3, 16, 16))
        # stride-1 same-padded conv: doubling H and W multiplies count by 4
        assert doubled.total_per_image == 4 * count_flops(arch).total_per_image
        assert doubled.input == TensorShape(3, 16, 16)


class TestFlop2Unit:
    def test_flop2_doubles_everything(self):
        arch = chain(
            conv("c", ["input"], 4, 3, padding=1),
            LayerNode(id="fc", kind="linear", params={"out_features": 5}, inputs=("c",)),
        )
        mac = count_flops(arch)
        flop2 = count_flops(arch, convention=CountingConvention(unit="flop2"))
        assert flop2.total_per_image == 2 * mac.total_per_image
        assert all(flop2.per_layer[k] == 2 * v for k, v in mac.per_layer.items())


class TestBias:
    def test_conv_bias_adds_output_elements(self):
        arch = chain(conv("c", ["input"], 8, 3, padding=1, has_bias=True))
        base = count_flops(arch).total_per_image
        with_bias = count_flops(
            arch, convention=CountingConvention(include_bias=True)
        ).total_per_image
        assert with_bias == base + 8 * 8 * 8

    def test_unbiased_conv_unaffected(self):
        arch = chain(conv("c", ["input"], 8, 3, padding=1, has_bias=False))
        assert (count_flops(arch, convention=CountingConvention(include_bias=True))
                .total_per_image == count_flops(arch).total_per_image)

    def test_linear_bias_default_on(self):
        arch = chain(LayerNode(id="fc", kind="linear", params={"out_features": 10},
                               inputs=("input",)))
        base = count_flops(arch).total_per_image
        with_bias = count_flops(
            arch, convention=CountingConvention(include_bias=True)
        ).total_per_image
        assert with_bias == base + 10

    def test_include_bias_off_by_default(self):
        arch = chain(conv("c", ["input"], 8, 3, padding=1, has_bias=True))
        assert count_flops(arch).total_per_image == 8 * 8 * 8 * 3 * 9


class TestCountedKinds:
    def test_conv_only(self):
        arch = chain(
            conv("c", ["input"], 4, 1),
            LayerNode(id="fc", kind="linear", params={"out_features": 5}, inputs=("c",)),
        )
        only_conv = count_flops(
            arch, convention=CountingConvention(counted_kinds=frozenset({"conv2d"}))
        )
        assert only_conv.per_layer["fc"] == 0
        assert only_conv.total_per_image == count_flops(arch).per_layer["c"]

    def test_pool_macs_when_counted(self):
        arch = chain(
            LayerNode(id="p", kind="maxpool", params={"kernel": 2}, inputs=("input",)),
        )
        result = count_flops(
            arch, convention=CountingConvention(counted_kinds=frozenset({"maxpool"}))
        )
        assert result.total_per_image == (3 * 4 * 4) * 2 * 2

    def test_squeeze_excite_two_projections(self):
        arch = chain(
            conv("c", ["input"], 16, 1),
            LayerNode(id="se", kind="squeeze_excite", params={"reduction": 4},
                      inputs=("c",)),
        )
        result = count_flops(
            arch, convention=CountingConvention(counted_kinds=frozenset({"squeeze_excite"}))
        )
        assert result.total_per_image == 2 * 16 * 4

    def test_squeeze_excite_reduction_floor_of_one(self):
        arch = chain(
            conv("c", ["input"], 2, 1),
            LayerNode(id="se", kind="squeeze_excite", params={"reduction": 16},
                      inputs=("c",)),
        )
        result = count_flops(
            arch, convention=CountingConvention(counted_kinds=frozenset({"squeeze_excite"}))
        )
        assert result.total_per_image == 2 * 2 * 1

    def test_batchnorm_and_activation_count_elements(self):
        arch = chain(
            LayerNode(id="bn", kind="batchnorm", params={}, inputs=("input",)),
            LayerNode(id="r", kind="activation", params={}, inputs=("bn",)),
        )
        result = count_flops(
            arch,
            convention=CountingConvention(counted_kinds=frozenset({"batchnorm", "activation"})),
        )
        assert result.per_layer == {"bn": 192, "r": 192}

    def test_data_movement_kinds_count_zero_even_when_counted(self):
        arch = chain(
            LayerNode(id="f", kind="flatten", params={}, inputs=("input",)),
            LayerNode(id="d", kind="dropout", params={}, inputs=("f",)),
        )
        result = count_flops(
            arch, convention=CountingConvention(counted_kinds=ALL_KINDS_COUNTED)
        )
        assert result.per_layer["f"] == 0
        assert result.per_layer["d"] == 0


class TestAgainstOracle:
    def test_random_graphs_default_convention(self):
        rng = random.Random(1177)
        for i in range(80):
            arch = random_arch(rng, i)
            got = count_flops(arch)
            want = macs_oracle(arch, arch.default_input)
            assert dict(got.per_layer) == want, f"graph {i}"
            assert got.total_per_image == sum(want.values())

    def test_random_graphs_all_kinds_counted(self):
        rng = random.Random(2288)
        convention = CountingConvention(counted_kinds=ALL_KINDS_COUNTED)
        for i in range(40):
            arch = random_arch(rng, i)
            got = count_flops(arch, convention=convention)
            want = macs_oracle(arch, arch.default_input, counted_kinds=ALL_KINDS_COUNTED)
            assert dict(got.per_layer) == want, f"graph {i}"

    def test_random_graphs_with_bias(self):
        rng = random.Random(3399)
        convention = CountingConvention(include_bias=True)
        for i in range(40):
            arch = random_arch(rng, i)
            got = count_flops(arch, convention=convention)
            want = macs_oracle(arch, arch.default_input, include_bias=True)
            assert dict(got.per_layer) == want, f"graph {i}"

    def test_random_graphs_flop2_scales_oracle(self):
        rng = random.Random(4411)
        convention = CountingConvention(unit="flop2")
        for i in range(20):
            arch = random_arch(rng, i)
            got = count_flops(arch, convention=convention)
            want = macs_oracle(arch, arch.default_input)
            assert dict(got.per_layer) == {k: 2 * v for k, v in want.items()}, f"graph {i}"


def _with_twins(arch: ArchitectureSpec, rng: random.Random) -> ArchitectureSpec:
    """arch with a twin after about half its nodes: the same kind, params and inputs
    under another id, so one layer signature. Nothing reads a twin."""
    nodes = []
    for node in arch.nodes:
        nodes.append(node)
        if rng.random() < 0.5:
            nodes.append(dataclasses.replace(node, id=f"{node.id}.twin"))
    return dataclasses.replace(arch, nodes=tuple(nodes))


class _Int(int):
    pass


class _Str(str):
    pass


class TestOncePerSignature:
    """The mac rule runs at the first node of each layer signature of a counted
    kind, and the signature's other nodes share that node's count."""

    @staticmethod
    def counted_firsts(arch, input_shape, kinds=DEFAULT_COUNTED_KINDS):
        kind_of = {n.id: n.kind for n in arch.nodes}
        return [i for i in first_of_each_signature(arch, input_shape) if kind_of[i] in kinds]

    @pytest.mark.parametrize("kinds", [DEFAULT_COUNTED_KINDS, ALL_KINDS_COUNTED],
                             ids=["default kinds", "every kind"])
    @pytest.mark.parametrize("graph", ["ResNet-50", "a chain of 4,000 nodes"])
    def test_mac_rule_runs_once_per_signature(self, node_mac_calls, graph, kinds):
        arch = (builtin_arch(graph) if graph == "ResNet-50"
                else arch_from_json(chain_graph_json(1_000)))
        convention = CountingConvention(counted_kinds=kinds)
        first = count_flops(arch, convention=convention)
        firsts = self.counted_firsts(arch, arch.default_input, kinds)
        assert node_mac_calls == firsts
        # each call counts again, at the same nodes
        assert count_flops(arch, convention=convention) == first
        assert node_mac_calls == firsts + firsts
        assert dict(first.per_layer) == macs_oracle(arch, arch.default_input, kinds)
        if graph == "ResNet-50":
            assert len(arch.nodes) == 175 and len(firsts) == (24 if len(kinds) == 2 else 55)
        else:
            assert len(arch.nodes) == 4_000 and firsts == (["c0"] if len(kinds) == 2
                                                           else ["c0", "b0", "a0", "s1"])

    def test_an_input_override_counts_its_own_signatures(self, capsys, node_mac_calls):
        assert main(["flops", "ResNet-50", "--per-layer", "--input", "3x288x288"]) == 0
        assert "2048x9x9" in capsys.readouterr().out
        arch = builtin_arch("ResNet-50")
        assert node_mac_calls == self.counted_firsts(arch, TensorShape(3, 288, 288))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), include_bias=st.booleans(),
           unit=st.sampled_from(UNITS))
    def test_shared_counts_match_the_oracle(self, seed, include_bias, unit):
        rng = random.Random(seed)
        arch = _with_twins(random_arch(rng), rng)
        convention = CountingConvention(unit=unit, counted_kinds=ALL_KINDS_COUNTED,
                                        include_bias=include_bias)
        want = macs_oracle(arch, arch.default_input, ALL_KINDS_COUNTED, include_bias)
        scale = 2 if unit == "flop2" else 1
        got = count_flops(arch, convention=convention)
        assert dict(got.per_layer) == {i: scale * macs for i, macs in want.items()}
        assert got.total_per_image == scale * sum(want.values())

    @pytest.mark.parametrize("declined", ["an int-subclass param", "a str-subclass id"])
    def test_a_graph_the_good_path_declines_counts_alike(self, declined):
        arch = builtin_arch("ResNet-50")
        if declined == "an int-subclass param":
            nodes = [dataclasses.replace(n, params={**n.params,
                                                    "out_channels": _Int(n.params["out_channels"])})
                     if n.kind == "conv2d" else n for n in arch.nodes]
        else:
            nodes = [*arch.nodes[:-1], dataclasses.replace(arch.nodes[-1], id=_Str(arch.output))]
        arch = dataclasses.replace(arch, nodes=tuple(nodes))
        assert graph_mod._good_walk(arch, arch.default_input) is None
        for include_bias in (False, True):
            convention = CountingConvention(counted_kinds=ALL_KINDS_COUNTED,
                                            include_bias=include_bias)
            want = macs_oracle(arch, arch.default_input, ALL_KINDS_COUNTED, include_bias)
            assert dict(count_flops(arch, convention=convention).per_layer) == want


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="sizes are CPython's allocations")
def test_count_allocates_one_per_layer_map():
    # before, count_flops read a copy of the walk's shape map and FlopCount
    # copied the per-layer dict count_flops had built: each a map alive only
    # during the call
    arch = arch_from_json(chain_graph_json(12_500))  # the loader walks it
    one_map = sys.getsizeof(infer_shapes(arch))  # a copy is the size of the walk's map
    count, held, peak = traced(lambda: count_flops(arch))
    assert len(count.per_layer) == len(arch.nodes) == 50_000
    assert held < 1.5 * one_map, (held, one_map)  # the per-layer map and its counts
    # what is freed by the end: the per-layer dict's last resize, at most
    assert peak - held < 0.75 * one_map, (peak, held, one_map)
