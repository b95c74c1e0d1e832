"""Shape inference against window enumeration and hand-worked cases."""
import dataclasses
import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algoeff.archflops import (
    ArchitectureSpec,
    LayerNode,
    ShapeError,
    TensorShape,
    builtin_arch,
    infer_shapes,
    window_out_dim,
)

from _generators import random_arch
from _oracles import out_dim_by_bisection, shapes_oracle, window_positions_floor
import random


def chain(*nodes, input_shape=TensorShape(3, 8, 8), output=None):
    return ArchitectureSpec(
        name="t",
        default_input=input_shape,
        nodes=tuple(nodes),
        output=output or nodes[-1].id,
    )


class TestWindowOutDim:
    @pytest.mark.parametrize("args,expected", [
        ((224, 11, 4, 2), 55),   # classic large-kernel stem
        ((224, 3, 2, 1), 112),   # stride-2 halving with same padding
        ((224, 7, 2, 3), 112),
        ((55, 3, 2, 0), 27),
        ((8, 3, 1, 1), 8),       # same padding preserves size
        ((8, 1, 1, 0), 8),       # pointwise
        ((5, 5, 1, 0), 1),       # kernel == input
        ((7, 3, 1, 0, 2), 3),    # dilation 2: effective kernel 5
    ])
    def test_hand_cases(self, args, expected):
        assert window_out_dim(*args) == expected

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            window_out_dim(4, 7)

    def test_padding_rescues_large_kernel(self):
        assert window_out_dim(4, 7, padding=2) == 2

    @settings(max_examples=300, deadline=None)
    @given(
        in_dim=st.integers(1, 64),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
        dilation=st.integers(1, 3),
    )
    def test_floor_matches_enumeration(self, in_dim, kernel, stride, padding, dilation):
        effective = dilation * (kernel - 1) + 1
        if effective > in_dim + 2 * padding:
            with pytest.raises(ValueError):
                window_out_dim(in_dim, kernel, stride, padding, dilation)
            return
        expected = len(window_positions_floor(in_dim, kernel, stride, padding, dilation))
        assert window_out_dim(in_dim, kernel, stride, padding, dilation) == expected

    @pytest.mark.parametrize("args,expected", [
        # in, k, s, p -> ceil mode output, worked by hand
        ((6, 3, 2, 0), 3),    # windows at 0, 2, 4 (last one partial)
        ((5, 3, 2, 0), 2),    # exact fit: ceil changes nothing
        ((7, 2, 2, 0), 4),    # windows at 0, 2, 4, 6 (last partial)
        ((4, 2, 2, 0), 2),
        ((9, 2, 2, 0), 5),    # starts 0, 2, 4, 6, 8; the last window is partial
    ])
    def test_ceil_hand_cases(self, args, expected):
        assert window_out_dim(*args, ceil=True) == expected

    def test_ceil_guard_drops_window_in_padding(self):
        # in=3, k=2, s=2, p=1: naive ceil arithmetic yields 3 windows at
        # starts -1, 1, 3, but the start-3 window lies entirely in the
        # right padding (input covers 0..2), so the guard drops it.
        assert window_out_dim(3, 2, 2, 1, ceil=True) == 2

    @settings(max_examples=300, deadline=None)
    @given(
        in_dim=st.integers(1, 64),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
    )
    def test_ceil_properties(self, in_dim, kernel, stride, padding):
        # the usual pooling constraint; beyond it whole windows can sit
        # inside the padding and the two modes stop nesting cleanly
        if padding > kernel // 2:
            return
        if kernel > in_dim + 2 * padding:
            return
        floor_out = window_out_dim(in_dim, kernel, stride, padding)
        ceil_out = window_out_dim(in_dim, kernel, stride, padding, ceil=True)
        # ceil adds at most one extra partial window
        assert ceil_out in (floor_out, floor_out + 1)
        # every window starts inside input-plus-left-padding
        assert (ceil_out - 1) * stride < in_dim + padding
        # exact division leaves nothing to round
        if (in_dim + 2 * padding - kernel) % stride == 0:
            assert ceil_out == floor_out

    def test_huge_dimension_is_exact(self):
        # float division rounds 10**17 / 3 down to ...333.0, one short
        assert window_out_dim(10**17 + 1, 1, 3) == 33333333333333334
        assert window_out_dim(10**17 + 1, 1, 3, ceil=True) == 33333333333333334

    @settings(max_examples=300, deadline=None)
    @given(
        in_dim=st.integers(1, 10**30),
        kernel=st.integers(1, 10**6),
        stride=st.integers(1, 10**12),
        padding=st.integers(0, 10**6),
        dilation=st.integers(1, 8),
        ceil=st.booleans(),
    )
    def test_huge_dims_match_integer_oracle(self, in_dim, kernel, stride, padding,
                                            dilation, ceil):
        if dilation * (kernel - 1) + 1 > in_dim + 2 * padding:
            return
        got = window_out_dim(in_dim, kernel, stride, padding, dilation, ceil=ceil)
        assert got == out_dim_by_bisection(in_dim, kernel, stride, padding, dilation,
                                           ceil=ceil)

    def test_ceil_guard_with_oversized_padding(self):
        # padding >= kernel admits windows that live entirely in the
        # right padding; floor mode counts them (3 windows at -1, 0, 1)
        # while the ceil-mode guard drops the one starting at in+p-1=1.
        assert window_out_dim(1, 1, 1, 1) == 3
        assert window_out_dim(1, 1, 1, 1, ceil=True) == 2


class TestInferShapes:
    def test_input_key_present(self):
        arch = chain(LayerNode(id="r", kind="activation", params={}, inputs=("input",)))
        shapes = infer_shapes(arch)
        assert shapes["input"] == TensorShape(3, 8, 8)

    def test_input_override(self):
        arch = chain(LayerNode(id="r", kind="activation", params={}, inputs=("input",)))
        shapes = infer_shapes(arch, TensorShape(1, 5, 5))
        assert shapes["r"] == TensorShape(1, 5, 5)

    def test_conv_shape(self):
        arch = chain(LayerNode(
            id="c", kind="conv2d",
            params={"out_channels": 16, "kernel_h": 3, "kernel_w": 5, "stride": 2,
                    "padding": 1},
            inputs=("input",)))
        assert infer_shapes(arch)["c"] == TensorShape(16, 4, 3)

    def test_linear_flattens_implicitly(self):
        arch = chain(LayerNode(id="fc", kind="linear", params={"out_features": 7},
                               inputs=("input",)))
        assert infer_shapes(arch)["fc"] == TensorShape(7, 1, 1)

    def test_pool_default_stride_is_kernel(self):
        arch = chain(LayerNode(id="p", kind="maxpool", params={"kernel": 2},
                               inputs=("input",)))
        assert infer_shapes(arch)["p"] == TensorShape(3, 4, 4)

    def test_global_avgpool_target(self):
        arch = chain(LayerNode(id="g", kind="global_avgpool", params={"target": 6},
                               inputs=("input",)))
        assert infer_shapes(arch)["g"] == TensorShape(3, 6, 6)

    def test_global_avgpool_target_too_large(self):
        arch = chain(LayerNode(id="g", kind="global_avgpool", params={"target": 9},
                               inputs=("input",)))
        with pytest.raises(ShapeError, match="larger than input"):
            infer_shapes(arch)

    def test_flatten(self):
        arch = chain(LayerNode(id="f", kind="flatten", params={}, inputs=("input",)))
        assert infer_shapes(arch)["f"] == TensorShape(192, 1, 1)

    def test_concat_sums_channels(self):
        arch = chain(
            LayerNode(id="a", kind="conv2d",
                      params={"out_channels": 4, "kernel_h": 1, "kernel_w": 1},
                      inputs=("input",)),
            LayerNode(id="b", kind="conv2d",
                      params={"out_channels": 6, "kernel_h": 1, "kernel_w": 1},
                      inputs=("input",)),
            LayerNode(id="cat", kind="concat", params={}, inputs=("a", "b")),
        )
        assert infer_shapes(arch)["cat"] == TensorShape(10, 8, 8)

    def test_concat_spatial_mismatch(self):
        arch = chain(
            LayerNode(id="a", kind="maxpool", params={"kernel": 2}, inputs=("input",)),
            LayerNode(id="cat", kind="concat", params={}, inputs=("a", "input")),
        )
        with pytest.raises(ShapeError, match="spatial dims differ"):
            infer_shapes(arch)

    def test_elementwise_shape_mismatch(self):
        arch = chain(
            LayerNode(id="a", kind="conv2d",
                      params={"out_channels": 4, "kernel_h": 1, "kernel_w": 1},
                      inputs=("input",)),
            LayerNode(id="add", kind="elementwise_add", params={}, inputs=("a", "input")),
        )
        with pytest.raises(ShapeError, match="operand shapes differ"):
            infer_shapes(arch)

    def test_conv_groups_must_divide_input_channels(self):
        arch = chain(LayerNode(
            id="c", kind="conv2d",
            params={"out_channels": 4, "kernel_h": 1, "kernel_w": 1, "groups": 2},
            inputs=("input",)))
        with pytest.raises(ShapeError, match="does not divide input channels"):
            infer_shapes(arch)

    def test_channel_shuffle_groups_must_divide(self):
        arch = chain(LayerNode(id="s", kind="channel_shuffle", params={"groups": 2},
                               inputs=("input",)))
        with pytest.raises(ShapeError, match="does not divide channels"):
            infer_shapes(arch)

    def test_kernel_exceeding_input_names_node(self):
        arch = chain(LayerNode(
            id="cbig", kind="conv2d",
            params={"out_channels": 4, "kernel_h": 11, "kernel_w": 1},
            inputs=("input",)))
        with pytest.raises(ShapeError, match="cbig"):
            infer_shapes(arch)

    def test_unknown_kind_rejected(self):
        arch = chain(LayerNode(id="x", kind="mystery", params={}, inputs=("input",)))
        with pytest.raises(ShapeError, match="unknown kind"):
            infer_shapes(arch)

    def test_undeclared_input_rejected(self):
        arch = ArchitectureSpec(
            name="t", default_input=TensorShape(3, 8, 8),
            nodes=(LayerNode(id="r", kind="activation", params={}, inputs=("ghost",)),),
            output="r",
        )
        with pytest.raises(ShapeError, match="ghost"):
            infer_shapes(arch)


class TestAgainstOracle:
    def test_random_graphs_match_enumeration(self):
        rng = random.Random(20260816)
        for i in range(80):
            arch = random_arch(rng, i)
            got = infer_shapes(arch)
            want = shapes_oracle(arch, arch.default_input)
            for node in arch.nodes:
                s = got[node.id]
                assert (s.channels, s.height, s.width) == want[node.id], (
                    f"graph {i}, node {node.id} ({node.kind})"
                )


class TestBuiltinShapes:
    def test_alexnet_spot_checks(self):
        arch = builtin_arch("AlexNet")
        shapes = infer_shapes(arch)
        assert shapes["input"] == TensorShape(3, 224, 224)
        # first conv maps 224 -> 55 at 11/4/2, classic arithmetic
        firsts = [n for n in arch.nodes if n.kind == "conv2d"]
        assert shapes[firsts[0].id].height == 55
        assert shapes[arch.output] == TensorShape(1000, 1, 1)

    @pytest.mark.parametrize("name", [
        "AlexNet", "Vgg-11", "GoogLeNet", "Resnet-50", "MobileNet_v1",
        "ShuffleNet_v1_1x", "ShuffleNet_v2_1x", "EfficientNet-b0",
    ])
    def test_classifier_output_is_1000_logits(self, name):
        arch = builtin_arch(name)
        assert infer_shapes(arch)[arch.output] == TensorShape(1000, 1, 1)


class TestMemo:
    def test_second_call_reuses_the_walk(self, node_shape_calls):
        arch = builtin_arch("ResNet-50")
        first = infer_shapes(arch)
        assert infer_shapes(arch) == first
        assert infer_shapes(arch, TensorShape(3, 224, 224)) == first
        assert len(node_shape_calls) == len(arch.nodes)

    def test_each_input_shape_is_inferred_separately(self, node_shape_calls):
        # a repeated input reuses the walk; a new input walks again and replaces it
        arch = builtin_arch("ResNet-50")
        big = TensorShape(3, 288, 288)
        for shape in (arch.default_input, arch.default_input, big, big, arch.default_input):
            got = infer_shapes(arch, shape)
            want = shapes_oracle(arch, shape)
            assert got["input"] == shape
            for node in arch.nodes:
                s = got[node.id]
                assert (s.channels, s.height, s.width) == want[node.id]
        assert len(node_shape_calls) == 3 * len(arch.nodes)

    def test_a_sweep_over_inputs_retains_one_shape_map(self):
        # before, every input's shape map stayed on the spec
        arch = builtin_arch("DenseNet121")
        infer_shapes(arch)
        tracemalloc.start()
        try:
            infer_shapes(arch, TensorShape(3, 200, 200))
            gc.collect()
            one_map = tracemalloc.get_traced_memory()[0]
            for size in range(201, 232):
                infer_shapes(arch, TensorShape(3, size, size))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < retained < 1.5 * one_map

    def test_mutating_a_result_does_not_leak(self):
        arch = chain(LayerNode(id="r", kind="activation", params={}, inputs=("input",)))
        first = infer_shapes(arch)
        first["r"] = TensorShape(9, 9, 9)
        del first["input"]
        assert infer_shapes(arch) == {"input": TensorShape(3, 8, 8),
                                      "r": TensorShape(3, 8, 8)}

    def test_failure_is_raised_on_every_call(self, node_shape_calls):
        arch = chain(LayerNode(id="cbig", kind="conv2d",
                               params={"out_channels": 4, "kernel_h": 11, "kernel_w": 1},
                               inputs=("input",)))
        for _ in range(3):
            with pytest.raises(ShapeError, match="cbig"):
                infer_shapes(arch)
        assert node_shape_calls == ["cbig"] * 3

    def test_equal_specs_still_compare_equal(self):
        a = builtin_arch("AlexNet")
        b = builtin_arch("AlexNet")
        infer_shapes(a)
        infer_shapes(a, TensorShape(3, 256, 256))
        assert a == b and b == a
        assert repr(a) == repr(b)
        assert dataclasses.replace(a) == b
