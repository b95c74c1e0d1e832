"""The sixteen bundled classifier graphs: totals, lookups, metadata."""
import hashlib
import json

import pytest

from algoeff.archflops import (
    GraphError,
    TensorShape,
    arch_from_json,
    arch_to_json,
    builtin_arch,
    builtin_names,
    count_flops,
    validate_arch,
)

# Exact multiply-accumulate totals at each graph's default 3x224x224
# input. These pin the graphs against accidental edits; the looser
# published-figure comparisons live in the acceptance suite.
EXPECTED_MACS = {
    "AlexNet": 714_188_480,
    "Vgg-11": 7_609_090_048,
    "GoogLeNet": 2_032_600_064,
    "Resnet-18": 1_814_073_344,
    "Resnet-34": 3_663_761_408,
    "Resnet-50": 4_089_184_256,
    "Wide_ResNet_50": 11_398_021_120,
    "ResNext_50": 4_230_479_872,
    "DenseNet121": 2_834_161_664,
    "Squeezenet_v1_1": 349_151_936,
    "MobileNet_v1": 568_740_352,
    "MobileNet_v2": 300_774_272,
    "ShuffleNet_v1_1x": 137_460_672,
    "ShuffleNet_v2_1x": 144_907_992,
    "ShuffleNet_v2_1_5x": 295_759_392,
    "EfficientNet-b0": 385_187_552,
}


# sha256 of each graph's arch_to_json text followed by its metadata as
# json.dumps(..., sort_keys=True). Unlike the totals these pin every node
# id, kind, parameter and input, and every reported figure.
EXPECTED_DIGESTS = {
    "AlexNet": "a7889eccecd8489baab6f71f50c66f3bddbe5410a4f784c0420e74b666730a32",
    "Vgg-11": "b7c092f13e135cdbdfad2c9c1c3e8cb58b8eb15eda23f9f9cf0063ba8e62b1f9",
    "GoogLeNet": "b40ceaa9c217f58f8177d4addc4664074fa21fa24271e09ce7dd16c0fd41b430",
    "Resnet-18": "5d49a5e4566d8a55ac533684d02eec8fe7b1e6455559b24c0827e30faefe48a0",
    "Resnet-34": "e662af1fd1976ca6d7b646d49ab612572e31ec654219bbe0e80782593c0f2c16",
    "Resnet-50": "8054a772f8d7fa09614527d44fc20bc5063a03a9131475ddfb9b9d4213263f05",
    "Wide_ResNet_50": "937f9e59624fe6aa8e5fc8845ab906a1725643a4eaac2fad915e6fdce9a770b6",
    "ResNext_50": "a05a59b0775b7abd98fee63580df4f936247fb6ea462fef6ff6035db0525a070",
    "DenseNet121": "270860121cc3982fccee7575335b105d262e6d16622d6e16ddc4585bdc5b4f01",
    "Squeezenet_v1_1": "33bd4050a48d368cd6e4070052a8c50342791ff60f8d67bfc17e678fa36ff85c",
    "MobileNet_v1": "0e9384e050d5e4ed8592fba7367c9a6d5c4083c978be18c938b8af72b90562a1",
    "MobileNet_v2": "9c90ce37266fd18bf7602d70b5b54dd37b838547db3bda3f8f49c91f10366639",
    "ShuffleNet_v1_1x": "ddf5fc57a8689e7faa12971b0b521e44439f7ba8384dc7009fa38359762dbf56",
    "ShuffleNet_v2_1x": "3c2875420ba4b512e28787580e797596c705a508e462f42cbf267e803a0f00f0",
    "ShuffleNet_v2_1_5x": "0d3b92e37dde19ba73b8b6b60691fc41602265c0e53b7d72a77b3817797e232c",
    "EfficientNet-b0": "143d5a65e92222739a95fa2ef221557c67ef9330b3587417abb6dd75f0c28998",
}


def _spec_bytes(arch):
    return arch_to_json(arch).encode() + json.dumps(arch.metadata, sort_keys=True).encode()


def test_builtins_are_pinned_exactly():
    assert list(builtin_names()) == list(EXPECTED_DIGESTS)
    for name in builtin_names():
        digest = hashlib.sha256(_spec_bytes(builtin_arch(name))).hexdigest()
        assert digest == EXPECTED_DIGESTS[name], name


def test_metadata_is_fresh_per_call():
    first = builtin_arch("Resnet-50")
    first.metadata["reported_accuracy"]["benchmark_run"] = 0.0
    first.metadata["reported_gigaops_per_image"]["benchmark"] = 0.0
    first.metadata["extra"] = True
    again = builtin_arch("Resnet-50")
    assert again.metadata["reported_accuracy"]["benchmark_run"] == 92.8
    assert again.metadata["reported_gigaops_per_image"]["benchmark"] == 3.86
    assert "extra" not in again.metadata
    assert hashlib.sha256(_spec_bytes(again)).hexdigest() == EXPECTED_DIGESTS["Resnet-50"]


def test_sixteen_builtins():
    assert set(builtin_names()) == set(EXPECTED_MACS)
    assert len(builtin_names()) == 16


@pytest.mark.parametrize("name", sorted(EXPECTED_MACS))
def test_exact_mac_totals(name):
    assert count_flops(builtin_arch(name)).total_per_image == EXPECTED_MACS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_MACS))
def test_builtins_validate(name):
    assert validate_arch(builtin_arch(name)) == []


@pytest.mark.parametrize("name", sorted(EXPECTED_MACS))
def test_builtins_default_to_imagenet_input(name):
    assert builtin_arch(name).default_input == TensorShape(3, 224, 224)


@pytest.mark.parametrize("name", sorted(EXPECTED_MACS))
def test_builtins_survive_json_round_trip(name):
    arch = builtin_arch(name)
    back = arch_from_json(arch_to_json(arch))
    assert count_flops(back).total_per_image == EXPECTED_MACS[name]
    assert back.name == arch.name


class TestLookup:
    @pytest.mark.parametrize("alias,canonical", [
        ("alexnet", "AlexNet"),
        ("ALEXNET", "AlexNet"),
        ("vgg11", "Vgg-11"),
        ("vgg-11", "Vgg-11"),
        ("googlenet", "GoogLeNet"),
        ("resnet50", "Resnet-50"),
        ("wide_resnet_50", "Wide_ResNet_50"),
        ("wide-resnet-50", "Wide_ResNet_50"),
        ("resnext50", "ResNext_50"),
        ("densenet-121", "DenseNet121"),
        ("squeezenet v1.1", "Squeezenet_v1_1"),
        ("mobilenet_v1", "MobileNet_v1"),
        ("shufflenet-v2-1x", "ShuffleNet_v2_1x"),
        ("ShuffleNet v2 1.5x", "ShuffleNet_v2_1_5x"),
        ("efficientnet b0", "EfficientNet-b0"),
    ])
    def test_normalized_aliases(self, alias, canonical):
        assert builtin_arch(alias).name == canonical

    def test_unknown_name_lists_available(self):
        with pytest.raises(GraphError) as e:
            builtin_arch("inception_v3")
        assert "AlexNet" in str(e.value)

    def test_builtin_instances_are_fresh_or_shared_but_equal(self):
        a = builtin_arch("AlexNet")
        b = builtin_arch("alexnet")
        assert a.name == b.name
        assert len(a.nodes) == len(b.nodes)


class TestMetadata:
    @pytest.mark.parametrize("name", sorted(EXPECTED_MACS))
    def test_reported_figures_present(self, name):
        md = builtin_arch(name).metadata
        ops = md["reported_gigaops_per_image"]
        assert set(ops) == {"benchmark", "counter", "original"}
        assert ops["benchmark"] > 0
        # accuracy figures exist only for runs the validation tables cover
        if "reported_accuracy" in md:
            acc = md["reported_accuracy"]
            assert set(acc) == {"metric", "benchmark_run", "reference_impl",
                                "original_publication"}
            assert acc["metric"] in ("top5", "top1")
            assert 0 < acc["benchmark_run"] <= 100

    @pytest.mark.parametrize("name", sorted(EXPECTED_MACS))
    def test_counts_within_ten_percent_of_benchmark_figure(self, name):
        arch = builtin_arch(name)
        reported = arch.metadata["reported_gigaops_per_image"]["benchmark"]
        counted = count_flops(arch).gigaops
        assert abs(counted - reported) / reported <= 0.10, (
            f"{name}: counted {counted:.4f} vs reported {reported}"
        )

    def test_metadata_does_not_affect_counting(self):
        arch = builtin_arch("AlexNet")
        stripped = arch_from_json(arch_to_json(arch))  # metadata dropped
        assert count_flops(stripped).total_per_image == count_flops(arch).total_per_image


class TestStructure:
    def test_alexnet_has_three_linear_layers(self):
        kinds = [n.kind for n in builtin_arch("AlexNet").nodes]
        assert kinds.count("linear") == 3

    def test_mobilenet_v1_uses_depthwise_groups(self):
        arch = builtin_arch("MobileNet_v1")
        depthwise = [
            n for n in arch.nodes
            if n.kind == "conv2d" and n.params.get("groups", 1) > 1
        ]
        assert len(depthwise) == 13

    def test_efficientnet_has_squeeze_excite(self):
        arch = builtin_arch("EfficientNet-b0")
        assert any(n.kind == "squeeze_excite" for n in arch.nodes)

    def test_shufflenets_shuffle_channels(self):
        for name in ("ShuffleNet_v1_1x", "ShuffleNet_v2_1x"):
            arch = builtin_arch(name)
            assert any(n.kind == "channel_shuffle" for n in arch.nodes), name

    def test_resnets_use_elementwise_add(self):
        for name in ("Resnet-18", "Resnet-34", "Resnet-50"):
            arch = builtin_arch(name)
            assert any(n.kind == "elementwise_add" for n in arch.nodes), name

    def test_densenet_concatenates(self):
        arch = builtin_arch("DenseNet121")
        assert sum(1 for n in arch.nodes if n.kind == "concat") >= 58
