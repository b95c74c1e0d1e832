"""Golden pin: the exact bytes of the usual commands on bundled data.

Each command runs through cli.main; the sha256 of its stdout and of its
stderr, and its exit code, must equal the pinned values. A refactor that
promises byte-identical output keeps this file unchanged. When output
changes on purpose, hash the new output and update the table in the
same change, saying why.
"""
import hashlib

import pytest

from algoeff.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = [
    ("report", 0, "d36dc09e63c738a624b032f55262fb2f4460d320296efe176051b5e6c40776a5", EMPTY),
    ("report --format json", 0, "b1a0a6f5ad087c376adc0b25faa5b697e67a1b2d634b754248b5e36d4a98e916", EMPTY),
    ("report --format csv", 0, "53f7aa48bf4a25f156c8406857ffd054d26b06b97bcb0c81e9d3350fa6f42462", "0d0b40c6bd0ed3473882320fb2761d8a7ac0174d9ee0451cc42b20a4bd06421d"),
    ("report --figures", 0, "f09eec93cc8fce1a706944eb145e9217582c1fceb2987d50a2bcbc0afaf464e0", EMPTY),
    ("doubling", 0, "b68cc9f4dca6fe3a58a1bc5e08489b0e4dd55d6b7bde8d1737e5e60d6d525241", EMPTY),
    ("doubling AlexNet EfficientNet-b0", 0, "12edd0e167da5d12ee9dc500b4c0ad46de062251925108ad00594a15e54d4fd3", EMPTY),
    ("doubling --factor 44 --period 84", 0, "0dd6c2ee69ec51f1b73af079869f164810f80610b7f04738a233b920ece1b975", EMPTY),
    ("frontier", 0, "4f97c0cab8707d20df321dac8ad30c9cfa9803494bc6f91e82062e121f329f04", EMPTY),
    ("trend", 0, "c462aaca29bafb0b686f840afdbdd26b7114ee9201f347a09845df855455231e", EMPTY),
    ("factor AlexNet EfficientNet-b0", 0, "79c7e2d97628d4567cbfa24e8514a9398515408334fbedad53bfeb38c410cfca", EMPTY),
    ("decompose AlexNet EfficientNet-b0", 0, "77bef933703eb47146fdc8cb28b06e157407267625b3fef7bc7004fbf18f1bf5", EMPTY),
    ("effective", 0, "c979a0051fc0377691bfe00ce51b38fe877bacf7db287115a5c9334255b083e2", EMPTY),
    ("flops AlexNet --per-layer", 0, "27f7ec72250414fbbfeb3c54c83d16f084d753285c901688c5fbddaf78c66e89", EMPTY),
    ("analyze AlexNet alexnet", 0, "23fd8acfe25bbfc5e8ecec9745696b41bd805e269fa71cb754732b10a32cbf44", EMPTY),
    ("analyze Resnet-50 resnet50 --unit raw --format csv", 0, "94e6c222e8f8334647a27a1ef50dd43fc0bd4bfc225b80f9837bdc18adfd067e", EMPTY),
    ("analyze GoogLeNet googlenet --threshold 0.75 --format json", 0, "591906ca975abddea8cea5c9dae54fe3db7f67875d44093b7070dce05ad74e71", EMPTY),
    ("report --figures --format csv", 0, "029eb9161323ae5c90ade79fa62cea7d6748027a997de52bd311a6a9ae5f4c73", "0d0b40c6bd0ed3473882320fb2761d8a7ac0174d9ee0451cc42b20a4bd06421d"),
    ("shapes AlexNet", 0, "766deab0d7a6951fe4ff89a29f2dd33b6af6a50b43e52a237c6e3648494e2008", EMPTY),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv,code,out_sha,err_sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_pinned(capsys, argv, code, out_sha, err_sha):
    got = main(argv.split())
    captured = capsys.readouterr()
    assert (got, _sha(captured.out), _sha(captured.err)) == (code, out_sha, err_sha)

