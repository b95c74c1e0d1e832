"""Generated inputs at the command line boundary: records json, curve csv, graph json
(each sometimes with bytes that are not UTF-8) and numeric flags.

Whatever the input, a command ends in exit code 0, 1, 2 or 3, raises
nothing, prints no inf or nan, and reports a failure as one line on
stderr with nothing on stdout.
"""
import contextlib
import io
import json
import math
import random
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from algoeff.cli import main

from _generators import arch_file_text, random_arch

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

NON_FINITE_TOKEN = re.compile(r"\b(?:inf|infinity|nan)\b", re.IGNORECASE)

EDGE_NUMBERS = [
    0, 0.0, -1.0, 1, 3, 1e-10, 5e-324, 2.2250738585072014e-308, 1e300, 1e308,
    1.7976931348623157e308, 10**308, 10**400, math.inf, -math.inf, math.nan,
]

# values of a numeric json field: finite, huge, subnormal, Infinity, NaN, strings, bools;
# most are valid, so that a command gets as far as its arithmetic
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
JSON_NUMBERS = st.one_of(
    st.floats(min_value=1e8, max_value=1e22),
    POSITIVE,
    POSITIVE,
    st.sampled_from(EDGE_NUMBERS),
    st.floats(),
    st.sampled_from(["3", "", "Infinity", True, False]),
)

# the text of a numeric command line value
FLAG_NUMBERS = st.one_of(
    st.sampled_from(["2", "44", "84", "0", "-1", "1e308", "1e400", "5e-324", "1e-300",
                     "1.0000000000000002", "inf", "nan", "-inf", "abc"]),
    st.floats().map(repr),
)

DATES = st.sampled_from(["2012-06-01", "2014-09-17", "2017-04-17", "2019-05-28"])

# bytes that no UTF-8 text holds (a lone 0xff, a lead byte without its continuation,
# an encoded surrogate); most draws add none, so that a command gets past reading
NOT_UTF8 = st.sampled_from([b"", b"", b"", b"", b"\xff", b"\xc3", b"\xed\xa0\x80"])


def write(path, text, junk):
    """Write text to path as UTF-8 with junk spliced in at its middle."""
    data = text.encode()
    path.write_bytes(data[:len(data) // 2] + junk + data[len(data) // 2:])


@st.composite
def record_objects(draw, name):
    obj = {"name": name, "date": draw(DATES)}
    form = draw(st.sampled_from(["total", "triple", "both"]))
    if form != "triple":
        obj["total_compute"] = draw(JSON_NUMBERS)
    if form != "total":
        obj["flops_per_image"] = draw(JSON_NUMBERS)
        obj["epochs"] = draw(JSON_NUMBERS)
        if draw(st.booleans()):
            obj["images_per_epoch"] = draw(JSON_NUMBERS)
    if draw(st.booleans()):
        obj["backward_multiplier"] = draw(JSON_NUMBERS)
    return obj


@st.composite
def records_json(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    return json.dumps([draw(record_objects(f"r{i}")) for i in range(n)])


def _csv_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


@st.composite
def curve_csv(draw):
    """Mostly valid curves (rising epochs, accuracy in [0, 1], rising compute), some wild."""
    with_flops = draw(st.booleans())
    n = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()):
        epochs = sorted(draw(st.sets(st.integers(min_value=1, max_value=200),
                                     min_size=n, max_size=n)))
        accs = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                    min_size=n, max_size=n)))
        flops = sorted(draw(st.lists(POSITIVE, min_size=n, max_size=n)))
        rows = list(zip(epochs, accs, flops))
    else:
        rows = draw(st.lists(st.tuples(
            st.one_of(st.integers(min_value=-1, max_value=120), st.just(10**400)),
            st.one_of(st.floats(min_value=0.0, max_value=1.0), st.floats()),
            JSON_NUMBERS,
        ), min_size=n, max_size=n))
    header = "epoch,top5_accuracy" + (",cumulative_flops" if with_flops else "")
    lines = [header] + [
        ",".join(_csv_value(v) for v in (row if with_flops else row[:2])) for row in rows
    ]
    return "\n".join(lines) + "\n"


# huge and wrongly typed values for a graph file's fields and parameters
HUGE_INTS = [10**308, 10**310, 10**400, 2**1024, 10**4000]
WRONG_TYPES = [None, True, False, "3", "", 1.5, -1, 0, [], [1], {}, {"c": 3}]


@st.composite
def graph_json(draw):
    """A random valid graph, then most often one mutation of its json."""
    obj = json.loads(arch_file_text(random_arch(random.Random(draw(st.integers(0, 2**32 - 1))))))
    nodes = obj["nodes"]
    node = draw(st.sampled_from(nodes))
    mutation = draw(st.sampled_from([
        "none", "huge_param", "huge_input", "wrong_type", "name", "unknown_kind",
        "unknown_param", "dangling_input", "default_input",
    ]))
    if mutation == "huge_param":
        ints = [k for k, v in node["params"].items() if type(v) is int] or ["out_channels"]
        node["params"][draw(st.sampled_from(ints))] = draw(st.sampled_from(HUGE_INTS))
    elif mutation == "huge_input":
        obj["default_input"][draw(st.sampled_from("chw"))] = draw(st.sampled_from(HUGE_INTS))
    elif mutation == "wrong_type":
        where = draw(st.sampled_from(["top", "node", "param"]))
        if where == "top":
            target, key = obj, draw(st.sampled_from(["name", "default_input", "nodes", "output"]))
        elif where == "node":
            target, key = node, draw(st.sampled_from(["id", "kind", "params", "inputs"]))
        else:
            target, key = node["params"], draw(st.sampled_from(sorted(node["params"]) or ["p"]))
        target[key] = draw(st.sampled_from(WRONG_TYPES))
    elif mutation == "name":
        obj["name"] = draw(st.sampled_from([5, None, ["rand0"], {"name": "rand0"}, 1.5]))
    elif mutation == "unknown_kind":
        node["kind"] = draw(st.sampled_from(["conv3d", "", "Conv2d", "input"]))
    elif mutation == "unknown_param":
        node["params"][draw(st.sampled_from(["stide", "kernel", "units", ""]))] = 2
    elif mutation == "dangling_input":
        later = [n["id"] for n in nodes[nodes.index(node):]]
        node["inputs"] = [draw(st.sampled_from(["ghost", "", *later]))]
    elif mutation == "default_input":
        di = obj["default_input"]
        change = draw(st.sampled_from(["drop", "extra", "value"]))
        if change == "drop":
            del di[draw(st.sampled_from("chw"))]
        elif change == "extra":
            di["n"] = 1
        else:
            di[draw(st.sampled_from("chw"))] = draw(st.sampled_from(WRONG_TYPES + HUGE_INTS))
    return json.dumps(obj)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert not NON_FINITE_TOKEN.search(out), (argv, out)
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


FORMATS = st.sampled_from(["markdown", "csv", "json"])


@FUZZ
@given(records=records_json(), junk=NOT_UTF8, fmt=FORMATS)
def test_record_commands(records, junk, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.json"
        write(path, records, junk)
        for argv in (["factor", "r0", "r1"], ["decompose", "r0", "r1"],
                     ["doubling", "r1", "r0"], ["frontier"], ["trend"],
                     ["trend", "--all-records", "--method", "endpoints"],
                     ["report", "--figures"]):
            check(argv + ["--records", str(path), "--format", fmt])


@FUZZ
@given(curve=curve_csv(), curve_junk=NOT_UTF8, records=records_json(), records_junk=NOT_UTF8,
       images=FLAG_NUMBERS, multiplier=FLAG_NUMBERS, fmt=FORMATS)
def test_analyze(curve, curve_junk, records, records_junk, images, multiplier, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        curve_path = Path(tmp) / "run.csv"
        write(curve_path, curve, curve_junk)
        records_path = Path(tmp) / "records.json"
        write(records_path, records, records_junk)
        before = records_path.read_bytes()
        check(["analyze", "AlexNet", str(curve_path), "--threshold", "0.5",
               f"--images-per-epoch={images}", f"--backward-multiplier={multiplier}",
               "--format", fmt])
        check(["analyze", "AlexNet", str(curve_path), "--threshold", "0.5",
               "--date", "2020-01-01", "--append-records", str(records_path),
               f"--images-per-epoch={images}", "--format", fmt])
        if records_junk:
            assert records_path.read_bytes() == before


@settings(FUZZ, max_examples=150)
@given(factor=FLAG_NUMBERS, period=FLAG_NUMBERS,
       factors=st.lists(FLAG_NUMBERS, min_size=1, max_size=3), fmt=FORMATS)
def test_numeric_flags(factor, period, factors, fmt):
    check(["doubling", f"--factor={factor}", f"--period={period}", "--format", fmt])
    check(["effective", "--format", fmt, "--"] + factors)


@FUZZ
@given(graph=graph_json(), junk=NOT_UTF8, fmt=FORMATS)
def test_graph_commands(graph, junk, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        write(path, graph, junk)
        for argv in (["flops", str(path)], ["flops", str(path), "--per-layer"],
                     ["shapes", str(path)], ["analyze", str(path), "alexnet"]):
            check(argv + ["--format", fmt])
