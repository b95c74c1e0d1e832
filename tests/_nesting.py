"""The nesting depth where calling a JSON loader's object hook first overflows the stack.

    python tests/_nesting.py

A graph or records loader parses its text with an object hook, and the
parser calls the hook as deep as it goes. For a text of an empty object
inside ``depth`` arrays there is one depth where calling the hook raises
RecursionError although a plain parse, started in the same frame,
passes. The depth differs by interpreter. ``scan`` finds it by
bisection and checks the loader at each depth from just below it to just
past the depth where the plain parse fails too: the loader must give the
plain parse's message, so it parses twice (hooked, then plain) and gives
the message of a shallow text where the plain parse passes, and says
"nested too deeply" after one parse where it fails. The script runs the
scan on both loaders and exits 1 on any problem. It needs no pytest, so
``golden_interpreters.py`` runs it under each interpreter it is given;
pytest does not collect this file: its name does not start with ``test_``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

# past every interpreter's limit (3.13's C recursion limit is 10,000)
_DEEPEST = 1 << 17


def nested(depth: int) -> str:
    """An empty object inside depth arrays."""
    return "[" * depth + "{}" + "]" * depth


def probe(load, depth: int) -> tuple[str, list, bool | None]:
    """(message, parses, plain) of load(nested(depth)).

    message: the text of the error load raised, or its type's name if it
    is no ValueError. parses: per json.loads call, (hooked, raised), where
    raised is None, "hook" for a RecursionError that does not mention JSON
    or "parser" for one that does. plain: whether a plain parse, started
    in the frame of the first hooked call, passes; None without one. Every
    call goes through one wrapper, so each parse starts in the same frame.
    """
    parses: list[tuple[bool, str | None]] = []
    plain: list[bool] = []
    loads = json.loads

    def counted(text, **kwargs):
        hooked = kwargs.get("object_hook") is not None
        if hooked and not plain:
            try:
                loads(text)
                plain.append(True)
            except RecursionError:
                plain.append(False)
        try:
            tree = loads(text, **kwargs)
        except RecursionError as e:
            parses.append((hooked, "parser" if "JSON" in str(e) else "hook"))
            raise
        parses.append((hooked, None))
        return tree

    json.loads = counted
    try:
        load(nested(depth))
        message = "no error"
    except ValueError as e:
        message = str(e)
    except Exception as e:  # noqa: BLE001 - a scan reports every outcome
        message = type(e).__name__
    finally:
        json.loads = loads
    return message, parses, plain[0] if plain else None


def scan(load, lead: str) -> tuple[int | None, list[str]]:
    """(depth, problems): the first depth where calling load's hook alone overflows, and
    each way load's messages or parses differ from the plain parse's around it.

    Every probe runs from this frame: where Python frames count toward the
    limit, as in 3.11, the boundary moves with the depth of the caller.
    """
    if probe(load, _DEEPEST)[1][:1] != [(True, "parser")]:
        return None, [f"a text nested {_DEEPEST} deep does not overflow the hooked parse"]
    lo, hi = 1, _DEEPEST  # the hooked parse passes at lo and overflows at hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if probe(load, mid)[1][0][1] is None else (lo, mid)
    first, hi = lo, _DEEPEST  # the plain parse passes at lo and fails at hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if probe(load, mid)[2] else (lo, mid)
    structural = probe(load, 2)[0]
    problems, boundary = [], None
    # the first call of a hook at a depth may overflow where later calls do
    # not, so each depth's want follows its own hooked parse
    for depth in range(first - 1, hi + 2):
        message, parses, plain = probe(load, depth)
        if plain:
            hooked = (True, "hook") if parses[:1] == [(True, "hook")] else (True, None)
            if boundary is None and hooked[1]:
                boundary = depth
            want = structural, [hooked, (False, None)]
        else:
            want = f"{lead}: nested too deeply", [(True, "parser")]
        if (message, parses) != want:
            problems.append(f"at {depth} (plain parse {'passes' if plain else 'fails'}): "
                            f"{message!r} after parses {parses}, not {want[0]!r} after {want[1]}")
    if boundary is None:
        problems.append(f"no depth from {first - 1} to {hi + 1} overflows in calling the hook "
                        "alone")
    return boundary, problems


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from algoeff.archflops import arch_from_json
    from algoeff.trends import records_from_json

    failed = False
    for load, lead in ((arch_from_json, "not valid JSON"),
                       (records_from_json, "records file is not valid json")):
        boundary, problems = scan(load, lead)
        print(f"{load.__name__}: hook-call boundary at depth {boundary}, "
              f"{'ok' if not problems else f'{len(problems)} problem(s)'}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
