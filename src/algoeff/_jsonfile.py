"""How a JSON input's text is read: graphs, records and comparisons.

Each loader passes its own error type and the text that leads its
messages, so a file that is not JSON keeps its loader's wording.

The parse-twice rule: a graph or records loader parses with an object
hook that builds each node or record as the parser closes its object,
so the parsed objects are freed during the parse and never all alive
together. A hook never raises: it leaves an object it cannot build as
parsed. It may build an object where none belongs, so when the loader's
checker raises, or calling the hook overflows the stack where the plain
parse would not, ``load`` parses the text again without the hook from
the stack depth of the first parse, and every message comes from the
plain parse tree. Any other error of the parser (a syntax error, an int
past the int-to-str digit limit, nesting too deep) raises at once, as
the plain parse's own. A valid text is parsed once.
"""
import json


class _HookRaised(Exception):
    """Calling the object hook overflowed: ``load`` parses the text again without it."""


def parse(text: str, lead: str, error: type[Exception], object_hook=None):
    """json.loads(text) with object_hook; text that is not JSON raises error, led by lead.

    A RecursionError not from decoding JSON came from calling the hook: it becomes _HookRaised.
    """
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as e:
        if isinstance(e, RecursionError):
            if object_hook is not None and "JSON" not in str(e):
                raise _HookRaised from None
            raise error(f"{lead}: nested too deeply") from None
        raise error(f"{lead}: {e}") from None  # also a json int past the int-to-str digit limit


def load(text: str, lead: str, error: type[Exception], object_hook, build):
    """build of text's parse tree, parsed with object_hook and, if it or build raised, without it."""
    try:
        tree = parse(text, lead, error, object_hook)
    except _HookRaised:
        pass
    else:
        try:
            return build(tree)
        except ValueError:
            pass
    return build(parse(text, lead, error))


def array(data, noun: str, error: type[Exception]) -> list:
    """data, which must be a list; otherwise error names the file by its noun."""
    if not isinstance(data, list):
        raise error(f"{noun} file must contain a json array")
    return data


def check_object(obj, where: str, known: frozenset, required: tuple,
                 error: type[Exception]) -> None:
    """Raise error, led by where, unless obj is a dict of known fields with every required one."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected an object, got {type(obj).__name__}")
    if not known.issuperset(obj):
        raise error(f"{where}: unknown fields {sorted(set(obj) - known)}")
    for req in required:
        if req not in obj:
            raise error(f"{where}: missing required field {req!r}")
