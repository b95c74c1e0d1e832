"""How a JSON input's text is read: graphs, records and comparisons.

Each loader passes its own error type and the text that leads its
messages, so a file that is not JSON keeps its loader's wording.

The parse-twice rule: a graph or records loader parses with an object
hook that builds each node or record as the parser closes its object,
so the parsed objects are freed during the parse and never all alive
together. The hook may build an object where none belongs, which would
then be worded as built, so ``load`` parses a text with any error again
without the hook, and every message comes from the plain parse tree. A
valid text is parsed once.
"""
import json


def parse(text: str, lead: str, error: type[Exception], object_hook=None):
    """json.loads(text) with object_hook; text that is not JSON raises error, led by lead."""
    try:
        return json.loads(text, object_hook=object_hook)
    except ValueError as e:  # also a json int past the int-to-str digit limit
        raise error(f"{lead}: {e}") from None
    except RecursionError:
        raise error(f"{lead}: nested too deeply") from None


def load(text: str, lead: str, error: type[Exception], object_hook, build):
    """build of text's parse tree, parsed with object_hook and, after a ValueError, without it."""
    try:
        return build(parse(text, lead, error, object_hook))
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
