"""How a JSON input's text is read: graphs, records and comparisons.

Each loader passes its own error type and the text that leads its
messages, so a file that is not JSON keeps its loader's wording.

The parse-twice rule: a graph or records loader parses with an object
hook that builds each node or record as the parser closes its object,
so the parsed objects are freed during the parse and never all alive
together. The hook may build an object where none belongs, which would
then be worded as built, so when the hook or the loader's checker
raises, ``load`` parses the text again without the hook, and every
message comes from the plain parse tree. Text the parser itself rejects
(a syntax error, an int past the int-to-str digit limit, nesting too
deep) raises at once, with the message the plain parse would give. A
valid text is parsed once.
"""
import json


class _HookRaised(Exception):
    """The object hook raised during a parse: ``load`` parses the text again without it."""


def _parser_raised(e: BaseException) -> bool:
    """Whether the json parser raised e itself, not the object hook it called.

    A hook's error passes through the hook's frame, so only the parser's
    own error has a json frame innermost. Calling the hook one level past
    the recursion limit also raises in a json frame, but only the parser
    says it was decoding JSON.
    """
    tb = e.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return (tb.tb_frame.f_globals.get("__name__", "").partition(".")[0] == "json"
            and not (isinstance(e, RecursionError) and "JSON" not in str(e)))


def parse(text: str, lead: str, error: type[Exception], object_hook=None):
    """json.loads(text) with object_hook; text that is not JSON raises error, led by lead.

    An error the hook raises becomes _HookRaised.
    """
    try:
        return json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as e:
        if object_hook is not None and not _parser_raised(e):
            raise _HookRaised from None
        if isinstance(e, RecursionError):
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
