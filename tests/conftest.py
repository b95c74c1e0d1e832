"""Fixtures shared by several test modules."""
import sys

import pytest

import algoeff.archflops.graph as graph_mod


def _rule_calls(monkeypatch, rule: str) -> list[str]:
    """Wrap one rule of every kind; the wrapper reads the node from the calling frame."""
    calls: list[str] = []

    def spying(wrapped):
        def spy(*args):
            calls.append(sys._getframe(1).f_locals["node"].id)
            return wrapped(*args)
        return spy

    for kind in graph_mod._KINDS.values():
        monkeypatch.setattr(kind, rule, spying(getattr(kind, rule)))
    return calls


@pytest.fixture
def node_shape_calls(monkeypatch) -> list[str]:
    """Ids of the nodes whose shape rule runs during the test, in order.

    A rule sees only parameters and shapes, so the walk's own node is read.
    """
    return _rule_calls(monkeypatch, "shape")


@pytest.fixture
def node_mac_calls(monkeypatch) -> list[str]:
    """Ids of the nodes whose mac rule runs during the test, in order (see node_shape_calls)."""
    return _rule_calls(monkeypatch, "macs")
