"""Fixtures shared by several test modules."""
import sys

import pytest

import algoeff.archflops.graph as graph_mod


@pytest.fixture
def node_shape_calls(monkeypatch) -> list[str]:
    """Ids of the nodes whose shape rule runs during the test, in order.

    Each kind's shape rule is wrapped; a rule sees only parameters and
    input shapes, so the wrapper reads the node from the calling walk.
    """
    calls: list[str] = []

    def counting(rule):
        def shape(params, ins):
            calls.append(sys._getframe(1).f_locals["node"].id)
            return rule(params, ins)
        return shape

    for kind in graph_mod._KINDS.values():
        monkeypatch.setattr(kind, "shape", counting(kind.shape))
    return calls
