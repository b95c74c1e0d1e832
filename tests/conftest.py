"""Fixtures shared by several test modules."""
import pytest

import algoeff.archflops.graph as graph_mod


@pytest.fixture
def node_shape_calls(monkeypatch) -> list[str]:
    """Ids of the nodes whose shape rule runs during the test, in order."""
    calls: list[str] = []
    real = graph_mod._node_shape

    def counting(node, params, ins):
        calls.append(node.id)
        return real(node, params, ins)

    monkeypatch.setattr(graph_mod, "_node_shape", counting)
    return calls
