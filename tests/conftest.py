"""Fixtures shared by several test modules."""
import pytest

import algoeff.archflops.shapes as shapes_mod


@pytest.fixture
def node_shape_calls(monkeypatch) -> list[str]:
    """Ids of the nodes whose shape rule runs during the test, in order."""
    calls: list[str] = []
    real = shapes_mod._node_shape

    def counting(node, ins):
        calls.append(node.id)
        return real(node, ins)

    monkeypatch.setattr(shapes_mod, "_node_shape", counting)
    return calls
