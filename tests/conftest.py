import pytest

from qaoa_mimo import simulator


@pytest.fixture
def diagonal_builds(monkeypatch):
    """Models passed to simulator.hamiltonian_diagonal, one entry per build."""
    calls = []
    build = simulator.hamiltonian_diagonal

    def counted(model, *args, **kwargs):
        calls.append(model)
        return build(model, *args, **kwargs)

    monkeypatch.setattr(simulator, "hamiltonian_diagonal", counted)
    return calls
