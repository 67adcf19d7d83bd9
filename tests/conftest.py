import numpy as np
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


class _RecordingNumpy:
    """numpy, except that np.matmul records the multiply-adds of each product."""

    def __init__(self):
        self.products = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.products.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return np.matmul(a, b, **kwargs)


@pytest.fixture
def matmul_products(monkeypatch):
    """Call with a module: returns the list of multiply-adds of each np.matmul
    that module makes from then on."""

    def record(module):
        recording = _RecordingNumpy()
        monkeypatch.setattr(module, "np", recording)
        return recording.products

    return record
