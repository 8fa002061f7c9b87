"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of every np.linalg.eigh call made during the test."""
    calls = []
    inner = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
