"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from normgen.spectral import as_operator


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


@pytest.fixture
def step_conjugator():
    """conjugator(cert, i), the dense conjugator g = A @ P @ Y @ B* of step i
    of a certificate, formed from its stored frames, perm and blocks as
    (B @ (A @ P @ Y)*)*."""

    def conjugator(cert, i):
        st = cert.steps[i]
        y = np.eye(cert.n, dtype=complex)
        for offset, b in zip(st.offsets.tolist(), st.blocks):
            y[offset : offset + b.shape[0], offset : offset + b.shape[0]] = b
        py = np.empty_like(y)
        py[st.perm] = y
        g = as_operator(cert.aframe).apply(py)
        return as_operator(cert.bframe).apply(g.conj().T).conj().T

    return conjugator
