"""Spectrum-preserving commutators and the length-vs-mean diagnostic.

Given a unitary u with optimally ordered eigenvalues, the commutator of
diag(u, u, u) with the block unitary diag(cycle, cycle^{-1}, 1) is diagonal
and its spectrum consists of the consecutive eigenvalue ratios of u, their
conjugates, and n ones.  Every projective singular value of 1 - lam*u is
then controlled by sqrt(2) times the matching value of the commutator,
which turns smallness of u's profile into smallness of a commutator.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .orderings import optimalize
from .spectral import (
    CircleSpectrum,
    profile_mean,
    projective_one_norm,
    projective_profile,
    spectrum_of,
)

__all__ = [
    "aux_inequality_check",
    "llbound_diagnostic",
]

_SQRT2 = math.sqrt(2.0)

# soft threshold from the II_1 argument; matrices embed trace-compatibly so
# the ratio is expected to stay under it, but failures are reported, not raised
LL_RATIO_BOUND = 192.0


def aux_inequality_check(u):
    """Per-index report comparing mu_i(1 - lam*u) to sqrt(2)*ell_i([U, v]).

    The commutator of U = diag(u,u,u) with the cyclic partner v is diagonal,
    so its projective profile in U(3n) is read off its 3n eigenvalues: the
    consecutive ratios e^{i a_k} conj(e^{i a_(k-1)}) of the optimal ordering
    (cyclically), their conjugates and n ones; lam is the conjugate of the
    ordering's last eigenvalue.  Reports lhs, rhs and slack = rhs - lhs for
    i = 0..n-2.  Negative slack beyond roundoff indicates an implementation
    bug, not a tight input.
    """
    spec = spectrum_of(u)
    if spec.n < 2:
        raise DomainError(f"need at least 2 eigenvalues, got {spec.n}")
    order = optimalize(spec)
    lam = complex(np.exp(-1j * order.angles[-1]))
    n = order.n
    eig = np.exp(1j * order.angles)
    ratios = np.angle(eig * np.roll(eig, 1).conj())
    comm = CircleSpectrum(np.concatenate([ratios, -ratios, np.zeros(n)]))
    prof = projective_profile(comm)
    mus = np.sort(np.abs(1.0 - lam * eig))[::-1]
    out = []
    for i in range(n - 1):
        lhs = float(mus[i])
        rhs = float(_SQRT2 * prof.values[i])
        out.append(
            {"index": i, "lhs": lhs, "rhs": rhs, "slack": rhs - lhs}
        )
    return out


def llbound_diagnostic(u):
    """Ratio of the projective one-norm to the profile mean, report-only.

    A central input has both quantities zero and reports "degenerate".
    """
    spec = spectrum_of(u)
    ell, _ = projective_one_norm(spec)
    mean = profile_mean(spec)
    report = {
        "ell_one_norm": float(ell),
        "profile_mean": float(mean),
        "bound": LL_RATIO_BOUND,
    }
    if mean <= 1e-12:
        report["status"] = "degenerate"
        report["ratio"] = None
        report["within_bound"] = None
    else:
        ratio = float(ell / mean)
        report["status"] = "ok"
        report["ratio"] = ratio
        report["within_bound"] = bool(ratio <= LL_RATIO_BOUND)
    return report
