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
    as_unitary,
    haar_unitary,
    profile_mean,
    proj_distance,
    projective_one_norm,
    projective_profile,
    spectrum_of,
    two_norm,
)

__all__ = [
    "aux_inequality_check",
    "commutator_norm_search",
    "cyclic_commutator_partner",
    "llbound_diagnostic",
]

_SQRT2 = math.sqrt(2.0)

# soft threshold from the II_1 argument; matrices embed trace-compatibly so
# the ratio is expected to stay under it, but failures are reported, not raised
LL_RATIO_BOUND = 192.0


def _cycle_matrix(n):
    m = np.zeros((n, n), dtype=complex)
    m[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return m


def cyclic_commutator_partner(u):
    """Block partner (v, lam) whose commutator with diag(u,u,u) cages u.

    v = diag(cycle, cycle^{-1}, 1_n) in U(3n) with exact 0/1 entries; lam is
    the conjugate of the last eigenvalue in u's optimal ordering, the phase
    at which the singular cage bounds mu_i(1 - lam*u) by the ordered gaps.
    """
    lam, order = _optimal_phase(spectrum_of(u))
    n = order.n
    cyc = _cycle_matrix(n)
    v = np.zeros((3 * n, 3 * n), dtype=complex)
    v[:n, :n] = cyc
    v[n : 2 * n, n : 2 * n] = cyc.conj().T
    v[2 * n :, 2 * n :] = np.eye(n)
    return v, lam


def _optimal_phase(spec):
    """The partner phase lam of a spectrum, with the optimal ordering it is
    read from."""
    if spec.n < 2:
        raise DomainError(f"need at least 2 eigenvalues, got {spec.n}")
    order = optimalize(spec)
    return complex(np.exp(-1j * order.angles[-1])), order


def aux_inequality_check(u):
    """Per-index report comparing mu_i(1 - lam*u) to sqrt(2)*ell_i([U, v]).

    The commutator of U = diag(u,u,u) with the cyclic partner v is diagonal,
    so its projective profile in U(3n) is read off its 3n eigenvalues: the
    consecutive ratios e^{i a_k} conj(e^{i a_(k-1)}) of the optimal ordering
    (cyclically), their conjugates and n ones.  Reports lhs, rhs and
    slack = rhs - lhs for i = 0..n-2.  Negative slack beyond roundoff
    indicates an implementation bug, not a tight input.
    """
    lam, order = _optimal_phase(spectrum_of(u))
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


def commutator_norm_search(u, trials=32, seed=0):
    """Best-effort search for a large commutator, no pass/fail contract.

    Maximizes the two-norm of 1 - [u, v] over random v and reports how the
    doubled maximum compares against inf_lam |1 - lam*u|_2.
    """
    rep = as_unitary(u)
    m = rep.matrix
    n = rep.n
    if trials < 1:
        raise DomainError("need at least one trial")
    target = proj_distance(np.eye(n), m)
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=complex)
    best = 0.0
    for _ in range(trials):
        g = haar_unitary(n, rng).matrix
        c = m @ g @ m.conj().T @ g.conj().T
        best = max(best, two_norm(eye - c))
    report = {
        "trials": int(trials),
        "achieved": float(best),
        "doubled": float(2.0 * best),
        "target": float(target),
    }
    if target <= 1e-12:
        report["status"] = "degenerate"
        report["ratio"] = None
    else:
        report["status"] = "ok"
        report["ratio"] = float(2.0 * best / target)
    return report
