"""Trace-zero symmetry kernel for block-form unitaries.

A symmetry is a self-adjoint unitary; its square is the identity.  Every
block unitary diag(w, w*) in U(2k) factors as s t s t where

    s = [[0, u], [u*, 0]],   t = [[0, I], [I, 0]],   u a square root of w,

and both s and t are symmetries of trace zero.  Since all trace-zero
symmetries in U(2k) are conjugate, the four factors become four conjugates
of any single reference symmetry; the certificate emitted here uses
diag(I_k, -I_k).

The certificate is in closed form: with w = F diag(e^{i alpha}) F* and
A = diag(F, F), A* s A and A* t A act on each pair (j, k + j) alone, as
[[0, conj(c_j)], [c_j, 0]] with c_j = e^{-i alpha_j / 2} and as the swap,
each b diag(1, -1) b* for one 2x2 block b.  No eigensolver runs on s, t or
the reference.

The classical count of 32 conjugates for an arbitrary unitary arises as 8
block-form factors times the 4 symmetries per block; this module realizes
the per-block kernel only.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .certificate import Certificate, CertRun, _assembled
from .errors import (
    DimensionError,
    NumericalDegeneracyError,
    ValidationError,
)
from .spectral import (
    Monomial,
    UnitaryRep,
    _is_central,
    as_unitary,
    diagonalize_normal,
)

__all__ = [
    "Symmetry",
    "block_symmetry_factors",
    "broise_kernel_certificate",
]

# involution invariants are tighter than generic unitarity
_HERM_TOL = 1e-10
_SQUARE_TOL = 1e-10
_TRACE_TOL = 1e-9


@dataclass(frozen=True)
class Symmetry:
    """A self-adjoint unitary of trace zero."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"symmetry must be square, got {m.shape}")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > _HERM_TOL:
            raise ValidationError(
                f"not self-adjoint: defect {herm:.3e} > {_HERM_TOL:g}"
            )
        sq = float(np.max(np.abs(m @ m - np.eye(m.shape[0]))))
        if sq > _SQUARE_TOL:
            raise ValidationError(
                f"square is not the identity: defect {sq:.3e} > {_SQUARE_TOL:g}"
            )
        tr = abs(complex(np.trace(m)))
        if tr > _TRACE_TOL:
            raise ValidationError(
                f"trace magnitude {tr:.3e} > {_TRACE_TOL:g}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]


def _dense_rep(x, what):
    """x validated once as a UnitaryRep of a dense matrix, which
    diagonalize_normal takes as it is and gives a dense frame."""
    rep = as_unitary(x.matrix if isinstance(x, Symmetry) else x, what)
    return rep if isinstance(rep.op, np.ndarray) else UnitaryRep(rep.matrix)


def block_symmetry_factors(w):
    """Four trace-zero symmetries in U(2k) whose product is diag(w, w*).

    Returns (s, t, s, t) with s = [[0, u], [u*, 0]] for the principal square
    root u of w, its eigenangles halved on the (-pi, pi] branch so that -1
    maps to +i, and t the block swap; s t = diag(u, u*) so the product
    telescopes to diag(w, w*).  Symmetry(s) checks u u* = I, and the product
    check bounds u u - w, since (s t)^2 = diag(u^2, u*^2).
    """
    rep = _dense_rep(w, "unitary")
    m = rep.matrix
    spec, frame = diagonalize_normal(rep)
    u = (frame * np.exp(0.5j * spec.angles)) @ frame.conj().T
    k = m.shape[0]
    zero = np.zeros((k, k), dtype=complex)
    eye = np.eye(k, dtype=complex)
    s = Symmetry(np.block([[zero, u], [u.conj().T, zero]]))
    t = Symmetry(np.block([[zero, eye], [eye, zero]]))
    block = np.block([[m, zero], [zero, m.conj().T]])
    prod = s.matrix @ t.matrix @ s.matrix @ t.matrix
    drift = float(np.max(np.abs(prod - block)))
    if drift > 1e-9:
        raise NumericalDegeneracyError(f"factor product drift {drift:.3e}")
    return s, t, s, t


def broise_kernel_certificate(w):
    """Write diag(w, w*) as four conjugates of the trace-zero symmetry
    diag(I_k, -I_k): one run of four steps of k 2x2 blocks (see the module
    docstring), with budget exactly 4, which must pass the product check,
    else NumericalDegeneracyError.  A central target yields a certificate
    with no runs if that passes the check.  Only w is diagonalized; the base
    and its frame are Monomials.  All trace-zero symmetries of U(2k) are
    conjugate, so the fixed reference loses nothing.
    """
    rep = _dense_rep(w, "unitary")
    m = rep.matrix
    k = m.shape[0]
    n = 2 * k
    zero = np.zeros((k, k), dtype=complex)
    target = np.block([[m, zero], [zero, m.conj().T]])
    # w = F diag(e^{i alpha}) F* gives target = A diag(e^{i phi}) A* with
    # A = diag(F, F) and phi = (alpha, -alpha)
    spec, f = diagonalize_normal(rep)
    aframe = np.block([[f, zero], [zero, f]])
    # P sends 2j to j and 2j + 1 to k + j; as the base frame it makes
    # base_angles (0, pi) on every pair (2j, 2j + 1)
    perm = np.arange(n).reshape(2, k).T.ravel()
    base = Monomial(np.arange(n), np.r_[np.ones(k), -np.ones(k)])
    bframe = Monomial(perm, np.ones(n))

    def certificate(runs, metadata):
        params = {"m": None, "s": None, "n": n}
        return Certificate(target, base, aframe, bframe, np.tile([0.0, np.pi], k),
                           np.r_[spec.angles, -spec.angles], runs, "broise_kernel", params,
                           {"construction": "stst", "square_root": "principal", **metadata})

    # on the pair P sends to (j, k + j), A* s A is b_s diag(1, -1) b_s* and
    # A* t A, the swap, is b_t diag(1, -1) b_t*
    c = np.exp(-0.5j * spec.angles)
    b_s = np.stack((np.ones_like(c), np.ones_like(c), c, -c), axis=-1) / math.sqrt(2.0)
    b_t = np.tile(np.array([1.0, 1.0, 1.0, -1.0]) / math.sqrt(2.0), (k, 1))
    run = CertRun(perm, np.arange(0, n, 2), [b_s, b_t, b_s, b_t], [1] * 4)
    trivial = certificate((), {"trivial_target": True}) if _is_central(spec.angles) else None
    return _assembled(trivial, lambda: certificate((run,), {}))
