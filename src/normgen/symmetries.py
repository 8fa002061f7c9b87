"""Trace-zero symmetry kernel for block-form unitaries.

A symmetry is a self-adjoint unitary; its square is the identity.  Every
block unitary diag(w, w*) in U(2k) factors as s t s t where

    s = [[0, u], [u*, 0]],   t = [[0, I], [I, 0]],   u a square root of w,

and both s and t are symmetries of trace zero.  Since all trace-zero
symmetries in U(2k) are conjugate, the four factors become four conjugates
of any single reference symmetry, which is the certificate emitted here.
The classical count of 32 conjugates for an arbitrary unitary arises as 8
block-form factors times the 4 symmetries per block; this module realizes
the per-block kernel only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NumericalDegeneracyError,
    PreconditionError,
    ValidationError,
)
from .generation import Certificate, CertStep, product_check
from .spectral import (
    UnitaryRep,
    as_unitary,
    diagonalize_normal,
)

__all__ = [
    "Symmetry",
    "block_symmetry_factors",
    "broise_kernel_certificate",
    "sqrt_unitary",
    "symmetry_conjugator",
]

# involution invariants are tighter than generic unitarity
_HERM_TOL = 1e-10
_SQUARE_TOL = 1e-10
_TRACE_TOL = 1e-9


@dataclass(frozen=True)
class Symmetry:
    """A self-adjoint unitary, flagged trace-zero by default."""

    matrix: np.ndarray
    trace_zero: bool = True

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
        if self.trace_zero:
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


def _as_matrix(x, what="matrix"):
    if isinstance(x, Symmetry):
        return x.matrix
    return as_unitary(x, what).matrix


def sqrt_unitary(w):
    """Principal square root: halve the eigenangles on the (-pi, pi] branch.

    Returns a UnitaryRep u with u @ u equal to w up to diagonalization
    residual; eigenvalue -1 maps to +i.
    """
    m = _as_matrix(w, "unitary")
    spec, frame = diagonalize_normal(m)
    half = np.exp(0.5j * spec.angles)
    root = (frame * half[None, :]) @ frame.conj().T
    drift = float(np.max(np.abs(root @ root - m)))
    if drift > 1e-9:
        raise NumericalDegeneracyError(
            f"square root reconstruction drift {drift:.3e}"
        )
    return UnitaryRep(root)


def block_symmetry_factors(w):
    """Four trace-zero symmetries in U(2k) whose product is diag(w, w*).

    Returns (s, t, s, t) with s = [[0, u], [u*, 0]] for the principal square
    root u of w and t the block swap; s t = diag(u, u*) so the product
    telescopes to diag(w, w*).
    """
    m = _as_matrix(w, "unitary")
    k = m.shape[0]
    u = sqrt_unitary(m).matrix
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


def _involution_frame(m):
    """Eigenvector frame of a symmetry, +1 block first, phases pinned.

    Each column is normalized so its largest-modulus entry is real positive,
    the same convention the walk conjugators use.
    """
    n = m.shape[0]
    vals, vecs = np.linalg.eigh(m)
    plus = int(np.count_nonzero(vals > 0.0))
    if n % 2 == 1 or plus != n - plus:
        raise PreconditionError(
            "not in the trace-zero conjugacy class: eigenvalue multiplicities "
            f"({plus}, {n - plus}) in dimension {n}"
        )
    order = np.argsort(-vals, kind="stable")
    frame = vecs[:, order]
    for j in range(n):
        col = frame[:, j]
        k = int(np.argmax(np.abs(col)))
        ph = col[k] / abs(col[k])
        frame[:, j] = col * ph.conjugate()
    return frame


def symmetry_conjugator(s1, s2):
    """Unitary g with g @ s1 @ g* = s2 for trace-zero symmetries s1, s2.

    Both inputs must be symmetries with eigenvalue multiplicities (n/2, n/2);
    odd dimension or unbalanced multiplicities are a different conjugacy
    class and are rejected.
    """
    a = Symmetry(_as_matrix(s1, "symmetry"), trace_zero=False).matrix
    b = Symmetry(_as_matrix(s2, "symmetry"), trace_zero=False).matrix
    if a.shape != b.shape:
        raise DimensionError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    g = _involution_frame(b) @ _involution_frame(a).conj().T
    drift = float(np.max(np.abs(g @ a @ g.conj().T - b)))
    if drift > 1e-9:
        raise NumericalDegeneracyError(f"conjugation drift {drift:.3e}")
    return g


def broise_kernel_certificate(w, reference=None):
    """Write diag(w, w*) as four conjugates of one trace-zero symmetry.

    The four s t s t factors are each moved onto the reference symmetry
    (default diag(I_k, -I_k)), giving a certificate with budget exactly 4.
    A projectively trivial target yields an empty step list.
    """
    m = _as_matrix(w, "unitary")
    k = m.shape[0]
    n = 2 * k
    if reference is None:
        ref = Symmetry(np.diag(np.r_[np.ones(k), -np.ones(k)]).astype(complex))
    elif isinstance(reference, Symmetry):
        ref = Symmetry(reference.matrix)
    else:
        ref = Symmetry(_as_matrix(reference, "reference"))
    if ref.n != n:
        raise DimensionError(
            f"reference must live in U({n}), got dimension {ref.n}"
        )
    zero = np.zeros((k, k), dtype=complex)
    target = np.block([[m, zero], [zero, m.conj().T]])
    bframe = _involution_frame(ref.matrix)
    # w = F diag(e^{i alpha}) F* gives target = A diag(e^{i phi}) A* with
    # A = diag(F, F) and phi = (alpha, -alpha)
    spec, f = diagonalize_normal(m)
    aframe = np.block([[f, zero], [zero, f]])

    def certificate(steps, metadata):
        return Certificate(
            target=target,
            base=ref.matrix,
            aframe=aframe,
            bframe=bframe,
            base_angles=np.r_[np.zeros(k), np.full(k, np.pi)],
            steps=steps,
            claimed_budget=4,
            theorem="broise_kernel",
            params={"m": None, "s": None, "n": n},
            metadata={"construction": "stst", "square_root": "principal",
                      **metadata},
            target_angles=np.r_[spec.angles, -spec.angles],
        )

    trivial = certificate((), {"trivial_target": True})
    if product_check(trivial)[0]:
        return trivial
    # with B the reference's involution frame, the conjugator
    # symmetry_conjugator(ref, f) is frame(f) @ B*: each step is the one
    # dense block A* @ frame(f), the degenerate case of the factored form,
    # so that its conjugator A @ A* @ frame(f) @ B* is that one
    blocks = [aframe.conj().T @ _involution_frame(f.matrix)
              for f in block_symmetry_factors(m)]
    return certificate(tuple(CertStep(np.arange(n), ((0, b),), 1) for b in blocks), {})
