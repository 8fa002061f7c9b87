"""Spectral profiles of unitary matrices, trace-normalized.

All norms here are normalized so the identity has one-norm and two-norm 1:
for an n x n matrix the one-norm is the mean of the singular values and the
two-norm is the Frobenius norm divided by sqrt(n).

The central quantity is the projective profile of a unitary u: for each index
i, the infimum over unit scalars lam of the (i+1)-th largest singular value of
1 - lam*u.  For unitary u with eigenvalue angles a_j, the singular values of
1 - e^{it}u are 2|sin((t + a_j)/2)|, so everything reduces to chords on the
circle, where both projective quantities have closed forms:

* the (i+1)-th largest chord is at most r exactly when an arc of chord
  radius r around conj(lam) holds n - i eigenvalues, so the i-th projective
  value is the minimum over cyclic windows of n - i consecutive sorted
  angles of 2 sin(span / 4), attained at the window's midpoint;
* each chord term is concave in the phase between its zeros, so the
  projective one-norm is attained at a phase cancelling some eigenvalue:
  min_j mean_k |1 - e^{i(a_k - a_j)}|.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math

import numpy as np

from .config import EPS, TOL
from .errors import (
    DimensionError,
    NumericalDegeneracyError,
    ValidationError,
)

TWO_PI = 2.0 * math.pi


def canon_angle(x):
    """Map angles to the canonical branch (-pi, pi]."""
    if isinstance(x, (float, int, np.floating, np.integer)):
        # scalars skip the array machinery; Python's float % and np.mod
        # round alike, so both paths agree bit for bit
        r = float(x) % TWO_PI
        return r - TWO_PI if r > math.pi else r
    r = np.mod(np.asarray(x, dtype=float), TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, r)
    if np.ndim(x) == 0:
        return float(r)
    return r


def chord(delta):
    """Chordal distance on the circle: |1 - e^{i delta}|."""
    return np.abs(2.0 * np.sin(0.5 * np.asarray(delta, dtype=float)))


def _as_square(x, what="matrix"):
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionError(f"{what} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} has non-finite entries")
    return m


def unitarity_defect(m):
    """Max-norm of m m* - I."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj, what="matrix"):
    try:
        n = int(obj["n"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what} object: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise DimensionError(
            f"{what} parts must be {n}x{n}, got {re.shape} and {im.shape}"
        )
    # set the parts directly: re + 1j * im would turn an imaginary -0.0 into
    # +0.0 and break byte-identical JSON round trips
    out = np.empty((n, n), dtype=complex)
    out.real = re
    out.imag = im
    return out


@dataclass(frozen=True)
class UnitaryRep:
    """A validated unitary matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, "unitary")
        defect = unitarity_defect(m)
        if defect > TOL.unitarity:
            raise ValidationError(
                f"matrix is not unitary: defect {defect:.3e} > {TOL.unitarity:g}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]

    def to_json(self):
        return matrix_to_json(self.matrix)

    @classmethod
    def from_json(cls, obj):
        return cls(matrix_from_json(obj, "unitary"))


@dataclass(frozen=True)
class CircleSpectrum:
    """Eigenvalue angles of a unitary, canonicalized to (-pi, pi]."""

    angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if a.ndim != 1 or a.shape[0] == 0:
            raise DimensionError(f"angles must be a nonempty vector, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("angles must be finite")
        a = canon_angle(a)
        a.setflags(write=False)
        object.__setattr__(self, "angles", a)

    @property
    def n(self):
        return self.angles.shape[0]

    def to_unitary(self):
        return UnitaryRep(np.diag(np.exp(1j * self.angles)))

    def to_json(self):
        return {"angles": [float(a) for a in self.angles]}

    @classmethod
    def from_json(cls, obj):
        try:
            angles = obj["angles"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed spectrum object: {exc}") from exc
        return cls(np.asarray(angles, dtype=float))


@dataclass(frozen=True)
class SpectralProfile:
    """Non-increasing profile values, optionally with witness phases.

    kind is "mu" for plain singular value profiles and "ell" for projective
    ones; witnesses (unit scalars attaining each infimum) only accompany the
    latter.
    """

    kind: str
    values: np.ndarray
    witnesses: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in ("mu", "ell"):
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] == 0:
            raise DimensionError("profile needs at least one value")
        if np.any(v[1:] > v[:-1] + 1e-10):
            raise ValidationError("profile values must be non-increasing")
        if np.any(v < -1e-12):
            raise ValidationError("profile values must be nonnegative")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.witnesses is not None:
            w = np.asarray(self.witnesses, dtype=complex)
            if w.shape != v.shape:
                raise DimensionError("one witness phase per profile value")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "witnesses", w)

    @property
    def n(self):
        return self.values.shape[0]

    def to_json(self):
        out = {"kind": self.kind, "values": [float(v) for v in self.values]}
        if self.witnesses is not None:
            out["phases"] = [[float(w.real), float(w.imag)] for w in self.witnesses]
        return out

    @classmethod
    def from_json(cls, obj):
        try:
            kind = obj["kind"]
            values = np.asarray(obj["values"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed profile object: {exc}") from exc
        witnesses = None
        if "phases" in obj:
            pairs = np.asarray(obj["phases"], dtype=float)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValidationError("phases must be [re, im] pairs")
            witnesses = pairs[:, 0] + 1j * pairs[:, 1]
        return cls(kind, values, witnesses)


@dataclass(frozen=True)
class RankDistance:
    """Normalized rank k/n as an exact fraction."""

    k: int
    n: int

    def __post_init__(self):
        if not (0 <= self.k <= self.n) or self.n <= 0:
            raise ValidationError(f"bad rank pair {self.k}/{self.n}")

    def as_fraction(self):
        return Fraction(self.k, self.n)

    def __float__(self):
        return self.k / self.n

    def to_json(self):
        return {"num": self.k, "den": self.n}


# ---------------------------------------------------------------------------
# coercion helpers shared across modules


def as_unitary(u, what="unitary"):
    if isinstance(u, UnitaryRep):
        return u
    if isinstance(u, CircleSpectrum):
        return u.to_unitary()
    return UnitaryRep(_as_square(u, what))


def spectrum_of(u):
    """Eigenvalue angles of u; diagonalizes unless u already is a spectrum."""
    if isinstance(u, CircleSpectrum):
        return u
    spec, _ = diagonalize_normal(u)
    return spec


# ---------------------------------------------------------------------------
# plain singular value profiles


def singular_values(x):
    """Descending singular values of a square complex matrix."""
    m = _as_square(x)
    return np.linalg.svd(m, compute_uv=False)


def s_number(x, i):
    """(i+1)-th largest singular value; the profile is 1-indexed by rank."""
    s = singular_values(x)
    if not (0 <= i < s.shape[0]):
        raise IndexError(f"index {i} out of range for size {s.shape[0]}")
    return float(s[i])


def one_norm(x):
    """Trace-normalized trace norm: mean of the singular values."""
    return float(np.mean(singular_values(x)))


def two_norm(x):
    """Trace-normalized Hilbert-Schmidt norm."""
    m = _as_square(x)
    return float(np.linalg.norm(m) / math.sqrt(m.shape[0]))


def proj_distance(a, b):
    """Two-norm distance from a to the nearest unit multiple of b."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionError("shape mismatch")
    n = a.shape[0]
    na = np.linalg.norm(a) ** 2 / n
    nb = np.linalg.norm(b) ** 2 / n
    cross = abs(np.trace(a.conj().T @ b)) / n
    return math.sqrt(max(0.0, na + nb - 2.0 * cross))


def projective_residual(a, b):
    """Entrywise max of a - lam*b at the best unit phase lam.

    Unlike proj_distance this has no square-root floor near zero, so exact
    projective equality reports at machine precision.
    """
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionError("shape mismatch")
    # the trace and diagonal of b* @ a, in O(n^2)
    tr = np.vdot(b, a)
    if abs(tr) > 1e-8:
        lam = tr / abs(tr)
    else:
        d = np.einsum("ij,ij->j", b.conj(), a)
        k = int(np.argmax(np.abs(d)))
        lam = d[k] / abs(d[k]) if abs(d[k]) > 0 else 1.0
    return float(np.max(np.abs(a - lam * b)))


# ---------------------------------------------------------------------------
# closed-form projective profile and one-norm


def _doubled_sorted(angles):
    """Sorted angles followed by the same angles one turn later, so every
    cyclic window of consecutive eigenvalues is a contiguous slice."""
    a = np.sort(np.asarray(angles, dtype=float))
    return np.concatenate((a, a + TWO_PI))


def _narrowest_window(ext, width):
    """Projective value and witness phase for windows of `width` eigenvalues.

    The value is 2 sin(span / 4) for the narrowest cyclic window; the witness
    conj(e^{i mid}) centers the arc on the window's midpoint.
    """
    n = ext.shape[0] // 2
    spans = ext[width - 1 : width - 1 + n] - ext[:n]
    j = int(np.argmin(spans))
    mid = 0.5 * (ext[j] + ext[j + width - 1])
    value = 2.0 * math.sin(0.25 * float(spans[j]))
    return value, complex(math.cos(mid), -math.sin(mid))


def projective_profile(u):
    """Full projective singular value profile of a unitary, with witnesses."""
    ext = _doubled_sorted(spectrum_of(u).angles)
    n = ext.shape[0] // 2
    vals = np.empty(n)
    wits = np.empty(n, dtype=complex)
    for i in range(n):
        vals[i], wits[i] = _narrowest_window(ext, n - i)
    return SpectralProfile("ell", vals, wits)


def projective_s_number(u, i):
    """i-th projective singular value of u and a phase attaining it."""
    spec = spectrum_of(u)
    n = spec.n
    if not (0 <= i < n):
        raise IndexError(f"index {i} out of range for size {n}")
    return _narrowest_window(_doubled_sorted(spec.angles), n - i)


def projective_one_norm(u):
    """min over unit lam of the trace-normalized one-norm of 1 - lam*u."""
    a = np.sort(spectrum_of(u).angles)
    s, c = np.sin(0.5 * a), np.cos(0.5 * a)
    # exclusive prefix sums; for sorted a in (-pi, pi] the sum over k of
    # |sin((a_k - a_j)/2)| splits at j into two sums with fixed signs
    ps = np.cumsum(s) - s
    pc = np.cumsum(c) - c
    totals = c * (s.sum() - 2.0 * ps) - s * (c.sum() - 2.0 * pc)
    j = int(np.argmin(totals))
    # evaluate at the chosen eigenvalue directly, so the returned phase
    # attains the returned value without prefix-sum rounding
    value = float(np.mean(chord(a - a[j])))
    return value, complex(math.cos(a[j]), -math.sin(a[j]))


def profile_mean(u):
    """Mean of the projective profile values."""
    prof = projective_profile(u)
    return float(np.mean(prof.values))


def projective_rank(u):
    """Least s with all profile values from index s on below the rank cutoff.

    For a unitary the last profile value always vanishes (some phase lands on
    an eigenvalue), so the result is at most n-1.
    """
    return rank_of_profile(projective_profile(u).values)


def rank_of_profile(values):
    """Projective rank read off already computed profile values."""
    above = np.nonzero(np.asarray(values) > TOL.rank)[0]
    return int(above[-1]) + 1 if above.shape[0] else 0


def rank_distance(x, y):
    """Normalized rank of x - y, counting singular values above the cutoff."""
    a = _as_square(x)
    b = _as_square(y)
    if a.shape != b.shape:
        raise DimensionError("shape mismatch")
    s = np.linalg.svd(a - b, compute_uv=False)
    k = int(np.count_nonzero(s > TOL.rank))
    return RankDistance(k, a.shape[0])


# ---------------------------------------------------------------------------
# diagonalization


def _separate_mixed_pairs(w, mw, cut):
    """Jacobi sweeps on the pairs that one Hermitian combination mixed.

    The combination cos(t) Re u + sin(t) Im u maps e^{i a} and e^{i b} to
    the same value when a + b = 2t, and eigh may then mix their eigenvectors
    by up to eps over the small gap, which leaves d = w* u w coupling the
    pair beyond rounding.  Each sweep takes the strongest couplings above
    cut on disjoint pairs and rotates each pair by the 2 x 2 unitary that
    diagonalizes its block of the normal matrix d, applied to w and to
    mw = u w alike.
    """
    d = w.conj().T @ mw
    for _ in range(3):
        off = np.abs(np.triu(d, 1))
        pairs = np.argwhere(off > cut)
        if pairs.shape[0] == 0:
            break
        used, chosen = set(), []
        for a, b in pairs[np.argsort(-off[pairs[:, 0], pairs[:, 1]])].tolist():
            if a not in used and b not in used:
                used.update((a, b))
                chosen.append((a, b))
        a, b = np.array(chosen).T
        # the traceless part of a normal 2 x 2 block is mu times a
        # Hermitian involution, whose eigenvectors diagonalize the block
        half = 0.5 * (d[a, a] - d[b, b])
        mu = np.sqrt(half * half + d[a, b] * d[b, a])
        ph = np.ones_like(mu)
        np.divide(np.abs(mu), mu, out=ph, where=mu != 0)
        cross = 0.5 * (d[a, b] * ph + np.conj(d[b, a] * ph))
        h = np.empty((a.shape[0], 2, 2), dtype=complex)
        h[:, 0, 0] = (half * ph).real
        h[:, 1, 1] = -h[:, 0, 0]
        h[:, 0, 1] = cross
        h[:, 1, 0] = np.conj(cross)
        _, v = np.linalg.eigh(h)
        for x in (w, mw, d):
            xa, xb = x[:, a], x[:, b]
            x[:, a] = xa * v[:, 0, 0] + xb * v[:, 1, 0]
            x[:, b] = xa * v[:, 0, 1] + xb * v[:, 1, 1]
        da, db = d[a, :], d[b, :]
        vc = v.conj()[:, :, :, None]
        d[a, :] = vc[:, 0, 0] * da + vc[:, 1, 0] * db
        d[b, :] = vc[:, 0, 1] * da + vc[:, 1, 1] * db
    return w, mw


def _eigen_residual(w, mw):
    """Angles on the diagonal of w* u w, and the largest row norm of
    u w - w diag(e^{i angles}); for unitary w that row norm bounds every
    entry of w diag(e^{i angles}) w* - u."""
    angles = np.angle(np.einsum("ij,ij->j", w.conj(), mw))
    err = mw - w * np.exp(1j * angles)
    rows = np.sum(err.real**2 + err.imag**2, axis=1)
    return angles, float(np.sqrt(np.max(rows)))


def diagonalize_normal(u):
    """Spectrum and eigenvector frame of a unitary matrix.

    Returns (spectrum, w) with w unitary, u = w diag(e^{i angles}) w*, the
    angles sorted.

    An exactly diagonal u (every off-diagonal entry 0, which is tested in
    O(n^2) without a copy) is read off in closed form: the angles of its
    diagonal in sorted order, and w the permutation frame that sorts them.
    No residual check is needed there: u passed UnitaryRep, whose max-norm
    unitarity defect is at most TOL.unitarity = 1e-9, so every diagonal
    entry z has ||z| - 1| <= 5e-10, and w rebuilds u to within that, below
    TOL.diag_residual, by construction.

    Any other u goes through a random Hermitian combination of u + u* and
    (u - u*)/i so eigenspaces for distinct angles separate.  A
    reconstruction residual above a few n * eps means the combination mixed
    some pairs, which are then separated so that w rebuilds u to rounding.
    If the residual is still above TOL.diag_residual, retries with fresh
    combinations.  The combinations come from one fixed stream, made fresh
    per call, so the result depends on u alone.
    """
    if isinstance(u, CircleSpectrum):
        return u, np.eye(u.n, dtype=complex)
    rep = as_unitary(u)
    m = rep.matrix
    n = rep.n
    d = np.diagonal(m)
    # the counts agree exactly when every off-diagonal entry is 0
    if np.count_nonzero(m) == np.count_nonzero(d):
        angles = canon_angle(np.angle(d))
        order = np.argsort(angles, kind="stable")
        return CircleSpectrum(angles[order]), np.eye(n, dtype=complex)[:, order]
    cut = 4.0 * n * EPS
    rng = np.random.default_rng(0)
    hre = (m + m.conj().T) / 2.0
    him = (m - m.conj().T) / 2j
    last = None
    for _ in range(TOL.diag_retries):
        t = rng.uniform(0.0, TWO_PI)
        h = math.cos(t) * hre + math.sin(t) * him
        _, w = np.linalg.eigh(h)
        mw = m @ w
        angles, residual = _eigen_residual(w, mw)
        if residual > cut:
            w, mw = _separate_mixed_pairs(w, mw, cut)
            angles, residual = _eigen_residual(w, mw)
        last = residual
        if residual <= TOL.diag_residual:
            order = np.argsort(angles)
            return CircleSpectrum(angles[order]), np.ascontiguousarray(w[:, order])
    raise NumericalDegeneracyError(
        f"diagonalization failed after {TOL.diag_retries} tries, "
        f"best residual {last:.3e}"
    )
