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

The full profile takes every window width in one pass over a strided
(n, n) view of the sorted angles, reduced in row blocks: O(n^2) time and
O(n) memory plus one block of _BLOCK span entries.  Exactly diagonal
unitaries are read off their diagonal, with no eigensolver, and spectrum_of
builds no eigenvector frame for them.

A unitary is dense or a Monomial, a perm plus n phases: diagonal unitaries
and permutation frames are built as Monomials wherever the structure is
known, and their Gram and rebuild checks and spectra take O(n) or
O(n log n) instead of dense products.
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


def _diameter_pair(angles):
    """Largest chord between the points e^{i angles} and the indices of its
    two ends, in O(n log n) time and O(n) memory: each point's farthest
    partner is a cyclic neighbour of its antipode among the sorted angles."""
    a = np.mod(np.asarray(angles, dtype=float), 2.0 * math.pi)
    order = np.argsort(a, kind="stable")
    a = a[order]
    n = a.shape[0]
    ext = np.concatenate((a, a + 2.0 * math.pi))
    # a + pi lies strictly inside (ext[0], ext[n + i]), so both neighbours exist
    j = np.searchsorted(ext, a + math.pi)
    lo, hi = chord(ext[j - 1] - a), chord(ext[j] - a)
    near = np.maximum(lo, hi)
    i = int(np.argmax(near))
    partner = int(j[i]) - 1 if lo[i] >= hi[i] else int(j[i])
    return float(near[i]), int(order[i]), int(order[partner % n])


# diameter at or below which a spectrum counts as central
_CENTRAL = 1e-8


def _is_central(angles):
    return _diameter_pair(angles)[0] <= _CENTRAL


def _as_square(x, what="matrix"):
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionError(f"{what} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} has non-finite entries")
    return m


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


def _norms(d):
    """(max-norm, Frobenius norm) of a defect."""
    return float(np.max(np.abs(d))), float(np.linalg.norm(d))


class Monomial:
    """An n x n matrix with one entry per column: column j is phases[j]
    times basis vector perm[j], so it is P @ diag(phases) with P sending
    basis vector j to perm[j].  Diagonal unitaries (the identity perm) and
    permutation frames (unit phases) are monomial.  phase_angles, when
    given, are canonical angles with phases = e^{i phase_angles}, kept by
    whoever made the phases from them so that spectra read them back
    exactly.

    gram_defect and rebuild run in O(n), apply in O(n) per column of its
    argument and spectrum in O(n log n); none forms an n x n array.  matrix, and np.asarray, build
    the dense matrix on request.  Only the shapes are checked, so a damaged
    certificate record loads and then fails its Gram check.
    """

    def __init__(self, perm, phases, phase_angles=None):
        p = np.array(perm, dtype=np.int64)
        z = np.array(phases, dtype=complex)
        a = None if phase_angles is None else np.array(phase_angles, dtype=float)
        shapes = {z.shape, p.shape if a is None else a.shape}
        if p.ndim != 1 or p.shape[0] == 0 or shapes != {p.shape}:
            raise DimensionError(f"need one phase per perm entry, got {p.shape} and {z.shape}")
        for x in (p, z, a):
            if x is not None:
                x.setflags(write=False)
        self.perm, self.phases, self.phase_angles = p, z, a
        self.diagonal = np.array_equal(p, np.arange(p.shape[0]))

    @property
    def n(self):
        return self.perm.shape[0]

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def matrix(self):
        out = np.zeros(self.shape, dtype=complex)
        out[self.perm, np.arange(self.n)] = self.phases
        return out

    def __array__(self, dtype=None, copy=None):
        return self.matrix if dtype is None else self.matrix.astype(dtype)

    def _in_range(self):
        return bool(self.perm.min() >= 0 and self.perm.max() < self.n)

    def _squares(self):
        return self.phases.real**2 + self.phases.imag**2

    def gram_defect(self):
        """(max-norm, Frobenius norm) of X X* - I.  X X* is diagonal for
        any perm: entry r sums |phases[j]|^2 over the j that perm sends to r.
        A perm entry outside range(n) makes no matrix and gives nan, which
        fails every check."""
        if not self._in_range():
            return math.nan, math.nan
        return _norms(np.bincount(self.perm, self._squares(), self.n) - 1.0)

    def rebuild(self, angles, other):
        """(max-norm, Frobenius norm) of X diag(e^{i angles}) X* - other.
        That product is diagonal, entry r summing |phases[j]|^2 e^{i
        angles[j]} over the j that perm sends to r, and a monomial other
        has one entry per column, so the difference has at most 2n nonzero
        entries; a dense other is compared densely.  A perm entry outside
        range(n) gives nan."""
        monomial = isinstance(other, Monomial)
        if not (self._in_range() and (not monomial or other._in_range())):
            return math.nan, math.nan
        if not monomial:
            return Dense(self.matrix).rebuild(angles, other)
        rot = self._squares() * np.exp(1j * np.asarray(angles, dtype=float))
        d = np.bincount(self.perm, rot.real, self.n) + 1j * np.bincount(
            self.perm, rot.imag, self.n
        )
        on = other.perm == np.arange(self.n)
        d[on] -= other.phases[on]
        return _norms(np.concatenate((d, other.phases[~on])))

    def apply(self, x):
        """X @ x for a dense n x m matrix x; perm must be a permutation."""
        out = np.empty(np.shape(x), dtype=complex)
        out[self.perm] = self.phases[:, None] * x
        return out

    def _phase_angles(self):
        """Canonical angles of the phases, in column order."""
        if self.phase_angles is not None:
            return self.phase_angles
        return canon_angle(np.angle(self.phases))

    def columns(self, order):
        """X with its columns reordered: column j of the result is column
        order[j] of X."""
        return Monomial(self.perm[order], self.phases[order])

    def spectrum(self):
        """The sorted eigenvalue angles of a unitary X, in O(n log n): each
        cycle of the perm, of length L and phase product p, contributes the
        L-th roots of p, so a diagonal X gives the angles of its phases."""
        if self.diagonal:
            return CircleSpectrum(np.sort(self._phase_angles(), kind="stable"))
        perm = self.perm.tolist()
        seen = [False] * self.n
        parts = []
        for start in range(self.n):
            cycle = []
            j = start
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = perm[j]
            if cycle:
                p = np.prod(self.phases[cycle])
                parts.append((np.angle(p) + TWO_PI * np.arange(len(cycle))) / len(cycle))
        return CircleSpectrum(np.sort(canon_angle(np.concatenate(parts))))


class Dense:
    """A dense matrix with the methods of Monomial, so that Gram, rebuild
    and frame code takes one path for both kinds of operand."""

    def __init__(self, m):
        self.matrix = np.asarray(m, dtype=complex)

    def gram_defect(self):
        m = self.matrix
        return _norms(m @ m.conj().T - np.eye(m.shape[0]))

    def rebuild(self, angles, other):
        m = self.matrix
        return _norms((m * np.exp(1j * angles)) @ m.conj().T - np.asarray(other))

    def apply(self, x):
        return self.matrix @ x

    def columns(self, order):
        return self.matrix[:, order]


def as_operator(x):
    """A Monomial as it is, anything else as a Dense matrix."""
    return x if isinstance(x, Monomial) else Dense(x)


@dataclass(frozen=True)
class UnitaryRep:
    """A validated unitary: a dense matrix or a Monomial.

    gram holds the (max-norm, Frobenius norm) Gram defect of op op* - I
    measured by the validation, so callers need not form it again; matrix
    is the dense matrix, built on request for a Monomial.
    """

    op: object
    gram: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        op = self.op
        if not isinstance(op, Monomial):
            op = _as_square(op, "unitary").copy()
            op.setflags(write=False)
        gram = as_operator(op).gram_defect()
        if not gram[0] <= TOL.unitarity:
            raise ValidationError(
                f"matrix is not unitary: defect {gram[0]:.3e} > {TOL.unitarity:g}"
            )
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "gram", gram)

    @property
    def matrix(self):
        return np.asarray(self.op)

    @property
    def n(self):
        return self.op.shape[0]

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
        a = self.angles
        return UnitaryRep(Monomial(np.arange(self.n), np.exp(1j * a), a))

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
    return UnitaryRep(u if isinstance(u, Monomial) else _as_square(u, what))


def haar_unitary(n, rng):
    """Haar-distributed unitary via QR with the phase convention fixed."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return UnitaryRep(q * (d / np.abs(d))[None, :])


def spectrum_of(u):
    """Eigenvalue angles of u: a spectrum as it is, a monomial u read off
    its phases and an exactly diagonal dense u off its diagonal, with no
    frame built, any other u diagonalized."""
    if isinstance(u, CircleSpectrum):
        return u
    rep = as_unitary(u)
    if isinstance(rep.op, Monomial):
        return rep.op.spectrum()
    diagonal = _diagonal_angles(rep.op)
    if diagonal is not None:
        return CircleSpectrum(diagonal[0])
    spec, _ = diagonalize_normal(rep)
    return spec


# ---------------------------------------------------------------------------
# plain singular value profiles


def singular_values(x):
    """Descending singular values of a square complex matrix."""
    m = _as_square(x)
    return np.linalg.svd(m, compute_uv=False)


def one_norm(x):
    """Trace-normalized trace norm: mean of the singular values."""
    return float(np.mean(singular_values(x)))


def two_norm(x):
    """Trace-normalized Hilbert-Schmidt norm."""
    m = _as_square(x)
    return float(np.linalg.norm(m) / math.sqrt(m.shape[0]))


def best_phase(tr, diag):
    """The unit lam best aligning a with lam * b, from the trace tr and the
    diagonal diag of b* a: tr / |tr|, or diag's largest entry's phase."""
    if abs(tr) > 1e-8:
        return tr / abs(tr)
    j = int(np.argmax(np.abs(diag)))
    return diag[j] / abs(diag[j]) if abs(diag[j]) > 0 else 1.0


# ---------------------------------------------------------------------------
# closed-form projective profile and one-norm


def _doubled_sorted(angles):
    """Sorted angles followed by the same angles one turn later, so every
    cyclic window of consecutive eigenvalues is a contiguous slice."""
    a = np.sort(np.asarray(angles, dtype=float))
    return np.concatenate((a, a + TWO_PI))


# span entries per row block of the one-pass profile: 2 MB of float64, so a
# profile at n = 5040 never holds its 203 MB span matrix at once
_BLOCK = 1 << 18


def _narrowest_windows(ext, first, stop):
    """Projective values and witness phases for window widths first..stop-1.

    Row r of the strided (n, n) view over ext holds ext[r : r + n], the far
    ends of the n cyclic windows of r + 1 eigenvalues, so subtracting the
    near ends ext[:n] gives every span of that width.  Rows are reduced in
    blocks of about _BLOCK entries: O(n) time per row and O(n + _BLOCK)
    memory in all.  argmin keeps the first narrowest window, and the value
    2 sin(span / 4) and witness conj(e^{i mid}), which centers the arc on
    the window's midpoint, are read off the gathered ends.
    """
    n = ext.shape[0] // 2
    # a view, not a copy; the constructor checks it stays inside ext, and
    # costs a third of as_strided, which matters at small n
    far = np.ndarray((n, n), dtype=float, buffer=ext, strides=ext.strides * 2)
    starts = np.empty(stop - first, dtype=np.intp)
    step = max(1, _BLOCK // n)
    for w in range(first, stop, step):
        block = far[w - 1 : min(w + step, stop) - 1] - ext[:n]
        starts[w - first : w - first + block.shape[0]] = block.argmin(axis=1)
    near = ext[starts]
    far_end = ext[starts + np.arange(first - 1, stop - 1)]
    mid = 0.5 * (near + far_end)
    values = 2.0 * np.sin(0.25 * (far_end - near))
    # set the parts directly: cos - 1j * sin would turn an imaginary -0.0
    # into +0.0
    witnesses = np.empty(stop - first, dtype=complex)
    witnesses.real = np.cos(mid)
    witnesses.imag = -np.sin(mid)
    return values, witnesses


def projective_profile(u):
    """Full projective singular value profile of a unitary, with witnesses."""
    ext = _doubled_sorted(spectrum_of(u).angles)
    n = ext.shape[0] // 2
    # index i asks for windows of n - i eigenvalues: the widths run backwards
    vals, wits = _narrowest_windows(ext, 1, n + 1)
    return SpectralProfile("ell", vals[::-1], wits[::-1])


def projective_s_number(u, i):
    """i-th projective singular value of u and a phase attaining it."""
    spec = spectrum_of(u)
    n = spec.n
    if not (0 <= i < n):
        raise IndexError(f"index {i} out of range for size {n}")
    vals, wits = _narrowest_windows(_doubled_sorted(spec.angles), n - i, n - i + 1)
    return float(vals[0]), complex(wits[0])


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


def rank_of_profile(values):
    """Projective rank read off already computed profile values."""
    above = np.nonzero(np.asarray(values) > TOL.rank)[0]
    return int(above[-1]) + 1 if above.shape[0] else 0


# ---------------------------------------------------------------------------
# diagonalization


def _separate_runs(w, mw, hvals, cut):
    """Separate the runs of columns that the Hermitian combination mixed.

    The combination h = Re(e^{-it} u) maps e^{i a} and e^{i b} to nearby
    values when a + b is near 2t, and eigh may then mix their eigenvectors
    by up to eps over the small gap, which leaves d = w* u w coupling them
    beyond rounding.  eigh sorts h's eigenvalues hvals, so each coupling
    above cut between columns i < j joins the run of columns i..j.

    Within a run h is nearly the scalar cos(theta), so the run's eigenvalues
    lie near e^{i(t + theta)} and e^{i(t - theta)}.  u is normal, so every
    combination Re(e^{-i(t + phi)} u) commutes with h, and its block on the
    run separates the two groups by 2 |sin(phi) sin(theta)| and the members
    of each by |sin(theta -+ phi)| per unit of angle gap.  phi = pi/2, the
    orthogonal part Im(e^{-it} u), gives |cos(theta)| and flattens where
    theta nears pi/2; there phi = pi/4 is taken instead, which keeps every
    factor at or above sin(pi/8).  So the eigenvectors of one block per run
    separate its columns in one pass; one eigh takes all the runs of one
    width, as a stack, and their columns of w and mw = u w are rotated in
    place.
    """
    n = w.shape[0]
    d = w.conj().T @ mw
    i, j = np.nonzero(np.triu(np.abs(d) > cut, 1))
    # a run ends at column c when no coupling from a column <= c reaches
    # past c
    reach = np.arange(n)
    np.maximum.at(reach, i, j)
    ends = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(n))
    starts = np.concatenate(([0], ends[:-1] + 1))
    widths = ends - starts + 1
    for width in sorted(set(widths[widths > 1].tolist())):
        cols = starts[widths == width, None] + np.arange(width)
        flat = np.abs(hvals[cols].mean(axis=1)) <= math.sin(math.pi / 8)
        phi = np.where(flat, math.pi / 4, math.pi / 2)
        turn = np.exp(-1j * (_COMBINATION_ANGLE + phi))[:, None, None]
        block = turn * d[cols[:, :, None], cols[:, None, :]]
        _, v = np.linalg.eigh((block + block.conj().transpose(0, 2, 1)) / 2.0)
        for x in (w, mw):
            x[:, cols] = (x[:, cols].transpose(1, 0, 2) @ v).transpose(1, 0, 2)


def _eigen_residual(w, mw):
    """Angles on the diagonal of w* u w, and the largest row norm of
    u w - w diag(e^{i angles}); for unitary w that row norm bounds every
    entry of w diag(e^{i angles}) w* - u."""
    angles = np.angle(np.einsum("ij,ij->j", w.conj(), mw))
    err = mw - w * np.exp(1j * angles)
    rows = np.sum(err.real**2 + err.imag**2, axis=1)
    return angles, float(np.sqrt(np.max(rows)))


def _sorted_angles(angles):
    """angles in sorted order, and the stable order that sorts them."""
    order = np.argsort(angles, kind="stable")
    return angles[order], order


def _diagonal_angles(m):
    """_sorted_angles of the diagonal of an exactly diagonal m; None when an
    off-diagonal entry is not 0."""
    n = m.shape[0]
    # the n entries that follow each diagonal entry in row-major order are
    # off-diagonal: a strided view of all of them, and any() reads them
    # without a temporary, several times faster than counting nonzeros
    if m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any():
        return None
    return _sorted_angles(canon_angle(np.angle(np.diagonal(m))))


# the angle t of diagonalize_normal's Hermitian combination: the first draw
# of np.random.default_rng(0).uniform(0, 2 pi), fixed here so that a call
# neither builds a generator nor imports numpy.random
_COMBINATION_ANGLE = 4.002148315014479


def diagonalize_normal(u):
    """Spectrum and eigenvector frame of a unitary matrix.

    Returns (spectrum, w) with w unitary, u = w diag(e^{i angles}) w*, the
    angles sorted.

    A diagonal Monomial u is read off in closed form: the angles of its
    phases in sorted order, and w the Monomial permutation frame that sorts
    them, built in O(n log n).  So is an exactly diagonal dense u (every
    off-diagonal entry 0, which is tested in O(n^2) without a copy), with w
    the same frame as a dense matrix.  No residual check is needed there:
    u passed UnitaryRep, whose max-norm unitarity defect is at most
    TOL.unitarity = 1e-9, so every diagonal entry z has ||z| - 1| <= 5e-10,
    and w rebuilds u to within that, below TOL.diag_residual, by
    construction.  A spectrum gets the identity frame as a Monomial.

    Any other u goes through one eigh of the Hermitian combination
    cos(t) (u + u*)/2 + sin(t) (u - u*)/2i, whose eigenvectors are u's
    except where it maps distinct eigenvalues close together.  A
    reconstruction residual above 4 n eps means eigh mixed such columns,
    and _separate_runs splits them in one pass, so that w rebuilds u to
    rounding.  It joins every coupling above 4 sqrt(n) eps: the n - 1
    couplings a row keeps below that cannot reach a row norm of 4 n eps,
    which a tight cluster's many small couplings otherwise do.  A residual
    still above TOL.diag_residual raises NumericalDegeneracyError.  t is
    the fixed _COMBINATION_ANGLE, so the result depends on u alone.
    """
    if isinstance(u, CircleSpectrum):
        return u, Monomial(np.arange(u.n), np.ones(u.n))
    rep = as_unitary(u)
    n = rep.n
    if isinstance(rep.op, Monomial) and rep.op.diagonal:
        angles, order = _sorted_angles(rep.op._phase_angles())
        return CircleSpectrum(angles), Monomial(order, np.ones(n))
    # a monomial with a nontrivial perm is diagonalized densely
    m = rep.matrix
    diagonal = _diagonal_angles(m)
    if diagonal is not None:
        angles, order = diagonal
        # column j is e_order[j], stored column-major as a column gather of
        # the identity is: BLAS products with w pick their kernel, and with
        # it the sign of an all-zero sum, by layout
        w = np.zeros((n, n), dtype=complex, order="F")
        w[order, np.arange(n)] = 1.0
        return CircleSpectrum(angles), w
    t = _COMBINATION_ANGLE
    h = math.cos(t) * ((m + m.conj().T) / 2.0) + math.sin(t) * ((m - m.conj().T) / 2j)
    hvals, w = np.linalg.eigh(h)
    mw = m @ w
    angles, residual = _eigen_residual(w, mw)
    cut = 4.0 * n * EPS
    if residual > cut:
        _separate_runs(w, mw, hvals, cut / math.sqrt(n))
        angles, residual = _eigen_residual(w, mw)
    if residual > TOL.diag_residual:
        raise NumericalDegeneracyError(
            f"diagonalization residual {residual:.3e} > {TOL.diag_residual:g}"
        )
    order = np.argsort(angles)
    return CircleSpectrum(angles[order]), np.ascontiguousarray(w[:, order])
