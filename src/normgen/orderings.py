"""Spectrum orderings and phase centering.

The generation machinery wants eigenvalues arranged so that adjacent gaps are
as large as possible (lexicographically maximal gap sequence) or so that all
prefix sums of the angles stay small (angle sum optimal ordering).  Both
orderings live here, together with the exact zero-sum phase centering.
"""

from dataclasses import dataclass
import math

import numpy as np

from .config import TOL
from .errors import DomainError, PreconditionError
from .spectral import (
    CircleSpectrum,
    TWO_PI,
    canon_angle,
    chord,
    projective_profile,
)


@dataclass(frozen=True)
class OptimalOrdering:
    """A reordering of a spectrum with lexicographically maximal gaps.

    diffs[i] is the chordal distance between neighbours i and i+1; sigma
    sorts the gap positions by decreasing gap; perm maps output positions to
    input positions.
    """

    angles: np.ndarray
    sigma: np.ndarray
    diffs: np.ndarray
    perm: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        d = np.asarray(self.diffs, dtype=float)
        s = np.asarray(self.sigma, dtype=np.int64)
        p = np.asarray(self.perm, dtype=np.int64)
        n = a.shape[0]
        if d.shape != (max(n - 1, 0),) or s.shape != d.shape or p.shape != a.shape:
            raise DomainError("inconsistent ordering fields")
        if n >= 2:
            if sorted(s.tolist()) != list(range(n - 1)):
                raise DomainError("sigma is not a permutation of the gap positions")
            if np.any(np.diff(d[s]) > 1e-12):
                raise DomainError("sigma does not sort the gaps")
        for arr in (a, d, s, p):
            arr.setflags(write=False)
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "diffs", d)
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "perm", p)

    @property
    def n(self):
        return self.angles.shape[0]

    def spectrum(self):
        return CircleSpectrum(self.angles)

    def top_gap(self):
        return float(self.diffs[self.sigma[0]])


@dataclass(frozen=True)
class AngleSumOrdering:
    """Zero-sum reals reordered so every prefix sum is small."""

    values: np.ndarray
    sigma: np.ndarray
    prefix_max: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.sigma, dtype=np.int64)
        if v.shape != s.shape:
            raise DomainError("inconsistent ordering fields")
        v.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "sigma", s)


# tie-set entries kept per position of the greedy ordering search
FRONTIER_CAP = 256


def _tie_band(best):
    return TOL.tie_rel * max(best, 1.0)


def optimalize(spec):
    """Reorder a spectrum so the adjacent-gap sequence is lexicographically
    maximal.

    Sequential greedy over prefixes with tie-set tracking: every prefix whose
    gap sequence ties the current best within TIE_TOL survives to the next
    position, deduplicated by (last angle, remaining multiset).  Angles equal
    after rounding to 1e-12 form one class, so a multiset is its tuple of
    class counts, and two extensions collide exactly when their parents
    leave equal counts and they append the same class.  Exhaustive search
    over all orderings confirms the result for small n in the tests.
    """
    if not isinstance(spec, CircleSpectrum):
        spec = CircleSpectrum(spec)
    n = spec.n
    if n < 2:
        raise DomainError("need at least two eigenvalues to order gaps")
    angles = spec.angles
    _, cls = np.unique(np.round(angles / 1e-12), return_inverse=True)
    full = tuple(np.bincount(cls).tolist())
    cls = cls.tolist()

    def extend(order, remaining, counts, idx):
        c = cls[idx]
        counts = counts[:c] + (counts[c] - 1,) + counts[c + 1 :]
        return order + (idx,), remaining - {idx}, counts

    # seed with every maximal-distance pair, both orientations; a pair is
    # a duplicate when it has the same two classes
    best = -1.0
    band = _tie_band(best)
    pairs = []
    for i in range(n):
        for j, g in enumerate(chord(angles - angles[i]).tolist()):
            if i == j:
                continue
            if g > best + band:
                best, band = g, _tie_band(g)
                pairs = [(i, j)]
            elif g >= best - band:
                pairs.append((i, j))
    seen = set()
    frontier = []
    root = ((), frozenset(range(n)), full)
    for i, j in pairs:
        if (cls[i], cls[j]) not in seen and len(frontier) < FRONTIER_CAP:
            seen.add((cls[i], cls[j]))
            frontier.append(extend(*extend(*root, i), j))

    for _ in range(n - 2):
        ids = {}
        parent_ids = [ids.setdefault(counts, len(ids)) for _, _, counts in frontier]
        best = -1.0
        band = _tie_band(best)
        nxt = []
        for p, (order, remaining, _) in enumerate(frontier):
            rem = sorted(remaining)
            g_all = chord(angles[rem] - angles[order[-1]]).tolist()
            for idx, g in zip(rem, g_all):
                if g > best + band:
                    best, band = g, _tie_band(g)
                    nxt = [(p, idx)]
                elif g >= best - band:
                    nxt.append((p, idx))
        seen = set()
        frontier_next = []
        for p, idx in nxt:
            key = (parent_ids[p], cls[idx])
            if key not in seen and len(frontier_next) < FRONTIER_CAP:
                seen.add(key)
                frontier_next.append(extend(*frontier[p], idx))
        frontier = frontier_next

    perm = np.asarray(frontier[0][0], dtype=np.int64)
    out = angles[perm]
    diffs = chord(out[:-1] - out[1:])
    sigma = np.argsort(-diffs, kind="stable")
    return OptimalOrdering(out, sigma, diffs, perm)


def angle_sum_optimalize(alphas):
    """Order zero-sum reals so every prefix sum is bounded by max |alpha|.

    Alternating greedy: start from the largest element, then append from the
    opposite-sign side (largest magnitudes first) until the running sum
    crosses zero, and switch sides; zeros go last.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.shape[0] == 0:
        raise DomainError("need a nonempty vector")
    residual = float(a.sum())
    if abs(residual) > 1e-10:
        raise PreconditionError(f"angle sum must vanish, got {residual:.3e}")
    if np.all(a == 0.0):
        order = np.arange(a.shape[0], dtype=np.int64)
        return AngleSumOrdering(a, order, 0.0)

    flip = a[np.argmax(np.abs(a))] < 0.0
    b = -a if flip else a
    pos = sorted(np.nonzero(b > 0)[0].tolist(), key=lambda i: -b[i])
    neg = sorted(np.nonzero(b < 0)[0].tolist(), key=lambda i: b[i])
    zeros = np.nonzero(b == 0)[0].tolist()

    order = [pos.pop(0)]
    total = b[order[0]]
    side_neg = True
    while pos or neg:
        src = neg if side_neg else pos
        while src:
            idx = src.pop(0)
            order.append(idx)
            total += b[idx]
            if (side_neg and total < 0.0) or (not side_neg and total > 0.0):
                break
        side_neg = not side_neg
    order.extend(zeros)

    order = np.asarray(order, dtype=np.int64)
    prefix_max = float(np.max(np.abs(np.cumsum(a[order]))))
    return AngleSumOrdering(a[order], order, prefix_max)


def center_phase(spec):
    """Zero-sum representative of a spectrum with the smallest peak angle.

    The candidate phases (-s + 2 pi k) / n shift the plain angle sum s to
    each multiple of 2 pi; a counting argument guarantees one of them
    cancels the wrap corrections, so its canonical angles sum to zero up to
    float noise.  Among those the one with the smallest largest angle
    modulus wins (the first, unless a later one is smaller by more than
    1e-15): its branch cut falls inside the widest spectral gap, which
    keeps every angle modulus at most the covering arc, as the walk budget
    analysis needs.  Returns (centered spectrum, applied phase angle).

    Every candidate is read off the sorted angles in O(log n).  Shifting
    by t moves the sorted angles up to the cut c = canon(pi - t) to the top
    of (-pi, pi] and the rest below them, each group keeping one wrap
    count, so the largest and smallest centered angles are those of the
    two sorted neighbours of c, and their wrap counts give the sum, which
    is 2 pi times an integer.  A candidate whose cut lies within 1e-12 of
    an angle, where rounding could move that angle across, is evaluated in
    full.  The winner is canonicalized exactly as a full evaluation would,
    so the result is the one of testing every candidate in full, in
    O(n log n).
    """
    if not isinstance(spec, CircleSpectrum):
        spec = CircleSpectrum(spec)
    angles = spec.angles
    n = spec.n
    s = float(angles.sum())
    t = (-s + TWO_PI * np.arange(n)) / n
    a = np.sort(angles)
    cut = canon_angle(math.pi - t)
    # p[k] angles lie at or below the cut: the top one is the largest of
    # them (the largest angle if there are none), the bottom one the
    # smallest of the rest
    p = np.searchsorted(a, cut, side="right")
    shifted = a[np.stack(((p - 1) % n, p % n))] + t
    ends = canon_angle(shifted)
    wraps = np.rint((shifted - ends) / TWO_PI)
    # the centered sum is 2 pi (k - wraps): zero exactly when wraps == k
    valid = p * wraps[0] + (n - p) * wraps[1] == np.arange(n)
    peaks = np.abs(ends).max(axis=0)
    near = (
        (np.searchsorted(a, cut - 1e-12) != np.searchsorted(a, cut + 1e-12, side="right"))
        | (a[-1] > cut + TWO_PI - 1e-12)
        | (a[0] < cut - TWO_PI + 1e-12)
    )
    for k in np.flatnonzero(near).tolist():
        cand = canon_angle(angles + t[k])
        valid[k] = abs(float(cand.sum())) <= 1e-9
        peaks[k] = np.max(np.abs(cand))
    best = None
    for k, peak in zip(np.flatnonzero(valid).tolist(), peaks[valid].tolist()):
        if best is None or peak < best[0] - 1e-15:
            best = (peak, k)
    if best is None:
        raise PreconditionError("phase centering failed: no shift sums to zero")
    shift = float(t[best[1]])
    return CircleSpectrum(canon_angle(angles + shift)), canon_angle(shift)


def gap_sandwich_check(opt, tol=None):
    """Certify the two-sided bounds between gaps and projective values.

    For an optimally ordered diagonal: half the gap at sigma(2i) bounds the
    i-th projective value from below, and the distance profile to the last
    eigenvalue bounds it from above by the gap at sigma(i).
    """
    if tol is None:
        tol = 2.0 * TOL.ell
    n = opt.n
    prof = projective_profile(opt.spectrum())
    ell = prof.values
    dists = np.sort(chord(opt.angles - opt.angles[n - 1]))[::-1]
    rows = []
    ok = True
    for i in range(n - 1):
        lower = 0.5 * opt.diffs[opt.sigma[2 * i]] if 2 * i <= n - 2 else None
        upper = float(opt.diffs[opt.sigma[i]])
        mu = float(dists[i])
        good = ell[i] <= mu + tol and mu <= upper + tol
        if lower is not None:
            good = good and lower <= ell[i] + tol
        ok = ok and good
        rows.append(
            {
                "index": i,
                "lower": lower,
                "ell": float(ell[i]),
                "mu_at_last": mu,
                "upper": upper,
                "ok": bool(good),
            }
        )
    return {"ok": bool(ok), "rows": rows}
