"""Exact rational-weight spectra and the discrete generation pipeline.

A unitary with finitely many eigenvalues of rational weight embeds as a
diagonal matrix in dimension s0, the least common multiple of the weight
denominators, each eigenvalue repeated weight*s0 times.  Arbitrary real
weights are first rounded to such a spectrum with a certified two-norm
error, then two spectra meet in one common dimension where the parallel
walk generator applies; the resulting certificates are charged against a
budget of 48*m*ceil(1/s) conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .certificate import as_fraction, easy_violations, theorem_budgets
from .config import TOL
from .errors import (
    DimensionError,
    DomainError,
    EmbeddingBlowupError,
    NumericalDegeneracyError,
    PreconditionError,
    ValidationError,
)
from .generation import generate_rank_independent
from .spectral import (
    CircleSpectrum,
    Monomial,
    UnitaryRep,
    as_unitary,
    canon_angle,
    chord,
    projective_profile,
    rank_of_profile,
    two_norm,
)

__all__ = [
    "RationalSpectrum",
    "approx_stability_check",
    "lcm_embed",
    "pipeline_generate",
    "rational_approximate",
]


@dataclass(frozen=True)
class RationalSpectrum:
    """Finite spectrum with exact rational weights summing to one.

    atoms is a tuple of (angle, weight) pairs with angles in (-pi, pi],
    pairwise distinct, and weights positive Fractions; no floating weights
    are accepted, the mass identity is exact.
    """

    atoms: tuple

    def __post_init__(self):
        raw = tuple(self.atoms)
        if not raw:
            raise ValidationError("need at least one atom")
        cooked = []
        for entry in raw:
            angle, weight = entry
            a = float(angle)
            if not (-math.pi < a <= math.pi):
                raise ValidationError(f"angle {a!r} outside (-pi, pi]")
            if isinstance(weight, float):
                raise ValidationError(
                    "weights must be exact rationals, got a float"
                )
            w = Fraction(weight)
            if w <= 0:
                raise ValidationError(f"weight {w} is not positive")
            cooked.append((a, w))
        cooked.sort(key=lambda t: t[0])
        for left, right in zip(cooked, cooked[1:]):
            if left[0] == right[0]:
                raise ValidationError(f"duplicate angle {left[0]!r}")
        total = sum(w for _, w in cooked)
        if total != 1:
            raise ValidationError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "atoms", tuple(cooked))

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def common_denominator(self):
        return math.lcm(*(w.denominator for _, w in self.atoms))

    def angles(self):
        return np.array([a for a, _ in self.atoms], dtype=float)

    def weights(self):
        return tuple(w for _, w in self.atoms)

    def to_json(self):
        return {
            "atoms": [
                {"angle": a, "num": w.numerator, "den": w.denominator}
                for a, w in self.atoms
            ]
        }

    @classmethod
    def from_json(cls, obj):
        try:
            atoms = tuple(
                (entry["angle"], Fraction(int(entry["num"]), int(entry["den"])))
                for entry in obj["atoms"]
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed rational spectrum: {exc}") from None
        return cls(atoms)


def _coerce_atoms(data):
    """Input as (angle, weight, exact) triples with duplicates merged.

    exact is a Fraction when the given weight carries no rounding (Fraction
    or int input, or the uniform weights of a CircleSpectrum), else None.
    """
    if isinstance(data, RationalSpectrum):
        return [(a, float(w), w) for a, w in data.atoms]
    if isinstance(data, CircleSpectrum):
        n = data.n
        w = Fraction(1, n)
        pairs = [(float(a), 1.0 / n, w) for a in data.angles]
    else:
        pairs = []
        for angle, weight in data:
            if isinstance(weight, float):
                pairs.append((float(canon_angle(angle)), weight, None))
            else:
                w = Fraction(weight)
                pairs.append((float(canon_angle(angle)), float(w), w))
    merged = {}
    for a, wf, we in pairs:
        if a in merged:
            old_f, old_e = merged[a]
            merged[a] = (
                old_f + wf,
                old_e + we if (old_e is not None and we is not None) else None,
            )
        else:
            merged[a] = (wf, we)
    return [(a, wf, we) for a, (wf, we) in sorted(merged.items())]


def rational_approximate(data, eps):
    """Round a finite spectrum to exact rational weights, certified in 2-norm.

    Atom angles are clustered at chordal resolution eps/6 around their
    heaviest member; cluster weights are rounded down to denominators at
    most ceil((6n/eps)^2), and the lost mass moves to a designated atom at
    angle 0.  Returns (RationalSpectrum, guarantee) where the guarantee
    reports the a priori certified bound and the realized coupling
    distance, both below eps.  An input that is already exactly rational
    is returned unchanged with distance zero.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise DomainError(f"resolution must be positive, got {eps}")
    atoms = _coerce_atoms(data)
    total_float = math.fsum(wf for _, wf, _ in atoms)
    if abs(total_float - 1.0) > 1e-12:
        raise PreconditionError(
            f"weights sum to {total_float!r}, not 1 within 1e-12"
        )
    if any(wf <= 0.0 for _, wf, _ in atoms):
        raise PreconditionError("weights must be positive")
    n = len(atoms)
    exact = [we for _, _, we in atoms]
    if all(we is not None for we in exact) and sum(exact) == 1:
        spectrum = RationalSpectrum(tuple((a, we) for a, _, we in atoms))
        guarantee = {
            "epsilon": eps,
            "certified": 0.0,
            "realized": 0.0,
            "denominator_cap": None,
            "remainder_mass": 0.0,
            "atoms_in": n,
            "atoms_out": spectrum.n_atoms,
            "exact_input": True,
        }
        return spectrum, guarantee

    ratio = Fraction(6 * n) / Fraction(eps)
    cap = int(math.ceil(max(ratio, ratio * ratio)))
    # cluster reach eps/12 in chordal distance keeps every member within
    # eps/6 of whichever member ends up as representative, wrap included
    span = 2.0 * math.asin(min(1.0, eps / 24.0))
    clusters = []
    for a, wf, we in atoms:
        if clusters and a - clusters[-1]["start"] <= span:
            clusters[-1]["members"].append((a, wf))
        else:
            clusters.append({"start": a, "members": [(a, wf)]})
    if len(clusters) > 1:
        wrap = atoms[0][0] + 2.0 * math.pi - clusters[-1]["start"]
        if wrap <= span:
            clusters[0]["members"].extend(clusters.pop()["members"])

    rounded = []
    for cl in clusters:
        members = cl["members"]
        rep = max(members, key=lambda t: (t[1], -t[0]))[0]
        wf = math.fsum(w for _, w in members)
        best = Fraction(wf).limit_denominator(cap)
        if float(best) != wf:
            best = Fraction(math.floor(Fraction(wf) * cap), cap)
        rounded.append({"rep": rep, "members": members, "float": wf, "q": best})
    overshoot = sum(cl["q"] for cl in rounded) - 1
    if overshoot > 0:
        heaviest = max(rounded, key=lambda cl: cl["q"])
        heaviest["q"] -= overshoot

    out = {}
    for cl in rounded:
        if cl["q"] > 0:
            out[cl["rep"]] = out.get(cl["rep"], Fraction(0)) + cl["q"]
    remainder = 1 - sum(out.values())
    if remainder > 0:
        out[0.0] = out.get(0.0, Fraction(0)) + remainder

    spectrum = RationalSpectrum(tuple(out.items()))
    certified = math.sqrt((eps / 6.0) ** 2 + 4.0 * float(remainder))
    realized_sq = 0.0
    for cl in rounded:
        frac_kept = min(1.0, float(cl["q"]) / cl["float"]) if cl["float"] > 0 else 0.0
        for a, wf in cl["members"]:
            snap = chord(a - cl["rep"]) ** 2
            dump = chord(a) ** 2
            realized_sq += wf * (frac_kept * snap + (1.0 - frac_kept) * dump)
    realized = math.sqrt(max(0.0, realized_sq))
    if certified >= eps or realized >= eps:
        raise NumericalDegeneracyError(
            f"approximation missed its bound: certified {certified:.3e}, "
            f"realized {realized:.3e} vs eps {eps:.3e}"
        )
    guarantee = {
        "epsilon": eps,
        "certified": certified,
        "realized": realized,
        "denominator_cap": cap,
        "remainder_mass": float(remainder),
        "atoms_in": n,
        "atoms_out": spectrum.n_atoms,
        "exact_input": False,
    }
    return spectrum, guarantee


def _as_rational(x, what):
    if isinstance(x, RationalSpectrum):
        return x
    raise ValidationError(f"{what} must be a RationalSpectrum, got {type(x).__name__}")


def lcm_embed(a, b):
    """Embed two rational spectra as diagonal unitaries in one dimension.

    s0 is the least common multiple of every weight denominator; each atom
    repeats weight*s0 times, sorted by angle.  Both outputs are diagonal
    Monomials in the same M_{s0}, O(s0) to build and check, so the matching
    conjugator between the embedded projections is the identity.
    """
    a = _as_rational(a, "first spectrum")
    b = _as_rational(b, "second spectrum")
    s0 = math.lcm(a.common_denominator, b.common_denominator)
    if s0 > TOL.s0_max:
        raise EmbeddingBlowupError(
            f"common denominator {s0} exceeds the cap {TOL.s0_max}; "
            "use a coarser rational approximation"
        )

    def build(spec):
        reps = []
        for angle, weight in spec.atoms:
            count = weight * s0
            reps.extend([angle] * int(count))
        return UnitaryRep(Monomial(np.arange(s0), np.exp(1j * np.array(reps))))

    return build(a), build(b), s0


def profile_window(s, s0):
    """How many profile indices the window [0, s] covers in dimension s0."""
    return min(int(s * (s0 - 1) / 2) + 1, (s0 - 1) // 2 + 1)


def pipeline_generate(u, v, m, s):
    """Certificate for u as conjugates of v^{+-1}, budget 48*m*ceil(1/s).

    Both spectra embed in dimension s0 = lcm of their denominators; the
    continuous window [0, s] translates to the profile indices
    0..floor(s*(s0-1)/2) (endpoint included), where the step profile is
    non-increasing so the hypothesis is checked at the last breakpoint.
    The parallel-walk generator runs in the embedding and its budget is
    strictly absorbed by the pipeline budget.
    """
    u = _as_rational(u, "target spectrum")
    v = _as_rational(v, "base spectrum")
    m = int(m)
    if m <= 0:
        raise DomainError("multiplier must be positive")
    s = as_fraction(s)
    if not (0 < s <= 1):
        raise DomainError(f"window {s} outside (0, 1]")
    ua, va, s0 = lcm_embed(u, v)
    window = profile_window(s, s0)
    budget = theorem_budgets(m, s=s)["pipeline"]
    inner = generate_rank_independent(ua, va, m, window)
    if inner.claimed_budget > budget:
        raise NumericalDegeneracyError(
            f"inner budget {inner.claimed_budget} exceeds pipeline budget {budget}"
        )
    metadata = dict(inner.metadata)
    metadata.update(
        {
            "s0": s0,
            "matching_conjugator": "identity",
            "inner_budget": inner.claimed_budget,
            "hypothesis_checked_at": f"profile breakpoint {window - 1}",
        }
    )
    return replace(
        inner,
        claimed_budget=budget,
        theorem="pipeline",
        params={
            "m": m,
            "s_num": s.numerator,
            "s_den": s.denominator,
            "n": s0,
            "window": window,
        },
        metadata=metadata,
    )


def _distance(a, b):
    """two_norm(a - b), in O(n) when a and b are both Monomials: the
    squared Frobenius norm of the difference sums, over the columns j,
    |a_j - b_j|^2 where the perms agree and |a_j|^2 + |b_j|^2 where they
    differ, a_j and b_j being the phases."""
    if not (isinstance(a, Monomial) and isinstance(b, Monomial)):
        return two_norm(np.asarray(a) - np.asarray(b))
    diff = a.phases - b.phases
    squares = np.where(
        a.perm == b.perm, diff.real**2 + diff.imag**2, a._squares() + b._squares()
    )
    return math.sqrt(squares.sum()) / math.sqrt(a.n)


def approx_stability_check(u, uprime, eps):
    """Report whether u' is close enough that u's profile doubles u'.

    Verifies |u - u'|_2 < eps and the index inequality
    ell_{2i}(u) <= 2*ell_i(u') for 2i <= n-1 (the verifier's easy direction
    at k = 2), and reports the threshold below which closeness
    forces the inequality: min(delta*s/4, delta*delta0/2) with s the
    projective rank of u in trace scale, delta a third of the profile at
    3s/4, and delta0 the right-continuity modulus.
    Central u has no such threshold and reports "degenerate".
    """
    eps = float(eps)
    if eps <= 0.0:
        raise DomainError(f"epsilon must be positive, got {eps}")
    ur = as_unitary(u, "first unitary")
    vr = as_unitary(uprime, "second unitary")
    if ur.n != vr.n:
        raise DimensionError(f"dimension mismatch: {ur.n} vs {vr.n}")
    n = ur.n
    dist = _distance(ur.op, vr.op)
    pu = projective_profile(ur).values
    pv = projective_profile(vr).values
    violations = easy_violations(pu, pv, 2)
    report = {
        "two_norm": float(dist),
        "epsilon": eps,
        "within_epsilon": bool(dist < eps),
        "profile_ok": not violations,
        "violations": violations,
    }
    rank_idx = rank_of_profile(pu)
    if rank_idx == 0:
        report["status"] = "degenerate"
        report["epsilon_threshold"] = None
    else:
        s = rank_idx / n
        delta = pu[(3 * rank_idx) // 4] / 3.0
        i_delta = 0
        for i in range(n):
            if pu[0] - pu[i] <= delta:
                i_delta = i
            else:
                break
        delta0 = min((i_delta + 1) / n, s / 2.0)
        report["status"] = "ok"
        report["epsilon_threshold"] = float(
            min(delta * s / 4.0, delta * delta0 / 2.0)
        )
    report["pass"] = bool(report["within_epsilon"] and report["profile_ok"])
    return report
