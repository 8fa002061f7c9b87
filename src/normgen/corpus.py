"""Seeded instance sampling and the aggregate corpus runner.

Spectra are drawn as sorted uniform angles and perturbed; admissible pairs
come from scaling the base's gaps to nearly the full circle (deepening its
profile) and shrinking the target's angles until the generation hypothesis
holds.  Every draw is a pure function of (seed, case index), so reruns and
parallel runs aggregate to the identical report.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .commutator import aux_inequality_check, llbound_diagnostic
from .errors import DomainError, NumericalDegeneracyError
from .generation import (
    generate_full,
    generate_rank_dependent,
    generate_rank_independent,
    hypothesis_check,
    verify_certificate,
)
from .rational import RationalSpectrum, lcm_embed, pipeline_generate
from .spectral import CircleSpectrum, UnitaryRep, canon_angle, spectrum_of
from .symmetries import broise_kernel_certificate

__all__ = [
    "admissible_pair",
    "admissible_rational_pair",
    "haar_unitary",
    "random_spectrum",
    "run_corpus",
]

REPORT_VERSION = "normgen-report/1"

MODES = ("rank-dep", "rank-indep", "full", "pipeline", "broise")


def haar_unitary(n, rng):
    """Haar-distributed unitary via QR with the phase convention fixed."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))[None, :]
    return UnitaryRep(q)


def random_spectrum(n, rng, span=None):
    """Sorted uniform angles over a random arc, jittered.

    span is the arc length the raw draw covers; omitted, it is drawn
    uniformly from [pi/2, 2*pi).
    """
    n = int(n)
    if n < 1:
        raise DomainError("need at least one angle")
    if span is None:
        span = float(rng.uniform(0.5 * math.pi, 2.0 * math.pi))
    start = float(rng.uniform(-math.pi, math.pi))
    raw = np.sort(rng.uniform(0.0, span, size=n))
    jitter = rng.normal(scale=span * 0.01 / max(n, 1), size=n)
    return CircleSpectrum(canon_angle(start + raw + jitter))


def _spread_gaps(angles, coverage=None):
    """Rescale consecutive gaps so the spectrum spans most of the circle."""
    srt = np.sort(angles)
    n = srt.shape[0]
    if n == 1:
        return srt
    gaps = np.diff(srt)
    total = float(gaps.sum())
    if coverage is None:
        coverage = 2.0 * math.pi * (n - 1) / n
    if total <= 1e-12:
        gaps = np.full(n - 1, coverage / (n - 1))
    else:
        gaps = gaps * (coverage / total)
    out = np.concatenate(([srt[0]], srt[0] + np.cumsum(gaps)))
    return canon_angle(out)


def admissible_pair(n, m, s, rng, conjugate=True):
    """Target and base satisfying ell_0(u) <= m * ell_t(v) for t < s.

    The base's gaps are scaled to cover nearly the whole circle; the
    target's angles are contracted toward zero until the hypothesis holds.
    Returns UnitaryRep values, Haar-conjugated unless conjugate is False.
    """
    n = int(n)
    s = int(s)
    if not (1 <= s <= (n - 1) // 2 + 1):
        raise DomainError(f"block count {s} out of range for size {n}")
    v_angles = _spread_gaps(random_spectrum(n, rng).angles)
    u_angles = random_spectrum(n, rng).angles
    for _ in range(80):
        report = hypothesis_check(
            CircleSpectrum(u_angles), CircleSpectrum(v_angles), m, s
        )
        if report.satisfied:
            break
        u_angles = u_angles * 0.7
    else:
        raise NumericalDegeneracyError(
            f"no admissible target found for n={n}, m={m}, s={s}"
        )
    ud = np.diag(np.exp(1j * u_angles))
    vd = np.diag(np.exp(1j * v_angles))
    if not conjugate:
        return UnitaryRep(ud), UnitaryRep(vd)
    g = haar_unitary(n, rng)
    h = haar_unitary(n, rng)
    return (
        UnitaryRep(g.matrix @ ud @ g.matrix.conj().T),
        UnitaryRep(h.matrix @ vd @ h.matrix.conj().T),
    )


def _random_weights(rng, dens=(2, 3, 4, 6)):
    den = int(rng.choice(dens))
    k = int(rng.integers(1, den + 1))
    cuts = np.sort(rng.choice(np.arange(1, den), size=k - 1, replace=False))
    parts = np.diff(np.concatenate(([0], cuts, [den])))
    return [Fraction(int(p), den) for p in parts]


def admissible_rational_pair(m, s, rng):
    """Rational-spectrum pair admissible for the pipeline at (m, s).

    The base gets equal weights on spread angles; the target's angles are
    contracted until the hypothesis holds on the lcm embedding.
    """
    s = Fraction(s)
    wu = _random_weights(rng)
    u_angles = np.sort(rng.uniform(-2.8, 2.8, size=len(wu)))
    kv = int(rng.integers(3, 7))
    v_angles = _spread_gaps(np.sort(rng.uniform(-math.pi, 2.4, size=kv)))
    v_angles = np.unique(v_angles)
    v = RationalSpectrum(
        tuple((float(a), Fraction(1, len(v_angles))) for a in v_angles)
    )
    for _ in range(80):
        u = RationalSpectrum(tuple(zip(map(float, u_angles), wu)))
        ua, va, s0 = lcm_embed(u, v)
        window = min(int(s * (s0 - 1) / 2) + 1, (s0 - 1) // 2 + 1)
        if hypothesis_check(ua, va, int(m), window).satisfied:
            return u, v
        u_angles = u_angles * 0.7
    raise NumericalDegeneracyError(
        f"no admissible rational target found for m={m}, s={s}"
    )


def _case_rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def _run_case(mode, seed, index, sizes):
    rng = _case_rng(seed, index)
    diag = None
    if mode == "rank-dep":
        n = int(rng.choice(sizes))
        m = int(rng.integers(1, 5))
        u, v = admissible_pair(n, m, 1, rng)
        cert = generate_rank_dependent(u, v, m)
        diag = u
    elif mode == "rank-indep":
        n = max(5, int(rng.choice(sizes)))
        smax = (n - 1) // 2 + 1
        s = int(rng.integers(2, smax + 1))
        m = int(rng.integers(1, 4))
        u, v = admissible_pair(n, m, s, rng)
        cert = generate_rank_independent(u, v, m, s)
        diag = u
    elif mode == "full":
        n = int(rng.choice(sizes))
        u = haar_unitary(n, rng)
        _, v = admissible_pair(n, 1, 1, rng)
        cert = generate_full(u, v)
        diag = u
    elif mode == "pipeline":
        m = int(rng.integers(1, 3))
        s = Fraction(1, int(rng.integers(2, 4)))
        u, v = admissible_rational_pair(m, s, rng)
        cert = pipeline_generate(u, v, m, s)
    elif mode == "broise":
        k = int(rng.integers(1, 7))
        w = haar_unitary(k, rng)
        cert = broise_kernel_certificate(w)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    report = verify_certificate(cert)
    out = {
        "case": int(index),
        "mode": mode,
        "n": int(np.asarray(cert.target).shape[0]),
        "length": len(cert.steps),
        "budget": int(cert.claimed_budget),
        "residual": report["residual"],
        "lower_bound": report["lower_bound"],
        "lower_bound_ratio": (
            len(cert.steps) / report["lower_bound"]
            if report["lower_bound"] else None
        ),
        "pass": bool(report["pass"]),
    }
    if diag is not None:
        spec = spectrum_of(diag)
        ll = llbound_diagnostic(spec)
        out["llbound_ratio"] = ll["ratio"]
        slacks = [row["slack"] for row in aux_inequality_check(spec)]
        out["aux_min_slack"] = min(slacks) if slacks else None
    return out


def run_corpus(seed=0, sizes=None, cases=25):
    """Run seeded instances across every generator and aggregate.

    Deterministic in (seed, sizes, cases): each case draws from its own
    (seed, index) stream, so results are independent of execution order.
    """
    cases = int(cases)
    if cases < 0:
        raise DomainError("case count must be nonnegative")
    if sizes is None:
        sizes = tuple(range(2, 11))
    sizes = tuple(int(x) for x in sizes)
    if cases and not sizes:
        raise DomainError("sizes must be nonempty when cases are run")
    if sizes and (min(sizes) < 2):
        raise DomainError("sizes must be at least 2")
    results = [
        _run_case(MODES[i % len(MODES)], seed, i, sizes) for i in range(cases)
    ]
    results.sort(key=lambda row: row["case"])
    suites = {}
    for row in results:
        bucket = suites.setdefault(
            row["mode"], {"cases": 0, "passes": 0, "failures": []}
        )
        bucket["cases"] += 1
        if row["pass"]:
            bucket["passes"] += 1
        else:
            bucket["failures"].append(row["case"])
    residuals = [r["residual"] for r in results if r["residual"] is not None]
    ratios = [
        r["length"] / r["budget"] for r in results if r["budget"]
    ]
    lb_ratios = [
        r["lower_bound_ratio"]
        for r in results
        if r["lower_bound_ratio"] is not None
    ]
    ll = [
        r["llbound_ratio"]
        for r in results
        if r.get("llbound_ratio") is not None
    ]
    aux = [
        r["aux_min_slack"]
        for r in results
        if r.get("aux_min_slack") is not None
    ]
    return {
        "version": REPORT_VERSION,
        "kind": "corpus",
        "seed": int(seed),
        "sizes": list(sizes),
        "cases": cases,
        "suites": suites,
        "results": results,
        "max_residual": max(residuals) if residuals else None,
        "max_budget_ratio": max(ratios) if ratios else None,
        "max_lower_bound_ratio": max(lb_ratios) if lb_ratios else None,
        "llbound_max_ratio": max(ll) if ll else None,
        "aux_min_slack": min(aux) if aux else None,
        "all_pass": all(r["pass"] for r in results),
    }
