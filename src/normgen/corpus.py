"""Seeded instance sampling and the aggregate corpus runner.

Spectra are drawn as sorted uniform angles and perturbed; admissible pairs
come from scaling the base's gaps to nearly the full circle (deepening its
profile) and shrinking the target's angles until the generation hypothesis
holds.  Every draw is a pure function of (seed, case index), so reruns and
parallel runs aggregate to the identical report; run_corpus forks one share
of the cases per usable CPU on Linux and reassembles the rows in case order.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np

from .commutator import aux_inequality_check, llbound_diagnostic
from .certificate import verify_certificate
from .config import MODES
from .errors import DomainError, NumericalDegeneracyError
from .generation import (
    generate_full,
    generate_rank_dependent,
    generate_rank_independent,
    hypothesis_check,
)
from .rational import RationalSpectrum, lcm_embed, pipeline_generate, profile_window
from .spectral import CircleSpectrum, Monomial, UnitaryRep, canon_angle, haar_unitary
from .symmetries import broise_kernel_certificate

__all__ = [
    "admissible_pair",
    "admissible_rational_pair",
    "haar_unitary",
    "random_spectrum",
    "run_corpus",
]

REPORT_VERSION = "normgen-report/1"


def random_spectrum(n, rng):
    """Sorted uniform angles over an arc of length drawn uniformly from
    [pi/2, 2*pi), jittered."""
    n = int(n)
    if n < 1:
        raise DomainError("need at least one angle")
    span = float(rng.uniform(0.5 * math.pi, 2.0 * math.pi))
    start = float(rng.uniform(-math.pi, math.pi))
    raw = np.sort(rng.uniform(0.0, span, size=n))
    jitter = rng.normal(scale=span * 0.01 / max(n, 1), size=n)
    return CircleSpectrum(canon_angle(start + raw + jitter))


def _spread_gaps(angles):
    """Rescale consecutive gaps so the spectrum spans (n-1)/n of the circle."""
    srt = np.sort(angles)
    n = srt.shape[0]
    if n == 1:
        return srt
    gaps = np.diff(srt)
    total = float(gaps.sum())
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
    Returns UnitaryRep values, Haar-conjugated unless conjugate is False,
    when they are diagonal Monomials.
    """
    n = int(n)
    s = int(s)
    if not (1 <= s <= (n - 1) // 2 + 1):
        raise DomainError(f"block count {s} out of range for size {n}")
    v_angles = _spread_gaps(random_spectrum(n, rng).angles)
    u_angles = _contracted(
        random_spectrum(n, rng).angles,
        lambda a: hypothesis_check(CircleSpectrum(a), CircleSpectrum(v_angles), m, s).satisfied,
        f"no admissible target found for n={n}, m={m}, s={s}",
    )
    ud = np.exp(1j * u_angles)
    vd = np.exp(1j * v_angles)
    if not conjugate:
        return UnitaryRep(Monomial(np.arange(n), ud)), UnitaryRep(Monomial(np.arange(n), vd))
    ud, vd = np.diag(ud), np.diag(vd)
    g = haar_unitary(n, rng)
    h = haar_unitary(n, rng)
    return (
        UnitaryRep(g.matrix @ ud @ g.matrix.conj().T),
        UnitaryRep(h.matrix @ vd @ h.matrix.conj().T),
    )


def _contracted(angles, admits, failure):
    """The angles, shrunk by 0.7 until admits(angles) holds, in 80 tries."""
    for _ in range(80):
        if admits(angles):
            return angles
        angles = angles * 0.7
    raise NumericalDegeneracyError(failure)


def _random_weights(rng):
    den = int(rng.choice((2, 3, 4, 6)))
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

    def target(angles):
        return RationalSpectrum(tuple(zip(map(float, angles), wu)))

    def admits(angles):
        ua, va, s0 = lcm_embed(target(angles), v)
        return hypothesis_check(ua, va, int(m), profile_window(s, s0)).satisfied

    failure = f"no admissible rational target found for m={m}, s={s}"
    return target(_contracted(u_angles, admits, failure)), v


def _case_rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def _run_case(seed, index, sizes):
    """The result row of case index, which runs generator MODES[index % 5]."""
    mode = MODES[index % len(MODES)]
    rng = _case_rng(seed, index)
    if mode == "rank-dep":
        n = int(rng.choice(sizes))
        m = int(rng.integers(1, 5))
        u, v = admissible_pair(n, m, 1, rng)
        cert = generate_rank_dependent(u, v, m)
    elif mode == "rank-indep":
        n = max(5, int(rng.choice(sizes)))
        smax = (n - 1) // 2 + 1
        s = int(rng.integers(2, smax + 1))
        m = int(rng.integers(1, 4))
        u, v = admissible_pair(n, m, s, rng)
        cert = generate_rank_independent(u, v, m, s)
    elif mode == "full":
        n = int(rng.choice(sizes))
        u = haar_unitary(n, rng)
        _, v = admissible_pair(n, 1, 1, rng)
        cert = generate_full(u, v)
    elif mode == "pipeline":
        m = int(rng.integers(1, 3))
        s = Fraction(1, int(rng.integers(2, 4)))
        u, v = admissible_rational_pair(m, s, rng)
        cert = pipeline_generate(u, v, m, s)
    else:
        k = int(rng.integers(1, 7))
        w = haar_unitary(k, rng)
        cert = broise_kernel_certificate(w)
    report = verify_certificate(cert)
    out = {
        "case": int(index),
        "mode": mode,
        "n": cert.n,
        "length": len(cert),
        "budget": int(cert.claimed_budget),
        "residual": report["residual"],
        "lower_bound": report["lower_bound"],
        "lower_bound_ratio": (
            len(cert) / report["lower_bound"]
            if report["lower_bound"] else None
        ),
        "pass": bool(report["pass"]),
    }
    if mode in ("rank-dep", "rank-indep", "full"):
        # the target's own angles, which the certificate stores
        spec = CircleSpectrum(np.sort(cert.target_angles))
        ll = llbound_diagnostic(spec)
        out["llbound_ratio"] = ll["ratio"]
        slacks = [row["slack"] for row in aux_inequality_check(spec)]
        out["aux_min_slack"] = min(slacks) if slacks else None
    return out


def _share_count(cases):
    """How many interleaved shares run_corpus splits its cases into: one per
    usable CPU and at most one per 4 cases (a fork and its wait cost about
    as much as a case), on Linux while no other Python thread runs, since a
    forked child holds only the thread that forked it; otherwise 1."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), cases // 4))


def _run_share(seed, sizes, indices):
    """Rows of the cases at indices, by index, up to the first that raises."""
    rows = {}
    for i in indices:
        try:
            rows[i] = _run_case(seed, i, sizes)
        except Exception:
            break
    return rows


def _run_cases(seed, sizes, cases):
    """The rows of cases 0..cases-1 in case order, as a serial run makes
    them, raising the exception of the lowest failing case.

    Share r of w holds cases r, r + w, r + 2w, ...  A forked child runs each
    share but the first and pipes back the pickled rows it made before its
    first failure; the parent runs share 0, reaps every child, and then runs
    in index order whatever no share delivered, so the lowest failing case
    raises here with its own traceback.
    """
    shares = _share_count(cases)
    children = []
    try:
        for r in range(1, shares):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # no process to spare: the parent runs the unforked shares
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                code = 1
                try:
                    # drop every inherited read end, so that once the parent
                    # closes its copies a blocked writer gets a broken pipe
                    os.close(read)
                    for _, pipe in children:
                        pipe.close()
                    with os.fdopen(write, "wb") as out:
                        pickle.dump(_run_share(seed, sizes, range(r, cases, shares)), out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        rows = _run_share(seed, sizes, range(0, cases, shares))
        payloads = [pipe.read() for _, pipe in children]
    finally:
        # closed read ends unblock a child still writing, so the waits end
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for payload, status in zip(payloads, statuses):
        if status == 0:
            rows.update(pickle.loads(payload))
    return [rows[i] if i in rows else _run_case(seed, i, sizes) for i in range(cases)]


def _extremes(rows):
    """The report's extremes, each over the rows that have the value."""
    columns = {
        "max_residual": (max, lambda r: r["residual"]),
        "max_budget_ratio": (max, lambda r: r["length"] / r["budget"] if r["budget"] else None),
        "max_lower_bound_ratio": (max, lambda r: r["lower_bound_ratio"]),
        "llbound_max_ratio": (max, lambda r: r.get("llbound_ratio")),
        "aux_min_slack": (min, lambda r: r.get("aux_min_slack")),
    }
    return {name: pick((x for x in map(key, rows) if x is not None), default=None)
            for name, (pick, key) in columns.items()}


def run_corpus(seed=0, sizes=None, cases=25):
    """Run seeded instances across every generator and aggregate.

    Deterministic in (seed, sizes, cases): each case draws from its own
    (seed, index) stream, so results are independent of execution order.
    The cases run in interleaved shares, one per usable CPU on Linux (see
    _run_cases), and the report is the one a serial run makes.
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
    results = _run_cases(seed, sizes, cases)
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
    return {
        "version": REPORT_VERSION,
        "kind": "corpus",
        "seed": int(seed),
        "sizes": list(sizes),
        "cases": cases,
        "suites": suites,
        "results": results,
        **_extremes(results),
        "all_pass": all(r["pass"] for r in results),
    }
