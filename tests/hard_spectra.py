"""End-to-end runs of generate_full on hard spectra.

Each case Haar-conjugates a target and a base drawn from two of the hard
families, generates with generate_full, round-trips the certificate through
JSON and verifies it.  test_generation.py runs every (target, base) family
pair once per size; run as a script, this module repeats the sweep over
fresh seeds for SECONDS and prints what it saw:

    PYTHONPATH=src python tests/hard_spectra.py
"""

import json
import math
import time
import warnings

import numpy as np

import normgen as ng

FAMILIES = ("tight", "antipodal", "repeated", "half-cluster", "uniform", "narrow")
SIZES = (2, 3, 5, 8, 13, 24)
# inputs that force more conjugates than this are skipped
MAX_LOWER_BOUND = 5000
SECONDS = 60.0


def hard_angles(family, n, rng):
    """Eigenvalue angles of one of the hard families."""
    if family == "tight":
        # one cluster of half-width 1e-4 to 1e-10
        half = 10.0 ** -rng.uniform(4.0, 10.0)
        return rng.uniform(-math.pi, math.pi) + rng.uniform(-half, half, n)
    if family == "antipodal":
        # two antipodal points, each eigenvalue moved by up to 1e-7
        turns = np.where(np.arange(n) % 2, math.pi, 0.0)
        return rng.uniform(-math.pi, math.pi) + turns + rng.uniform(-1e-7, 1e-7, n)
    if family == "repeated":
        return rng.uniform(-math.pi, math.pi, 3)[rng.integers(0, 3, n)]
    if family == "half-cluster":
        k = n // 2
        cluster = rng.uniform(-math.pi, math.pi) + rng.uniform(-1e-6, 1e-6, k)
        return np.concatenate((cluster, rng.uniform(-math.pi, math.pi, n - k)))
    if family == "uniform":
        return rng.uniform(-math.pi, math.pi, n)
    assert family == "narrow"
    return rng.uniform(-0.05, 0.05, n)


def conjugated(angles, rng):
    """A Haar conjugate of diag(e^{i angles})."""
    w = ng.haar_unitary(len(angles), rng).matrix
    return (w * np.exp(1j * angles)) @ w.conj().T


def run_case(target, base, n, seed):
    """One case: ("skipped", lower bound), ("degenerate", None), or
    ("verified", report) for the certificate after a JSON round trip.
    RuntimeWarnings are errors."""
    rng = np.random.default_rng(seed)
    ua, va = hard_angles(target, n, rng), hard_angles(base, n, rng)
    ell_v = ng.projective_one_norm(ng.CircleSpectrum(va))[0]
    ell_u = ng.projective_one_norm(ng.CircleSpectrum(ua))[0]
    if ell_v * MAX_LOWER_BOUND < ell_u:
        return "skipped", ell_u / ell_v if ell_v > 0.0 else math.inf
    u, v = conjugated(ua, rng), conjugated(va, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cert = ng.generate_full(u, v)
        except ng.DegenerateInputError:
            return "degenerate", None
        back = ng.Certificate.from_json(json.loads(json.dumps(cert.to_json())))
        return "verified", ng.verify_certificate(back)


def cases(seed, sizes=SIZES):
    """(target, base, n, seed) of every family pair and size."""
    for n in sizes:
        for i, target in enumerate(FAMILIES):
            for j, base in enumerate(FAMILIES):
                yield target, base, n, [seed, n, i, j]


def main():
    counts = dict.fromkeys(("verified", "failed", "skipped", "degenerate"), 0)
    worst_ratio, largest_k, seed = 0.0, 0, 12
    stop = time.perf_counter() + SECONDS
    while time.perf_counter() < stop:
        for case in cases(seed):
            outcome, report = run_case(*case)
            if outcome == "verified":
                if not report["pass"]:
                    outcome = "failed"
                    print("failed:", case, report.get("error"), report["checks"])
                else:
                    worst_ratio = max(worst_ratio, report["margins"]["residual_ratio"])
                    largest_k = max(largest_k, report["length"])
            counts[outcome] += 1
        seed += 1
    print(f"{seed - 12} seeds from 12: {counts}, worst residual_ratio {worst_ratio:.4f}, "
          f"largest k {largest_k}")
    return 1 if counts["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
