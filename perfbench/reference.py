"""Closed-form projective profile and one-norm, the benchmark's reference.

For a unitary with eigenvalue angles a_j, the singular values of 1 - lam*u
are the chords |1 - lam e^{i a_j}|.  The (i+1)-th largest of them is at most
r exactly when an arc of chord radius r around conj(lam) holds n - i
eigenvalues, so ell_i is the minimum over cyclic windows of n - i
consecutive sorted angles of 2 sin(span / 4).  Each chord term of the
one-norm is concave between its zeros, so the one-norm minimum sits at a
phase that cancels some eigenvalue: min_j mean_k chord(a_k - a_j).

Run this file to self-test the reference:

    PYTHONPATH=src python3 perfbench/reference.py
"""

import math
import sys

import numpy as np

TWO_PI = 2.0 * math.pi


def ell_profile(angles):
    """Exact projective profile values, descending, from eigenvalue angles."""
    a = np.sort(np.mod(np.asarray(angles, dtype=float), TWO_PI))
    n = a.shape[0]
    ext = np.concatenate((a, a + TWO_PI))
    out = np.empty(n)
    for i in range(n):
        width = n - i
        spans = ext[width - 1 : width - 1 + n] - ext[:n]
        out[i] = 2.0 * math.sin(float(spans.min()) / 4.0)
    return out


def one_norm(angles):
    """Exact projective one-norm min over lam of mean |1 - lam e^{i a_j}|."""
    a = np.asarray(angles, dtype=float)
    chords = np.abs(2.0 * np.sin(0.5 * (a[None, :] - a[:, None])))
    return float(chords.mean(axis=1).min())


def _dense_scan(angles, points=1 << 17):
    """Profile and one-norm minimized over an even grid of phases."""
    t = np.arange(points) * (TWO_PI / points)
    chords = np.abs(2.0 * np.sin(0.5 * (t[:, None] + np.asarray(angles)[None, :])))
    ordered = -np.sort(-chords, axis=1)
    return ordered.min(axis=0), float(chords.mean(axis=1).min()), TWO_PI / points


def _small_spectra(rng):
    for n in range(2, 7):
        yield rng.uniform(-math.pi, math.pi, n)
        yield rng.uniform(-0.3, 0.3, n)
        yield rng.choice([0.0, 1.0, -2.0, math.pi], n) + rng.normal(0.0, 1e-3, n)
        half = rng.uniform(-math.pi, math.pi, (n + 1) // 2)
        yield np.concatenate((half, half + math.pi))[:n]
        yield np.repeat(rng.uniform(-math.pi, math.pi, 1), n)


def self_test(ng=None, seed=0):
    """Problems found, as strings; empty when the reference holds.

    A grid scan can only overshoot the true minimum, and by at most half a
    grid step because every chord is 1-Lipschitz in the phase.  With the
    package ng given, the reference must also match its projective profile
    on uniform spectra, where the package is exact.
    """
    rng = np.random.default_rng([seed, 0])
    problems = []
    for angles in _small_spectra(rng):
        scan, scan_one, step = _dense_scan(angles)
        gap = scan - ell_profile(angles)
        if gap.min() < -1e-12 or gap.max() > step:
            problems.append(f"profile vs scan at n={len(angles)}: {gap.min():.2e}..{gap.max():.2e}")
        gap_one = scan_one - one_norm(angles)
        if gap_one < -1e-12 or gap_one > step:
            problems.append(f"one-norm vs scan at n={len(angles)}: {gap_one:.2e}")
    if ng is not None:
        for n in (8, 16, 32):
            spec = ng.CircleSpectrum(rng.uniform(-math.pi, math.pi, n))
            got = ng.projective_profile(spec).values
            err = float(np.max(np.abs(got - ell_profile(spec.angles))))
            if err > ng.TOL.ell:
                problems.append(f"profile vs package at n={n}: {err:.2e}")
    return problems


if __name__ == "__main__":
    try:
        import normgen
    except ImportError:
        normgen = None
    found = self_test(normgen)
    for line in found:
        print(line)
    print("reference self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
