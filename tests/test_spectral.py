"""Oracle and property tests for the spectral layer.

The dense-grid oracle below recomputes projective values on a million-point
phase grid with none of the package's refinement machinery; frozen
closed-form values are derived in comments next to each test.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normgen as ng
from hard_spectra import conjugated, hard_angles
from normgen.corpus import _spread_gaps, random_spectrum
from normgen.spectral import (
    _BLOCK,
    best_phase,
    matrix_from_json,
    matrix_to_json,
    rank_of_profile,
    spectrum_of,
)

ORACLE_GRID = 1_000_000
# oracle minimum sits within half a grid cell of the truth (1-Lipschitz)
ORACLE_SLACK = math.pi / ORACLE_GRID + 1e-9


def ell_oracle(angles, i):
    """Projective value by brute grid scan, no refinement."""
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[0]
    ts = np.linspace(0.0, 2.0 * math.pi, ORACLE_GRID, endpoint=False)
    best = math.inf
    step = 50_000
    for s in range(0, ORACLE_GRID, step):
        t = ts[s : s + step]
        d = np.abs(2.0 * np.sin(0.5 * (t[:, None] + angles[None, :])))
        v = np.partition(d, n - 1 - i, axis=1)[:, n - 1 - i]
        m = float(v.min())
        if m < best:
            best = m
    return best


def sorted_dists(angles, phase):
    d = np.abs(2.0 * np.sin(0.5 * (phase + np.asarray(angles, dtype=float))))
    return np.sort(d)[::-1]


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))[None, :]


angles_lists = st.lists(
    st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    min_size=1,
    max_size=10,
)


class TestFrozenProjective:
    def test_quarter_turn_pair(self):
        # eigenvalues 1 and i: the best phase balances the two distances at
        # t = -pi/4, giving 2*sin(pi/8) for both
        v, lam = ng.projective_s_number(ng.CircleSpectrum([0.0, math.pi / 2]), 0)
        assert v == pytest.approx(2.0 * math.sin(math.pi / 8), abs=1e-8)
        assert abs(abs(lam) - 1.0) < 1e-12

    def test_quarter_turn_matches_oracle(self):
        v, _ = ng.projective_s_number(ng.CircleSpectrum([0.0, math.pi / 2]), 0)
        assert abs(v - ell_oracle([0.0, math.pi / 2], 0)) < ORACLE_SLACK

    def test_half_turn_profile(self):
        prof = ng.projective_profile(ng.CircleSpectrum([0.0, math.pi]))
        assert prof.values[0] == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert prof.values[1] == pytest.approx(0.0, abs=1e-9)
        # the top witness balances distances to 1 and -1, so it is +-i
        assert abs(prof.witnesses[0].real) < 1e-6

    def test_cube_roots_profile(self):
        # top value: the best phase sits on an eigenvalue, chord sqrt(3) to
        # the other two; second value: phase between two eigenvalues gives
        # chords (2, 1, 1); the last value always vanishes
        third = 2.0 * math.pi / 3.0
        prof = ng.projective_profile(ng.CircleSpectrum([0.0, third, -third]))
        assert prof.values[0] == pytest.approx(math.sqrt(3.0), abs=1e-8)
        assert prof.values[1] == pytest.approx(1.0, abs=1e-8)
        assert prof.values[2] == pytest.approx(0.0, abs=1e-9)

    def test_three_point_with_antipodes(self):
        # eigenvalues 1, i, -1: any phase is at chord >= sqrt(2) from one of
        # the antipodal pair, and t = -pi/2 lands on the middle eigenvalue
        prof = ng.projective_profile(ng.CircleSpectrum([0.0, math.pi / 2, math.pi]))
        assert prof.values[0] == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert 1.0 <= prof.values[0] <= 2.0

    def test_doubled_multiplicities(self):
        # angles (0, 0, pi, pi): top two values coincide at sqrt(2)
        prof = ng.projective_profile(ng.CircleSpectrum([0.0, 0.0, math.pi, math.pi]))
        assert prof.values[0] == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert prof.values[1] == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert prof.values[2] == pytest.approx(0.0, abs=1e-9)
        assert prof.values[3] == pytest.approx(0.0, abs=1e-9)

    def test_single_eigenvalue(self):
        spec = ng.CircleSpectrum([1.234])
        v, _ = ng.projective_s_number(spec, 0)
        assert v == pytest.approx(0.0, abs=1e-9)
        assert rank_of_profile(ng.projective_profile(spec).values) == 0

    def test_identity_profile(self):
        prof = ng.projective_profile(ng.UnitaryRep(np.eye(3)))
        assert np.all(prof.values < 1e-9)


class TestOneNormAndMean:
    def test_half_turn_one_norm(self):
        # mean of |1-lam| and |1+lam| is at least 1 by the triangle
        # inequality, attained at lam = +-1 where the distances are 0 and 2
        v, lam = ng.projective_one_norm(ng.CircleSpectrum([0.0, math.pi]))
        assert v == pytest.approx(1.0, abs=1e-8)
        assert abs(lam.imag) < 1e-6

    def test_identity_and_center(self):
        assert ng.projective_one_norm(ng.UnitaryRep(np.eye(2)))[0] < 1e-9
        assert ng.projective_one_norm(ng.UnitaryRep(-np.eye(3)))[0] < 1e-9

    def test_half_turn_profile_mean(self):
        u = ng.CircleSpectrum([0.0, math.pi])
        assert ng.profile_mean(u) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-8)

    @settings(deadline=None, max_examples=60)
    @given(angles_lists)
    def test_one_norm_oracle(self, angles):
        a = np.asarray(angles, dtype=float)
        v, lam = ng.projective_one_norm(ng.CircleSpectrum(a))
        brute = min(float(np.mean(ng.chord(a - aj))) for aj in a)
        assert v == pytest.approx(brute, abs=1e-12)
        # the mean of 1-Lipschitz chords is 1-Lipschitz in the phase, so a
        # grid minimum overshoots by at most half a cell
        grid = 1 << 16
        ts = np.arange(grid) * (2.0 * math.pi / grid)
        scan = float(np.min(np.mean(ng.chord(ts[:, None] + a[None, :]), axis=1)))
        assert v <= scan + 1e-12
        assert scan <= v + math.pi / grid + 1e-12
        attained = float(np.mean(np.abs(1.0 - lam * np.exp(1j * a))))
        assert attained == pytest.approx(v, abs=1e-12)

    def test_mean_below_one_norm(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 9):
            spec = ng.CircleSpectrum(rng.uniform(-math.pi, math.pi, size=n))
            assert ng.profile_mean(spec) <= ng.projective_one_norm(spec)[0] + 1e-8


class TestSingularNumbers:
    def test_units_example(self):
        # x = I - diag(i, -i, 1): singular values sqrt(2), sqrt(2), 0
        x = np.eye(3) - np.diag([1j, -1j, 1.0])
        s = ng.singular_values(x)
        assert s[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert s[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert s[2] == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self):
        x = np.eye(4) - np.eye(4)
        assert ng.singular_values(x).tolist() == [0.0] * 4

    def test_index_range(self):
        x = np.eye(3)
        with pytest.raises(IndexError):
            ng.projective_s_number(x, 3)
        with pytest.raises(IndexError):
            ng.projective_s_number(x, -1)

    def test_one_norm_value(self):
        x = np.diag([1.0 - 1j, 1.0 + 1j, 0.0])
        assert ng.one_norm(x) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
        assert ng.one_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_two_norm_value(self):
        assert ng.two_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_projection_infimum_oracle(self):
        # mu_i is the least operator norm of x restricted to a codimension-i
        # subspace: random subspaces can only give upper bounds, and the
        # optimizer built from an independent eigensolver attains the value
        rng = np.random.default_rng(7)

        def opnorm(m):
            if m.shape[1] == 0:
                return 0.0
            return math.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m).max(), 0.0))

        for n in (2, 3, 4):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            gram = x.conj().T @ x
            _, vecs = np.linalg.eigh(gram)
            for i in range(n):
                mu = float(ng.singular_values(x)[i])
                attained = opnorm(x @ vecs[:, : n - i])
                assert abs(mu - attained) <= 1e-9
                for _ in range(40):
                    z = rng.standard_normal((n, n - i)) + 1j * rng.standard_normal(
                        (n, n - i)
                    )
                    q, _ = np.linalg.qr(z)
                    assert mu <= opnorm(x @ q) + 1e-9


class TestDenseOracleAgreement:
    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3), (16, 4)])
    def test_random_spectra(self, n, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-math.pi, math.pi, size=n)
        prof = ng.projective_profile(ng.CircleSpectrum(angles))
        indices = range(n) if n <= 5 else (0, 1, n // 2, n - 1)
        for i in indices:
            o = ell_oracle(angles, i)
            assert prof.values[i] <= o + 1e-8
            assert o <= prof.values[i] + ORACLE_SLACK

    def test_clustered_spectrum(self):
        angles = np.array([0.0, 1e-7, 1e-7, 2.0, 2.0 + 1e-9, -2.0])
        prof = ng.projective_profile(ng.CircleSpectrum(angles))
        for i in range(6):
            o = ell_oracle(angles, i)
            assert prof.values[i] <= o + 1e-8
            assert o <= prof.values[i] + ORACLE_SLACK

    @pytest.mark.parametrize("family,seed", [("four-clusters", 21), ("clustered", 69)])
    def test_hard_spectra(self, family, seed):
        # seeded n=31 spectra whose grid-search basins nearly tie: four
        # clusters with 1e-3 jitter, and angles clustered in +-0.3
        rng = np.random.default_rng(seed)
        n = 31
        if family == "four-clusters":
            angles = rng.choice([0.0, 1.0, -2.0, math.pi], n) + rng.normal(0.0, 1e-3, n)
        else:
            angles = rng.uniform(-0.3, 0.3, size=n)
        prof = ng.projective_profile(ng.CircleSpectrum(angles))
        for i in (0, 14, 16, 22, n - 1):
            o = ell_oracle(angles, i)
            assert prof.values[i] <= o + 1e-8
            assert o <= prof.values[i] + ORACLE_SLACK

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_large_uniform_spectra(self, n):
        angles = np.random.default_rng(n).uniform(-math.pi, math.pi, size=n)
        prof = ng.projective_profile(ng.CircleSpectrum(angles))
        assert np.all(np.diff(prof.values) <= 0)
        assert prof.values[-1] == 0.0
        for i in np.linspace(0, n - 1, 17).astype(int):
            t = math.atan2(prof.witnesses[i].imag, prof.witnesses[i].real)
            assert sorted_dists(angles, t)[i] == pytest.approx(
                prof.values[i], abs=1e-10
            )

    def test_witness_attains_value(self):
        rng = np.random.default_rng(5)
        angles = rng.uniform(-math.pi, math.pi, size=6)
        prof = ng.projective_profile(ng.CircleSpectrum(angles))
        for i in range(6):
            t = math.atan2(prof.witnesses[i].imag, prof.witnesses[i].real)
            assert sorted_dists(angles, t)[i] == pytest.approx(
                prof.values[i], abs=1e-10
            )


class TestInvariants:
    @settings(deadline=None, max_examples=60)
    @given(angles_lists)
    def test_profile_monotone(self, angles):
        prof = ng.projective_profile(ng.CircleSpectrum(angles))
        assert np.all(np.diff(prof.values) <= 0)

    @settings(deadline=None, max_examples=40)
    @given(angles_lists, st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_phase_invariance(self, angles, shift):
        a = np.asarray(angles, dtype=float)
        p1 = ng.projective_profile(ng.CircleSpectrum(a))
        p2 = ng.projective_profile(ng.CircleSpectrum(a + shift))
        assert np.allclose(p1.values, p2.values, atol=2e-8)

    @settings(deadline=None, max_examples=40)
    @given(angles_lists)
    def test_adjoint_invariance(self, angles):
        a = np.asarray(angles, dtype=float)
        p1 = ng.projective_profile(ng.CircleSpectrum(a))
        p2 = ng.projective_profile(ng.CircleSpectrum(-a))
        assert np.allclose(p1.values, p2.values, atol=2e-8)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(13)
        for n in (2, 4, 7):
            angles = rng.uniform(-math.pi, math.pi, size=n)
            u = np.diag(np.exp(1j * angles))
            w = haar_unitary(n, rng)
            p1 = ng.projective_profile(ng.CircleSpectrum(angles))
            p2 = ng.projective_profile(ng.UnitaryRep(w @ u @ w.conj().T))
            assert np.allclose(p1.values, p2.values, atol=1e-7)

    def test_scalar_and_single_index_consistency(self):
        rng = np.random.default_rng(17)
        angles = rng.uniform(-math.pi, math.pi, size=7)
        prof = ng.projective_profile(ng.CircleSpectrum(angles))
        for i in range(7):
            v, _ = ng.projective_s_number(ng.CircleSpectrum(angles), i)
            assert abs(v - prof.values[i]) <= 1e-8

    def test_subadditivity(self):
        # ell_{i+j}(xy) <= ell_i(x) + ell_j(y)
        rng = np.random.default_rng(19)
        for n in (3, 5):
            for _ in range(6):
                x = haar_unitary(n, rng)
                y = haar_unitary(n, rng)
                px = ng.projective_profile(ng.UnitaryRep(x)).values
                py = ng.projective_profile(ng.UnitaryRep(y)).values
                pxy = ng.projective_profile(ng.UnitaryRep(x @ y)).values
                for i in range(n):
                    for j in range(n - i):
                        assert pxy[i + j] <= px[i] + py[j] + 1e-8

    def test_markov_bound(self):
        # mu_i(x) <= n * one_norm(x) / i for i >= 1
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            bound = ng.one_norm(x) * n
            for i in range(1, n):
                assert ng.singular_values(x)[i] <= bound / i + 1e-9

    def test_lipschitz_in_phase(self):
        rng = np.random.default_rng(29)
        angles = rng.uniform(-math.pi, math.pi, size=6)
        u = np.diag(np.exp(1j * angles))
        for _ in range(40):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            l1, l2 = np.exp(1j * t1), np.exp(1j * t2)
            for i in (0, 2, 5):
                d1 = ng.singular_values(np.eye(6) - l1 * u)[i]
                d2 = ng.singular_values(np.eye(6) - l2 * u)[i]
                assert abs(d1 - d2) <= abs(l1 - l2) + 1e-12

    def test_compression_on_blocks(self):
        # for a block of a block-diagonal unitary, the projective value of
        # the block (ambient index) is dominated by the ambient value
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            a1 = rng.uniform(-math.pi, math.pi, size=k)
            a2 = rng.uniform(-math.pi, math.pi, size=m)
            pu = ng.projective_profile(ng.CircleSpectrum(np.concatenate([a1, a2])))
            pb = ng.projective_profile(ng.CircleSpectrum(a1))
            for i in range(k):
                assert pb.values[i] <= pu.values[i] + 1e-8


class TestRankOps:
    def test_projective_rank_values(self):
        def rank(u):
            return rank_of_profile(ng.projective_profile(u).values)

        assert rank(ng.UnitaryRep(np.eye(4))) == 0
        assert rank(ng.CircleSpectrum([0.0, 0.0, math.pi])) == 1
        # well-separated distinct eigenvalues leave every index below n-1
        # strictly positive
        spec = ng.CircleSpectrum(np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False))
        assert rank(spec) == 4


def diagonalize_family(family, n, rng):
    """Eigenvalue angles of one of the hard families for diagonalize_normal."""
    if family == "collision":
        # pairs a + b = 2t +- 1e-7, which the Hermitian combination at t maps
        # about 1e-7 apart
        t = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi)
        angles = rng.uniform(-math.pi, math.pi, n)
        angles[1::2] = 2.0 * t - angles[0::2][: n // 2] + rng.choice([-1e-7, 1e-7], n // 2)
        return angles
    if family == "flat":
        # e^{i(t -+ pi/2)} collide under the combination, and eigenvalues
        # 1e-9 apart at t + pi/2 are 1e-18 apart under Im(e^{-it} u)
        t = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi)
        angles = rng.uniform(-math.pi, math.pi, n)
        ends = np.array([-math.pi / 2, math.pi / 2, math.pi / 2 + 1e-9, math.pi / 2 - 1e-9])
        angles[:4] = (t + ends)[:n]
        return angles
    if family == "spread":
        # admissible_pair's bases
        return _spread_gaps(random_spectrum(n, rng).angles)
    if family == "tight":
        # one cluster of half-width 1e-4 to 1e-10: eigh mixes its columns,
        # every coupling far under the 4 n eps cut but a row's sum over it
        return hard_angles(family, n, rng)
    return profile_family(family, n, rng)


DIAGONALIZE_FAMILIES = (
    "uniform", "clustered", "four-clusters", "antipodal", "repeated", "collision", "flat",
    "spread", "tight",
)


def tight_cluster_reproducer():
    """32 angles within 1e-6 of one point, Haar-conjugated: each coupling
    eigh leaves is under 4 n eps, but a row's add up to a rebuild of 10 n
    eps unless they are separated."""
    rng = np.random.default_rng([7, 1539])
    angles = rng.uniform(-math.pi, math.pi) + rng.uniform(-1e-6, 1e-6, 32)
    return conjugated(angles, rng)


class TestDiagonalize:
    def test_rotation_closed_form(self):
        c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
        u = np.array([[c, -s], [s, c]])
        spec, w = ng.diagonalize_normal(u)
        assert np.allclose(np.sort(spec.angles), [-math.pi / 3, math.pi / 3], atol=1e-10)
        rebuilt = w @ np.diag(np.exp(1j * spec.angles)) @ w.conj().T
        assert np.max(np.abs(rebuilt - u)) < 1e-10

    def test_diagonal_passthrough(self):
        angles = np.array([0.5, -1.2, 2.9])
        spec, w = ng.diagonalize_normal(np.diag(np.exp(1j * angles)))
        assert np.allclose(np.sort(spec.angles), np.sort(angles), atol=1e-12)
        assert np.max(np.abs(w @ w.conj().T - np.eye(3))) < 1e-12

    def test_spectrum_passthrough(self):
        spec0 = ng.CircleSpectrum([0.1, 0.2])
        spec, w = ng.diagonalize_normal(spec0)
        assert spec is spec0
        assert np.array_equal(w, np.eye(2))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(43)
        for trial in range(100):
            n = int(rng.integers(1, 17))
            u = haar_unitary(n, rng)
            spec, w = ng.diagonalize_normal(u)
            rebuilt = w @ np.diag(np.exp(1j * spec.angles)) @ w.conj().T
            assert np.max(np.abs(rebuilt - u)) <= 1e-8
            assert np.max(np.abs(w @ w.conj().T - np.eye(n))) <= 1e-9
            # angle multiset agrees with a direct eigenvalue solve
            ref = np.sort(ng.canon_angle(np.angle(np.linalg.eigvals(u))))
            got = np.sort(spec.angles)
            diff = np.abs(ng.canon_angle(got - ref))
            assert np.max(diff) < 1e-7

    def test_combination_angle_is_the_seed_zero_draw(self):
        from normgen.spectral import _COMBINATION_ANGLE

        assert _COMBINATION_ANGLE == np.random.default_rng(0).uniform(0.0, 2.0 * math.pi)

    def test_collision_pair_rebuilds_to_rounding(self):
        # the Hermitian combination, at the first draw of default_rng(0),
        # cos(t) Re u + sin(t) Im u, maps e^{ia} and e^{ib} 1e-6 apart when
        # a + b = 2t + 1e-6; eigh then mixes their eigenvectors and the
        # rebuild was off by 5e4 n eps
        n = 8
        eps = np.finfo(float).eps
        t = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi)
        rng = np.random.default_rng(5)
        angles = rng.uniform(-math.pi, math.pi, n)
        angles[1] = 2.0 * t - angles[0] + 1e-6
        w0 = haar_unitary(n, rng)
        u = (w0 * np.exp(1j * angles)) @ w0.conj().T
        spec, w = ng.diagonalize_normal(u)
        rebuilt = (w * np.exp(1j * spec.angles)) @ w.conj().T
        assert np.max(np.abs(rebuilt - u)) <= 8 * n * eps

    def test_rebuild_at_rounding_level(self, eigh_calls):
        rng = np.random.default_rng(44)
        eps = np.finfo(float).eps
        cases = itertools.product(DIAGONALIZE_FAMILIES, (2, 4, 8, 16, 32, 64, 128), range(4))
        inputs = ((f, conjugated(diagonalize_family(f, n, rng), rng)) for f, n, _ in cases)
        for family, u in itertools.chain(inputs, [("reproducer", tight_cluster_reproducer())]):
            n = u.shape[0]
            eigh_calls.clear()
            spec, w = ng.diagonalize_normal(u)
            assert eigh_calls.count((n, n)) == 1, family
            rebuilt = (w * np.exp(1j * spec.angles)) @ w.conj().T
            assert np.max(np.abs(rebuilt - u)) <= 8 * n * eps, family
            assert np.max(np.abs(w @ w.conj().T - np.eye(n))) <= 8 * n * eps, family

    def test_chained_couplings_separate_in_one_pass(self, eigh_calls):
        # eigh mixes the columns of eigenvalues that the combination maps
        # close together, and when the couplings chain through one column
        # they form a single run, which takes one small eigh
        eps = np.finfo(float).eps
        t = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi)
        # the base of a certify input: couplings (0, 2), (1, 2) and (2, 3),
        # and one to a fifth column over the per-coupling cut 4 sqrt(n) eps
        _, base = ng.admissible_pair(32, 2, 1, np.random.default_rng([1, 1]))
        rng = np.random.default_rng(0)
        angles = rng.uniform(-math.pi, math.pi, 8)
        # three eigenvalues whose images cos(a - t) lie within 1e-7
        angles[:3] = t + 1.0, t - 1.0 - 4e-8, t + 1.0 + 8e-8
        chain = conjugated(angles, rng)
        for u, run in ((base.matrix, 5), (chain, 3)):
            n = u.shape[0]
            eigh_calls.clear()
            spec, w = ng.diagonalize_normal(u)
            assert eigh_calls == [(n, n), (1, run, run)]
            rebuilt = (w * np.exp(1j * spec.angles)) @ w.conj().T
            assert np.max(np.abs(rebuilt - u)) <= 8 * n * eps

    def test_repeated_eigenvalues(self):
        rng = np.random.default_rng(47)
        w = haar_unitary(5, rng)
        d = np.diag(np.exp(1j * np.array([0.4, 0.4, 0.4, -2.0, -2.0])))
        spec, _ = ng.diagonalize_normal(w @ d @ w.conj().T)
        got = np.sort(spec.angles)
        assert np.allclose(got, [-2.0, -2.0, 0.4, 0.4, 0.4], atol=1e-8)


def diagonal_cases():
    """(name, diagonal entries) for the closed-form diagonalization."""
    rng = np.random.default_rng(48)
    n = 64
    four = rng.choice([0.0, 1.0, -2.0, math.pi], n) + rng.normal(0.0, 1e-3, n)
    half = rng.uniform(-math.pi, math.pi, n // 2 - 2)
    antipodal = np.concatenate(
        (
            np.exp(1j * np.concatenate((half, half + math.pi))),
            # -1 reached from both sides of the branch cut, and +-pi/2
            [complex(-1.0, 0.0), complex(-1.0, -0.0), 1j, -1j],
        )
    )
    signed_zeros = np.array(
        [complex(1.0, -0.0), complex(-1.0, -0.0), complex(1.0, 0.0),
         complex(-1.0, 0.0), complex(0.0, -1.0), complex(-0.0, 1.0)]
    )
    return [
        ("random", np.exp(1j * rng.uniform(-math.pi, math.pi, n))),
        ("repeated", np.exp(1j * rng.uniform(-math.pi, math.pi, 3)[rng.integers(0, 3, n)])),
        ("four-clusters", np.exp(1j * four)),
        ("antipodal", antipodal),
        ("n=1", np.exp(1j * np.array([2.0]))),
        ("signed-zeros", signed_zeros),
    ]


class TestDiagonalClosedForm:
    @pytest.mark.parametrize("d", [d for _, d in diagonal_cases()],
                             ids=[name for name, _ in diagonal_cases()])
    def test_exact_angles_and_permutation_frame(self, d, eigh_calls):
        n = d.shape[0]
        spec, w = ng.diagonalize_normal(np.diag(d))
        want = ng.canon_angle(np.angle(d))
        order = np.argsort(want, kind="stable")
        assert np.array_equal(spec.angles, want[order])
        assert np.all(np.diff(spec.angles) >= 0.0)
        assert np.array_equal(w, np.eye(n)[:, order])
        rebuilt = (w * np.exp(1j * spec.angles)) @ w.conj().T
        assert np.max(np.abs(rebuilt - np.diag(d))) <= 4 * np.finfo(float).eps
        assert eigh_calls == []

    def test_negative_zero_off_diagonal_is_diagonal(self, eigh_calls):
        m = -np.diag(np.exp(1j * np.array([0.3, -1.1, 2.5])))
        assert np.signbit(m[0, 1].real)
        spec, _ = ng.diagonalize_normal(m)
        assert np.array_equal(spectrum_of(m).angles, spec.angles)
        assert eigh_calls == []

    def test_modulus_defect_rebuilds_within_diag_residual(self):
        # UnitaryRep admits a max-norm defect of 1e-9, so |z| - 1 up to 5e-10
        d = np.exp(1j * np.array([0.3, -1.1, 2.5])) * (1.0 + 4.9e-10)
        spec, w = ng.diagonalize_normal(np.diag(d))
        rebuilt = (w * np.exp(1j * spec.angles)) @ w.conj().T
        assert np.max(np.abs(rebuilt - np.diag(d))) <= ng.TOL.diag_residual

    def test_profiles_of_angle_built_unitaries_skip_eigh(self, eigh_calls):
        angles = np.random.default_rng(49).uniform(-math.pi, math.pi, 128)
        spec = ng.CircleSpectrum(angles)
        u = spec.to_unitary()
        got = ng.projective_profile(u).values
        assert np.max(np.abs(got - ng.projective_profile(spec).values)) <= 1e-14
        value, _ = ng.projective_one_norm(u)
        assert abs(value - ng.projective_one_norm(spec)[0]) <= 1e-14
        assert eigh_calls == []

    def test_tiny_off_diagonal_entry_takes_eigh_path(self, eigh_calls):
        angles = np.random.default_rng(50).uniform(-math.pi, math.pi, 16)
        m = np.diag(np.exp(1j * angles))
        want, _ = ng.diagonalize_normal(m)
        assert eigh_calls == []
        m[3, 7] = 1e-300
        spec, w = ng.diagonalize_normal(m)
        assert len(eigh_calls) >= 1
        assert np.max(np.abs(spec.angles - want.angles)) <= 8 * np.finfo(float).eps
        rebuilt = (w * np.exp(1j * spec.angles)) @ w.conj().T
        assert np.max(np.abs(rebuilt - m)) <= 8 * 16 * np.finfo(float).eps


class TestTypesAndJson:
    def test_unitary_validation(self):
        with pytest.raises(ng.ValidationError):
            ng.UnitaryRep(2.0 * np.eye(3))
        with pytest.raises(ng.DimensionError):
            ng.UnitaryRep(np.ones((2, 3)))
        with pytest.raises(ng.DimensionError):
            ng.UnitaryRep(np.zeros((0, 0)))

    def test_unitary_json_round_trip(self):
        u = haar_unitary(4, np.random.default_rng(53))
        rep = ng.UnitaryRep(u)
        again = ng.UnitaryRep.from_json(rep.to_json())
        assert np.array_equal(rep.matrix, again.matrix)

    def test_matrix_json_matches_per_element_floats(self):
        rng = np.random.default_rng(54)
        m = haar_unitary(5, rng)
        m[0, 0] = complex(-0.0, -0.0)
        m[1, 2] = complex(0.0, -0.0)
        m[2, 1] = complex(-0.0, 1.0)
        old = {
            "n": 5,
            "re": [[float(v) for v in row] for row in m.real],
            "im": [[float(v) for v in row] for row in m.imag],
        }
        blob = json.dumps(matrix_to_json(m))
        assert blob == json.dumps(old)
        assert "-0.0" in blob
        assert json.dumps(matrix_to_json(matrix_from_json(json.loads(blob)))) == blob

    def test_unitary_json_malformed(self):
        with pytest.raises(ng.ValidationError):
            ng.UnitaryRep.from_json({"n": 2, "re": [[1, 0], [0, 1]]})
        with pytest.raises(ng.DimensionError):
            ng.UnitaryRep.from_json({"n": 3, "re": [[1]], "im": [[0]]})

    def test_spectrum_canonicalization(self):
        spec = ng.CircleSpectrum([3.0 * math.pi, -math.pi, 0.25])
        assert spec.angles[0] == pytest.approx(math.pi)
        assert spec.angles[1] == pytest.approx(math.pi)
        assert spec.angles[2] == 0.25
        again = ng.CircleSpectrum.from_json(spec.to_json())
        assert np.array_equal(spec.angles, again.angles)

    def test_profile_validation(self):
        with pytest.raises(ng.ValidationError):
            ng.SpectralProfile("ell", [0.1, 0.5])
        with pytest.raises(ng.ValidationError):
            ng.SpectralProfile("bogus", [0.5, 0.1])
        with pytest.raises(ng.DimensionError):
            ng.SpectralProfile("ell", [0.5, 0.1], witnesses=[1.0 + 0j])

    def test_profile_json_round_trip(self):
        prof = ng.projective_profile(ng.CircleSpectrum([0.3, -1.1, 2.2]))
        again = ng.SpectralProfile.from_json(prof.to_json())
        assert again.kind == "ell"
        assert np.array_equal(prof.values, again.values)
        assert np.array_equal(prof.witnesses, again.witnesses)

    def test_mu_profile_without_witnesses(self):
        prof = ng.SpectralProfile("mu", [1.0, 0.5, 0.0])
        blob = prof.to_json()
        assert "phases" not in blob
        assert ng.SpectralProfile.from_json(blob).witnesses is None

    def test_canon_angle_branch(self):
        assert ng.canon_angle(math.pi) == pytest.approx(math.pi)
        assert ng.canon_angle(-math.pi) == pytest.approx(math.pi)
        assert ng.canon_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
        arr = ng.canon_angle(np.array([4.0 * math.pi + 0.1, -0.1]))
        assert arr[0] == pytest.approx(0.1)
        assert arr[1] == pytest.approx(-0.1)

    @pytest.mark.parametrize("x", [
        -0.0, 0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi,
        3.0 * math.pi, 1e300, -1e300, -1e-320, 5e-324, math.nan, math.inf,
        -math.inf, 0, 7, -9, 10**15, np.float64(-2.5), np.float64(-1e-320),
        np.float32(3.3), np.int64(-4), 1.2345678,
    ])
    def test_canon_angle_scalar_path_matches_array_path(self, x):
        # a scalar takes the fast path, a one-element array the numpy one
        got = ng.canon_angle(x)
        with np.errstate(invalid="ignore"):
            want = float(ng.canon_angle(np.array([x], dtype=float))[0])
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_canon_angle_idempotent_on_its_outputs(self):
        # a canonical angle comes back bit for bit, so a spectrum built
        # from canonical angles keeps exactly those floats
        rng = np.random.default_rng(53)
        for scale in (1e-17, 1e-15, 1e-8, 1.0, 4.0, 1e3):
            once = ng.canon_angle(rng.normal(size=2000) * scale)
            assert np.array_equal(ng.canon_angle(once), once)
            assert np.array_equal(ng.CircleSpectrum(once).angles, once)


class TestProjectiveResidual:
    """best_phase, given the trace and diagonal of b* a, attains the residual
    max|a - lam * b| that the full product b* a gives."""

    @staticmethod
    def residual(a, b):
        lam = best_phase(np.vdot(b, a), np.einsum("ij,ij->j", b.conj(), a))
        return float(np.max(np.abs(a - lam * b)))

    @staticmethod
    def dense_residual(a, b):
        """The residual from the full product b* @ a."""
        w = b.conj().T @ a
        tr = np.trace(w)
        if abs(tr) > 1e-8:
            lam = tr / abs(tr)
        else:
            d = np.diagonal(w)
            k = int(np.argmax(np.abs(d)))
            lam = d[k] / abs(d[k]) if abs(d[k]) > 0 else 1.0
        return float(np.max(np.abs(a - lam * b)))

    def test_matches_the_dense_product(self):
        rng = np.random.default_rng(59)
        for n in (1, 2, 5, 16):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert self.residual(a, b) == pytest.approx(
                self.dense_residual(a, b), abs=1e-13
            )

    def test_vanishing_trace_reads_the_diagonal(self):
        a = np.diag([1.0, -1.0, 1j, -1j]).astype(complex)
        b = np.eye(4, dtype=complex)
        assert self.residual(a, b) == self.dense_residual(a, b) == 2.0

    def test_exact_projective_equality(self):
        rng = np.random.default_rng(61)
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert self.residual(np.exp(0.7j) * b, b) <= 1e-14


def per_width_profile(angles):
    """Profile values and witnesses one window width at a time: the reference
    the one-pass profile must reproduce bit for bit."""
    a = np.sort(np.asarray(angles, dtype=float))
    n = a.shape[0]
    ext = np.concatenate((a, a + 2.0 * math.pi))
    vals = np.empty(n)
    wits = np.empty(n, dtype=complex)
    for i in range(n):
        width = n - i
        spans = ext[width - 1 : width - 1 + n] - ext[:n]
        j = int(np.argmin(spans))
        mid = 0.5 * (ext[j] + ext[j + width - 1])
        vals[i] = 2.0 * math.sin(0.25 * float(spans[j]))
        wits[i] = complex(math.cos(mid), -math.sin(mid))
    return vals, wits


def profile_family(family, n, rng):
    """Eigenvalue angles of one of the hard spectrum families."""
    if family in ("uniform", "repeated"):
        return hard_angles(family, n, rng)
    if family == "clustered":
        return rng.uniform(-0.3, 0.3, n)
    if family == "four-clusters":
        return rng.choice([0.0, 1.0, -2.0, math.pi], n) + rng.normal(0.0, 1e-3, n)
    if family == "antipodal":
        half = rng.uniform(-math.pi, math.pi, (n + 1) // 2)
        return np.concatenate((half, half + math.pi))[:n]
    # windows centered on 0 give witnesses with a -0.0 imaginary part
    return rng.choice([0.0, -0.0, math.pi, -math.pi], n)


PROFILE_FAMILIES = (
    "uniform", "clustered", "four-clusters", "antipodal", "repeated", "signed-zeros"
)
PROFILE_SIZES = (1, 2, 3, 31, 128, 513, ng.TOL.s0_max)


class TestOnePassProfile:
    def test_sizes_include_partial_row_blocks(self):
        # 513 and 5040 take several row blocks, the last one partial
        several = [n for n in PROFILE_SIZES if n > _BLOCK // n and n % (_BLOCK // n)]
        assert several == [513, ng.TOL.s0_max]

    @pytest.mark.parametrize("n", PROFILE_SIZES)
    @pytest.mark.parametrize("family", PROFILE_FAMILIES)
    def test_bit_identical_to_per_width_windows(self, family, n):
        spec = ng.CircleSpectrum(profile_family(family, n, np.random.default_rng(n)))
        prof = ng.projective_profile(spec)
        vals, wits = per_width_profile(spec.angles)
        assert np.array_equal(prof.values, vals)
        assert np.array_equal(prof.witnesses, wits)
        # and the signs of zero parts
        assert prof.values.tobytes() == vals.tobytes()
        assert prof.witnesses.tobytes() == wits.tobytes()

    @pytest.mark.parametrize("family", PROFILE_FAMILIES)
    def test_s_number_reads_the_profile(self, family):
        rng = np.random.default_rng(71)
        for n in (1, 2, 31, 513):
            spec = ng.CircleSpectrum(profile_family(family, n, rng))
            prof = ng.projective_profile(spec)
            for i in sorted({0, n // 3, n // 2, n - 1}):
                value, phase = ng.projective_s_number(spec, i)
                assert value == prof.values[i]
                assert phase == prof.witnesses[i]

    def test_profile_memory_at_s0_max(self):
        # the full (n, n) span matrix would be 203 MB
        spec = ng.CircleSpectrum(profile_family("uniform", ng.TOL.s0_max,
                                                np.random.default_rng(72)))
        tracemalloc.start()
        try:
            ng.projective_profile(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_diagonal_spectrum_builds_no_frame(self, eigh_calls):
        # a permutation frame at n = 1024 would be 16 MB
        u = ng.CircleSpectrum(profile_family("uniform", 1024,
                                             np.random.default_rng(73))).to_unitary()
        tracemalloc.start()
        try:
            spec = spectrum_of(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert eigh_calls == []
        assert np.array_equal(spec.angles, ng.diagonalize_normal(u)[0].angles)


def random_monomial(n, rng, unit=True):
    """A Monomial with a random perm, and phases on the unit circle unless
    unit is False."""
    z = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    if not unit:
        z = z * rng.uniform(0.5, 1.5, n)
    return ng.Monomial(rng.permutation(n), z)


def dense_norms(d):
    return float(np.max(np.abs(d))), float(np.linalg.norm(d))


class TestMonomial:
    """A perm plus n phases: column j is phases[j] e_perm[j].  Its methods
    agree with the dense matrix they stand for."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_matrix_is_perm_times_phases(self, n):
        rng = np.random.default_rng(80 + n)
        x = random_monomial(n, rng)
        p = np.zeros((n, n))
        p[x.perm, np.arange(n)] = 1.0
        assert np.array_equal(x.matrix, p @ np.diag(x.phases))
        assert np.array_equal(np.asarray(x), x.matrix)
        assert x.shape == (n, n) and x.n == n

    @pytest.mark.parametrize("unit", [True, False])
    def test_gram_rebuild_and_apply_match_dense(self, unit):
        rng = np.random.default_rng(81)
        for n in (1, 3, 8, 17):
            x, y = random_monomial(n, rng, unit), random_monomial(n, rng, unit)
            m, other = x.matrix, y.matrix
            angles = rng.uniform(-math.pi, math.pi, n)
            want = dense_norms(m @ m.conj().T - np.eye(n))
            assert np.allclose(x.gram_defect(), want, rtol=1e-12, atol=1e-15)
            want = dense_norms((m * np.exp(1j * angles)) @ m.conj().T - other)
            assert np.allclose(x.rebuild(angles, y), want, rtol=1e-12, atol=1e-15)
            assert x.rebuild(angles, other) == ng.spectral.Dense(m).rebuild(angles, other)
            v = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            assert np.allclose(x.apply(v), m @ v, rtol=0, atol=1e-15)
            order = rng.permutation(n)
            assert np.array_equal(x.columns(order).matrix, m[:, order])

    def test_diagonal_rebuild_is_exact(self):
        # a diagonal target rebuilt from its own angles and the sorting frame
        z = np.exp(1j * np.random.default_rng(82).uniform(-math.pi, math.pi, 64))
        spec, frame = ng.diagonalize_normal(ng.Monomial(np.arange(64), z))
        target = ng.Monomial(np.arange(64), z)
        got = frame.rebuild(spec.angles, target)
        want = dense_norms((frame.matrix * np.exp(1j * spec.angles)) @ frame.matrix.T - np.diag(z))
        assert got[0] == want[0] and got[1] == pytest.approx(want[1], rel=1e-12)
        assert got[0] <= 4 * np.finfo(float).eps

    def test_non_permutation_perms(self):
        # X X* stays diagonal; a repeated entry leaves a row empty, an entry
        # outside range(n) is no matrix at all
        x = ng.Monomial([0, 0, 2], np.ones(3))
        m = x.matrix
        assert x.gram_defect() == dense_norms(m @ m.T - np.eye(3))
        assert x.gram_defect()[0] == 1.0
        bad = ng.Monomial([0, 3, 1], np.ones(3))
        assert np.isnan(bad.gram_defect()).all()
        assert np.isnan(bad.rebuild(np.zeros(3), x)).all()
        with pytest.raises(ng.DimensionError):
            ng.Monomial([0, 1], np.ones(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_cycle_spectrum_matches_eigvals(self, seed):
        rng = np.random.default_rng(83 + seed)
        n = (1, 2, 7, 12, 30, 64)[seed]
        x = random_monomial(n, rng)
        got = spectrum_of(ng.UnitaryRep(x)).angles
        want = np.linalg.eigvals(x.matrix)
        # every eigenvalue is matched, up to the sort's branch cut
        for a in got:
            assert np.min(np.abs(want - np.exp(1j * a))) < 1e-9
        assert np.all(np.diff(got) >= 0.0)
        assert np.array_equal(np.sort(got), got)

    def test_unitary_rep_keeps_its_gram(self):
        rng = np.random.default_rng(84)
        u = haar_unitary(6, rng)
        rep = ng.UnitaryRep(u)
        m = rep.matrix
        assert rep.gram == dense_norms(m @ m.conj().T - np.eye(6))
        x = random_monomial(6, rng)
        assert ng.UnitaryRep(x).gram == x.gram_defect()

    @pytest.mark.parametrize("perm, scale", [
        ([0, 1, 2], [1.0, 1.0 + 1e-6, 1.0]),
        ([0, 0, 2], [1.0, 1.0, 1.0]),
        ([0, 1, 3], [1.0, 1.0, 1.0]),
        ([0, 1, 2], [1.0, np.nan, 1.0]),
    ])
    def test_unitary_rep_rejects_bad_monomials(self, perm, scale):
        with pytest.raises(ng.ValidationError):
            ng.UnitaryRep(ng.Monomial(perm, np.exp(0.3j) * np.asarray(scale)))

    def test_angle_operands_are_monomial(self, eigh_calls):
        angles = np.random.default_rng(85).uniform(-math.pi, math.pi, 9)
        u = ng.CircleSpectrum(angles).to_unitary()
        assert isinstance(u.op, ng.Monomial) and u.op.diagonal
        want = np.diag(np.exp(1j * ng.CircleSpectrum(angles).angles))
        assert np.array_equal(u.matrix, want)
        spec, frame = ng.diagonalize_normal(u)
        assert isinstance(frame, ng.Monomial)
        dense_spec, dense_frame = ng.diagonalize_normal(u.matrix)
        assert np.array_equal(spec.angles, dense_spec.angles)
        assert np.array_equal(frame.matrix, dense_frame)
        assert eigh_calls == []

    def test_permuted_monomial_diagonalizes_densely(self):
        x = random_monomial(7, np.random.default_rng(86))
        spec, w = ng.diagonalize_normal(ng.UnitaryRep(x))
        rebuilt = (w * np.exp(1j * spec.angles)) @ w.conj().T
        assert np.max(np.abs(rebuilt - x.matrix)) < 1e-12
        assert np.array_equal(spec.angles, spectrum_of(x).angles)

    @pytest.mark.parametrize("kind", ["permuted monomial", "diagonal dense",
                                      "diagonal monomial", "dense"])
    def test_spectrum_of_is_diagonalize_normal(self, kind, eigh_calls):
        # one spectrum path: spectrum_of agrees with diagonalize_normal bit
        # for bit, and only a matrix with off-diagonal entries runs eigh
        rng = np.random.default_rng(87)
        for n in (1, 2, 5, 13, 32):
            for _ in range(4):
                x = random_monomial(n, rng)
                if kind == "diagonal dense":
                    x = np.diag(x.phases)
                elif kind == "diagonal monomial":
                    x = ng.Monomial(np.arange(n), x.phases)
                elif kind == "dense":
                    x = haar_unitary(n, rng)
                want = ng.diagonalize_normal(x)[0].angles
                assert spectrum_of(x).angles.tobytes() == want.tobytes(), (kind, n)
        if kind.startswith("diagonal"):
            assert eigh_calls == []

    def test_diagonal_dense_spectrum_builds_no_frame(self):
        # diagonalize_normal's frame for a dense diagonal u takes 16 n^2
        # bytes; spectrum_of reads the diagonal in O(n) memory
        n = 512
        rep = ng.UnitaryRep(np.diag(np.exp(1j * np.linspace(-3.0, 3.0, n))))
        tracemalloc.start()
        try:
            spectrum_of(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n
