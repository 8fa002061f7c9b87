"""Ordering oracles: exhaustive gap maximization, angle-sum orderings and
phase centering."""

import itertools
import math

import numpy as np
import pytest

import normgen as ng
from normgen.spectral import canon_angle
from normgen.orderings import (
    OptimalOrdering,
    angle_sum_optimalize,
    center_phase,
    gap_sandwich_check,
    optimalize,
)


def chordf(x):
    return abs(2.0 * math.sin(0.5 * x))


def exhaustive_best_gaps(angles):
    """Lexicographically maximal gap sequence over all orderings."""
    best = None
    for perm in set(itertools.permutations(tuple(angles))):
        gaps = tuple(chordf(perm[k] - perm[k + 1]) for k in range(len(perm) - 1))
        if best is None or gaps > best:
            best = gaps
    return np.asarray(best)


class TestOptimalize:
    def test_three_points(self):
        # exhaustive over the 6 orderings: antipodal pair first (chord 2),
        # then the quarter point (chord sqrt(2))
        opt = optimalize(ng.CircleSpectrum([0.0, math.pi / 2, math.pi]))
        assert np.allclose(opt.diffs, [2.0, math.sqrt(2.0)], atol=1e-12)
        assert opt.top_gap() == pytest.approx(2.0)

    def test_two_points(self):
        opt = optimalize(ng.CircleSpectrum([0.0, math.pi]))
        assert np.allclose(opt.diffs, [2.0], atol=1e-12)

    def test_all_equal(self):
        opt = optimalize(ng.CircleSpectrum([0.7, 0.7, 0.7, 0.7]))
        assert np.allclose(opt.diffs, 0.0, atol=1e-15)

    @pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (5, 2), (6, 3), (7, 4), (8, 5)])
    def test_exhaustive_agreement(self, n, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-math.pi, math.pi, size=n)
        if n >= 5:
            angles[1] = angles[0]  # force a duplicate
        opt = optimalize(ng.CircleSpectrum(angles))
        assert np.allclose(opt.diffs, exhaustive_best_gaps(opt.angles), atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_roots_of_unity(self, n):
        # heavy ties: every point is equivalent, the greedy frontier must
        # still find the exhaustive optimum
        angles = ng.canon_angle(np.arange(n) * (2.0 * math.pi / n))
        opt = optimalize(ng.CircleSpectrum(angles))
        assert np.allclose(opt.diffs, exhaustive_best_gaps(angles), atol=1e-8)

    def test_repeated_spectrum_perm_pinned(self):
        # six values repeated six times: the tie frontier is deduplicated by
        # class counts, and the chosen order is the one the sorted-multiset
        # keys chose
        vals = np.random.default_rng(6).uniform(-math.pi, math.pi, 6)
        opt = optimalize(np.tile(vals, 6))
        assert opt.perm.tolist() == [
            0, 4, 6, 10, 12, 16, 18, 22, 24, 28, 30, 34, 3, 5, 1, 11, 7, 17,
            13, 23, 19, 29, 25, 35, 31, 9, 2, 15, 8, 21, 14, 27, 20, 33, 26, 32,
        ]

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        angles = rng.uniform(-math.pi, math.pi, size=7)
        opt = optimalize(ng.CircleSpectrum(angles))
        opt2 = optimalize(opt.spectrum())
        assert np.allclose(opt.diffs, opt2.diffs, atol=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        angles = rng.uniform(-math.pi, math.pi, size=6)
        opt1 = optimalize(ng.CircleSpectrum(angles))
        opt2 = optimalize(ng.CircleSpectrum(angles[rng.permutation(6)]))
        assert np.allclose(opt1.diffs, opt2.diffs, atol=1e-9)

    def test_small_input_rejected(self):
        with pytest.raises(ng.DomainError):
            optimalize(ng.CircleSpectrum([0.3]))

    def test_bad_fields_rejected(self):
        with pytest.raises(ng.DomainError):
            OptimalOrdering(
                np.array([0.0, 1.0, 2.0]),
                np.array([0, 0]),
                np.array([0.5, 0.4]),
                np.array([0, 1, 2]),
            )

    def test_perm_maps_input(self):
        rng = np.random.default_rng(12)
        angles = rng.uniform(-math.pi, math.pi, size=6)
        opt = optimalize(ng.CircleSpectrum(angles))
        assert np.allclose(ng.CircleSpectrum(angles).angles[opt.perm], opt.angles)


class TestAngleSumOptimalize:
    def test_plain_example(self):
        # 0.5 first, then the negatives in magnitude order
        out = angle_sum_optimalize([0.5, -0.3, -0.2])
        assert out.sigma.tolist() == [0, 1, 2]
        assert np.allclose(np.cumsum(out.values), [0.5, 0.2, 0.0])
        assert out.prefix_max == pytest.approx(0.5)

    def test_pair(self):
        out = angle_sum_optimalize([0.8, -0.8])
        assert out.prefix_max == pytest.approx(0.8)

    def test_negative_maximum(self):
        out = angle_sum_optimalize([-0.5, 0.3, 0.2])
        assert out.prefix_max == pytest.approx(0.5)
        assert sorted(out.sigma.tolist()) == [0, 1, 2]

    def test_zeros_go_last(self):
        out = angle_sum_optimalize([0.4, 0.0, -0.4, 0.0])
        assert np.all(out.values[2:] == 0.0)
        assert out.prefix_max == pytest.approx(0.4)

    def test_all_zero(self):
        out = angle_sum_optimalize(np.zeros(5))
        assert out.prefix_max == 0.0

    def test_invariant_on_random_zero_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            a = rng.standard_normal(n - 1)
            a = np.concatenate([a, [-a.sum()]])
            out = angle_sum_optimalize(a)
            assert sorted(out.sigma.tolist()) == list(range(n))
            assert out.prefix_max <= np.max(np.abs(a)) + 1e-12

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ng.PreconditionError):
            angle_sum_optimalize([0.5, -0.3])


class TestCenterPhase:
    def test_identity(self):
        spec, t = center_phase(ng.CircleSpectrum([0.0, 0.0, 0.0]))
        assert abs(t) < 1e-15
        assert abs(spec.angles.sum()) < 1e-15

    def test_scalar_pair(self):
        spec, t = center_phase(ng.CircleSpectrum([math.pi / 2, math.pi / 2]))
        assert abs(spec.angles.sum()) < 1e-12
        assert np.allclose(spec.angles, 0.0, atol=1e-12)

    def test_wrap_heavy_case(self):
        # the naive shift -sum/n leaves a wrapped angle here; a later
        # candidate must be chosen
        spec, t = center_phase(ng.CircleSpectrum([3.0, 3.0, 3.0, -2.5]))
        assert abs(spec.angles.sum()) < 1e-12

    def test_smallest_peak_wins(self):
        # the unshifted [3, -3] already sums to zero, but the half-turn
        # shift puts the branch cut in the wide gap and peaks at pi - 3
        spec, t = center_phase(ng.CircleSpectrum([3.0, -3.0]))
        assert t == pytest.approx(math.pi)
        assert np.allclose(spec.angles, [3.0 - math.pi, math.pi - 3.0], atol=1e-12)

    def test_random(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            spec0 = ng.CircleSpectrum(rng.uniform(-math.pi, math.pi, size=n))
            spec, t = center_phase(spec0)
            assert abs(spec.angles.sum()) < 1e-11
            # the centered angles match the input up to the claimed phase
            assert np.allclose(
                np.exp(1j * spec.angles), np.exp(1j * (spec0.angles + t)), atol=1e-12
            )
            # no other zero-sum shift has a smaller peak
            for k in range(n):
                cand = canon_angle(spec0.angles + t + 2.0 * math.pi * k / n)
                if abs(cand.sum()) <= 1e-9:
                    assert np.max(np.abs(spec.angles)) <= np.max(np.abs(cand)) + 1e-12

    def test_peak_within_covering_arc(self):
        # the branch cut need not fall in the widest gap, but the peak angle
        # never exceeds the covering arc 2 pi - widest gap, up to rounding
        rng = np.random.default_rng(2028)
        outside = 0
        for i in range(600):
            n = int(rng.integers(2, 60))
            family = i % 5
            if family == 0:
                angles = rng.uniform(-math.pi, math.pi, n)
            elif family == 1:
                angles = rng.uniform(-0.3, 0.3, n) + rng.uniform(-math.pi, math.pi)
            elif family == 2:
                centres = rng.uniform(-math.pi, math.pi, 4)
                angles = centres[rng.integers(0, 4, n)] + rng.uniform(-0.05, 0.05, n)
            elif family == 3:
                half = rng.uniform(-math.pi, math.pi, n // 2)
                angles = np.concatenate((half, half + math.pi, rng.uniform(-1, 1, n % 2)))
            else:
                atoms = rng.uniform(-math.pi, math.pi, int(rng.integers(1, 4)))
                angles = atoms[rng.integers(0, len(atoms), n)]
            a = np.sort(canon_angle(angles))
            widest = max(np.max(np.diff(a), initial=0.0), a[0] + 2.0 * math.pi - a[-1])
            spec, _ = center_phase(ng.CircleSpectrum(angles))
            assert np.max(np.abs(spec.angles)) <= 2.0 * math.pi - widest + 1e-12
            outside += 2.0 * math.pi - np.ptp(spec.angles) < widest - 1e-9
        assert outside > 0


class TestChecks:
    def test_sandwich_trivial(self):
        rep = gap_sandwich_check(optimalize(ng.CircleSpectrum([0.2, 0.2, 0.2])))
        assert rep["ok"]

    def test_sandwich_three_points(self):
        rep = gap_sandwich_check(
            optimalize(ng.CircleSpectrum([0.0, math.pi / 2, math.pi]))
        )
        assert rep["ok"]
        assert 1.0 <= rep["rows"][0]["ell"] <= 2.0

    def test_sandwich_random(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            opt = optimalize(ng.CircleSpectrum(rng.uniform(-math.pi, math.pi, n)))
            assert gap_sandwich_check(opt)["ok"]
