"""Step-engine tests: partial steps, reference frames, walks and source
blocks."""

import cmath
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from normgen import (
    BudgetInfeasibleError,
    DomainError,
    NumericalDegeneracyError,
    PreconditionError,
    canon_angle,
)
from normgen import su2
from normgen.config import EPS
from normgen.spectral import best_phase
from normgen.su2 import (
    _EYE,
    _adj,
    _diagonal_frame,
    _mul,
    _plan_waypoints,
    _reference_frame,
    _step_to,
    _walk,
    source_block,
    walk_length,
)


def haar_su2(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q / np.sqrt(np.linalg.det(q))


def _reach(alpha, theta):
    """Interval of class angles reachable from alpha by one theta-conjugate:
    the test's own oracle for the steps and waypoints of the walks."""
    lo = abs(alpha - theta)
    hi = min(alpha + theta, 2.0 * math.pi - alpha - theta)
    return lo, hi


def projective_residual(a, b):
    """Entrywise max of a - lam * b at the best unit phase lam, read off the
    trace and diagonal of b* a: the test's own oracle for the walk products."""
    lam = best_phase(np.vdot(b, a), np.einsum("ij,ij->j", b.conj(), a))
    return float(np.max(np.abs(a - lam * b)))


def rot(angle):
    """diag(e^{ia}, e^{-ia})."""
    return np.diag([np.exp(1j * angle), np.exp(-1j * angle)])


def arr(x):
    a, b, c, d = x
    return np.array(((a, b), (c, d)), dtype=complex)


def tup(m):
    return tuple(complex(z) for z in np.asarray(m).ravel())


def reference_frame(vp, theta):
    return arr(_reference_frame(tup(vp), theta))


def walk(phi, theta, m):
    """_walk's conjugators as arrays, with their shared exponent."""
    conjugators, exponent = _walk(phi, theta, m)
    return [arr(g) for g in conjugators], exponent


def walk_product(walked, theta):
    conjugators, exponent = walked
    core = rot(theta if exponent == 1 else -theta)
    out = np.eye(2, dtype=complex)
    for g in conjugators:
        out = out @ g @ core @ g.conj().T
    return out


def assert_walk_hits(walked, phi, theta, m):
    conjugators, exponent = walked
    assert len(conjugators) == m
    assert exponent in (1, -1)
    prod = walk_product(walked, theta)
    assert projective_residual(prod, rot(phi)) <= 1e-9
    want = 2.0 * math.cos(theta)
    core = rot(theta if exponent == 1 else -theta)
    for g in conjugators:
        assert np.linalg.norm(g @ g.conj().T - np.eye(2)) < 1e-9
        tr = np.trace(g @ core @ g.conj().T)
        assert abs(tr - want) < 1e-10


def interval_walk_length(ph, th, cap):
    """Least even m <= cap whose m-conjugate reach interval of class th
    holds ph, found by iterating the intervals of 1, 2, 3, ... conjugates
    forward; None when no m <= cap lands.  This is the numerical search
    walk_length's closed form replaces."""
    lo = hi = th
    for k in range(2, cap + 1):
        new_lo = 0.0 if lo <= th <= hi else min(abs(lo - th), abs(hi - th))
        astar = min(max(math.pi - th, lo), hi)
        lo, hi = new_lo, min(astar + th, 2.0 * math.pi - astar - th)
        if k % 2 == 0 and ph <= k * th + 1e-12 and lo - 1e-12 <= ph <= hi + 1e-12:
            return k
    return None


def assert_step_lands(alpha, beta, theta):
    """_step_to(alpha, beta, theta) is in the class of theta, and moves
    D(alpha) into the class of beta."""
    v = arr(_step_to(alpha, beta, theta))
    assert abs(np.linalg.det(v) - 1.0) < 1e-12
    assert abs(np.trace(v) - 2.0 * math.cos(theta)) < 1e-12
    assert np.linalg.norm(v @ v.conj().T - np.eye(2)) < 1e-12
    assert abs(np.trace(rot(alpha) @ v) - 2.0 * math.cos(beta)) < 1e-9
    return v


class TestStepMatrix:
    """The partial step _step_to."""

    def test_full_step_is_diagonal(self):
        # from a central point and on the reach boundary beta = alpha + theta
        for alpha, beta in ((0.0, 0.7), (0.3, 1.0)):
            v = assert_step_lands(alpha, beta, 0.7)
            assert v[0, 1] == 0.0 and v[1, 0] == 0.0
            assert np.allclose(v, rot(0.7), atol=1e-14)

    def test_all_offdiagonal(self):
        # cos(beta) = cos(alpha) cos(theta): no diagonal share left
        v = assert_step_lands(math.pi / 2, math.pi / 2, math.pi / 2)
        assert np.allclose(v, [[0, 1], [-1, 0]], atol=1e-14)

    def test_frozen_quarter_eighth(self):
        v = assert_step_lands(math.pi / 8, math.pi / 4, math.pi / 4)
        assert abs(np.trace(v) - math.sqrt(2.0)) < 1e-12

    def test_determinant_trace_and_unitarity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            th = rng.uniform(0.0, math.pi)
            alpha = rng.uniform(0.0, math.pi)
            lo, hi = _reach(alpha, th)
            assert_step_lands(alpha, rng.uniform(lo, hi), th)

    def test_oversized_partial_angle_rejected(self):
        # one 0.2-step from the class 0.5 reaches [0.3, 0.7] only
        with pytest.raises(NumericalDegeneracyError):
            _step_to(0.5, 2.0, 0.2)

    def test_offdiagonal_entry_real_nonnegative(self):
        v = assert_step_lands(0.6, 0.9, 1.1)
        assert v[0, 1].imag == 0.0
        assert v[0, 1].real > 0.0


class TestConjugatorToReference:
    """The frame _reference_frame taking the reference rotation to a given
    conjugate of it."""

    def test_random_conjugates_recovered(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            th = rng.uniform(0.05, math.pi - 0.05)
            g0 = haar_su2(rng)
            vp = g0 @ rot(th) @ g0.conj().T
            g = reference_frame(vp, th)
            assert np.linalg.norm(g @ g.conj().T - np.eye(2)) < 1e-12
            res = g @ rot(th) @ g.conj().T - vp
            assert np.max(np.abs(res)) <= 1e-10

    def test_phase_convention(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            th = rng.uniform(0.1, math.pi - 0.1)
            g0 = haar_su2(rng)
            vp = g0 @ rot(th) @ g0.conj().T
            g = reference_frame(vp, th)
            k = int(np.argmax(np.abs(g[:, 0])))
            assert abs(g[k, 0].imag) < 1e-12
            assert g[k, 0].real > 0.0

    def test_diagonal_inputs(self):
        g = reference_frame(rot(0.9), 0.9)
        assert np.allclose(g, np.eye(2), atol=1e-12)
        g = reference_frame(rot(-0.9), 0.9)
        assert np.allclose(np.abs(g), [[0, 1], [1, 0]], atol=1e-12)

    def test_diagonal_steps_framed_in_closed_form(self, monkeypatch):
        # every diagonal step a walk plans, and D(prev) @ step, get the frame
        # _reference_frame would return (== does not tell the signs of zeros)
        rng = np.random.default_rng(8)
        seen = 0
        for theta in np.r_[1e-4, 10.0 ** rng.uniform(-3, math.log10(math.pi / 2), 12), math.pi / 2]:
            for target in (0.0, math.pi, min(3 * theta, math.pi), rng.uniform(0.0, math.pi)):
                c = walk_length(target, theta, 10**6)
                prev = 0.0
                for alpha in _plan_waypoints(target, theta, c + 4):
                    a, b, c_, d = _step_to(prev, alpha, theta)
                    z = cmath.exp(1j * prev)
                    if b == 0:
                        seen += 1
                        assert _diagonal_frame(a, theta) == _reference_frame((a, b, c_, d), theta)
                        mstep = (z * a, z * b, z.conjugate() * c_, z.conjugate() * d)
                        assert _diagonal_frame(z * a, alpha) == _reference_frame(mstep, alpha)
                    prev = alpha
        assert seen > 1000
        for angle in (0.9, -0.9, 0.0, math.pi):
            v = tup(rot(angle))
            assert _diagonal_frame(v[0], abs(angle)) == _reference_frame(v, abs(angle))
        # a walk of full steps only never solves for an eigenvector
        calls = []
        inner = su2._reference_frame
        monkeypatch.setattr(su2, "_reference_frame", lambda v, t: calls.append(t) or inner(v, t))
        _walk(1.2, 0.3, 6)
        assert calls == []

    def test_central_class(self):
        g = reference_frame(np.eye(2, dtype=complex), 0.0)
        assert np.allclose(g, np.eye(2))
        g = reference_frame(-np.eye(2, dtype=complex), math.pi)
        assert np.allclose(g, np.eye(2))

    def test_trace_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            reference_frame(rot(0.5), 1.0)

    def test_partial_step_matrix_recovered(self):
        vp = arr(_step_to(0.4, 0.9, 0.8))
        g = reference_frame(vp, 0.8)
        res = g @ rot(0.8) @ g.conj().T - vp
        assert np.max(np.abs(res)) <= 1e-10

    @staticmethod
    def numpy_conjugator(vprime, theta):
        """The same frame by 2x2 numpy linear algebra."""
        v = np.asarray(vprime, dtype=complex)
        want = 2.0 * math.cos(theta)
        got = float(np.real(np.trace(v)))
        if abs(got - want) > 1e-9 or abs(float(np.imag(np.trace(v)))) > 1e-9:
            raise PreconditionError("trace mismatch")
        m = v - np.exp(-1j * theta) * np.eye(2)
        col = m[:, 0] if np.linalg.norm(m[:, 0]) >= np.linalg.norm(m[:, 1]) else m[:, 1]
        nrm = np.linalg.norm(col)
        if nrm <= 8.0 * EPS:
            return np.eye(2, dtype=complex)
        x = col / nrm
        k = int(np.argmax(np.abs(x)))
        x = x * (x[k] / abs(x[k])).conjugate()
        y = np.array([-np.conj(x[1]), np.conj(x[0])], dtype=complex)
        return np.column_stack([x, y])

    @pytest.mark.parametrize("kind", ["random", "near_zero", "near_pi"])
    def test_matches_numpy_version(self, kind):
        rng = np.random.default_rng(13)
        for trial in range(300):
            if kind == "random":
                th = rng.uniform(0.0, math.pi)
            else:
                spread = 10.0 ** -rng.uniform(10, 15)
                th = spread if kind == "near_zero" else math.pi - spread
            g0 = haar_su2(rng)
            vp = g0 @ rot(th) @ g0.conj().T
            got = reference_frame(vp, th)
            want = self.numpy_conjugator(vp, th)
            assert np.max(np.abs(got - want)) <= 1e-14, (th, got, want)
        with pytest.raises(PreconditionError):
            reference_frame(vp, th + 0.1)


class TestStepType:
    """The unitarity bound every walk conjugator is held to."""

    def test_rejects_nonunitary(self, monkeypatch):
        sheared = (1 + 0j, 1 + 0j, 0j, 1 + 0j)
        monkeypatch.setattr(
            su2, "_walk_positive", lambda target, theta, m: [sheared] * m
        )
        with pytest.raises(DomainError):
            _walk(0.5, 0.3, 2)


class TestWalkFrozen:
    def test_two_full_steps(self):
        walked = walk(math.pi / 2, math.pi / 4, 2)
        conjugators, exponent = walked
        assert len(conjugators) == 2 and exponent == 1
        for g in conjugators:
            assert np.allclose(g, np.eye(2), atol=1e-12)
        assert_walk_hits(walked, math.pi / 2, math.pi / 4, 2)

    def test_zero_target_cancelling_pair(self):
        steps = walk(0.0, 0.6, 2)
        assert len(steps[0]) == 2
        prod = walk_product(steps, 0.6)
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-12
        assert_walk_hits(steps, 0.0, 0.6, 2)

    def test_four_step_walk(self):
        steps = walk(0.9, 0.25, 4)
        assert len(steps[0]) == 4
        assert_walk_hits(steps, 0.9, 0.25, 4)

    def test_budget_boundary_all_full_steps(self):
        # dyadic angle so the waypoint sums carry no float drift
        steps = walk(1.0, 0.25, 4)
        for g in steps[0]:
            assert np.allclose(g, np.eye(2), atol=1e-10)
        assert_walk_hits(steps, 1.0, 0.25, 4)

    def test_exact_product_not_just_projective(self):
        steps = walk(0.8, 0.3, 4)
        prod = walk_product(steps, 0.3)
        assert np.max(np.abs(prod - rot(0.8))) <= 1e-12


class TestWalkSigns:
    @pytest.mark.parametrize("phi,theta", [
        (0.8, 0.3), (0.8, -0.3), (-0.8, 0.3), (-0.8, -0.3),
    ])
    def test_four_sign_cases(self, phi, theta):
        # a negative phi walks with exponent -1; a negative class angle is
        # outside the domain, whatever the sign of phi
        if theta < 0:
            with pytest.raises(DomainError):
                walk(phi, theta, 4)
            return
        steps = walk(phi, theta, 4)
        assert_walk_hits(steps, phi, theta, 4)
        assert steps[1] == (1 if phi >= 0 else -1)


class TestWalkErrors:
    def test_budget_too_small(self):
        with pytest.raises(BudgetInfeasibleError):
            walk(2.0, 0.3, 4)

    def test_zero_generator_nonzero_target(self):
        with pytest.raises(DomainError):
            walk(0.5, 0.0, 2)

    def test_odd_budget_rejected(self):
        with pytest.raises(DomainError):
            walk(0.5, 0.3, 3)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(DomainError):
            walk(0.5, 0.3, 0)

    def test_central_generator_noncentral_target(self):
        with pytest.raises(DomainError):
            walk(0.4, math.pi, 2)

    def test_central_generator_central_target(self):
        # source_block makes no central class, so even a central target is
        # refused rather than walked
        with pytest.raises(DomainError):
            walk(math.pi, math.pi, 2)

    def test_zero_generator_zero_target(self):
        with pytest.raises(DomainError):
            walk(0.0, 0.0, 2)

    @pytest.mark.parametrize("theta", [0.0, -0.3, 2.0, math.pi])
    def test_class_angle_outside_the_domain(self, theta):
        # only the classes source_block makes, (0, pi/2], walk
        for phi in (0.0, 0.5, -2.5):
            with pytest.raises(DomainError):
                walk_length(phi, theta, 8)
            with pytest.raises(DomainError):
                _walk(phi, theta, 8)


class TestWalkGeometry:
    def test_target_equals_generator_even_budget(self):
        steps = walk(0.7, 0.7, 2)
        assert_walk_hits(steps, 0.7, 0.7, 2)

    def test_small_target_large_budget(self):
        steps = walk(0.05, 0.9, 6)
        assert_walk_hits(steps, 0.05, 0.9, 6)

    def test_near_pi_target(self):
        steps = walk(3.1, 0.8, 4)
        assert_walk_hits(steps, 3.1, 0.8, 4)

    def test_wide_generator_small_target(self):
        # the widest class source_block makes is a quarter turn
        steps = walk(0.3, math.pi / 2, 4)
        assert_walk_hits(steps, 0.3, math.pi / 2, 4)

    def test_class_angle_helper(self):
        # the class angle is read off the canonical gap in closed form, exactly
        rng = np.random.default_rng(3)
        gaps = np.r_[rng.uniform(-math.pi, math.pi, 200), 1e-4, -1e-9, math.pi / 2, math.pi]
        for delta in gaps:
            assert source_block(delta).theta == min(abs(canon_angle(delta)), math.pi / 2)


class TestWalkRandomized:
    def test_thousand_random_walks(self):
        # generator class angles up to pi/2, the regime the generator
        # pipelines use (half of a canonical eigenvalue gap); there the
        # budget hypothesis is exactly the reachability condition
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            m = 2 * int(rng.integers(1, 9))
            theta = float(rng.uniform(0.02, math.pi / 2))
            lim = min(math.pi, m * theta)
            phi = float(rng.uniform(-lim, lim))
            steps = walk(phi, theta, m)
            assert_walk_hits(steps, phi, theta, m)

    def test_random_wide_generators(self):
        # classes beyond a quarter turn are outside the domain, one ulp
        # past pi/2 included, and so are their negatives
        rng = np.random.default_rng(77)
        wide = np.r_[np.nextafter(math.pi / 2, 4.0), math.pi - rng.uniform(0.0, math.pi / 2, 300)]
        for theta in wide:
            theta = float(rng.choice((-1, 1)) * theta)
            m = 2 * int(rng.integers(1, 7))
            phi = float(rng.uniform(-math.pi, math.pi))
            with pytest.raises(DomainError):
                walk(phi, theta, m)


class TestWaypoints:
    def test_surplus_first_then_climb(self):
        rng = np.random.default_rng(31)
        thetas = np.r_[1e-4, 10.0 ** rng.uniform(-3, math.log10(math.pi / 2), 16), math.pi / 2]
        for theta in thetas:
            targets = (0.0, math.pi, 3 * theta, rng.uniform(0.0, math.pi))
            for target in targets:
                if target > math.pi:
                    continue
                c = walk_length(target, theta, 10**6)
                for m in range(c, c + 11, 2):
                    alphas = _plan_waypoints(target, theta, m)
                    assert len(alphas) == m and alphas[-1] == target
                    for a, b in zip([0.0] + alphas, alphas):
                        lo, hi = _reach(a, theta)
                        assert lo - 4 * EPS <= b <= hi + 4 * EPS, (theta, target, m, a, b)


class TestWalkLength:
    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(-math.pi, math.pi),
        theta=st.floats(0.0, math.pi / 2, exclude_min=True),
        cap=st.integers(1, 8).map(lambda h: 2 * h),
    )
    def test_shortest_and_monotone(self, phi, theta, cap):
        try:
            m0 = walk_length(phi, theta, cap)
        except BudgetInfeasibleError:
            with pytest.raises(BudgetInfeasibleError):
                walk(phi, theta, cap)
            return
        assert 2 <= m0 <= cap and m0 % 2 == 0
        for m in range(m0, cap + 1, 2):
            assert_walk_hits(walk(phi, theta, m), phi, theta, m)
        if m0 > 2:
            with pytest.raises(BudgetInfeasibleError):
                walk(phi, theta, m0 - 2)

    def test_frozen_lengths(self):
        assert walk_length(0.9, 0.25, 8) == 4
        assert walk_length(1.0, 0.25, 8) == 4
        assert walk_length(1.01, 0.25, 8) == 6
        assert walk_length(0.05, 0.9, 6) == 2
        assert walk_length(0.0, 0.3, 4) == 2
        assert walk_length(2.9, math.pi / 2, 2) == 2

    def test_matches_the_interval_iteration(self):
        rng = np.random.default_rng(23)
        cases = [(rng.uniform(-math.pi, math.pi), math.pi / 2 - rng.uniform(0.0, math.pi / 2),
                  2 * int(rng.integers(1, 41))) for _ in range(3000)]
        # phi = k theta and one ulp either side
        for _ in range(1500):
            theta = rng.uniform(1e-4, math.pi / 2)
            k = int(rng.integers(1, 80))
            edge = k * theta
            if edge <= math.pi:
                for phi in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 4.0)):
                    cases.append((rng.choice((-1, 1)) * phi, theta, 2 * (k // 2) + 4))
        for phi, theta, cap in cases:
            want = interval_walk_length(abs(phi), theta, cap)
            if want is None:
                with pytest.raises(BudgetInfeasibleError):
                    walk_length(phi, theta, cap)
            else:
                assert walk_length(phi, theta, cap) == want, (phi, theta, cap)

    def test_errors_match_the_walk(self):
        with pytest.raises(BudgetInfeasibleError):
            walk_length(2.0, 0.3, 4)
        with pytest.raises(DomainError):
            walk_length(0.5, 0.0, 2)
        with pytest.raises(DomainError):
            walk_length(0.5, 0.3, 3)


class TestSourceBlock:
    def test_vanishing_gap_has_no_block(self):
        assert source_block(0.0) is None
        assert source_block(2.0 * math.pi) is None

    def test_class_angle_capped_at_quarter_turn(self):
        # a full swap up to a quarter turn, a partial rotation beyond it
        for delta in (0.1, -0.9, math.pi / 2):
            assert abs(source_block(delta).theta - abs(delta)) < 1e-12
        for delta in (1.7, -2.5, math.pi):
            assert abs(source_block(delta).theta - math.pi / 2) < 1e-9

    def test_frames_reassemble_the_target(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            # gaps of at least 0.2 reach any phi within 16 steps
            block = source_block(rng.choice((-1, 1)) * rng.uniform(0.2, math.pi))
            phi = rng.uniform(-math.pi, math.pi)
            m = walk_length(phi, block.theta, 16)
            blocks = block.frames(phi, m)
            assert len(blocks) == 2 * m
            ys, rotated = np.array(blocks).reshape(m, 2, 2, 2).transpose(1, 0, 2, 3)
            prod = np.eye(2, dtype=complex)
            for y in ys:
                prod = prod @ y @ arr(block.commutator) @ y.conj().T
            assert np.max(np.abs(prod - rot(phi))) <= 1e-10
            assert np.max(np.abs(rotated - ys @ arr(block.rotation))) <= 1e-15

    def test_long_walks_stay_on_target(self):
        # gaps down to 1e-4, at the shortest length and with surplus steps;
        # the smallest gap walks one target, as each of its walks takes 1e4
        # steps or more.  The worst case is the partial rotation (|gap| >
        # pi/2), whose commutator is of class pi/2 only to rounding: about
        # 2.9 eps per step over 4 steps.
        def drift(block, phi, m):
            prod = _EYE
            for y in block.frames(phi, m)[::2]:
                prod = _mul(prod, _mul(_mul(y, block.commutator), _adj(y)))
            return np.max(np.abs(arr(prod) - rot(phi)))

        phis = (-math.pi, -2.0, -0.4, 0.0, 3e-4, 1.0, 2.9)
        grid = [(-1e-4, 1.0)] + [(d, p) for d in (1e-3, -1e-2, 0.3, -1.2, 3.0) for p in phis]
        for delta, phi in grid:
            block = source_block(delta)
            m0 = walk_length(phi, block.theta, 10**6)
            for m in (m0, m0 + 2, m0 + 10, 2 * m0 + 4):
                assert drift(block, phi, m) <= 3.0 * EPS * m, (delta, phi, m)

    def test_frames_refuse_what_the_walk_refuses(self):
        block = source_block(0.2)
        with pytest.raises(BudgetInfeasibleError):
            block.frames(2.0, 4)
        with pytest.raises(DomainError):
            block.frames(0.1, 3)
