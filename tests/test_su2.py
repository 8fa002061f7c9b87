"""Step-engine tests: step matrices, reference conjugators, and full walks."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from normgen import (
    BudgetInfeasibleError,
    DegenerateInputError,
    DomainError,
    PreconditionError,
    projective_residual,
)
from normgen.config import EPS
from normgen.su2 import (
    Su2Step,
    conjugator_to_reference,
    reference_rotation,
    rotation_class_angle,
    su2_step_matrix,
    su2_walk,
    walk_length,
)


def haar_su2(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q / np.sqrt(np.linalg.det(q))


def walk_product(steps, theta):
    v = reference_rotation(theta)
    vinv = v.conj().T
    out = np.eye(2, dtype=complex)
    for s in steps:
        core = v if s.exponent == 1 else vinv
        out = out @ s.conjugator @ core @ s.conjugator.conj().T
    return out


def assert_walk_hits(steps, phi, theta, m):
    assert len(steps) <= m
    prod = walk_product(steps, theta)
    target = reference_rotation(phi)
    assert projective_residual(prod, target) <= 1e-9
    want = 2.0 * math.cos(theta)
    for s in steps:
        assert s.exponent in (1, -1)
        g = s.conjugator
        assert np.linalg.norm(g @ g.conj().T - np.eye(2)) < 1e-9
        core = reference_rotation(theta if s.exponent == 1 else -theta)
        tr = np.trace(g @ core @ g.conj().T)
        assert abs(tr - want) < 1e-10


class TestStepMatrix:
    def test_full_step_is_diagonal(self):
        v = su2_step_matrix(0.7, 0.7)
        assert np.allclose(v, reference_rotation(0.7), atol=1e-14)

    def test_all_offdiagonal(self):
        v = su2_step_matrix(math.pi / 2, 0.0)
        assert np.allclose(v, [[0, 1], [-1, 0]], atol=1e-14)

    def test_frozen_quarter_eighth(self):
        v = su2_step_matrix(math.pi / 4, math.pi / 8)
        assert abs(np.linalg.det(v) - 1.0) < 1e-12
        assert abs(np.trace(v) - math.sqrt(2.0)) < 1e-12

    def test_determinant_trace_and_unitarity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            th = rng.uniform(-math.pi, math.pi)
            t1 = math.asin(rng.uniform(-1.0, 1.0) * abs(math.sin(th)))
            v = su2_step_matrix(th, t1)
            assert abs(np.linalg.det(v) - 1.0) < 1e-12
            assert abs(np.trace(v) - 2.0 * math.cos(th)) < 1e-12
            assert np.linalg.norm(v @ v.conj().T - np.eye(2)) < 1e-12

    def test_oversized_partial_angle_rejected(self):
        with pytest.raises(DomainError):
            su2_step_matrix(0.2, 0.5)

    def test_offdiagonal_entry_real_nonnegative(self):
        v = su2_step_matrix(1.1, 0.3)
        assert v[0, 1].imag == 0.0
        assert v[0, 1].real >= 0.0


class TestConjugatorToReference:
    def test_random_conjugates_recovered(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            th = rng.uniform(0.05, math.pi - 0.05)
            g0 = haar_su2(rng)
            vp = g0 @ reference_rotation(th) @ g0.conj().T
            g = conjugator_to_reference(vp, th)
            assert np.linalg.norm(g @ g.conj().T - np.eye(2)) < 1e-12
            res = g @ reference_rotation(th) @ g.conj().T - vp
            assert np.max(np.abs(res)) <= 1e-10

    def test_phase_convention(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            th = rng.uniform(0.1, math.pi - 0.1)
            g0 = haar_su2(rng)
            vp = g0 @ reference_rotation(th) @ g0.conj().T
            g = conjugator_to_reference(vp, th)
            k = int(np.argmax(np.abs(g[:, 0])))
            assert abs(g[k, 0].imag) < 1e-12
            assert g[k, 0].real > 0.0

    def test_diagonal_inputs(self):
        g = conjugator_to_reference(reference_rotation(0.9), 0.9)
        assert np.allclose(g, np.eye(2), atol=1e-12)
        g = conjugator_to_reference(reference_rotation(-0.9), 0.9)
        assert np.allclose(np.abs(g), [[0, 1], [1, 0]], atol=1e-12)

    def test_central_class(self):
        g = conjugator_to_reference(np.eye(2, dtype=complex), 0.0)
        assert np.allclose(g, np.eye(2))
        g = conjugator_to_reference(-np.eye(2, dtype=complex), math.pi)
        assert np.allclose(g, np.eye(2))

    def test_trace_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            conjugator_to_reference(reference_rotation(0.5), 1.0)

    def test_partial_step_matrix_recovered(self):
        vp = su2_step_matrix(0.8, 0.2)
        g = conjugator_to_reference(vp, 0.8)
        res = g @ reference_rotation(0.8) @ g.conj().T - vp
        assert np.max(np.abs(res)) <= 1e-10


    @staticmethod
    def numpy_conjugator(vprime, theta):
        """The 2x2 numpy formulation the scalar version replaced."""
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
            vp = g0 @ reference_rotation(th) @ g0.conj().T
            got = conjugator_to_reference(vp, th)
            want = self.numpy_conjugator(vp, th)
            assert np.max(np.abs(got - want)) <= 1e-14, (th, got, want)
        with pytest.raises(PreconditionError):
            conjugator_to_reference(vp, th + 0.1)


class TestStepType:
    def test_rejects_nonunitary(self):
        with pytest.raises(DomainError):
            Su2Step(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), 1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            Su2Step(np.eye(2, dtype=complex), 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            Su2Step(np.eye(3, dtype=complex), 1)


class TestWalkFrozen:
    def test_two_full_steps(self):
        steps = su2_walk(math.pi / 2, math.pi / 4, 2)
        assert len(steps) == 2
        for s in steps:
            assert s.exponent == 1
            assert np.allclose(s.conjugator, np.eye(2), atol=1e-12)
        assert_walk_hits(steps, math.pi / 2, math.pi / 4, 2)

    def test_zero_target_cancelling_pair(self):
        steps = su2_walk(0.0, 0.6, 2)
        assert len(steps) == 2
        prod = walk_product(steps, 0.6)
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-12
        assert_walk_hits(steps, 0.0, 0.6, 2)

    def test_four_step_walk(self):
        steps = su2_walk(0.9, 0.25, 4)
        assert len(steps) == 4
        assert_walk_hits(steps, 0.9, 0.25, 4)

    def test_budget_boundary_all_full_steps(self):
        # dyadic angle so the waypoint sums carry no float drift
        steps = su2_walk(1.0, 0.25, 4)
        for s in steps:
            assert np.allclose(s.conjugator, np.eye(2), atol=1e-10)
        assert_walk_hits(steps, 1.0, 0.25, 4)

    def test_exact_product_not_just_projective(self):
        steps = su2_walk(0.8, 0.3, 4)
        prod = walk_product(steps, 0.3)
        assert np.max(np.abs(prod - reference_rotation(0.8))) <= 1e-12


class TestWalkSigns:
    @pytest.mark.parametrize("phi,theta", [
        (0.8, 0.3), (0.8, -0.3), (-0.8, 0.3), (-0.8, -0.3),
    ])
    def test_four_sign_cases(self, phi, theta):
        steps = su2_walk(phi, theta, 4)
        assert_walk_hits(steps, phi, theta, 4)
        want = 1 if (phi >= 0) == (theta >= 0) else -1
        for s in steps:
            assert s.exponent == want


class TestWalkErrors:
    def test_budget_too_small(self):
        with pytest.raises(BudgetInfeasibleError):
            su2_walk(2.0, 0.3, 4)

    def test_zero_generator_nonzero_target(self):
        with pytest.raises(DegenerateInputError):
            su2_walk(0.5, 0.0, 2)

    def test_odd_budget_rejected(self):
        with pytest.raises(DomainError):
            su2_walk(0.5, 0.3, 3)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(DomainError):
            su2_walk(0.5, 0.3, 0)

    def test_central_generator_noncentral_target(self):
        with pytest.raises(DegenerateInputError):
            su2_walk(0.4, math.pi, 2)

    def test_central_generator_central_target(self):
        steps = su2_walk(math.pi, math.pi, 2)
        assert len(steps) == 2
        assert_walk_hits(steps, math.pi, math.pi, 2)

    def test_zero_generator_zero_target(self):
        steps = su2_walk(0.0, 0.0, 2)
        assert_walk_hits(steps, 0.0, 0.0, 2)


class TestWalkGeometry:
    def test_mirror_class_needed(self):
        # one theta-conjugate cannot raise the class angle past pi - theta,
        # so these targets are only reachable through the mirrored class
        steps = su2_walk(2.4, 2.4, 2)
        assert_walk_hits(steps, 2.4, 2.4, 2)
        steps = su2_walk(2.9, 2.0, 2)
        assert_walk_hits(steps, 2.9, 2.0, 2)

    def test_target_equals_generator_even_budget(self):
        steps = su2_walk(0.7, 0.7, 2)
        assert_walk_hits(steps, 0.7, 0.7, 2)

    def test_small_target_large_budget(self):
        steps = su2_walk(0.05, 0.9, 6)
        assert_walk_hits(steps, 0.05, 0.9, 6)

    def test_near_pi_target(self):
        steps = su2_walk(3.1, 0.8, 4)
        assert_walk_hits(steps, 3.1, 0.8, 4)

    def test_wide_generator_small_target(self):
        steps = su2_walk(0.3, 2.8, 4)
        assert_walk_hits(steps, 0.3, 2.8, 4)

    def test_class_angle_helper(self):
        assert abs(rotation_class_angle(reference_rotation(1.3)) - 1.3) < 1e-12
        assert abs(rotation_class_angle(np.eye(2))) < 1e-12
        g = haar_su2(np.random.default_rng(3))
        m = g @ reference_rotation(0.4) @ g.conj().T
        assert abs(rotation_class_angle(m) - 0.4) < 1e-12


class TestWalkRandomized:
    def test_thousand_random_walks(self):
        # generator class angles up to pi/2, the regime the generator
        # pipelines use (half of a canonical eigenvalue gap); there the
        # budget hypothesis is exactly the reachability condition
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            m = 2 * int(rng.integers(1, 9))
            theta = float(rng.uniform(0.02, math.pi / 2))
            if rng.integers(0, 2):
                theta = -theta
            lim = min(math.pi, m * abs(theta))
            phi = float(rng.uniform(-lim, lim))
            steps = su2_walk(phi, theta, m)
            assert_walk_hits(steps, phi, theta, m)

    def test_random_wide_generators(self):
        # beyond pi/2 exact-count reachability can genuinely fail, so only
        # assert that a returned walk is sound and a refusal is the
        # documented budget error
        rng = np.random.default_rng(77)
        produced = 0
        for trial in range(300):
            m = 2 * int(rng.integers(1, 7))
            theta = float(rng.uniform(math.pi / 2, math.pi - 0.02))
            phi = float(rng.uniform(-math.pi, math.pi))
            try:
                steps = su2_walk(phi, theta, m)
            except BudgetInfeasibleError:
                continue
            produced += 1
            assert_walk_hits(steps, phi, theta, m)
        assert produced > 100


class TestWalkLength:
    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(-math.pi, math.pi),
        theta=st.floats(-math.pi, math.pi),
        cap=st.integers(1, 8).map(lambda h: 2 * h),
    )
    def test_shortest_and_monotone(self, phi, theta, cap):
        try:
            m0 = walk_length(phi, theta, cap)
        except (BudgetInfeasibleError, DegenerateInputError) as exc:
            with pytest.raises(type(exc)):
                su2_walk(phi, theta, cap)
            return
        assert 2 <= m0 <= cap and m0 % 2 == 0
        for m in range(m0, cap + 1, 2):
            assert_walk_hits(su2_walk(phi, theta, m), phi, theta, m)
        if m0 > 2:
            with pytest.raises(BudgetInfeasibleError):
                su2_walk(phi, theta, m0 - 2)

    def test_frozen_lengths(self):
        assert walk_length(0.9, 0.25, 8) == 4
        assert walk_length(1.0, 0.25, 8) == 4
        assert walk_length(1.01, 0.25, 8) == 6
        assert walk_length(0.05, 0.9, 6) == 2
        assert walk_length(0.0, 0.0, 4) == 2
        # beyond a quarter turn only the mirrored class is reachable
        assert walk_length(2.9, 2.0, 2) == 2

    def test_errors_match_the_walk(self):
        with pytest.raises(BudgetInfeasibleError):
            walk_length(2.0, 0.3, 4)
        with pytest.raises(DegenerateInputError):
            walk_length(0.5, 0.0, 2)
        with pytest.raises(DomainError):
            walk_length(0.5, 0.3, 3)
