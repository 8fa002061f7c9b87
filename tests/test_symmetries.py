"""Symmetry kernel tests.

Frozen values: the 1x1 square root of -1 is +i (principal half-angle), the
scalar-i block factors multiply to diag(i, -i) by direct 2x2 arithmetic, and
the conjugator from diag(1,-1) to the swap is the Hadamard frame.
"""

import dataclasses
import json

import numpy as np
import pytest

from normgen import (
    TOL,
    Certificate,
    DimensionError,
    PreconditionError,
    ValidationError,
    verify_certificate,
)
from normgen.symmetries import (
    Symmetry,
    block_symmetry_factors,
    broise_kernel_certificate,
    sqrt_unitary,
    symmetry_conjugator,
)


def haar(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def random_symmetry(n, rng):
    # conjugate of diag(I, -I); n must be even
    g = haar(n, rng)
    d = np.diag(np.r_[np.ones(n // 2), -np.ones(n // 2)]).astype(complex)
    return g @ d @ g.conj().T


class TestSymmetryType:
    def test_accepts_swap(self):
        s = Symmetry(np.array([[0, 1], [1, 0]], dtype=complex))
        assert s.n == 2

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(ValidationError, match="self-adjoint"):
            Symmetry(np.array([[0, 1j], [1j, 0]]))

    def test_rejects_non_involution(self):
        with pytest.raises(ValidationError, match="square"):
            Symmetry(np.diag([1.0, 2.0]).astype(complex))

    def test_trace_zero_flag(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match="trace"):
            Symmetry(eye)
        assert Symmetry(eye, trace_zero=False).n == 2

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            Symmetry(np.zeros((2, 3)))

    def test_matrix_is_frozen(self):
        s = Symmetry(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 5.0


class TestSqrtUnitary:
    def test_identity(self):
        u = sqrt_unitary(np.eye(3, dtype=complex))
        assert np.max(np.abs(u.matrix - np.eye(3))) <= 1e-12

    def test_minus_one_gives_plus_i(self):
        u = sqrt_unitary(np.array([[-1.0 + 0j]]))
        assert abs(u.matrix[0, 0] - 1j) <= 1e-12

    def test_principal_branch_diagonal(self):
        angles = np.array([0.3, -2.9, np.pi])
        w = np.diag(np.exp(1j * angles))
        u = sqrt_unitary(w)
        want = np.diag(np.exp(0.5j * angles))
        assert np.max(np.abs(u.matrix - want)) <= 1e-9

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
    def test_random_reconstructs(self, n, seed):
        w = haar(n, np.random.default_rng(seed))
        u = sqrt_unitary(w)
        assert np.max(np.abs(u.matrix @ u.matrix - w)) <= 1e-9

    def test_commutes_with_input(self):
        w = haar(4, np.random.default_rng(9))
        u = sqrt_unitary(w).matrix
        assert np.max(np.abs(u @ w - w @ u)) <= 1e-9


class TestBlockFactors:
    def test_scalar_i_frozen(self):
        s, t, s2, t2 = block_symmetry_factors(np.array([[1j]]))
        root = np.exp(0.25j * np.pi)
        want_s = np.array([[0, root], [np.conj(root), 0]])
        assert np.max(np.abs(s.matrix - want_s)) <= 1e-12
        assert np.max(np.abs(t.matrix - np.array([[0, 1], [1, 0]]))) == 0
        prod = s.matrix @ t.matrix @ s2.matrix @ t2.matrix
        assert np.max(np.abs(prod - np.diag([1j, -1j]))) <= 1e-12

    def test_identity_input(self):
        s, t, _, _ = block_symmetry_factors(np.eye(2, dtype=complex))
        assert np.max(np.abs(s.matrix - t.matrix)) <= 1e-12
        prod = s.matrix @ t.matrix @ s.matrix @ t.matrix
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-12

    def test_repeats_factors(self):
        out = block_symmetry_factors(haar(3, np.random.default_rng(0)))
        assert out[0] is out[2] and out[1] is out[3]

    @pytest.mark.parametrize("k,seed", [(1, 0), (2, 1), (4, 2), (8, 3)])
    def test_random_product_identity(self, k, seed):
        w = haar(k, np.random.default_rng(seed))
        factors = block_symmetry_factors(w)
        want = np.zeros((2 * k, 2 * k), dtype=complex)
        want[:k, :k] = w
        want[k:, k:] = w.conj().T
        prod = np.eye(2 * k, dtype=complex)
        for f in factors:
            assert isinstance(f, Symmetry)
            assert abs(np.trace(f.matrix)) <= 1e-9
            prod = prod @ f.matrix
        assert np.max(np.abs(prod - want)) <= 1e-9


class TestSymmetryConjugator:
    def test_same_input_gives_identity(self):
        s = random_symmetry(6, np.random.default_rng(4))
        g = symmetry_conjugator(s, s)
        assert np.max(np.abs(g - np.eye(6))) <= 1e-9

    def test_diag_to_swap_is_hadamard(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        g = symmetry_conjugator(z, x)
        want = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        assert np.max(np.abs(g - want)) <= 1e-12

    @pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (8, 2), (12, 3)])
    def test_random_pairs(self, n, seed):
        rng = np.random.default_rng(seed)
        s1 = random_symmetry(n, rng)
        s2 = random_symmetry(n, rng)
        g = symmetry_conjugator(s1, s2)
        assert np.max(np.abs(g @ g.conj().T - np.eye(n))) <= 1e-9
        assert np.max(np.abs(g @ s1 @ g.conj().T - s2)) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        s1 = random_symmetry(4, rng)
        s2 = random_symmetry(4, rng)
        g1 = symmetry_conjugator(s1, s2)
        g2 = symmetry_conjugator(s1.copy(), s2.copy())
        assert np.array_equal(g1, g2)

    def test_odd_dimension_rejected(self):
        s = np.diag([1.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(PreconditionError, match="conjugacy class"):
            symmetry_conjugator(s, s)

    def test_unbalanced_multiplicities_rejected(self):
        s1 = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(PreconditionError, match="conjugacy class"):
            symmetry_conjugator(s1, s1)

    def test_dimension_mismatch(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        b = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        with pytest.raises(DimensionError):
            symmetry_conjugator(a, b)

    def test_non_symmetry_rejected(self):
        u = haar(4, np.random.default_rng(11))
        s = random_symmetry(4, np.random.default_rng(12))
        with pytest.raises(ValidationError):
            symmetry_conjugator(u, s)


class TestBroiseKernel:
    def test_identity_is_empty(self):
        cert = broise_kernel_certificate(np.eye(3, dtype=complex))
        assert len(cert) == 0
        assert cert.claimed_budget == 4
        assert cert.theorem == "broise_kernel"
        assert cert.metadata.get("trivial_target") is True
        assert verify_certificate(cert)["pass"]

    @pytest.mark.parametrize("spread", [1e-10, 1e-13])
    def test_near_identity_verifies(self, spread):
        # the empty certificate is emitted only when it passes the product
        # check; otherwise the four Broise steps are
        rng = np.random.default_rng(15)
        w = haar(3, rng)
        m = (w * np.exp(1j * spread * rng.uniform(-1, 1, 3))) @ w.conj().T
        cert = broise_kernel_certificate(m)
        assert verify_certificate(cert)["pass"]
        if spread >= 1e-10:
            assert len(cert) == 4

    def test_minus_identity_is_empty(self):
        cert = broise_kernel_certificate(-np.eye(2, dtype=complex))
        assert len(cert) == 0
        assert verify_certificate(cert)["pass"]

    def test_scalar_i(self):
        cert = broise_kernel_certificate(np.array([[1j]]))
        assert len(cert) == 4
        assert np.max(np.abs(cert.base - np.diag([1.0, -1.0]))) == 0
        report = verify_certificate(cert)
        assert report["pass"], report
        assert all(st.e == 1 for st in cert.steps)

    @pytest.mark.parametrize("k,seed", [(1, 0), (2, 1), (3, 2), (5, 3)])
    def test_random_w(self, k, seed):
        w = haar(k, np.random.default_rng(seed))
        cert = broise_kernel_certificate(w)
        assert len(cert) == 4
        assert cert.claimed_budget == 4
        report = verify_certificate(cert)
        assert report["pass"], report
        prod = cert.product()
        want = np.zeros((2 * k, 2 * k), dtype=complex)
        want[:k, :k] = w
        want[k:, k:] = w.conj().T
        assert np.max(np.abs(prod - want)) <= 1e-8

    def test_steps_hit_block_factors(self, step_conjugator):
        w = haar(2, np.random.default_rng(5))
        cert = broise_kernel_certificate(w)
        factors = block_symmetry_factors(w)
        for i, f in enumerate(factors):
            g = step_conjugator(cert, i)
            got = g @ cert.base @ g.conj().T
            assert np.max(np.abs(got - f.matrix)) <= 1e-9

    def test_custom_reference(self):
        rng = np.random.default_rng(6)
        w = haar(2, rng)
        ref = Symmetry(random_symmetry(4, rng))
        cert = broise_kernel_certificate(w, reference=ref)
        assert np.max(np.abs(cert.base - ref.matrix)) == 0
        assert verify_certificate(cert)["pass"]

    def test_reference_dimension_checked(self):
        ref = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(DimensionError):
            broise_kernel_certificate(haar(2, np.random.default_rng(0)), ref)

    def test_reference_trace_checked(self):
        ref = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        with pytest.raises(ValidationError):
            broise_kernel_certificate(haar(2, np.random.default_rng(0)), ref)

    @pytest.mark.parametrize("k,seed", [(1, 0), (2, 1), (3, 2), (5, 3)])
    def test_target_frame(self, k, seed, step_conjugator):
        # A = diag(F, F) and its angles rebuild diag(w, w*), and each step's
        # conjugate of the reference is the matching factor s, t, s, t
        w = haar(k, np.random.default_rng(seed))
        cert = broise_kernel_certificate(w)
        assert len(cert) == 4
        a = cert.aframe
        rebuilt = (a * np.exp(1j * cert.target_angles)) @ a.conj().T
        assert np.max(np.abs(rebuilt - cert.target)) <= TOL.diag_residual
        for i, f in enumerate(block_symmetry_factors(w)):
            g = step_conjugator(cert, i)
            assert np.max(np.abs(g @ cert.base @ g.conj().T - f.matrix)) <= 1e-9

    def test_diagonalizes_w_once(self, eigh_calls):
        # one eigh of w for the target frame and one of the reference for
        # the base frame; s and t are never diagonalized
        k = 4
        cert = broise_kernel_certificate(haar(k, np.random.default_rng(9)))
        assert len(cert) == 4
        assert eigh_calls.count((k, k)) == 1
        assert eigh_calls.count((2 * k, 2 * k)) == 1

    def test_one_run_of_two_by_two_blocks(self):
        # perm [0, k, 1, k + 1, ...], blocks at 0, 2, ..., 2k - 2, the steps
        # b_s, b_t, b_s, b_t and base angles (0, pi) on every pair
        k = 3
        w = haar(k, np.random.default_rng(12))
        cert = broise_kernel_certificate(w)
        (run,) = cert.runs
        assert run.perm.tolist() == [0, 3, 1, 4, 2, 5]
        assert run.offsets.tolist() == [0, 2, 4]
        assert run.blocks.shape == (4, k, 2, 2) and run.e.tolist() == [1] * 4
        assert np.array_equal(run.blocks[0], run.blocks[2])
        assert np.array_equal(run.blocks[1], run.blocks[3])
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        assert np.array_equal(run.blocks[1], np.broadcast_to(hadamard, (k, 2, 2)))
        c = np.exp(-0.5j * cert.target_angles[:k])
        assert np.max(np.abs(run.blocks[0, :, 1, 0] * np.sqrt(2.0) - c)) <= 1e-15
        assert cert.base_angles.tolist() == [0.0, np.pi] * k

    @staticmethod
    def property_pool():
        """(tag, w, reference): Haar w with k = 1..40, w with eigenvalue -1,
        repeated and near-identity spectra, and custom references."""
        for k in range(1, 41):
            yield f"haar {k}", haar(k, np.random.default_rng([22, k])), None
        for k in (2, 3, 5, 9):
            rng = np.random.default_rng([23, k])
            f = haar(k, rng)
            spectra = {
                "minus-one": np.r_[np.pi, rng.uniform(-np.pi, np.pi, k - 1)],
                "repeated": rng.uniform(-np.pi, np.pi, 2)[rng.integers(0, 2, k)],
                "near-identity": 1e-10 * rng.uniform(-1, 1, k),
                "near-scalar": 0.7 + 1e-6 * rng.uniform(-1, 1, k),
            }
            for tag, a in spectra.items():
                yield f"{tag} {k}", (f * np.exp(1j * a)) @ f.conj().T, None
            yield f"custom reference {k}", f, Symmetry(random_symmetry(2 * k, rng))

    def test_property_pool(self):
        for tag, w, ref in self.property_pool():
            cert = broise_kernel_certificate(w, reference=ref)
            assert len(cert) == 4, tag
            back = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
            for c in (cert, back):
                report = verify_certificate(c)
                assert report["pass"], (tag, report)
                assert report["margins"]["residual_ratio"] <= 0.01, (tag, report)

    def test_tamper_names_the_step(self):
        # a block entry, then the exponent, of step 2 of the one run
        cert = broise_kernel_certificate(haar(3, np.random.default_rng(13)))
        (run,) = cert.runs
        blocks = np.array(run.blocks, copy=True)
        blocks[2, 1, 0, 1] += 1e-6
        exps = run.e.copy()
        exps[2] = 2
        for change in ({"blocks": blocks}, {"e": exps}):
            bad = dataclasses.replace(cert, runs=(dataclasses.replace(run, **change),))
            report = verify_certificate(bad)
            assert report["margins"]["first_failing_step"] == 2, change
            assert not report["pass"]

    @pytest.mark.parametrize("build", [broise_kernel_certificate, sqrt_unitary,
                                       block_symmetry_factors])
    def test_validates_w_once(self, build, monkeypatch):
        from normgen.spectral import UnitaryRep

        w = haar(4, np.random.default_rng(10))
        checks = []
        inner = UnitaryRep.__post_init__

        def spy(self):
            inner(self)
            checks.append(np.array_equal(np.asarray(self.op), w))

        monkeypatch.setattr(UnitaryRep, "__post_init__", spy)
        build(w)
        assert sum(checks) == 1

    def test_json_round_trip(self):
        w = haar(2, np.random.default_rng(8))
        cert = broise_kernel_certificate(w)
        back = Certificate.from_json(cert.to_json())
        assert back.theorem == "broise_kernel"
        assert len(back) == 4
        assert verify_certificate(back)["pass"]
