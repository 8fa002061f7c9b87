"""Rational spectra, certified rounding, embedding, and the pipeline."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from normgen import (
    Certificate,
    CircleSpectrum,
    DimensionError,
    DomainError,
    EmbeddingBlowupError,
    HypothesisError,
    Monomial,
    PreconditionError,
    RationalSpectrum,
    ValidationError,
    approx_stability_check,
    lcm_embed,
    pipeline_generate,
    projective_profile,
    rational_approximate,
    verify_certificate,
)

F = Fraction


class TestRationalSpectrum:
    def test_atoms_sorted_and_exact(self):
        spec = RationalSpectrum(((math.pi, F(2, 3)), (0.0, F(1, 3))))
        assert spec.atoms[0] == (0.0, F(1, 3))
        assert spec.atoms[1] == (math.pi, F(2, 3))
        assert sum(spec.weights()) == 1

    def test_common_denominator_lcm(self):
        spec = RationalSpectrum(((0.0, F(1, 2)), (1.0, F(1, 3)), (2.0, F(1, 6))))
        assert spec.common_denominator == 6

    def test_integer_weight_single_atom(self):
        spec = RationalSpectrum(((0.5, 1),))
        assert spec.weights() == (F(1),)
        assert spec.common_denominator == 1

    def test_rejects_float_weight(self):
        with pytest.raises(ValidationError):
            RationalSpectrum(((0.0, 0.5), (1.0, F(1, 2))))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            RationalSpectrum(((0.0, F(1, 2)), (1.0, F(1, 3))))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            RationalSpectrum(((0.0, F(3, 2)), (1.0, F(-1, 2))))

    def test_rejects_duplicate_angle(self):
        with pytest.raises(ValidationError):
            RationalSpectrum(((1.0, F(1, 2)), (1.0, F(1, 2))))

    def test_rejects_angle_off_branch(self):
        with pytest.raises(ValidationError):
            RationalSpectrum(((-math.pi, F(1, 2)), (1.0, F(1, 2))))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            RationalSpectrum(())

    def test_json_round_trip(self):
        spec = RationalSpectrum(((0.25, F(3, 7)), (-2.5, F(4, 7))))
        blob = json.dumps(spec.to_json())
        back = RationalSpectrum.from_json(json.loads(blob))
        assert back == spec

    def test_from_json_malformed(self):
        with pytest.raises(ValidationError):
            RationalSpectrum.from_json({"atoms": [{"angle": 0.0}]})


class TestRationalApproximate:
    def test_exact_input_unchanged(self):
        spec = RationalSpectrum(((0.0, F(1, 3)), (math.pi, F(2, 3))))
        out, info = rational_approximate(spec, 0.1)
        assert out == spec
        assert info["certified"] == 0.0
        assert info["realized"] == 0.0
        assert info["exact_input"] is True

    def test_circle_spectrum_is_exact(self):
        spec = CircleSpectrum(np.array([0.3, -1.2, 2.9]))
        out, info = rational_approximate(spec, 0.5)
        assert info["exact_input"] is True
        assert out.weights() == (F(1, 3), F(1, 3), F(1, 3))

    def test_repeated_angles_merge_exactly(self):
        spec = CircleSpectrum(np.array([0.7, 0.7, -1.0, -1.0]))
        out, info = rational_approximate(spec, 0.5)
        assert out.n_atoms == 2
        assert out.weights() == (F(1, 2), F(1, 2))

    def test_float_weights_bit_exact_rationals(self):
        # 0.3 and 0.7 round-trip through small denominators bit for bit,
        # so nothing is floored and no remainder atom appears
        out, info = rational_approximate([(1.0, 0.3), (-2.0, 0.7)], 0.6)
        assert dict(out.atoms) == {-2.0: F(7, 10), 1.0: F(3, 10)}
        assert info["realized"] == 0.0
        assert info["certified"] == pytest.approx(0.1, abs=1e-15)
        assert info["remainder_mass"] == 0.0
        # binary 0.6 sits just below 3/5, so (12/eps)^2 tips past 400
        assert info["denominator_cap"] == 401

    def test_floor_rounding_remainder_frozen(self):
        # cap is 36; both weights miss every denominator up to 36, so each
        # is floored and the lost 1/36 lands on a fresh atom at angle zero
        out, info = rational_approximate(
            [(1.5, 0.123456789), (-2.5, 0.876543211)], 2.0
        )
        got = dict(out.atoms)
        assert got[1.5] == F(1, 9)
        assert got[-2.5] == F(31, 36)
        assert got[0.0] == F(1, 36)
        assert info["remainder_mass"] == pytest.approx(1.0 / 36.0, abs=1e-15)
        assert info["atoms_out"] == 3
        assert info["realized"] < 2.0
        assert info["certified"] == pytest.approx(
            math.sqrt((2.0 / 6.0) ** 2 + 4.0 / 36.0), abs=1e-12
        )

    def test_irrational_weight_certified(self):
        w = 1.0 / math.sqrt(2.0)
        out, info = rational_approximate([(0.7, w), (-1.1, 1.0 - w)], 0.05)
        assert sum(out.weights()) == 1
        assert info["realized"] < 0.05
        assert info["certified"] < 0.05
        assert all(q.denominator <= info["denominator_cap"] for q in out.weights())

    def test_close_angles_cluster(self):
        out, info = rational_approximate(
            [(1.0, 0.5), (1.0 + 1e-9, 0.5)], 0.1
        )
        assert info["atoms_out"] == out.n_atoms
        reps = [a for a, _ in out.atoms if abs(a - 1.0) < 1e-6]
        assert len(reps) == 1
        assert info["realized"] < 1e-8

    def test_wraparound_cluster(self):
        near_pi = math.pi - 1e-10
        out, info = rational_approximate(
            [(near_pi, 0.5), (-near_pi, 0.5)], 0.1
        )
        merged = [a for a, _ in out.atoms if abs(abs(a) - math.pi) < 1e-6]
        assert len(merged) == 1
        assert info["realized"] < 1e-8

    def test_mass_identity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            w = rng.random(k) + 0.05
            w = w / w.sum()
            w[-1] = 1.0 - math.fsum(w[:-1])
            angles = np.sort(rng.uniform(-3.1, 3.1, size=k))
            eps = float(rng.uniform(0.02, 0.8))
            out, info = rational_approximate(list(zip(angles, w)), eps)
            assert sum(out.weights()) == 1
            assert info["realized"] < eps
            assert info["certified"] < eps

    def test_rejects_bad_epsilon(self):
        with pytest.raises(DomainError):
            rational_approximate([(0.0, 1)], 0.0)

    def test_rejects_bad_mass(self):
        with pytest.raises(PreconditionError):
            rational_approximate([(0.0, 0.4), (1.0, 0.4)], 0.1)

    def test_rejects_nonpositive_float_weight(self):
        with pytest.raises(PreconditionError):
            rational_approximate([(0.0, 1.2), (1.0, -0.2)], 0.1)


class TestLcmEmbed:
    def test_frozen_small_embedding(self):
        a = RationalSpectrum(((0.0, F(1, 2)), (math.pi, F(1, 2))))
        b = RationalSpectrum(((math.pi / 2, F(1, 3)), (-math.pi / 2, F(2, 3))))
        ua, vb, s0 = lcm_embed(a, b)
        assert s0 == 6
        np.testing.assert_allclose(
            np.diag(ua.matrix), [1, 1, 1, -1, -1, -1], atol=1e-15
        )
        np.testing.assert_allclose(
            np.diag(vb.matrix), [-1j, -1j, -1j, -1j, 1j, 1j], atol=1e-15
        )

    def test_diagonal_and_unitary(self):
        a = RationalSpectrum(((0.4, F(2, 5)), (-1.3, F(3, 5))))
        b = RationalSpectrum(((2.2, F(1, 4)), (0.0, F(3, 4))))
        ua, vb, s0 = lcm_embed(a, b)
        assert s0 == 20
        assert ua.n == vb.n == 20
        assert np.count_nonzero(ua.matrix - np.diag(np.diag(ua.matrix))) == 0
        angles = np.angle(np.diag(vb.matrix))
        assert np.all(np.diff(angles) >= -1e-12)

    def test_embedding_is_monomial(self):
        # at s0 = 5040 a dense embedding would be 406 MB per operand
        a = RationalSpectrum(((-0.3, F(1, 7)), (0.2, F(1, 16)), (0.25, F(89, 112))))
        b = RationalSpectrum(((-0.8, F(1, 9)), (0.8, F(3, 10)), (2.4, F(53, 90))))
        tracemalloc.start()
        try:
            ua, vb, s0 = lcm_embed(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s0 == 5040
        assert peak < 2**20
        for rep, spec in ((ua, a), (vb, b)):
            assert isinstance(rep.op, Monomial) and rep.op.diagonal
            want = np.repeat(spec.angles(), [int(w * s0) for w in spec.weights()])
            assert np.array_equal(rep.op.phases, np.exp(1j * want))
            assert rep.gram[0] <= 4 * np.finfo(float).eps

    def test_blowup_guard(self):
        a = RationalSpectrum(((0.0, F(1, 71)), (1.0, F(70, 71))))
        b = RationalSpectrum(((0.0, F(1, 72)), (1.0, F(71, 72))))
        with pytest.raises(EmbeddingBlowupError):
            lcm_embed(a, b)

    def test_rejects_non_spectrum(self):
        a = RationalSpectrum(((0.0, 1),))
        with pytest.raises(ValidationError):
            lcm_embed(a, [(0.0, F(1, 2)), (1.0, F(1, 2))])


class TestPipelineGenerate:
    def target_base_pair(self):
        u = RationalSpectrum(((0.0, F(1, 4)), (math.pi, F(3, 4))))
        v = RationalSpectrum(((math.pi / 2, F(1, 3)), (-math.pi / 2, F(2, 3))))
        return u, v

    def test_budget_and_params_frozen(self):
        u, v = self.target_base_pair()
        cert = pipeline_generate(u, v, m=2, s=F(1, 3))
        assert cert.claimed_budget == 288
        assert cert.theorem == "pipeline"
        assert cert.params == {
            "m": 2,
            "s_num": 1,
            "s_den": 3,
            "n": 12,
            "window": 2,
        }
        assert cert.metadata["s0"] == 12
        assert cert.metadata["matching_conjugator"] == "identity"
        assert cert.metadata["inner_budget"] <= 288
        assert len(cert.steps) <= 288

    def test_certificate_verifies(self):
        u, v = self.target_base_pair()
        cert = pipeline_generate(u, v, m=2, s=F(1, 3))
        report = verify_certificate(cert)
        assert report["pass"], report

    def test_diagonal_embedding_skips_eigh(self, eigh_calls):
        # the lcm embedding is diagonal, so neither generation nor the
        # verifier's spectra go through the eigensolver
        u, v = self.target_base_pair()
        cert = pipeline_generate(u, v, m=2, s=F(1, 3))
        assert len(cert) > 0
        assert eigh_calls == []
        assert verify_certificate(cert)["pass"]
        assert eigh_calls == []

    def test_float_window_coerced(self):
        u, v = self.target_base_pair()
        cert = pipeline_generate(u, v, m=2, s=0.5)
        assert cert.params["s_num"] == 1
        assert cert.params["s_den"] == 2
        assert cert.claimed_budget == 48 * 2 * 2

    def test_full_window(self):
        # the s=1 window reaches profile index 5, so the base needs twelve
        # spread eigenvalues; the two-cluster base has rank four and fails
        u, _ = self.target_base_pair()
        v = RationalSpectrum(
            tuple((k * math.pi / 6, F(1, 12)) for k in range(-5, 7))
        )
        cert = pipeline_generate(u, v, m=2, s=1)
        assert cert.params["window"] == (12 - 1) // 2 + 1
        assert cert.claimed_budget == 96
        assert verify_certificate(cert)["pass"]

    def test_trivial_target(self):
        u = RationalSpectrum(((0.0, 1),))
        v = RationalSpectrum(((math.pi / 2, F(1, 2)), (-math.pi / 2, F(1, 2))))
        cert = pipeline_generate(u, v, m=1, s=F(1, 2))
        assert len(cert.steps) == 0
        assert cert.metadata.get("trivial_target") is True
        assert cert.metadata["s0"] == 2
        assert verify_certificate(cert)["pass"]

    def test_hypothesis_failure_propagates(self):
        u = RationalSpectrum(((0.0, F(1, 2)), (math.pi, F(1, 2))))
        v = RationalSpectrum(((0.0, F(1, 2)), (0.05, F(1, 2))))
        with pytest.raises(HypothesisError) as err:
            pipeline_generate(u, v, m=1, s=1)
        assert err.value.report is not None

    def test_rejects_bad_window(self):
        u, v = self.target_base_pair()
        with pytest.raises(DomainError):
            pipeline_generate(u, v, m=1, s=0)
        with pytest.raises(DomainError):
            pipeline_generate(u, v, m=1, s=F(3, 2))

    def test_rejects_bad_multiplier(self):
        u, v = self.target_base_pair()
        with pytest.raises(DomainError):
            pipeline_generate(u, v, m=0, s=F(1, 2))

    def test_easy_direction_on_pipeline_cert(self):
        u, v = self.target_base_pair()
        cert = pipeline_generate(u, v, m=2, s=F(1, 3))
        k = len(cert.steps)
        if k == 0:
            return
        pu = projective_profile(cert.target).values
        pv = projective_profile(cert.base).values
        n = cert.target.shape[0]
        for i in range(n):
            assert pu[min(k * i, n - 1)] <= k * pv[i] + 1e-7


LARGE_PIPELINE = """
import json, resource, sys, time
from fractions import Fraction as F
import normgen as ng

u = ng.RationalSpectrum(((-0.3, F(1, 7)), (-0.1, F(1, 16)), (0.2, F(1, 9)),
                         (0.25, F(689, 1008))))
v = ng.RationalSpectrum(((-2.4, F(3, 10)), (-0.8, F(1, 5)), (0.8, F(1, 5)),
                         (2.4, F(3, 10))))
t0 = time.perf_counter()
cert = ng.pipeline_generate(u, v, 4, F(1, 2))
t1 = time.perf_counter()
text = json.dumps(cert.to_json())
back = ng.Certificate.from_json(json.loads(text))
t2 = time.perf_counter()
report = ng.verify_certificate(back)
t3 = time.perf_counter()
json.dump({
    "n": back.n, "k": len(back), "pass": report["pass"],
    "round_trip": json.dumps(back.to_json()) == text, "mb": len(text) / 1e6,
    "generate_s": t1 - t0, "json_s": t2 - t1, "verify_s": t3 - t2,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}, sys.stdout)
"""


class TestLargePipeline:
    def test_pipeline_at_s0_max(self):
        """The pipeline at n = TOL.s0_max = 5040, in a fresh process: every
        operand is monomial, so generate, the JSON round trip and verify
        hold O(n) plus one 16 MB row block of the eigenframe product.  On a
        2-core x86-64 host with one BLAS thread it takes about 2.7 s to
        generate, 0.1 s to dump and load and 1.9 s to verify, at 135 MB
        peak RSS and a 2.6 MB certificate (dense operands needed 2.2 GB of
        JSON for the four records alone)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", LARGE_PIPELINE], capture_output=True, text=True,
            env=env, timeout=600, check=True,
        )
        out = json.loads(proc.stdout)
        print(out)
        assert out["n"] == 5040 and out["k"] == 8
        assert out["pass"] and out["round_trip"]
        assert out["mb"] < 5.0
        assert out["rss_mb"] < 1024


class TestApproxStability:
    def test_identical_inputs_pass(self):
        u = np.diag(np.exp(1j * np.array([0.0, 1.0, 2.0, -2.5])))
        report = approx_stability_check(u, u, 1e-3)
        assert report["pass"] is True
        assert report["two_norm"] == 0.0
        assert report["violations"] == []
        assert report["status"] == "ok"
        assert report["epsilon_threshold"] > 0.0

    def test_frozen_violation(self):
        u = np.diag([1.0 + 0.0j, -1.0 + 0.0j])
        report = approx_stability_check(u, np.eye(2), 2.0)
        assert report["within_epsilon"] is True
        assert report["two_norm"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert report["violations"] == [0]
        assert report["pass"] is False

    def test_central_input_degenerate(self):
        report = approx_stability_check(np.eye(3), np.eye(3), 0.5)
        assert report["status"] == "degenerate"
        assert report["epsilon_threshold"] is None
        assert report["pass"] is True

    def test_small_perturbation_within_threshold(self):
        rng = np.random.default_rng(11)
        u = np.diag(np.exp(1j * np.array([0.0, 0.9, 1.8, 2.7, -1.5])))
        probe = approx_stability_check(u, u, 1.0)
        thr = probe["epsilon_threshold"]
        assert thr > 0.0
        herm = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        herm = herm + herm.conj().T
        herm *= 0.05 * thr / np.linalg.norm(herm, 2)
        from scipy.linalg import expm

        uprime = expm(1j * herm) @ u
        report = approx_stability_check(u, uprime, thr)
        assert report["pass"] is True, report

    def test_one_diagonalization_per_operand(self, monkeypatch):
        import normgen.spectral as spectral

        calls = []
        real = spectral.diagonalize_normal

        def counting(u, **kwargs):
            calls.append(1)
            return real(u, **kwargs)

        monkeypatch.setattr(spectral, "diagonalize_normal", counting)
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        report = approx_stability_check(q, q, 0.1)
        assert report["status"] == "ok"
        assert len(calls) == 2

    def test_rejects_bad_epsilon(self):
        with pytest.raises(DomainError):
            approx_stability_check(np.eye(2), np.eye(2), 0.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            approx_stability_check(np.eye(2), np.eye(3), 0.1)

    def test_report_is_json_serializable(self):
        u = np.diag([1.0 + 0.0j, 1j])
        report = approx_stability_check(u, u, 0.25)
        again = json.loads(json.dumps(report))
        assert again["pass"] is True
