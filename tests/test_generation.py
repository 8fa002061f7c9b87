"""Certificate generators: closed-loop products, budgets, refusal semantics."""

import base64
import dataclasses
import functools
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from normgen import certificate, generation, spectral
from normgen.errors import (
    BudgetInfeasibleError,
    CertificateFormatError,
    DegenerateInputError,
    DomainError,
    HypothesisError,
    ValidationError,
)
from normgen.certificate import (
    CertRun,
    Certificate,
    certificate_product,
    theorem_budget,
    verify_certificate,
)
from normgen.generation import (
    counterexample_pair,
    generate_full,
    generate_rank_dependent,
    generate_rank_independent,
    hypothesis_check,
)
from normgen.config import TOL
from normgen.orderings import center_phase
from normgen.rational import approx_stability_check
from normgen.spectral import (
    CircleSpectrum,
    RankDistance,
    _diameter_pair,
    _is_central,
    canon_angle,
    chord,
    projective_one_norm,
    projective_profile,
    projective_s_number,
    spectrum_of,
)
from normgen.su2 import _walk, source_block, walk_length


def haar(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def diag_u(angles):
    return np.diag(np.exp(1j * np.asarray(angles, dtype=float)))


def rank_distance(x, y):
    """Normalized rank of x - y by an SVD: the test's own oracle for the
    aligned rank of counterexample_pair."""
    s = np.linalg.svd(np.asarray(x) - np.asarray(y), compute_uv=False)
    return RankDistance(int(np.count_nonzero(s > TOL.rank)), s.shape[0])


def centered(angles):
    a = np.asarray(angles, dtype=float)
    return a - a.sum() / a.shape[0]


def product(v, runs):
    """Eigenframe product of runs emitted for the diagonal base v."""
    return certificate_product(np.angle(np.diagonal(v)), runs)


def block_factor(n, i, phi):
    vec = np.ones(n, dtype=complex)
    vec[i] = np.exp(1j * phi)
    vec[i + 1] = np.exp(-1j * phi)
    return np.diag(vec)


def arr(x):
    """A scalar 2x2 tuple as an array."""
    a, b, c, d = x
    return np.array(((a, b), (c, d)), dtype=complex)


def swap_perm(n, j):
    perm = np.arange(n)
    perm[j], perm[j + 1] = j + 1, j
    return perm


def source_pair(v_angles, j):
    """The source block at (j, j + 1) of a base with angles v_angles, as the
    planner pairs it."""
    return j, source_block(v_angles[j] - v_angles[j + 1])


def walk_block(v, phi, target, source, cap):
    """The run walking the block factor of angle phi at target alone on the
    source gap of the diagonal base v at source, in at most cap steps."""
    vang = np.angle(np.diagonal(v))
    strand = generation._plan_strand(phi, target, source_pair(vang, source), cap)
    return generation._shared_run(v.shape[0], [strand])


def blockless(perm, e):
    """A run of one step that is a pure permutation: no blocks."""
    return CertRun(perm, [], (), [e])


def unpack(rec):
    """Decode a packed certificate record with the standard library."""
    raw = base64.b64decode(rec["b64"])
    return np.frombuffer(raw, dtype="<c16").reshape(rec["shape"]).copy()


def pack(arr):
    a = np.ascontiguousarray(arr, dtype="<c16")
    b64 = base64.b64encode(a.tobytes()).decode("ascii")
    return {"shape": list(a.shape), "dtype": "<c16", "b64": b64}


def assert_sound(cert):
    report = verify_certificate(cert)
    assert report["pass"], report
    assert len(cert) <= cert.claimed_budget
    return report


class TestCertificateType:
    def test_json_round_trip(self, step_conjugator):
        rng = np.random.default_rng(0)
        cert = generate_rank_dependent(haar(3, rng), haar(3, rng), 4)
        blob = json.dumps(cert.to_json())
        back = Certificate.from_json(json.loads(blob))
        assert back.theorem == cert.theorem
        assert back.claimed_budget == cert.claimed_budget
        assert len(back) == len(cert)
        assert np.max(np.abs(back.target - cert.target)) < 1e-15
        assert np.array_equal(back.steps[0].perm, cert.steps[0].perm)
        assert np.max(np.abs(step_conjugator(back, 0) - step_conjugator(cert, 0))) < 1e-15
        assert verify_certificate(back)["pass"]

    def test_bad_version_rejected(self):
        rng = np.random.default_rng(1)
        cert = generate_rank_dependent(haar(2, rng), haar(2, rng), 2)
        obj = cert.to_json()
        obj["version"] = "normgen-cert/999"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_unknown_theorem_tag(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            Certificate(eye, eye, eye, eye, np.zeros(2), np.zeros(2), (), "made_up")

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
            Certificate(eye2, eye3, eye2, eye3, np.zeros(2), np.zeros(2), (), "rank_dep")

    def test_tampered_json_still_loads(self):
        # damaged step blocks must parse and then fail verification
        rng = np.random.default_rng(2)
        cert = generate_rank_dependent(haar(3, rng), haar(3, rng), 2)
        obj = cert.to_json()
        blocks = unpack(obj["runs"][0]["blocks"])
        blocks[0] += 0.01
        obj["runs"][0]["blocks"] = pack(blocks)
        back = Certificate.from_json(obj)
        report = verify_certificate(back)
        assert not report["pass"]


class TestTheoremBudgets:
    def test_frozen_examples(self):
        assert theorem_budget("rank_indep", {"m": 1, "s": 1, "n": 4}) == 96
        assert theorem_budget("rank_dep", {"m": 1, "s": None, "n": 4}) == 32
        assert theorem_budget("full_gen", {"m": 3, "s": None, "n": 4}) == 96
        pipeline = {"m": 2, "s_num": 1, "s_den": 2, "n": 6, "window": 2}
        assert theorem_budget("pipeline", pipeline) == 192
        assert theorem_budget("broise_kernel", {"m": None, "s": None, "n": 8}) == 4

    def test_ceil_is_exact_for_fractions(self):
        assert theorem_budget("pipeline", {"m": 1, "s_num": 1, "s_den": 3}) == 144
        assert theorem_budget("pipeline", {"m": 1, "s_num": 2, "s_den": 3}) == 48 * 2
        assert theorem_budget("rank_indep", {"m": 1, "s": 3, "n": 10}) == 24 * 4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theorem_budget("rank_dep", {"m": 0, "s": None, "n": 4})
        with pytest.raises(DomainError):
            theorem_budget("rank_indep", {"m": 1, "s": 0, "n": 4})
        with pytest.raises(DomainError):
            theorem_budget("pipeline", {"m": 1, "s_num": 0, "s_den": 1})
        with pytest.raises(DomainError):
            theorem_budget("unknown", {"m": 1, "s": None, "n": 4})

    def test_generators_charge_their_tag(self):
        from normgen import admissible_pair, broise_kernel_certificate

        rng = np.random.default_rng(28)
        u, v = haar(5, rng), haar(5, rng)
        certs = [
            generate_full(u, v),
            generate_rank_dependent(*admissible_pair(5, 2, 1, rng), 2),
            broise_kernel_certificate(haar(2, rng)),
        ]
        for cert in certs:
            assert cert.claimed_budget == theorem_budget(cert.theorem, cert.params)


class TestHypothesisCheck:
    def test_equal_pair_satisfied(self):
        rng = np.random.default_rng(3)
        u = haar(4, rng)
        rep = hypothesis_check(u, u, 1, 1)
        assert rep.satisfied
        assert rep.min_feasible_m == 1
        assert len(rep.slacks) == 1

    def test_counterexample_max_s_is_one(self):
        pair = counterexample_pair(6)
        rep = hypothesis_check(pair["u"], pair["v"], 3, 1)
        assert rep.satisfied
        assert rep.max_feasible_s == 1
        rep2 = hypothesis_check(pair["u"], pair["v"], 3, 2)
        assert not rep2.satisfied
        assert rep2.min_feasible_m is None

    def test_min_feasible_m_tight(self):
        rng = np.random.default_rng(4)
        u, v = haar(5, rng), haar(5, rng)
        rep = hypothesis_check(u, v, 1, 2)
        m = rep.min_feasible_m
        assert m is not None
        assert hypothesis_check(u, v, m, 2).satisfied
        if m > 1:
            assert not hypothesis_check(u, v, m - 1, 2).satisfied

    def test_out_of_range(self):
        rng = np.random.default_rng(5)
        u = haar(3, rng)
        with pytest.raises(DomainError):
            hypothesis_check(u, u, 1, 4)
        with pytest.raises(DomainError):
            hypothesis_check(u, u, 0, 1)

    def test_report_json(self):
        rng = np.random.default_rng(6)
        u = haar(3, rng)
        obj = hypothesis_check(u, u, 2, 2).to_json()
        json.dumps(obj)
        assert obj["m"] == 2 and obj["s"] == 2

    def test_matches_the_loop(self):
        # the slacks, satisfied and max_feasible_s as a loop over t computed them
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(2, 12))
            u, v = haar(n, rng), haar(n, rng)
            ell_u = projective_s_number(u, 0)[0]
            prof_v = projective_profile(v).values
            for m in (1, 2, 5):
                s = int(rng.integers(1, n + 1))
                slacks = tuple(float(ell_u - m * prof_v[t]) for t in range(s))
                feas = 0
                for t in range(n):
                    if ell_u - m * prof_v[t] > TOL.hyp_slack:
                        break
                    feas = t + 1
                rep = hypothesis_check(u, v, m, s)
                assert rep.slacks == slacks
                assert rep.satisfied is all(x <= TOL.hyp_slack for x in slacks)
                assert rep.max_feasible_s == feas


class TestSwapCommutator:
    """The commutator of a diagonal base with the swap of two adjacent
    positions, which drives the walks on gaps up to a quarter turn."""

    def test_quarter_turn_example(self):
        # the block diag(1, i): gap -pi/2, commutator diag(-i, i)
        block = source_block(-math.pi / 2)
        assert block.theta == pytest.approx(math.pi / 2)
        want = np.diag([-1j, 1j]).astype(complex)
        assert np.max(np.abs(arr(block.commutator) - want)) < 1e-12

    def test_fragment_multiplies_back(self):
        # two blockless steps, v and the swap-conjugate of v*
        angles = np.array([0.3, -1.1, 0.9, 0.2, -2.0])
        v = diag_u(angles)
        frag = (blockless(np.arange(5), 1), blockless(swap_perm(5, 2), -1))
        comm = v @ v[np.ix_(swap_perm(5, 2), swap_perm(5, 2))].conj().T
        prod = product(v, frag)
        assert np.max(np.abs(prod - comm)) < 1e-12
        block = source_block(angles[2] - angles[3])
        assert block.theta == pytest.approx(0.7)
        assert np.max(np.abs(prod[2:4, 2:4] - arr(block.commutator))) < 1e-12

    def test_blockless_steps_certificate(self):
        # a hand-built certificate of pure-permutation steps survives the
        # product, the JSON round trip and the verifier
        angles = np.array([1.2, -0.4, 0.5, -1.3])
        v = diag_u(angles)
        swap = swap_perm(4, 1)
        runs = (blockless(np.arange(4), 1), blockless(swap, -1))
        comm = v @ v[np.ix_(swap, swap)].conj().T
        eye = np.eye(4, dtype=complex)
        cert = Certificate(comm, v, eye, eye, angles, np.angle(np.diagonal(comm)), runs,
                           "rank_dep", {"m": 1, "s": None, "n": 4})
        assert np.max(np.abs(cert.product() - comm)) < 1e-12
        obj = json.loads(json.dumps(cert.to_json()))
        assert obj["perms"] == [list(range(4)), swap.tolist()]
        for rec in obj["runs"]:
            assert rec["offsets"] == [] and "width" not in rec
            assert rec["blocks"]["shape"] == [1, 0]
        back = Certificate.from_json(obj)
        assert [st.blocks.shape for st in back.steps] == [(0, 2, 2)] * 2
        assert np.array_equal(back.steps[1].perm, swap)
        assert np.max(np.abs(certificate_product(angles, back.runs) - comm)) < 1e-12
        report = verify_certificate(back)
        assert report["pass"], report
        assert report["margins"]["block_defect"] == 0.0


class TestGenerateBlock:
    """Block factors one at a time: one walked alone on one source gap of a
    diagonal base, and an identity factor, which gets no strand."""

    def test_single_gap_product(self):
        v = diag_u([0.8, -0.3, -0.5])
        fac = block_factor(3, 0, 0.5)
        run = walk_block(v, 0.5, 0, 0, 2)
        assert len(run) <= 4
        prod = product(v, [run])
        assert np.max(np.abs(prod - fac)) < 1e-9

    def test_offset_blocks(self):
        v = diag_u([1.0, 0.2, -0.4, -0.8])
        fac = block_factor(4, 2, -0.7)
        run = walk_block(v, -0.7, 2, 0, 4)
        prod = product(v, [run])
        assert np.max(np.abs(prod - fac)) < 1e-9

    def test_identity_factor_empty(self):
        # the prefix angles of the factors are 0.3, 0 and -0.2, so the
        # odd group holds only the identity factor and walks no batch
        u = diag_u([0.3, -0.3, 0.2, -0.2])
        cert = generate_rank_dependent(u, diag_u([1.0, -1.0, 2.5, 0.1]), 1)
        assert cert.metadata["planner"] == {
            "batches": 1, "matched_strands": 2, "widest_gap_strands": 0,
        }
        assert len(cert) == 4
        assert_sound(cert)

    def test_odd_multiplier_rejected(self):
        v = diag_u([0.8, -0.3, -0.5])
        with pytest.raises(DomainError):
            walk_block(v, 0.1, 0, 0, 3)

    def test_budget_infeasible(self):
        v = diag_u([0.1, -0.05, -0.05])
        with pytest.raises(BudgetInfeasibleError):
            walk_block(v, 2.0, 0, 0, 2)

    def test_wide_gap_partial_rotation(self):
        # gap beyond a quarter turn still reaches any block angle
        v = diag_u([1.7, -1.3, -0.4])
        fac = block_factor(3, 0, 3.0)
        run = walk_block(v, 3.0, 0, 0, 2)
        prod = product(v, [run])
        assert np.max(np.abs(prod - fac)) < 1e-9


class TestGenerateSimultaneous:
    """Several block factors walked in one batch, one shared commutator per
    step."""

    def test_two_blocks_four_steps(self):
        ang = centered([0.4, -0.1, -0.3, 0.25, -0.15, -0.05, -0.05])
        v = diag_u([1.2, -0.9, 0.3, -0.6, 0.8, -0.4, -0.4])
        vang = np.angle(np.diagonal(v))
        pref = np.cumsum(ang)
        strands = [
            generation._plan_strand(pref[1], 1, source_pair(vang, 0), 2),
            generation._plan_strand(pref[4], 4, source_pair(vang, 3), 2),
        ]
        run = generation._shared_run(7, strands)
        assert len(run) <= 4
        want = block_factor(7, 1, pref[1]) @ block_factor(7, 4, pref[4])
        prod = product(v, [run])
        assert np.max(np.abs(prod - want)) < 1e-9

    def test_per_block_budget(self):
        # the planner refuses a factor no source pair reaches within the cap
        ang = centered([2.0, -1.0, -1.0])
        vang = np.array([0.05, -0.02, -0.03])
        with pytest.raises(BudgetInfeasibleError):
            generation._plan_batches([(ang[0], 0)], [source_pair(vang, 0)], 2)


class TestRankDependent:
    def test_self_generation_within_8n(self):
        rng = np.random.default_rng(10)
        v = haar(5, rng)
        cert = generate_rank_dependent(v, v, 1)
        assert cert.theorem == "rank_dep"
        assert cert.claimed_budget == 8 * 5
        assert_sound(cert)

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (6, 3), (8, 4)])
    def test_random_pairs(self, n, seed):
        rng = np.random.default_rng(100 + seed)
        u, v = haar(n, rng), haar(n, rng)
        eu = projective_s_number(u, 0)[0]
        ev = projective_s_number(v, 0)[0]
        m = max(1, math.ceil(eu / ev))
        cert = generate_rank_dependent(u, v, m)
        assert len(cert) <= 8 * m * n
        assert_sound(cert)

    def test_central_target_empty(self):
        rng = np.random.default_rng(11)
        v = haar(4, rng)
        cert = generate_rank_dependent(np.eye(4, dtype=complex), v, 1)
        assert len(cert) == 0
        assert_sound(cert)
        scal = np.exp(0.7j) * np.eye(4, dtype=complex)
        cert2 = generate_rank_dependent(scal, v, 1)
        assert len(cert2) == 0

    @pytest.mark.parametrize("spread", [1e-10, 1e-12, 1e-14])
    def test_near_central_target_verifies(self, spread):
        # the empty certificate is emitted only when it passes the product
        # check; otherwise the target's tiny factors are walked
        rng = np.random.default_rng(13)
        w, v = haar(4, rng), haar(4, rng)
        u = w @ diag_u(0.7 + spread * rng.uniform(-1, 1, 4)) @ w.conj().T
        certs = (
            generate_rank_dependent(u, v, 1),
            generate_rank_independent(u, v, 1, 2),
            generate_full(u, v),
        )
        for cert in certs:
            assert_sound(cert)
            if spread >= 1e-10:
                assert len(cert) > 0

    def test_scaled_target_verifies(self):
        # (1 + 5e-11) u passes the input unitarity check; the product
        # tolerance allows for the target's distance to the unitary group
        rng = np.random.default_rng(14)
        u, v = haar(4, rng), haar(4, rng)
        m = math.ceil(projective_s_number(u, 0)[0] / projective_s_number(v, 0)[0])
        for cert in (
            generate_rank_dependent((1 + 5e-11) * u, v, m),
            generate_full((1 + 5e-11) * u, v),
        ):
            assert_sound(cert)

    def test_central_base_degenerate(self):
        rng = np.random.default_rng(12)
        u = haar(4, rng)
        with pytest.raises(DegenerateInputError):
            generate_rank_dependent(u, 1j * np.eye(4, dtype=complex), 2)

    def test_hypothesis_violation(self):
        # a base with tiny spread cannot reach a wide target at m = 1
        u = diag_u(centered([2.0, -1.0, -0.5, -0.5]))
        v = diag_u(centered([0.02, -0.01, -0.005, -0.005]))
        with pytest.raises(BudgetInfeasibleError):
            generate_rank_dependent(u, v, 1)

    def test_wide_gap_base(self):
        # widest base gap beyond pi/2 takes the partial rotation route
        v = diag_u(centered([1.8, -1.6, 0.1, -0.3]))
        u = diag_u(centered([0.9, -0.2, -0.4, -0.3]))
        cert = generate_rank_dependent(u, v, 1)
        assert_sound(cert)

    def test_antipodal_base(self):
        v = diag_u([0.0, math.pi])
        u = diag_u([0.5, -0.5])
        cert = generate_rank_dependent(u, v, 2)
        assert_sound(cert)

    def test_metadata_records_multiplier(self):
        rng = np.random.default_rng(13)
        v = haar(3, rng)
        cert = generate_rank_dependent(v, v, 2)
        assert cert.metadata["walk_multiplier"] == 8
        assert "centering_phase" in cert.metadata


class TestRankIndependent:
    def test_nine_by_nine_example(self):
        rng = np.random.default_rng(20)
        u, v = haar(9, rng), haar(9, rng)
        rep = hypothesis_check(u, v, 2, 4)
        assert rep.satisfied, rep
        cert = generate_rank_independent(u, v, 2, 4)
        assert cert.theorem == "rank_indep"
        assert cert.claimed_budget == 144
        assert len(cert) <= 144
        assert_sound(cert)

    def test_s_one_fallback(self):
        rng = np.random.default_rng(21)
        u, v = haar(4, rng), haar(4, rng)
        m = hypothesis_check(u, v, 1, 1).min_feasible_m
        cert = generate_rank_independent(u, v, m, 1)
        assert cert.theorem == "rank_indep"
        assert cert.params["s"] == 1
        assert len(cert) <= 8 * m * 4
        assert_sound(cert)

    @pytest.mark.parametrize("n,s,seed", [(5, 2, 0), (7, 3, 1), (9, 5, 2), (11, 4, 3)])
    def test_random_pairs(self, n, s, seed):
        rng = np.random.default_rng(200 + seed)
        u, v = haar(n, rng), haar(n, rng)
        rep = hypothesis_check(u, v, 1, s)
        m = rep.min_feasible_m
        assert m is not None
        cert = generate_rank_independent(u, v, m, s)
        assert len(cert) <= 24 * m * math.ceil(n / s)
        assert_sound(cert)

    def test_s_out_of_range(self):
        rng = np.random.default_rng(22)
        u, v = haar(5, rng), haar(5, rng)
        with pytest.raises(DomainError):
            generate_rank_independent(u, v, 1, 4)

    def test_hypothesis_error_carries_report(self):
        pair = counterexample_pair(6)
        with pytest.raises(HypothesisError) as exc:
            generate_rank_independent(pair["u"], pair["v"], 2, 2)
        assert exc.value.report is not None
        assert not exc.value.report.satisfied


class TestGenerateFull:
    def test_root_two_multiplier(self):
        # ell_0(diag(1, -1)) = sqrt(2), so the multiplier rounds to 2
        v = diag_u([0.0, math.pi])
        u = diag_u([0.9, -0.9])
        cert = generate_full(u, v)
        assert cert.theorem == "full_gen"
        assert cert.params["m"] == 2
        assert cert.claimed_budget == 8 * 2 * 2
        assert_sound(cert)

    def test_random_pair(self):
        rng = np.random.default_rng(30)
        u, v = haar(5, rng), haar(5, rng)
        cert = generate_full(u, v)
        ev = projective_s_number(v, 0)[0]
        assert cert.params["m"] == math.ceil(2.0 / ev - 1e-12)
        assert_sound(cert)

    def test_degenerate_base(self):
        rng = np.random.default_rng(31)
        u = haar(3, rng)
        with pytest.raises(DegenerateInputError):
            generate_full(u, np.exp(0.3j) * np.eye(3, dtype=complex))


def narrow_pair(n, eps):
    """A Haar target and a base of angles uniform in [-eps, eps], centered,
    both drawn from default_rng(11)."""
    from normgen import haar_unitary

    rng = np.random.default_rng(11)
    u = haar_unitary(n, rng)
    angles = rng.uniform(-eps, eps, n)
    return u, CircleSpectrum(angles - angles.mean()).to_unitary()


class TestNarrowBases:
    """Bases of small one-norm, the paper's regime of long certificates:
    k and the walks run to thousands of steps, yet the residual stays at
    rounding level.  Each case takes 0.2-1.2 s on one x86-64 core."""

    @pytest.mark.parametrize("n,eps", [(8, 1e-3), (8, 5e-4), (32, 1e-3)])
    def test_full_generation(self, n, eps):
        cert = generate_full(*narrow_pair(n, eps))
        report = verify_certificate(cert)
        assert len(cert) > 3000
        assert report["pass"] and report["margins"]["residual_ratio"] <= 0.01

    def test_rank_dependent_large_m(self):
        u, v = narrow_pair(16, 2e-3)
        m = math.ceil(projective_s_number(u, 0)[0] / projective_s_number(v, 0)[0] - 1e-9)
        assert m >= 1000
        report = verify_certificate(generate_rank_dependent(u, v, m))
        assert report["pass"] and report["margins"]["residual_ratio"] <= 0.01


EYE4 = np.eye(4, dtype=complex)
CENTRAL4 = 1j * EYE4
WIDE4 = diag_u(centered([0.9, -0.2, -0.4, -0.3]))
# ell_0 = 3e-9 is above TOL.rank, so generate_full's own check passes, but
# the diameter 6e-9 makes the base central
NEAR_CENTRAL4 = diag_u([3e-9, -3e-9, 0.0, 0.0])


def gate_case(call, expected, name):
    return pytest.param(call, expected, id=name)


class TestGateOrder:
    """Which refusal or shortcut wins at n = 4: the parameters, then a
    trivial target, then a central base, then the generator's hypothesis."""

    @pytest.mark.parametrize("call,expected", [
        gate_case(lambda: generate_rank_dependent(EYE4, CENTRAL4, 1), None,
                  "rank_dep-trivial-target-central-base"),
        gate_case(lambda: generate_rank_independent(EYE4, CENTRAL4, 1, 1), None,
                  "rank_indep-trivial-target-central-base"),
        # full's multiplier needs ell_0(v) before any certificate exists
        gate_case(lambda: generate_full(EYE4, CENTRAL4), DegenerateInputError,
                  "full-trivial-target-central-base"),
        gate_case(lambda: generate_rank_dependent(WIDE4, CENTRAL4, 1), DegenerateInputError,
                  "rank_dep-central-base"),
        gate_case(lambda: generate_rank_independent(WIDE4, CENTRAL4, 1, 1),
                  DegenerateInputError, "rank_indep-central-base"),
        gate_case(lambda: generate_full(WIDE4, CENTRAL4), DegenerateInputError,
                  "full-central-base"),
        gate_case(lambda: generate_rank_dependent(WIDE4, NEAR_CENTRAL4, 1),
                  DegenerateInputError, "rank_dep-numerically-central-base"),
        gate_case(lambda: generate_rank_independent(WIDE4, NEAR_CENTRAL4, 1, 1),
                  DegenerateInputError, "rank_indep-numerically-central-base"),
        gate_case(lambda: generate_full(WIDE4, NEAR_CENTRAL4), DegenerateInputError,
                  "full-numerically-central-base"),
        gate_case(lambda: generate_rank_dependent(EYE4, CENTRAL4, 0), DomainError,
                  "rank_dep-m-zero"),
        gate_case(lambda: generate_rank_dependent(WIDE4, WIDE4, -1), DomainError,
                  "rank_dep-m-negative"),
        gate_case(lambda: generate_rank_independent(EYE4, CENTRAL4, 0, 1), DomainError,
                  "rank_indep-m-zero"),
        gate_case(lambda: generate_rank_independent(EYE4, CENTRAL4, 1, 0), DomainError,
                  "rank_indep-s-zero"),
        gate_case(lambda: generate_rank_independent(EYE4, CENTRAL4, 1, 3), DomainError,
                  "rank_indep-s-over-range"),
    ])
    def test_gate_order(self, call, expected):
        if expected is not None:
            with pytest.raises(expected):
                call()
            return
        cert = call()
        assert len(cert) == 0
        assert cert.metadata == {"trivial_target": True}
        assert_sound(cert)

    @pytest.mark.parametrize("generate", [
        lambda u, v: generate_rank_dependent(u, v, 2),
        lambda u, v: generate_rank_independent(u, v, 2, 1),
        generate_full,
    ], ids=["rank_dep", "rank_indep", "full"])
    def test_one_diameter_per_generate(self, generate, monkeypatch):
        seen = []
        inner = spectral._diameter_pair

        def spy(angles):
            seen.append(np.array(angles))
            return inner(angles)

        # _is_central reads spectral's _diameter_pair, the base check
        # generation's own import of it
        monkeypatch.setattr(spectral, "_diameter_pair", spy)
        monkeypatch.setattr(generation, "_diameter_pair", spy)
        rng = np.random.default_rng(41)
        u, v = haar(6, rng), haar(6, rng)
        assert len(generate(u, v)) > 0
        base = spectrum_of(v).angles
        assert sum(np.array_equal(a, base) for a in seen) == 1
        assert len(seen) == 2


@pytest.fixture
def batches(monkeypatch):
    """Record (strands, run) of every shared batch a generator walks."""
    seen = []
    inner = generation._shared_run

    def spy(n, strands):
        out = inner(n, strands)
        seen.append((list(strands), out))
        return out

    monkeypatch.setattr(generation, "_shared_run", spy)
    return seen


def assert_shortest_batches(cert, seen):
    """Each batch walks the longest of its strands' shortest walks, no
    longer, as one run with one 2x2 block per strand in every step and e
    alternating; returns the lengths."""
    cap = cert.metadata["walk_multiplier"]
    lengths = []
    for (strands, out), run in zip(seen, cert.runs, strict=True):
        assert run is out
        m_b = len(out) // 2
        assert len(out) == 2 * m_b
        assert m_b == max(walk_length(st.phi, st.block.theta, cap) for st in strands)
        widest = max(strands, key=lambda st: st.length)
        if m_b > 2:
            with pytest.raises(BudgetInfeasibleError):
                _walk(widest.phi, widest.block.theta, m_b - 2)
        assert sorted(out.offsets.tolist()) == sorted(st.source for st in strands)
        assert out.blocks.shape == (2 * m_b, len(strands), 2, 2)
        assert out.e.tolist() == [1, -1] * m_b
        lengths.append(m_b)
    assert len(cert) == 2 * sum(lengths) <= cert.claimed_budget
    return lengths


class TestShortestWalks:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_admissible_pairs(self, n, batches):
        # matched pairs: one 2-step batch per parity group, whatever n is
        from normgen import admissible_pair

        u, v = admissible_pair(n, 2, 1, np.random.default_rng(n))
        cert = generate_rank_dependent(u, v, 2)
        assert assert_shortest_batches(cert, batches) == [2, 2]
        assert cert.metadata["walk_multiplier"] == 8
        assert len(cert) == 8
        assert cert.metadata["planner"] == {
            "batches": 2, "matched_strands": n - 1, "widest_gap_strands": 0,
        }
        assert_sound(cert)

    def test_narrow_gap_needs_longer_batch(self, batches):
        # the base's widest gap is 0.1, so the largest factor needs 4 steps
        v = diag_u([0.1, 0.05, -0.05, -0.1])
        u = diag_u([0.6, -0.2, -0.1, -0.3])
        cert = generate_rank_dependent(u, v, 8)
        lengths = assert_shortest_batches(cert, batches)
        assert max(lengths) > 2
        assert_sound(cert)

    def test_rank_indep_batch_shares_one_length(self, batches):
        # the even batch's four strands need 2, 2, 4 and 6 steps and all
        # walk 6; the odd batch's four need 2 each
        v = diag_u([-0.12, -0.09, -0.09, -0.07, 0.04, 0.06, 0.08, 0.08, 0.11])
        u = diag_u([-0.03, 0.1, 0.1, -0.36, 0.01, 0.85, -0.27, 0.56, -0.96])
        m = hypothesis_check(u, v, 1, 4).min_feasible_m
        cert = generate_rank_independent(u, v, m, 4)
        lengths = assert_shortest_batches(cert, batches)
        assert [len(strands) for strands, _ in batches] == [4, 4]
        first = sorted(st.length for st in batches[0][0])
        assert first == [2, 2, 4, 6] and lengths == [6, 2]
        assert_sound(cert)

    def test_pipeline_and_full_use_shortest(self, batches):
        from normgen import admissible_rational_pair, pipeline_generate

        rng = np.random.default_rng(964)
        u, v = admissible_rational_pair(1, Fraction(1, 2), rng)
        cert = pipeline_generate(u, v, 1, Fraction(1, 2))
        assert len(cert) > 0
        assert_shortest_batches(cert, batches)
        assert_sound(cert)
        batches.clear()
        cert = generate_full(haar(6, rng), haar(6, rng))
        assert_shortest_batches(cert, batches)
        assert_sound(cert)


def frozen_pool():
    """(generator, args) for 120 seeded cases of every walk generator, n 2-39:
    admissible rank-dependent and rank-independent pairs, full generation
    on admissible and on narrow bases, rank-dependent walks on repeated,
    clustered, antipodal and one-wide-gap bases, and the pipeline."""
    from normgen import (
        admissible_pair,
        admissible_rational_pair,
        haar_unitary,
        pipeline_generate,
    )

    for i in range(120):
        rng = np.random.default_rng([31337, i])
        kind = i % 6
        n = int(rng.integers(2, 40))
        if kind == 0:
            m = int(rng.integers(1, 5))
            u, v = admissible_pair(n, m, 1, rng)
            yield generate_rank_dependent, (u, v, m)
        elif kind == 1:
            n = max(n, 5)
            s = int(rng.integers(2, (n - 1) // 2 + 2))
            m = int(rng.integers(1, 4))
            u, v = admissible_pair(n, m, s, rng)
            yield generate_rank_independent, (u, v, m, s)
        elif kind == 2:
            u = haar_unitary(n, rng)
            _, v = admissible_pair(n, 1, 1, rng)
            yield generate_full, (u, v)
        elif kind == 3:
            w = (1.0, 0.1)[i % 2]
            yield generate_full, (haar_unitary(n, rng), diag_u(rng.uniform(-w, w, n)))
        elif kind == 4:
            family = ("repeated", "clustered", "antipodal", "wide")[(i // 6) % 4]
            n = max(n, 4)
            if family == "repeated":
                b = rng.uniform(-math.pi, math.pi, 3)[rng.integers(0, 3, n)]
            elif family == "clustered":
                b = rng.uniform(-0.3, 0.3, n)
            elif family == "antipodal":
                half = rng.uniform(-math.pi, math.pi, n // 2)
                b = np.concatenate((half, half + math.pi, rng.uniform(-1, 1, n % 2)))
            else:
                b = np.concatenate(([2.5], rng.uniform(-0.02, 0.02, n - 1)))
            u = haar_unitary(n, rng)
            ratio = projective_s_number(u, 0)[0] / projective_s_number(diag_u(b), 0)[0]
            yield generate_rank_dependent, (u, diag_u(b), max(1, math.ceil(ratio - 1e-9)))
        else:
            m = int(rng.integers(1, 3))
            s = Fraction(1, int(rng.integers(2, 4)))
            u, v = admissible_rational_pair(m, s, rng)
            yield pipeline_generate, (u, v, m, s)


@functools.lru_cache(maxsize=None)
def frozen_certificates():
    """The certificates of frozen_pool, generated once per session."""
    return tuple(gen(*args) for gen, args in frozen_pool())


# k of each frozen_pool case with one strand per batch on the widest gap of
# the optimalize order (rank-indep: floor(s/2) separated gaps per batch)
PARENT_K = (
    96, 24, 152, 236, 48, 16, 140, 72, 148, 364, 32, 40,
    32, 140, 68, 88, 52, 0, 4, 100, 80, 344, 88, 0,
    28, 48, 120, 316, 84, 12, 140, 16, 68, 268, 100, 0,
    144, 52, 56, 236, 140, 0, 136, 24, 28, 44, 104, 12,
    56, 24, 100, 324, 144, 0, 96, 16, 76, 304, 132, 0,
    104, 28, 148, 248, 136, 12, 52, 40, 64, 304, 72, 20,
    132, 24, 96, 216, 104, 0, 108, 24, 88, 308, 40, 28,
    96, 16, 20, 92, 36, 20, 136, 24, 52, 316, 76, 24,
    92, 20, 48, 236, 128, 36, 12, 20, 48, 68, 100, 44,
    128, 48, 100, 108, 136, 60, 52, 32, 76, 344, 68, 8,
)


def loop_center_phase(spec):
    """center_phase as it was: every candidate shift canonicalized in full."""
    angles, n = spec.angles, spec.n
    s = float(angles.sum())
    best = None
    for k in range(n):
        t = (-s + 2.0 * math.pi * k) / n
        cand = canon_angle(angles + t)
        if abs(float(cand.sum())) > 1e-9:
            continue
        peak = float(np.max(np.abs(cand)))
        if best is None or peak < best[0] - 1e-15:
            best = (peak, t, cand)
    return CircleSpectrum(best[2]), canon_angle(best[1])


def assert_same_centering(spec):
    want, want_phase = loop_center_phase(spec)
    got, phase = center_phase(spec)
    assert got.angles.tobytes() == want.angles.tobytes()
    assert repr(phase) == repr(want_phase)


CENTERING_FAMILIES = (
    "uniform", "clustered", "four-clusters", "antipodal", "repeated",
    "signed-zeros", "equispaced",
)  # repeated and signed-zero spectra put cuts on eigenvalues


def centering_angles(family, n, rng):
    if family == "uniform":
        return rng.uniform(-math.pi, math.pi, n)
    if family == "clustered":
        return rng.uniform(-0.3, 0.3, n)
    if family == "four-clusters":
        return rng.choice([0.0, 1.0, -2.0, math.pi], n) + rng.normal(0.0, 1e-3, n)
    if family == "antipodal":
        half = rng.uniform(-math.pi, math.pi, (n + 1) // 2)
        return np.concatenate((half, half + math.pi))[:n]
    if family == "repeated":
        return rng.uniform(-math.pi, math.pi, 3)[rng.integers(0, 3, n)]
    if family == "signed-zeros":
        return rng.choice([0.0, -0.0, math.pi, -math.pi], n)
    # every shift has the same peak up to rounding, so the 1e-15 tie rule
    # picks the winner
    return 2.0 * math.pi * np.arange(n) / n


class TestCenterPhaseClosedForm:
    """center_phase reads each shift off the sorted angles; it must pick the
    shift of the full loop, with bit-identical angles and phase."""

    def test_frozen_pool_targets(self):
        for cert in frozen_certificates():
            if len(cert):
                assert_same_centering(CircleSpectrum(np.sort(cert.target_angles)))

    @pytest.mark.parametrize("n", [2, 3, 32, 2520, 5040])
    @pytest.mark.parametrize("family", CENTERING_FAMILIES)
    def test_sizes(self, family, n):
        rng = np.random.default_rng([n, CENTERING_FAMILIES.index(family)])
        for _ in range(20 if n <= 32 else 1):
            assert_same_centering(CircleSpectrum(centering_angles(family, n, rng)))


class TestMatchedPairs:
    def test_never_longer_than_one_strand_per_batch(self):
        ks = []
        for cert in frozen_certificates():
            assert_sound(cert)
            ks.append(len(cert))
        assert len(ks) == len(PARENT_K)
        assert all(k <= k0 for k, k0 in zip(ks, PARENT_K)), list(zip(ks, PARENT_K))
        assert sum(ks) < sum(PARENT_K) / 3

    def test_one_wide_gap_base(self, batches):
        # the hypothesis promises one wide gap: the factors that no narrow
        # matched pair reaches walk alone on the diameter pair
        from normgen import haar_unitary

        rng = np.random.default_rng(5)
        v = diag_u(np.concatenate(([2.5], rng.uniform(-0.02, 0.02, 31))))
        u = haar_unitary(32, rng)
        cert = generate_rank_dependent(u, v, 2)
        assert len(cert) <= 124
        planner = cert.metadata["planner"]
        assert planner["widest_gap_strands"] > 0 and planner["matched_strands"] > 0
        assert planner["batches"] == len(batches)
        assert planner["matched_strands"] + planner["widest_gap_strands"] == 31
        alone = [strands[0] for strands, _ in batches if len(strands) == 1]
        assert all(st.source == 0 for st in alone)
        assert_shortest_batches(cert, batches)
        assert_sound(cert)

    @pytest.mark.parametrize(
        "n, c, s, parent_k",
        [(200, 150, 50, 32), (100, 80, 20, 40), (64, 48, 16, 32), (64, 60, 4, 128)],
    )
    def test_clustered_base_rank_indep(self, n, c, s, parent_k, batches):
        # c > n/2 equal base angles: the matched pairs inside the cluster
        # vanish, and the factors they would walk pack into further shared
        # batches on the pairs crossing the cluster, within the 24m ceil(n/s)
        # budget; parent_k is one batch of floor(s/2) separated gaps at a time
        from normgen import haar_unitary
        from normgen.spectral import projective_profile

        rng = np.random.default_rng(n)
        b = np.concatenate((np.full(c, 1.0), rng.uniform(-math.pi, math.pi, n - c)))
        v = diag_u(rng.permutation(b))
        # target angles spanning an arc with ell_0(u) = 0.99 ell_{s-1}(v)
        w = 4.0 * math.asin(0.99 * projective_profile(v).values[s - 1] / 2.0)
        a = np.concatenate(([-0.5 * w, 0.5 * w], rng.uniform(-0.5 * w, 0.5 * w, n - 2)))
        q = haar_unitary(n, rng).matrix
        cert = generate_rank_independent(q @ diag_u(a) @ q.conj().T, v, 1, s)
        assert len(cert) <= parent_k
        assert max(len(strands) for strands, _ in batches) > 1
        assert_shortest_batches(cert, batches)
        assert_sound(cert)

    def test_repeated_base_eigenvalues(self):
        # three distinct base angles at n = 32, one of them 20 times: some
        # matched pairs have a vanishing gap, and the planner skips them
        # instead of raising
        from normgen import haar_unitary

        rng = np.random.default_rng(32)
        b = rng.permutation(np.repeat(rng.uniform(-math.pi, math.pi, 3), [20, 7, 5]))
        layout = generation._matched_layout(b, _diameter_pair(b))
        gaps = [abs(canon_angle(b[layout[j]] - b[layout[j + 1]])) for j in range(0, 32, 2)]
        assert min(gaps) == 0.0
        u = haar_unitary(32, rng)
        ratio = projective_s_number(u, 0)[0] / projective_s_number(diag_u(b), 0)[0]
        cert = generate_rank_dependent(u, diag_u(b), max(1, math.ceil(ratio)))
        assert len(cert) <= cert.claimed_budget
        assert_sound(cert)

    def test_layout_puts_the_diameter_first(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 8, 9):
            angles = rng.uniform(-math.pi, math.pi, n)
            layout = generation._matched_layout(angles, _diameter_pair(angles))
            assert sorted(layout.tolist()) == list(range(n))
            first = chord(angles[layout[0]] - angles[layout[1]])
            assert first == pytest.approx(_diameter_pair(angles)[0], abs=1e-15)


class TestVerifyCertificate:
    def test_all_checks_reported(self):
        rng = np.random.default_rng(40)
        cert = generate_rank_dependent(haar(4, rng), haar(4, rng), 2)
        report = verify_certificate(cert)
        for key in (
            "inputs_unitary",
            "steps_unitary",
            "step_conjugacy",
            "product",
            "length",
            "easy_direction",
            "lower_bound",
        ):
            assert report["checks"][key] is True
        assert report["residual"] <= report["tolerance"]
        json.dumps(report)

    def test_lower_bound_reported(self):
        rng = np.random.default_rng(45)
        u, v = haar(5, rng), haar(5, rng)
        cert = generate_full(u, v)
        report = verify_certificate(cert)
        want = projective_one_norm(u)[0] / projective_one_norm(v)[0]
        assert report["lower_bound"] == pytest.approx(want, rel=1e-12)
        assert len(cert) >= report["lower_bound"]
        eye = np.eye(2, dtype=complex)
        central = Certificate(eye, eye, eye, eye, np.zeros(2), np.zeros(2), (), "rank_dep")
        assert verify_certificate(central)["lower_bound"] is None

    def test_tampered_step_fails(self):
        rng = np.random.default_rng(41)
        v = haar(4, rng)
        cert = generate_rank_dependent(v, v, 1)
        blk = edited_blocks(cert, 0)
        blk[0, 0, 0] += 1e-2
        report = verify_certificate(with_blocks(cert, 0, blk))
        assert not report["pass"]

    def test_wrong_target_fails_product(self):
        rng = np.random.default_rng(42)
        v = haar(3, rng)
        cert = generate_rank_dependent(v, v, 1)
        bad = dataclasses.replace(cert, target=haar(3, rng))
        report = verify_certificate(bad)
        assert not report["checks"]["product"]
        assert not report["pass"]

    def test_budget_violation_fails_length(self):
        # the budget is derived from the tag: Broise's 4 is under this k = 8
        rng = np.random.default_rng(43)
        v = haar(3, rng)
        cert = generate_rank_dependent(v, v, 1)
        bad = dataclasses.replace(cert, theorem="broise_kernel")
        assert len(bad) > bad.claimed_budget == 4
        report = verify_certificate(bad)
        assert not report["checks"]["length"]
        assert report["budget"] == 4

    def test_never_raises(self):
        eye = np.eye(2, dtype=complex)
        run = CertRun(np.arange(2), [1], np.zeros((1, 1, 2, 2)), [1])
        junk = Certificate(eye, eye, eye, eye, np.zeros(2), np.zeros(2), (run,), "rank_dep")
        report = verify_certificate(junk)
        assert report["pass"] is False

    def test_catch_all_reports_the_error(self, monkeypatch):
        def broken(runs, n):
            raise RuntimeError("broken helper")

        monkeypatch.setattr(certificate, "_step_defects", broken)
        report = verify_certificate(POOL[3])
        assert report["error"] == "RuntimeError: broken helper"
        assert report["checks"]["exception"] is False
        assert report["pass"] is False

    def test_exponent_mix_verifies(self):
        # inverse conjugates appear in every walk; spectra must match base^e
        rng = np.random.default_rng(44)
        u, v = haar(4, rng), haar(4, rng)
        eu = projective_s_number(u, 0)[0]
        ev = projective_s_number(v, 0)[0]
        cert = generate_rank_dependent(u, v, max(1, math.ceil(eu / ev)))
        exps = {st.e for st in cert.steps}
        assert exps == {1, -1}
        assert_sound(cert)


@functools.lru_cache(maxsize=None)
def rank_dep_16():
    """A rank-dependent certificate at n = 16, k = 8 and budget 256."""
    from normgen import admissible_pair

    u, v = admissible_pair(16, 2, 1, np.random.default_rng([16, 0]))
    return generate_rank_dependent(u, v, 2)


class TestDerivedBudget:
    """The length is charged against theorem_budget of the stored tag and
    params, whose n must be the certificate's; no budget is stored."""

    def verify_edited(self, cert, edit):
        obj = json.loads(json.dumps(cert.to_json()))
        edit(obj)
        return verify_certificate(Certificate.from_json(obj))

    def test_record_stores_no_budget(self):
        fields = {f.name: f for f in dataclasses.fields(Certificate)}
        assert "claimed_budget" not in fields
        assert fields["target_angles"].default is dataclasses.MISSING
        for cert in POOL:
            assert "claimed_budget" not in cert.to_json()
            assert cert.claimed_budget == theorem_budget(cert.theorem, cert.params)

    @pytest.mark.parametrize("edit, budget", [
        pytest.param(lambda obj: obj.update(theorem="broise_kernel"), 4, id="broise-tag"),
        pytest.param(lambda obj: obj["params"].update(n=3), 48, id="n-3"),
        pytest.param(lambda obj: obj["params"].update(m=0), None, id="m-0"),
        pytest.param(lambda obj: obj.update(params={}), None, id="no-params"),
        pytest.param(lambda obj: obj["params"].update(m=None), None, id="m-null"),
    ])
    def test_params_edit_fails_length(self, edit, budget):
        cert = rank_dep_16()
        assert verify_certificate(cert)["budget"] == 256
        report = self.verify_edited(cert, edit)
        assert "error" not in report
        assert [c for c, ok in report["checks"].items() if not ok] == ["length"]
        assert report["budget"] == budget

    def test_pipeline_zero_denominator_fails_length(self):
        cert = next(c for c in POOL if c.theorem == "pipeline")
        assert verify_certificate(cert)["pass"]
        report = self.verify_edited(cert, lambda obj: obj["params"].update(s_den=0))
        assert "error" not in report
        assert [c for c, ok in report["checks"].items() if not ok] == ["length"]
        assert report["budget"] is None

    def test_larger_multiplier_is_a_weaker_true_claim(self):
        report = self.verify_edited(rank_dep_16(), lambda obj: obj["params"].update(m=99))
        assert report["pass"] and report["budget"] == 8 * 99 * 16

    @pytest.mark.parametrize("stored", [10**9, 2**70, -1, "x"])
    def test_a_stored_budget_key_is_not_read(self, stored):
        cert = rank_dep_16()
        report = self.verify_edited(cert, lambda obj: obj.update(claimed_budget=stored))
        assert report == verify_certificate(cert)


def moved(u, eps, rng):
    """expm(i eps H) @ u for a random traceless Hermitian H of norm one."""
    n = u.shape[0]
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    h -= np.trace(h) / n * np.eye(n)
    h /= np.linalg.norm(h, 2)
    lam, w = np.linalg.eigh(h)
    return (w * np.exp(1j * eps * lam)) @ w.conj().T @ u


def pool_certificates():
    """Honest certificates from each generator, n from 2 to 16, and one with
    no steps."""
    from normgen import (
        admissible_pair,
        admissible_rational_pair,
        broise_kernel_certificate,
        pipeline_generate,
    )

    out = []
    for n in (2, 3, 6, 16):
        rng = np.random.default_rng(900 + n)
        u, v = admissible_pair(n, 2, 1, rng)
        out.append(generate_rank_dependent(u, v, 2))
        out.append(generate_full(haar(n, rng), v))
        if n >= 5:
            u, v = admissible_pair(n, 1, 2, rng)
            out.append(generate_rank_independent(u, v, 1, 2))
    out.append(broise_kernel_certificate(haar(3, np.random.default_rng(950))))
    rng = np.random.default_rng(964)
    u, v = admissible_rational_pair(1, Fraction(1, 2), rng)
    out.append(pipeline_generate(u, v, 1, Fraction(1, 2)))
    out.append(generate_rank_dependent(np.exp(0.3j) * np.eye(3), haar(3, rng), 1))
    return out


POOL = pool_certificates()


def max_norm_tolerance(cert):
    """The product tolerance with every defect bounded by n times its
    max-norm: a ceiling that TOL.eq_tol's Frobenius norms never exceed."""
    n = cert.n

    def gram(m):
        m = np.asarray(m)
        return np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))

    b = np.asarray(cert.bframe)
    rebuilt = (b * np.exp(1j * cert.base_angles)) @ b.conj().T
    block = max((gram(blk) for st in cert.steps for blk in st.blocks), default=0.0)
    defect = gram(cert.aframe) + gram(b) + np.max(np.abs(rebuilt - cert.base)) + block
    eps = np.finfo(float).eps
    return (len(cert) + 1) * n * (128.0 * eps + defect) + n * gram(cert.target)


def locate(cert, i):
    """(r, j): global step i is step j of run r."""
    for r, run in enumerate(cert.runs):
        if i < len(run):
            return r, i
        i -= len(run)
    raise IndexError("step index out of range")


def with_run(cert, r, **changes):
    runs = list(cert.runs)
    runs[r] = dataclasses.replace(runs[r], **changes)
    return dataclasses.replace(cert, runs=tuple(runs))


def with_blocks(cert, i, blocks):
    """cert with the (nb, w, w) blocks of global step i replaced."""
    r, j = locate(cert, i)
    stack = np.array(cert.runs[r].blocks, copy=True)
    stack[j] = blocks
    return with_run(cert, r, blocks=stack)


def edited_blocks(cert, i):
    """A writable copy of the (nb, w, w) blocks of global step i."""
    return np.array(cert.steps[i].blocks, copy=True)


def with_exponent(cert, i, e):
    r, j = locate(cert, i)
    exps = cert.runs[r].e.copy()
    exps[j] = e
    return with_run(cert, r, e=exps)


class TestFactoredCertificates:
    @pytest.mark.parametrize("idx", range(len(POOL)))
    def test_pool_verifies_tightly(self, idx):
        report = verify_certificate(POOL[idx])
        assert report["pass"], report
        assert report["margins"]["residual_ratio"] < 0.5
        assert report["margins"]["first_failing_step"] is None
        assert report["margins"]["lower_bound_slack"] >= -1e-6

    @pytest.mark.parametrize("idx", range(len(POOL)))
    def test_tolerance_never_above_max_norm_bound(self, idx):
        cert = POOL[idx]
        report = verify_certificate(cert)
        assert report["residual"] <= report["tolerance"] <= max_norm_tolerance(cert)

    @pytest.mark.parametrize("idx", range(len(POOL)))
    def test_json_bytes_round_trip(self, idx):
        blob = json.dumps(POOL[idx].to_json())
        back = Certificate.from_json(json.loads(blob))
        assert json.dumps(back.to_json()) == blob

    @pytest.mark.parametrize("idx", range(len(POOL)))
    def test_product_matches_dense_conjugates(self, idx, step_conjugator):
        cert = POOL[idx]
        dense = np.eye(cert.n, dtype=complex)
        base = np.asarray(cert.base)
        for i, st in enumerate(cert.steps):
            g = step_conjugator(cert, i)
            core = base if st.e == 1 else base.conj().T
            dense = dense @ g @ core @ g.conj().T
        assert np.max(np.abs(dense - cert.product())) < 1e-11

    def test_pool_entries_walk(self):
        # every entry but the deliberately scalar target has steps to check
        assert [len(cert) > 0 for cert in POOL] == [True] * (len(POOL) - 1) + [False]

    def test_walk_steps_are_perm_and_two_by_two(self):
        cert = POOL[2]
        assert len(cert) > 0
        for st in cert.steps:
            assert sorted(st.perm.tolist()) == list(range(cert.n))
            assert st.blocks.shape[1:] == (2, 2)

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    @pytest.mark.parametrize("idx", range(len(POOL)))
    def test_moved_target_fails_product(self, idx, eps):
        cert = POOL[idx]
        rng = np.random.default_rng(idx)
        bad = dataclasses.replace(cert, target=moved(cert.target, eps, rng))
        report = verify_certificate(bad)
        assert not report["checks"]["product"], report
        assert not report["pass"]

    def test_moved_target_fails_product_at_n64(self):
        # matched pairs give k = 8, so the tolerance is 1.8e-11 at n = 64
        # and 3.9e-11 at n = 128 against residuals near 2e-9 (at k = 508 it
        # was 2.5e-9 at n = 128 and the move passed; with n times max-norm
        # defects it was 5.5e-11 at n = 128 under one BLAS thread)
        from normgen import admissible_pair

        for n in (64, 128):
            u, v = admissible_pair(n, 2, 1, np.random.default_rng(n))
            cert = generate_rank_dependent(u, v, 2)
            bad = dataclasses.replace(
                cert, target=moved(cert.target, 1e-8, np.random.default_rng(0))
            )
            report = verify_certificate(bad)
            assert report["tolerance"] < 5e-11
            assert not report["checks"]["product"], report
            assert not report["pass"]

    def test_tampered_block_names_its_step(self):
        cert = POOL[3]
        for i in (0, len(cert) // 2, len(cert) - 1):
            blk = edited_blocks(cert, i)
            blk[0, 1, 0] += 1e-6
            report = verify_certificate(with_blocks(cert, i, blk))
            assert not report["pass"]
            assert not report["checks"]["steps_unitary"]
            assert report["margins"]["first_failing_step"] == i
            assert report["margins"]["block_defect_step"] == i

    def test_tampered_perm_fails(self):
        # a perm belongs to a run: damage fails from the run's first step
        cert = POOL[3]
        run = cert.runs[1]
        offset = int(run.offsets[0])
        outside = next(a for a in range(cert.n) if a not in (offset, offset + 1))
        perm = run.perm.copy()
        perm[offset], perm[outside] = perm[outside], perm[offset]
        report = verify_certificate(with_run(cert, 1, perm=perm))
        assert not report["checks"]["product"]
        assert not report["pass"]
        dup = run.perm.copy()
        dup[0] = dup[1]
        report = verify_certificate(with_run(cert, 1, perm=dup))
        assert not report["checks"]["steps_unitary"]
        assert report["margins"]["first_failing_step"] == len(cert.runs[0])
        assert not report["pass"]

    def test_tampered_frame_fails(self):
        cert = POOL[3]
        for name in ("aframe", "bframe"):
            frame = np.array(getattr(cert, name), copy=True)
            frame[0, 0] += 1e-6
            report = verify_certificate(dataclasses.replace(cert, **{name: frame}))
            assert not report["checks"]["steps_unitary"]
            assert not report["pass"]

    def test_tampered_base_angle_fails(self):
        cert = POOL[3]
        angles = np.array(cert.base_angles, copy=True)
        angles[2] += 1e-6
        report = verify_certificate(dataclasses.replace(cert, base_angles=angles))
        assert not report["checks"]["step_conjugacy"]
        assert not report["pass"]

    def test_bad_exponent_fails(self):
        cert = POOL[0]
        report = verify_certificate(with_exponent(cert, 0, 2))
        assert not report["checks"]["step_conjugacy"]
        assert report["margins"]["first_failing_step"] == 0
        assert not report["pass"]

    def test_overlapping_blocks_fail(self):
        cert = POOL[3]
        run = cert.runs[0]
        offset = int(run.offsets[0])
        other = offset + 1 if offset + 2 < cert.n else offset - 1
        report = verify_certificate(with_run(
            cert, 0, offsets=np.r_[run.offsets, other],
            blocks=np.concatenate((run.blocks, run.blocks[:, :1]), axis=1),
        ))
        assert not report["checks"]["steps_unitary"]
        assert report["margins"]["first_failing_step"] == 0

    def test_non_finite_block_is_malformed(self):
        cert = POOL[3]
        blk = edited_blocks(cert, 2)
        blk[0, 0, 1] = np.nan
        report = verify_certificate(with_blocks(cert, 2, blk))
        assert "error" not in report
        assert not report["checks"]["product"]
        assert report["margins"]["first_failing_step"] == 2
        assert not report["pass"]

    def test_cert1_rejected(self):
        obj = POOL[0].to_json()
        obj["version"] = "normgen-cert/1"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_cert2_rejected(self):
        obj = POOL[0].to_json()
        obj["version"] = "normgen-cert/2"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_cert3_rejected(self):
        obj = POOL[0].to_json()
        obj["version"] = "normgen-cert/3"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_cert4_rejected(self):
        obj = POOL[0].to_json()
        obj["version"] = "normgen-cert/4"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_cert5_rejected(self):
        obj = POOL[0].to_json()
        obj["version"] = "normgen-cert/5"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_cert6_rejected(self):
        obj = POOL[0].to_json()
        obj["version"] = "normgen-cert/6"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_cert7_rejected(self):
        obj = POOL[0].to_json()
        obj["version"] = "normgen-cert/7"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    @pytest.mark.parametrize("bad", [[0.0], "x", [1, 2], {}])
    def test_target_angles_must_be_n_floats(self, bad):
        obj = POOL[3].to_json()
        obj["target_angles"] = bad
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_target_angles_are_required(self):
        obj = POOL[3].to_json()
        obj["target_angles"].pop()
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)
        del obj["target_angles"]
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_tampered_target_angle_fails_product(self):
        cert = POOL[3]
        honest = verify_certificate(cert)
        assert honest["margins"]["target_defect"] < 1e-13
        angles = np.array(cert.target_angles, copy=True)
        angles[2] += 1e-6
        report = verify_certificate(dataclasses.replace(cert, target_angles=angles))
        assert [c for c, ok in report["checks"].items() if not ok] == ["product"]
        assert report["margins"]["target_defect"] > 1e-8
        assert report["residual"] > report["margins"]["target_defect"]

    @pytest.mark.parametrize("name, check", [
        ("target_angles", "product"), ("base_angles", "step_conjugacy"),
    ])
    def test_non_finite_angle_loads_then_fails(self, name, check):
        obj = POOL[3].to_json()
        obj[name][1] = float("nan")
        report = verify_certificate(Certificate.from_json(json.loads(json.dumps(obj))))
        assert "error" not in report
        assert not report["checks"][check]
        assert not report["checks"]["easy_direction"]
        assert not report["pass"]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["base_angles", "target_angles"])
    @pytest.mark.parametrize("frames", ["dense", "monomial"])
    def test_non_finite_angle_fails_without_warnings(self, frames, name, value):
        cert = POOL[3] if frames == "dense" else MONO
        angles = np.array(getattr(cert, name), copy=True)
        angles[1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_certificate(dataclasses.replace(cert, **{name: angles}))
        assert "error" not in report
        check = "step_conjugacy" if name == "base_angles" else "product"
        assert not report["checks"][check] and not report["checks"]["easy_direction"]
        assert report["pass"] is False

    def test_verify_runs_no_eigensolver(self, eigh_calls):
        kinds = {cert.theorem for cert in POOL}
        assert kinds == set(certificate.THEOREM_TAGS)
        assert any(cert.metadata.get("trivial_target") for cert in POOL)
        for cert in POOL:
            assert verify_certificate(cert)["pass"]
        assert eigh_calls == []

    def test_angle_profiles_match_the_matrices(self):
        # the verifier reads profiles and one-norms off the stored angles;
        # the rebuild checks keep them within rounding of the matrices'
        for cert in frozen_certificates():
            for angles, mat in (
                (cert.target_angles, cert.target), (cert.base_angles, cert.base)
            ):
                spec, want = CircleSpectrum(angles), spectrum_of(mat)
                got = projective_profile(spec).values
                assert np.max(np.abs(got - projective_profile(want).values)) < 1e-9
                assert projective_one_norm(spec)[0] == pytest.approx(
                    projective_one_norm(want)[0], abs=1e-9
                )

    def test_runs_of_different_widths(self, step_conjugator):
        # runs of 2x2 blocks at out-of-order offsets, a run with no block,
        # and two runs in a row that share a perm
        rng = np.random.default_rng(48)
        n = 7

        def stack(steps, offsets):
            return [[haar(2, rng) for _ in offsets] for _ in range(steps)]

        theta = rng.uniform(-math.pi, math.pi, n)
        a, b = haar(n, rng), haar(n, rng)
        base = (b * np.exp(1j * theta)) @ b.conj().T
        perm = rng.permutation(n)
        runs = (
            CertRun(perm, [4, 0, 2], stack(3, [4, 0, 2]), [1, -1, -1]),
            CertRun(perm, [1, 5], stack(2, [1, 5]), [-1, 1]),
            blockless(rng.permutation(n), -1),
            CertRun(np.arange(n), [5, 3, 0], stack(2, [5, 3, 0]), [1, 1]),
        )
        cert = Certificate(base, base, a, b, theta, theta, runs, "rank_dep")
        text = json.dumps(cert.to_json())
        back = Certificate.from_json(json.loads(text))
        assert json.dumps(back.to_json()) == text
        assert [len(run.offsets) for run in back.runs] == [3, 2, 0, 3]
        dense = np.eye(n, dtype=complex)
        for i, st in enumerate(back.steps):
            g = step_conjugator(back, i)
            dense = dense @ g @ (base if st.e == 1 else base.conj().T) @ g.conj().T
        assert len(back) == 8
        assert np.max(np.abs(back.product() - dense)) < 1e-11
        assert np.max(np.abs(cert.product() - dense)) < 1e-11

    def test_malformed_step_json(self):
        obj = POOL[0].to_json()
        obj["perms"][obj["runs"][0]["perm"]][0] = 0.5
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)
        obj = POOL[0].to_json()
        obj["runs"][0]["offsets"][0] = 0.0
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)
        obj = POOL[0].to_json()
        del obj["runs"][0]["blocks"]
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_huge_integers_are_format_errors(self):
        obj = POOL[0].to_json()
        obj["perms"][obj["runs"][0]["perm"]][0] = 2**70
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)
        obj = POOL[0].to_json()
        obj["base_angles"][0] = 2**2000
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(obj)

    def test_out_of_range_perm_loads_then_fails(self):
        obj = POOL[0].to_json()
        obj["perms"][obj["runs"][0]["perm"]][0] = 99
        report = verify_certificate(Certificate.from_json(obj))
        assert report["margins"]["first_failing_step"] == 0
        assert not report["pass"]


def assert_format_error(obj):
    with pytest.raises(CertificateFormatError):
        Certificate.from_json(json.loads(json.dumps(obj)))


class TestPackedRecords:
    """Certificates pack matrices and block stacks as base64 records, and
    the loader checks every record, index and integer field."""

    CERT = POOL[3]

    def fresh(self):
        return self.CERT.to_json()

    def test_records_decode_with_the_standard_library(self):
        cert, obj = self.CERT, self.fresh()
        for name in ("target", "base", "aframe", "bframe"):
            assert obj[name]["shape"] == [cert.n, cert.n]
            assert obj[name]["dtype"] == "<c16"
            assert np.array_equal(unpack(obj[name]), getattr(cert, name))
        assert len(obj["runs"]) == len(cert.runs)
        for rec, run in zip(obj["runs"], cert.runs):
            assert obj["perms"][rec["perm"]] == run.perm.tolist()
            assert rec["offsets"] == run.offsets.tolist() and "width" not in rec
            flat = unpack(rec["blocks"])
            assert flat.shape == (len(rec["e"]), 4 * len(rec["offsets"]))
            assert np.array_equal(flat, run.blocks.reshape(len(run), -1))
            assert rec["e"] == run.e.tolist()

    def test_perm_table_is_shared(self):
        cert, obj = self.CERT, self.fresh()
        distinct = {run.perm.tobytes() for run in cert.runs}
        assert len(obj["perms"]) == len(distinct) < len(cert)
        back = Certificate.from_json(obj)
        by_index = {}
        for rec, run in zip(obj["runs"], back.runs):
            assert by_index.setdefault(rec["perm"], run.perm) is run.perm

    def test_signed_zero_and_nan_payloads_round_trip(self):
        cert = self.CERT
        blk = edited_blocks(cert, 0)
        bits = [0x8000_0000_0000_0000, 0x7FF8_0000_0000_0123]  # -0.0, a NaN
        blk.view(np.uint64)[0, 0, :2] = bits
        bad = with_blocks(cert, 0, blk)
        target = np.array(cert.target, copy=True)
        target.view(np.uint64)[0, 1] = bits[0]
        text = json.dumps(dataclasses.replace(bad, target=target).to_json())
        back = Certificate.from_json(json.loads(text))
        assert json.dumps(back.to_json()) == text
        assert back.steps[0].blocks[0].view(np.uint64)[0, :2].tolist() == bits
        assert back.target.view(np.uint64)[0, 1] == bits[0]
        # a non-finite block loads, then fails verification
        report = verify_certificate(Certificate.from_json(bad.to_json()))
        assert "error" not in report
        assert report["margins"]["first_failing_step"] == 0
        assert not report["pass"]

    @pytest.mark.parametrize("where", ["target", "bframe", "blocks"])
    @pytest.mark.parametrize("tag", ["<c8", ">c16", "complex128", None])
    def test_dtype_tag(self, where, tag):
        obj = self.fresh()
        rec = obj["runs"][0]["blocks"] if where == "blocks" else obj[where]
        rec["dtype"] = tag
        assert_format_error(obj)

    @pytest.mark.parametrize("name", ["target", "base", "aframe", "bframe"])
    def test_matrix_shape_not_n_by_n(self, name):
        n = self.CERT.n
        for shape in ([n, n + 1], [n + 1, n + 1], [n * n], [n, n, 1], [n, 1.0 * n]):
            obj = self.fresh()
            obj[name]["shape"] = shape
            assert_format_error(obj)
        for mat in (np.eye(n + 1), np.eye(n)[:, :-1]):
            # well-formed records of the wrong shape
            obj = self.fresh()
            obj[name] = pack(mat)
            assert_format_error(obj)

    def test_blocks_record_shape(self):
        # a run's blocks record must be [len(e), 4 len(offsets)]
        obj = self.fresh()
        run = obj["runs"][0]
        steps, nb = len(run["e"]), len(run["offsets"])
        flat = unpack(run["blocks"])
        for shape in ([steps, 9 * nb], [steps, 4 * nb + 4], [steps * 4 * nb], [steps, nb, 4]):
            run["blocks"] = pack(np.resize(flat, shape))
            assert_format_error(obj)
        run["blocks"] = pack(flat)
        Certificate.from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("where", ["aframe", "blocks"])
    @pytest.mark.parametrize("cut", [-1, -16, 1, 16])
    def test_payload_length(self, where, cut):
        obj = self.fresh()
        rec = obj["runs"][0]["blocks"] if where == "blocks" else obj[where]
        raw = base64.b64decode(rec["b64"])
        raw = raw[:cut] if cut < 0 else raw + bytes(cut)
        rec["b64"] = base64.b64encode(raw).decode("ascii")
        assert_format_error(obj)

    @pytest.mark.parametrize("where", ["base", "blocks"])
    @pytest.mark.parametrize("bad", ["!", "é", "\n", " ", "-"])
    def test_invalid_base64_characters(self, where, bad):
        obj = self.fresh()
        rec = obj["runs"][0]["blocks"] if where == "blocks" else obj[where]
        good = rec["b64"]
        rec["b64"] = bad + good[1:]
        assert_format_error(obj)
        rec["b64"] = list(base64.b64decode(good))
        assert_format_error(obj)

    @pytest.mark.parametrize("index", [-1, "len", 1.0, True, None])
    def test_perm_index_outside_table(self, index):
        obj = self.fresh()
        assert len(obj["perms"]) > 1
        obj["runs"][0]["perm"] = len(obj["perms"]) if index == "len" else index
        assert_format_error(obj)

    @pytest.mark.parametrize("value", [1.0, "1", True, None])
    @pytest.mark.parametrize("where", ["perm entry", "offset", "exponent"])
    def test_non_integer_fields(self, where, value):
        obj = self.fresh()
        run = obj["runs"][0]
        if where == "perm entry":
            obj["perms"][run["perm"]][0] = value
        elif where == "offset":
            run["offsets"][0] = value
        else:
            run["e"][0] = value
        assert_format_error(obj)


def per_block_record(run, perm_index):
    """A run record packed step by step and block by block: each block
    raveled on its own, one row of the pieces concatenated per step."""
    rows = [np.concatenate([np.asarray(b).ravel() for b in st_blocks] or [np.empty(0)])
            for st_blocks in run.blocks]
    return {
        "perm": perm_index,
        "offsets": [int(o) for o in run.offsets],
        "blocks": pack(np.array(rows).reshape(len(rows), -1)),
        "e": [int(e) for e in run.e],
    }


def per_step_defects(steps, n):
    """_step_defects step by step and block by block, as it was before the
    blocks were packed: the reference for the run-wise version."""
    out = np.zeros((2, len(steps)))
    for i, st in enumerate(steps):
        ok = st.e in (-1, 1) and st.perm.shape == (n,)
        ok = ok and np.array_equal(np.sort(st.perm), np.arange(n))
        end = 0
        for offset, b in sorted(zip(st.offsets.tolist(), st.blocks), key=lambda ob: ob[0]):
            w = b.shape[0]
            ok = ok and 0 < w and end <= offset <= n - w
            end = offset + w
        if not ok:
            out[:, i] = np.nan
            continue
        for b in st.blocks:
            with np.errstate(invalid="ignore"):
                gram = b[None] @ b[None].conj().transpose(0, 2, 1) - np.eye(b.shape[0])
            for row, d in zip(out, (np.abs(gram).max(), np.linalg.norm(gram, axis=(1, 2))[0])):
                row[i] = np.nan if not np.isfinite(d) or np.isnan(row[i]) else max(row[i], d)
    return out


def per_step_kernels(angles, steps):
    """_step_kernels step by step, merging each step into the run before it
    when perm and block columns agree, as it was before the blocks were
    packed: the reference for the run-wise version."""
    d = np.exp(1j * np.asarray(angles, dtype=float))
    cur = np.arange(d.shape[0])
    runs = []
    for st in steps:
        gather = None
        if not np.array_equal(st.perm, cur):
            gather = np.argsort(cur)[st.perm]
            cur = st.perm
        core = d if st.e == 1 else d.conj()
        cols = np.add.outer(st.offsets, np.arange(st.blocks.shape[-1]))
        b = st.blocks
        k = (b * core[cols][:, None, :]) @ b.conj().transpose(0, 2, 1)
        if runs and gather is None and np.array_equal(runs[-1][2], cols):
            prev_gather, prev_core, _, k0 = runs[-1]
            runs[-1] = (prev_gather, prev_core * core, cols, k0 @ k)
        else:
            runs.append((gather, core, cols, k))
    return runs, cur


def tampered_runs(cert):
    """Run lists of cert with its first run damaged in each way the
    verifier must catch: step 1 alone, or the whole run."""
    run = cert.runs[0]
    exps = run.e.copy()
    exps[1] = 2
    scaled = np.array(run.blocks, copy=True)
    scaled[1, 0] *= 1.001
    nan = np.array(run.blocks, copy=True)
    nan[1, 0, 0, 0] = np.nan
    inf = np.array(run.blocks, copy=True)
    inf[1, 0, 0, 0] = np.inf
    dup = run.perm.copy()
    dup[0] = dup[1]
    changes = (
        {"e": exps},
        {"perm": dup},
        {"blocks": scaled},
        {"blocks": nan},
        {"blocks": inf},
        {"offsets": np.r_[run.offsets, run.offsets[0] + 1],
         "blocks": np.concatenate((run.blocks, run.blocks[:, :1]), axis=1)},
        {"offsets": np.r_[cert.n - 1, run.offsets[1:]]},
    )
    for change in changes:
        yield (dataclasses.replace(run, **change),) + cert.runs[1:]


class TestPackedSteps:
    """A run holds its steps' blocks the way the record stores them, as one
    (steps, nb, w, w) stack; Certificate.steps reads views of it."""

    def test_step_defects_match_the_per_step_checks(self):
        for cert in POOL + list(frozen_certificates()[::7]):
            cases = [cert.runs]
            if cert.runs and len(cert.runs[0]) > 1:
                cases += list(tampered_runs(cert))
            for runs in cases:
                got = certificate._step_defects(runs, cert.n)
                steps = dataclasses.replace(cert, runs=runs).steps
                np.testing.assert_array_equal(got, per_step_defects(steps, cert.n))

    def test_tampered_runs_fail_only_in_the_report(self):
        # a damaged run, nan and inf block entries included, can arrive in
        # JSON: verify fails it in the checks, with no numpy warning, which
        # the error filter would turn into the report's "error"
        for cert in POOL + list(frozen_certificates()[::7]):
            if not (cert.runs and len(cert.runs[0]) > 1):
                continue
            for runs in tampered_runs(cert):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    report = verify_certificate(dataclasses.replace(cert, runs=runs))
                assert "error" not in report, report["error"]
                assert not report["pass"], report["checks"]

    def test_product_kernels_match_the_per_step_merge(self):
        for cert in POOL + list(frozen_certificates()):
            got, last = certificate._step_kernels(cert.base_angles, cert.runs)
            want, want_last = per_step_kernels(cert.base_angles, cert.steps)
            assert np.array_equal(last, want_last) and len(got) == len(want)
            n = cert.n
            assert np.array_equal(
                certificate._product_rows(got, n, 0, n), certificate._product_rows(want, n, 0, n)
            )

    def test_records_match_per_block_packing(self):
        for cert in frozen_certificates():
            for i, run in enumerate(cert.runs):
                want = json.dumps(per_block_record(run, i))
                assert json.dumps(run.to_json(i)) == want

    def test_blocks_are_views_of_the_packed_data(self):
        cert = POOL[3]
        run = cert.runs[0]
        assert not run.blocks.flags.writeable
        assert run.blocks.shape == (len(run), len(run.offsets), 2, 2)
        for st, b, e in zip(cert.steps, run.blocks, run.e.tolist()):
            assert st.perm is run.perm and st.offsets is run.offsets
            assert np.shares_memory(st.blocks, run.blocks)
            assert np.array_equal(st.blocks, b) and st.e == e

    def test_replace_keeps_the_packed_blocks(self):
        run = POOL[3].runs[1]
        flipped = dataclasses.replace(run, e=-run.e)
        assert flipped.e.tolist() == [-e for e in run.e.tolist()]
        assert np.shares_memory(flipped.blocks, run.blocks)
        assert flipped.offsets is run.offsets and flipped.perm is run.perm

    @pytest.mark.parametrize(
        "offsets, size",
        [([0], 3), ([0, 2], 4), ([0], 9), ([[0]], 4), ([0], 0), ([], 4)],
    )
    def test_packed_arrays_must_agree(self, offsets, size):
        with pytest.raises(ValueError):
            CertRun(np.arange(4), offsets, np.zeros(size, dtype=complex), [1])

    def test_a_run_needs_a_step(self):
        with pytest.raises(ValueError):
            CertRun(np.arange(4), [0], np.zeros((0, 1, 2, 2)), [])


class TestCertRuns:
    """normgen-cert/8 stores one record per run, and the verifier reads the
    runs as stored while naming steps by their global index."""

    CERT = POOL[3]

    def fresh(self):
        return json.loads(json.dumps(self.CERT.to_json()))

    def test_one_record_per_run(self):
        cert, obj = self.CERT, self.fresh()
        assert obj["version"] == "normgen-cert/8" and "steps" not in obj
        assert len(obj["runs"]) == len(cert.runs) > 1
        assert sum(len(rec["e"]) for rec in obj["runs"]) == len(cert) == len(cert.steps)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda run: run.update(e=[]), id="empty-e"),
        pytest.param(lambda run: run.update(e=run["e"][0]), id="e-not-a-list"),
        pytest.param(lambda run: run["e"].__setitem__(1, 1.0), id="float-exponent"),
        pytest.param(lambda run: run.update(offsets=run["offsets"][0]),
                     id="offsets-not-a-list"),
        pytest.param(lambda run: run.update(e=run["e"][:-1]), id="blocks-rows-over-e"),
        pytest.param(lambda run: run.update(offsets=run["offsets"][:-1]),
                     id="blocks-columns-over-offsets"),
        pytest.param(lambda run: run.update(blocks=pack(np.zeros((len(run["e"]), 9)))),
                     id="blocks-columns-over-width"),
    ])
    def test_run_record_errors(self, edit):
        obj = self.fresh()
        edit(obj["runs"][1])
        assert_format_error(obj)

    def test_tamper_names_the_global_step(self):
        cert = self.CERT
        first = len(cert.runs[0])
        assert len(cert.runs) > 1 and len(cert.runs[1]) > 1
        blk = edited_blocks(cert, first + 1)
        blk[-1, 0, 1] += 1e-6
        for bad in (with_blocks(cert, first + 1, blk), with_exponent(cert, first + 1, 0)):
            for back in (bad, Certificate.from_json(json.loads(json.dumps(bad.to_json())))):
                report = verify_certificate(back)
                assert report["margins"]["first_failing_step"] == first + 1
                assert not report["pass"]
        report = verify_certificate(with_blocks(cert, first + 1, blk))
        assert report["margins"]["block_defect_step"] == first + 1
        # a perm or an offset is the run's: damage fails from its first step
        run = cert.runs[1]
        dup = run.perm.copy()
        dup[0] = dup[1]
        overlap = np.r_[run.offsets, run.offsets[0] + 1]
        for change in (
            {"perm": dup},
            {"offsets": overlap,
             "blocks": np.concatenate((run.blocks, run.blocks[:, :1]), axis=1)},
            {"offsets": np.r_[cert.n - 1, run.offsets[1:]]},
        ):
            report = verify_certificate(with_run(cert, 1, **change))
            assert report["margins"]["first_failing_step"] == first
            assert not report["checks"]["steps_unitary"] and not report["pass"]

    def test_consecutive_runs_differ_in_layout(self):
        # so each run is one group of the per-step layout regrouping
        for cert in frozen_certificates():
            for a, b in zip(cert.runs, cert.runs[1:]):
                same = np.array_equal(a.perm, b.perm) and np.array_equal(a.offsets, b.offsets)
                assert not same


class TestChordDiameter:
    @staticmethod
    def brute(angles):
        z = np.exp(1j * np.asarray(angles))
        return float(np.max(np.abs(z[:, None] - z[None, :])))

    def test_random_lists(self):
        rng = np.random.default_rng(80)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            angles = rng.uniform(-math.pi, math.pi, n)
            diameter, i, j = _diameter_pair(angles)
            assert diameter == pytest.approx(self.brute(angles), abs=1e-14)
            # the returned ends realize it
            assert chord(angles[i] - angles[j]) == pytest.approx(diameter, abs=1e-14)
            assert n == 1 or i != j

    @pytest.mark.parametrize("center", [0.0, 1.0, math.pi, -math.pi + 1e-12])
    @pytest.mark.parametrize("width", [1e-12, 1e-9, 1e-3, 2.0])
    def test_clusters(self, center, width):
        rng = np.random.default_rng(81)
        angles = canon_angle(center + rng.uniform(-width, width, 25))
        assert _diameter_pair(angles)[0] == pytest.approx(self.brute(angles), abs=1e-14)
        assert _is_central(angles) == (self.brute(angles) <= 1e-8)


class TestCounterexample:
    def test_small_cases(self):
        pair = counterexample_pair(2)
        assert pair["lower_bound"] == 1
        pair6 = counterexample_pair(6)
        assert pair6["lower_bound"] == 5
        assert pair6["aligned_rank_distance"].as_fraction() == Fraction(5, 6)

    @pytest.mark.parametrize(
        "lam", [None, complex(np.exp(2j * math.pi / 3)), 1.0, -1.0]
    )
    def test_aligned_rank_is_the_svd_rank(self, lam):
        # the aligned difference is diagonal, so its rank is a count of
        # entries; a lam of finite order makes it vanish for some n
        for n in range(2, 65):
            pair = counterexample_pair(n, lam=lam)
            lam_n = pair["lam"] ** (n - 1)
            aligned = pair["u"].matrix * lam_n
            expected = rank_distance(aligned, np.eye(n, dtype=complex))
            assert pair["aligned_rank_distance"] == expected, n

    def test_aligned_rank_at_s0_max(self):
        n = TOL.s0_max
        t0 = time.perf_counter()
        pair = counterexample_pair(n)
        assert time.perf_counter() - t0 < 1.0
        assert pair["aligned_rank_distance"].as_fraction() == Fraction(n - 1, n)

    def test_degradation(self):
        # generation against the obstruction pair either refuses or pays
        # at least n-1 conjugates
        pair = counterexample_pair(5)
        u, v = pair["u"].matrix, pair["v"].matrix
        rep = hypothesis_check(u, v, 1, 1)
        if rep.min_feasible_m is None:
            pytest.skip("pair outside the single-gap hypothesis entirely")
        m = rep.min_feasible_m
        try:
            cert = generate_rank_dependent(u, v, m)
        except (BudgetInfeasibleError, DegenerateInputError):
            return
        assert len(cert) >= 4
        assert_sound(cert)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            counterexample_pair(1)
        with pytest.raises(DomainError):
            counterexample_pair(3, lam=2.0)


def verifier_easy_direction(tprof, bprof, k):
    """The verifier's easy-direction loop before it shared one check with
    approx_stability_check: whether the check passes."""
    n = len(tprof)
    if k == 0:
        return bool(tprof[0] <= 1e-7)
    ok = True
    for i in range(n):
        if k * i > n - 1:
            break
        if tprof[min(k * i, n - 1)] > k * bprof[i] + 1e-7:
            ok = False
    return ok


def stability_violations(pu, pv, k=2):
    """approx_stability_check's comprehension before the shared check, at
    factor k (it was written for k = 2): every i, the index clamped."""
    n = len(pu)
    return [i for i in range(n) if pu[min(k * i, n - 1)] > k * pv[i] + 1e-7]


class TestEasyDirection:
    @staticmethod
    def profile(rng, n, top):
        # non-increasing, last value 0, as every projective profile; values
        # on a 0.1 grid tie and meet k times each other exactly
        values = np.sort(rng.uniform(0.0, top, n).round(1))[::-1].copy()
        values[-1] = 0.0
        return values

    def test_matches_both_references(self):
        rng = np.random.default_rng(1700)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 12))
            tprof = self.profile(rng, n, 2.0)
            bprof = self.profile(rng, n, float(rng.uniform(0.05, 2.0)))
            for k in range(n + 3):
                got = certificate.easy_violations(tprof, bprof, k)
                assert (not got) == verifier_easy_direction(tprof, bprof, k)
                seen.add(not got)
                if k:
                    # indices past (n-1)/k compare ell_{n-1} = 0 and never fail
                    assert got == stability_violations(tprof, bprof, k)
        assert seen == {True, False}

    def test_k_zero_reads_index_zero(self):
        base = np.array([1.0, 0.5, 0.0])
        assert certificate.easy_violations(np.array([0.0, 0.0, 0.0]), base, 0) == []
        assert certificate.easy_violations(np.array([2e-7, 1e-7, 0.0]), base, 0) == [0]

    def test_stability_check_uses_it(self):
        rng = np.random.default_rng(1701)
        for n in (1, 2, 5, 8):
            u, v = haar(n, rng), haar(n, rng)
            pu = projective_profile(u).values
            pv = projective_profile(v).values
            assert approx_stability_check(u, v, 1.0)["violations"] == stability_violations(pu, pv)


class TestGenerationInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_closed_loop_random(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 9))
        u, v = haar(n, rng), haar(n, rng)
        eu = projective_s_number(u, 0)[0]
        ev = projective_s_number(v, 0)[0]
        m = max(1, math.ceil(eu / ev))
        cert = generate_rank_dependent(u, v, m)
        report = assert_sound(cert)
        assert report["residual"] <= 1e-7 * (len(cert) + 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_lower_bound_consistency(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(3, 8))
        u, v = haar(n, rng), haar(n, rng)
        cert = generate_full(u, v)
        lt = projective_one_norm(u)[0]
        lb = projective_one_norm(v)[0]
        assert len(cert) * lb >= lt - 1e-6

    def test_easy_direction_profiles(self):
        rng = np.random.default_rng(700)
        u, v = haar(6, rng), haar(6, rng)
        cert = generate_full(u, v)
        k = len(cert)
        from normgen.spectral import projective_profile

        pt = projective_profile(u).values
        pb = projective_profile(v).values
        for i in range(6):
            if k * i > 5:
                break
            assert pt[min(k * i, 5)] <= k * pb[i] + 1e-7


def monomial_certificate(n=12, seed=990):
    """A rank-dependent certificate of diagonal Monomial operands: target,
    base and both frames are stored as monomial records."""
    from normgen import admissible_pair

    u, v = admissible_pair(n, 2, 1, np.random.default_rng(seed), conjugate=False)
    return generate_rank_dependent(u, v, 2)


MONO = monomial_certificate()
OPERANDS = ("target", "base", "aframe", "bframe")


class TestMonomialRecords:
    """A certificate stores a Monomial operand as its n phases and an index
    into the perm table, and checks those records as strictly as dense
    ones."""

    def fresh(self):
        return json.loads(json.dumps(MONO.to_json()))

    def test_operands_are_monomial_records(self):
        obj = self.fresh()
        assert obj["version"] == "normgen-cert/8"
        for name in OPERANDS:
            x, rec = getattr(MONO, name), obj[name]
            assert isinstance(x, spectral.Monomial)
            assert rec["shape"] == [MONO.n, MONO.n] and rec["dtype"] == "<c16"
            assert obj["perms"][rec["perm"]] == x.perm.tolist()
            assert np.array_equal(unpack(dict(rec, shape=[MONO.n])), x.phases)
        # the step perms come first in the table, as before
        runs = {rec["perm"] for rec in obj["runs"]}
        assert runs == set(range(len(runs)))

    def test_round_trip_and_verify(self, eigh_calls):
        text = json.dumps(MONO.to_json())
        back = Certificate.from_json(json.loads(text))
        assert json.dumps(back.to_json()) == text
        for name in OPERANDS:
            assert isinstance(getattr(back, name), spectral.Monomial)
        report = assert_sound(back)
        assert report["residual"] < 1e-13
        assert eigh_calls == []

    def test_dense_matrices_on_request(self):
        for name in OPERANDS:
            x = getattr(MONO, name)
            assert np.array_equal(np.asarray(x), x.matrix)
        a = np.asarray(MONO.aframe)
        dense = a @ certificate_product(MONO.base_angles, MONO.runs) @ a.conj().T
        prod, t = MONO.product(), MONO.target.matrix
        assert np.max(np.abs(prod - dense)) < 1e-14
        lam = np.vdot(t, prod) / abs(np.vdot(t, prod))
        assert np.max(np.abs(prod - lam * t)) < 1e-12

    @pytest.mark.parametrize("idx", [-1, 99, 0.5, "0", True, None])
    def test_perm_index_outside_table(self, idx):
        obj = self.fresh()
        obj["target"]["perm"] = idx
        assert_format_error(obj)

    @pytest.mark.parametrize("count", [1, -1, 12 * 11])
    def test_phase_count_other_than_n(self, count):
        obj = self.fresh()
        n = MONO.n
        obj["bframe"]["b64"] = pack(np.ones(n + count))["b64"]
        assert_format_error(obj)

    @pytest.mark.parametrize("rec", ["x", 3, None, [1, 2], []])
    def test_record_not_a_dict(self, rec):
        obj = self.fresh()
        obj["aframe"] = rec
        assert_format_error(obj)

    def test_short_perm_in_table(self):
        obj = self.fresh()
        obj["perms"].append(list(range(MONO.n - 1)))
        obj["base"]["perm"] = len(obj["perms"]) - 1
        assert_format_error(obj)

    @pytest.mark.parametrize("name, check", [
        ("target", "inputs_unitary"), ("base", "inputs_unitary"),
        ("aframe", "steps_unitary"), ("bframe", "steps_unitary"),
    ])
    def test_tampered_phase_fails(self, name, check):
        obj = self.fresh()
        phases = unpack(dict(obj[name], shape=[MONO.n]))
        phases[3] *= 1.0 + 1e-6
        obj[name]["b64"] = pack(phases)["b64"]
        report = verify_certificate(Certificate.from_json(obj))
        assert "error" not in report
        assert not report["checks"][check]
        assert not report["pass"]

    @pytest.mark.parametrize("entry", [0, 99, -1])
    @pytest.mark.parametrize("name, check", [
        ("target", "inputs_unitary"), ("bframe", "steps_unitary"),
    ])
    def test_perm_not_a_permutation_fails(self, name, check, entry):
        obj = self.fresh()
        # a table entry of its own, so that no other record shares it
        perm = list(obj["perms"][obj[name]["perm"]])
        perm[1] = entry if entry != perm[1] else perm[0]
        obj["perms"].append(perm)
        obj[name]["perm"] = len(obj["perms"]) - 1
        report = verify_certificate(Certificate.from_json(obj))
        assert "error" not in report
        assert not report["checks"][check]
        assert not report["pass"]

    def test_mixed_dense_and_monomial_operands(self):
        # a dense target against a monomial frame rebuilds densely
        mixed = dataclasses.replace(MONO, target=MONO.target.matrix)
        report = verify_certificate(mixed)
        assert report["pass"], report
        moved_t = moved(MONO.target.matrix, 1e-6, np.random.default_rng(1))
        report = verify_certificate(dataclasses.replace(MONO, target=moved_t))
        assert not report["checks"]["product"]


class TestTargetGramReuse:
    def test_generators_form_the_target_gram_once(self, monkeypatch):
        # validation measures T T* - I once; product_check reuses it
        grams = []
        inner = spectral.Dense.gram_defect

        def counting(self):
            grams.append(self.matrix)
            return inner(self)

        monkeypatch.setattr(spectral.Dense, "gram_defect", counting)
        rng = np.random.default_rng(995)
        u, v = haar(8, rng), haar(8, rng)
        m = max(1, math.ceil(projective_s_number(u, 0)[0] / projective_s_number(v, 0)[0]))
        for gen, args in ((generate_rank_dependent, (u, v, m)), (generate_full, (u, v))):
            grams.clear()
            cert = gen(*args)
            assert len(cert) > 0
            assert sum(g is cert.target for g in grams) == 1
            assert sum(np.array_equal(g, u) for g in grams) == 1
