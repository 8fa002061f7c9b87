"""Commutator lab tests.

Frozen values: the two-point partner phase is -1; diag(1, i, -1) has
lhs = sqrt(2) at both indices with rhs = sqrt(2) * 2 sin(3pi/8); the
llbound ratio of diag(1, -1) is sqrt(2) (one-norm 1, profile mean
sqrt(2)/2).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgen import (
    CircleSpectrum,
    DomainError,
    canon_angle,
    optimalize,
    projective_profile,
)
from normgen.commutator import (
    aux_inequality_check,
    commutator_norm_search,
    cyclic_commutator_partner,
    llbound_diagnostic,
)


def haar(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def match_multiset(got, want, tol):
    """Greedy matching of two complex multisets within tol."""
    left = list(got)
    for w in want:
        hit = None
        for idx, g in enumerate(left):
            if abs(g - w) <= tol:
                hit = idx
                break
        if hit is None:
            return False
        left.pop(hit)
    return not left


class TestPartner:
    def test_two_point_frozen(self):
        v, lam = cyclic_commutator_partner(np.diag([1.0, -1.0]).astype(complex))
        assert v.shape == (6, 6)
        assert abs(lam - (-1.0)) <= 1e-12
        assert np.array_equal(v @ v.conj().T, np.eye(6))

    def test_blocks_are_cycles(self):
        v, _ = cyclic_commutator_partner(np.diag([1.0, 1j, -1.0]))
        cyc = np.zeros((3, 3))
        cyc[[1, 2, 0], [0, 1, 2]] = 1.0
        assert np.array_equal(v[:3, :3], cyc.astype(complex))
        assert np.array_equal(v[3:6, 3:6], cyc.T.astype(complex))
        assert np.array_equal(v[6:, 6:], np.eye(3, dtype=complex))
        assert np.count_nonzero(v) == 9

    def test_entries_exact(self):
        v, _ = cyclic_commutator_partner(haar(5, np.random.default_rng(3)))
        vals = set(np.unique(np.abs(v)))
        assert vals == {0.0, 1.0}

    def test_lam_is_conj_of_last_optimal(self):
        u = haar(4, np.random.default_rng(1))
        v, lam = cyclic_commutator_partner(u)
        from normgen import diagonalize_normal

        spec, _ = diagonalize_normal(u)
        order = optimalize(spec)
        want = np.exp(-1j * order.angles[-1])
        assert abs(lam - want) <= 1e-12

    def test_too_small(self):
        with pytest.raises(DomainError):
            cyclic_commutator_partner(np.array([[1.0 + 0j]]))

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
    def test_commutator_spectrum_multiset(self, n, seed):
        u = haar(n, np.random.default_rng(seed))
        from normgen import diagonalize_normal

        spec, _ = diagonalize_normal(u)
        order = optimalize(spec)
        v, _ = cyclic_commutator_partner(spec)
        eig = np.exp(1j * order.angles)
        u3 = np.diag(np.concatenate([eig, eig, eig]))
        comm = u3 @ v @ u3.conj().T @ v.conj().T
        got = np.linalg.eigvals(comm)
        ratios = [
            np.exp(1j * canon_angle(order.angles[i] - order.angles[(i + 1) % n]))
            for i in range(n)
        ]
        want = ratios + [np.conj(r) for r in ratios] + [1.0] * n
        assert match_multiset(got, want, 1e-9)


class TestAuxInequality:
    def test_identity_trivial(self):
        rep = aux_inequality_check(np.eye(3, dtype=complex))
        assert len(rep) == 2
        for row in rep:
            assert abs(row["lhs"]) <= 1e-9
            assert row["slack"] >= -1e-9

    def test_three_point_frozen(self):
        rep = aux_inequality_check(np.diag([1.0, 1j, -1.0]))
        assert len(rep) == 2
        rhs = math.sqrt(2.0) * 2.0 * math.sin(3.0 * math.pi / 8.0)
        for row in rep:
            assert abs(row["lhs"] - math.sqrt(2.0)) <= 1e-8
            assert abs(row["rhs"] - rhs) <= 1e-6
            assert row["slack"] > 0.0

    def test_report_shape_and_json(self):
        rep = aux_inequality_check(haar(4, np.random.default_rng(2)))
        assert [row["index"] for row in rep] == [0, 1, 2]
        parsed = json.loads(json.dumps(rep))
        assert parsed[0].keys() == {"index", "lhs", "rhs", "slack"}

    def test_hundred_random_pass(self):
        rng = np.random.default_rng(2024)
        for k in range(100):
            n = int(rng.integers(2, 13))
            u = haar(n, rng)
            rep = aux_inequality_check(u)
            assert len(rep) == n - 1
            for row in rep:
                assert row["lhs"] <= row["rhs"] + 1e-8, (k, row)

    def test_conjugation_invariant_input(self):
        rng = np.random.default_rng(5)
        d = np.diag(np.exp(1j * np.array([0.2, 1.1, -2.0, 2.9])))
        g = haar(4, rng)
        a = aux_inequality_check(d)
        b = aux_inequality_check(g @ d @ g.conj().T)
        for ra, rb in zip(a, b):
            assert abs(ra["lhs"] - rb["lhs"]) <= 1e-7
            assert abs(ra["rhs"] - rb["rhs"]) <= 1e-7

    def test_spectrum_input_matches_matrix(self, monkeypatch):
        # a spectrum skips the diagonalization and gives the same report,
        # ordering the spectrum once
        from normgen import commutator
        from normgen.spectral import spectrum_of

        u = haar(6, np.random.default_rng(6))
        want = aux_inequality_check(u)
        calls = []
        inner = commutator.optimalize
        monkeypatch.setattr(
            commutator, "optimalize", lambda spec: calls.append(1) or inner(spec)
        )
        spec = spectrum_of(u)
        assert aux_inequality_check(spec) == want
        assert len(calls) == 1
        assert llbound_diagnostic(spec) == llbound_diagnostic(u)


def dense_aux(spec):
    """aux_inequality_check by the explicit 3n x 3n commutator."""
    v, lam = cyclic_commutator_partner(spec)
    order = optimalize(spec)
    eig = np.exp(1j * order.angles)
    u3 = np.diag(np.concatenate([eig, eig, eig]))
    comm = u3 @ v @ u3.conj().T @ v.conj().T
    prof = projective_profile(comm)
    mus = np.sort(np.abs(1.0 - lam * eig))[::-1]
    rows = []
    for i in range(spec.n - 1):
        rhs = float(math.sqrt(2.0) * prof.values[i])
        rows.append({"index": i, "lhs": float(mus[i]), "rhs": rhs, "slack": rhs - float(mus[i])})
    return rows


class TestAuxClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_dense_commutator(self, angles):
        spec = CircleSpectrum(angles)
        got = aux_inequality_check(spec)
        want = dense_aux(spec)
        assert [row["index"] for row in got] == [row["index"] for row in want]
        for g, w in zip(got, want):
            for key in ("lhs", "rhs", "slack"):
                assert abs(g[key] - w[key]) <= 1e-15, (key, g, w)

    def test_skips_eigh(self, eigh_calls):
        angles = np.random.default_rng(11).uniform(-math.pi, math.pi, 64)
        rows = aux_inequality_check(CircleSpectrum(angles))
        rows_u = aux_inequality_check(np.diag(np.exp(1j * angles)))
        assert len(rows) == len(rows_u) == 63
        assert eigh_calls == []


class TestLlbound:
    def test_identity_degenerate(self):
        rep = llbound_diagnostic(np.eye(4, dtype=complex))
        assert rep["status"] == "degenerate"
        assert rep["ratio"] is None

    def test_central_degenerate(self):
        rep = llbound_diagnostic(-np.eye(3, dtype=complex))
        assert rep["status"] == "degenerate"

    def test_two_point_frozen(self):
        rep = llbound_diagnostic(np.diag([1.0, -1.0]).astype(complex))
        assert rep["status"] == "ok"
        assert abs(rep["ell_one_norm"] - 1.0) <= 1e-6
        assert abs(rep["profile_mean"] - math.sqrt(2.0) / 2.0) <= 1e-6
        assert abs(rep["ratio"] - math.sqrt(2.0)) <= 1e-5
        assert rep["within_bound"] is True

    @pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (7, 2), (10, 3)])
    def test_random_within_bound(self, n, seed):
        rep = llbound_diagnostic(haar(n, np.random.default_rng(seed)))
        assert rep["status"] == "ok"
        assert rep["ratio"] <= 192.0

    def test_json_round_trip(self):
        rep = llbound_diagnostic(haar(3, np.random.default_rng(9)))
        assert json.loads(json.dumps(rep)) == rep

    def test_diagonalizes_u_once(self, eigh_calls):
        # the one-norm and the profile mean read one spectrum
        n = 12
        u = haar(n, np.random.default_rng(12))
        rep = llbound_diagnostic(u)
        assert rep["status"] == "ok"
        assert eigh_calls.count((n, n)) == 1


class TestNormSearch:
    def test_degenerate_on_central(self):
        rep = commutator_norm_search(np.eye(3, dtype=complex), trials=4)
        assert rep["status"] == "degenerate"
        assert rep["achieved"] <= 1e-12

    def test_report_fields(self):
        rep = commutator_norm_search(np.diag([1.0, -1.0]), trials=8, seed=1)
        assert rep["trials"] == 8
        assert rep["status"] == "ok"
        assert rep["doubled"] == 2.0 * rep["achieved"]
        assert rep["ratio"] > 0.0
        json.dumps(rep)

    def test_more_trials_never_worse(self):
        u = haar(4, np.random.default_rng(7))
        a = commutator_norm_search(u, trials=2, seed=3)
        b = commutator_norm_search(u, trials=16, seed=3)
        assert b["achieved"] >= a["achieved"]

    def test_needs_trials(self):
        with pytest.raises(DomainError):
            commutator_norm_search(np.eye(2), trials=0)
