"""Samplers and the aggregate corpus runner."""

import json
import math
import os
import signal
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from normgen import (
    CircleSpectrum,
    DomainError,
    RationalSpectrum,
    admissible_pair,
    admissible_rational_pair,
    generate_rank_dependent,
    generate_rank_independent,
    haar_unitary,
    hypothesis_check,
    pipeline_generate,
    random_spectrum,
    run_corpus,
    verify_certificate,
)
from normgen import corpus


class TestSamplers:
    def test_haar_is_unitary(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 9):
            u = haar_unitary(n, rng)
            assert u.n == n

    def test_haar_deterministic(self):
        a = haar_unitary(4, np.random.default_rng(42))
        b = haar_unitary(4, np.random.default_rng(42))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_random_spectrum_shape_and_branch(self):
        rng = np.random.default_rng(1)
        spec = random_spectrum(7, rng)
        assert isinstance(spec, CircleSpectrum)
        assert spec.n == 7
        assert np.all(spec.angles > -math.pi)
        assert np.all(spec.angles <= math.pi)

    def test_random_spectrum_rejects_empty(self):
        with pytest.raises(DomainError):
            random_spectrum(0, np.random.default_rng(0))


class TestAdmissiblePair:
    @pytest.mark.parametrize("n,m,s", [(2, 1, 1), (5, 2, 2), (9, 3, 4), (12, 1, 6)])
    def test_hypothesis_holds(self, n, m, s):
        rng = np.random.default_rng(100 + n)
        u, v = admissible_pair(n, m, s, rng)
        assert u.n == v.n == n
        assert hypothesis_check(u, v, m, s).satisfied

    def test_generators_accept_pairs(self):
        rng = np.random.default_rng(7)
        u, v = admissible_pair(6, 2, 1, rng)
        cert = generate_rank_dependent(u, v, 2)
        assert verify_certificate(cert)["pass"]
        u, v = admissible_pair(7, 2, 3, rng)
        cert = generate_rank_independent(u, v, 2, 3)
        assert verify_certificate(cert)["pass"]

    def test_diagonal_option(self):
        rng = np.random.default_rng(3)
        u, v = admissible_pair(5, 1, 2, rng, conjugate=False)
        assert np.count_nonzero(u.matrix - np.diag(np.diag(u.matrix))) == 0
        assert np.count_nonzero(v.matrix - np.diag(np.diag(v.matrix))) == 0

    def test_bad_block_count(self):
        with pytest.raises(DomainError):
            admissible_pair(4, 1, 5, np.random.default_rng(0))


class TestAdmissibleRationalPair:
    def test_pipeline_accepts_pairs(self):
        rng = np.random.default_rng(21)
        u, v = admissible_rational_pair(2, Fraction(1, 3), rng)
        assert isinstance(u, RationalSpectrum)
        assert isinstance(v, RationalSpectrum)
        cert = pipeline_generate(u, v, 2, Fraction(1, 3))
        assert verify_certificate(cert)["pass"]


class TestRunCorpus:
    def test_deterministic(self):
        a = run_corpus(seed=5, cases=10)
        b = run_corpus(seed=5, cases=10)
        assert a == b

    def test_all_modes_pass(self):
        report = run_corpus(seed=0, cases=10)
        assert report["all_pass"] is True
        assert report["version"] == "normgen-report/1"
        assert set(report["suites"]) == {
            "rank-dep",
            "rank-indep",
            "full",
            "pipeline",
            "broise",
        }
        assert sum(s["cases"] for s in report["suites"].values()) == 10
        assert report["max_budget_ratio"] <= 1.0
        assert report["max_residual"] < 1e-4

    def test_diagnostics_aggregated(self):
        report = run_corpus(seed=0, cases=10)
        assert report["llbound_max_ratio"] is not None
        assert report["llbound_max_ratio"] <= 192.0
        assert report["aux_min_slack"] is not None
        assert report["aux_min_slack"] > -1e-8

    def test_lower_bound_ratios(self):
        report = run_corpus(seed=0, cases=10)
        ratios = []
        for row in report["results"]:
            lb = row["lower_bound"]
            if lb:
                assert row["lower_bound_ratio"] == pytest.approx(row["length"] / lb)
                # the verifier's lower-bound check holds with its 1e-6 slack
                assert row["lower_bound_ratio"] >= 1.0 - 1e-6 / lb
                ratios.append(row["lower_bound_ratio"])
            else:
                assert row["lower_bound_ratio"] is None
        assert ratios
        assert report["max_lower_bound_ratio"] == max(ratios)

    def test_lower_bound_ratio_seed_seven(self):
        # matched source pairs: 28.5 (one strand per batch gave 122.3)
        report = run_corpus(seed=7)
        assert report["all_pass"]
        assert report["max_lower_bound_ratio"] <= 30.0

    @pytest.mark.parametrize("seed", range(5))
    def test_extremes_recomputed_from_rows(self, seed):
        report = run_corpus(seed=seed)
        rows = report["results"]

        def present(key):
            return [r[key] for r in rows if r.get(key) is not None]

        ratios = [r["length"] / r["budget"] for r in rows if r["budget"]]
        want = {
            "max_residual": max(present("residual")),
            "max_budget_ratio": max(ratios),
            "max_lower_bound_ratio": max(present("lower_bound_ratio")),
            "llbound_max_ratio": max(present("llbound_ratio")),
            "aux_min_slack": min(present("aux_min_slack")),
        }
        assert {key: report[key] for key in want} == want

    def test_empty_run(self):
        report = run_corpus(seed=0, cases=0)
        assert report["all_pass"] is True
        assert report["suites"] == {}
        assert report["max_residual"] is None
        assert report["max_lower_bound_ratio"] is None

    def test_rejects_negative_cases(self):
        with pytest.raises(DomainError):
            run_corpus(cases=-1)

    def test_rejects_tiny_sizes(self):
        with pytest.raises(DomainError):
            run_corpus(sizes=(1, 2), cases=1)

    def test_rejects_empty_sizes(self):
        with pytest.raises(DomainError):
            run_corpus(sizes=(), cases=3)
        assert run_corpus(sizes=(), cases=0)["all_pass"] is True

    def test_results_sorted_by_case(self):
        report = run_corpus(seed=2, cases=8)
        ids = [row["case"] for row in report["results"]]
        assert ids == sorted(ids)


@pytest.fixture
def bounded_forks():
    """Fails the test when it runs for a minute, or when a forked child
    outlives it."""

    def hung(signum, frame):
        raise AssertionError("run_corpus hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_shares(monkeypatch, count):
    monkeypatch.setattr(corpus, "_share_count", lambda cases: count)


def fail_at(monkeypatch, failing, exc, pad=0):
    """_run_case raising exc(f"case {i}") at the indices i in failing, and
    adding a string of pad characters to each row it returns."""
    inner = corpus._run_case

    def run_case(seed, index, sizes):
        if index in failing:
            raise exc(f"case {index}")
        row = inner(seed, index, sizes)
        if pad:
            row["pad"] = "x" * pad
        return row

    monkeypatch.setattr(corpus, "_run_case", run_case)


@pytest.mark.skipif(sys.platform != "linux", reason="shares fork on Linux only")
@pytest.mark.usefixtures("bounded_forks")
class TestShares:
    @pytest.mark.parametrize("cases", [7, 12])
    def test_reports_match_the_serial_run(self, monkeypatch, cases):
        force_shares(monkeypatch, 1)
        serial = json.dumps(run_corpus(seed=4, cases=cases))
        for count in (2, 3):
            force_shares(monkeypatch, count)
            assert json.dumps(run_corpus(seed=4, cases=cases)) == serial

    @pytest.mark.parametrize("failing", [{5, 8}, {4, 7}, {3}])
    def test_lowest_failing_case_raises(self, monkeypatch, failing):
        # with two shares, odd cases run in the child and even ones here
        fail_at(monkeypatch, failing, exc=DomainError)
        force_shares(monkeypatch, 1)
        with pytest.raises(DomainError) as serial:
            run_corpus(seed=1, cases=10)
        force_shares(monkeypatch, 2)
        with pytest.raises(DomainError) as split:
            run_corpus(seed=1, cases=10)
        assert str(split.value) == str(serial.value) == f"case {min(failing)}"

    @pytest.mark.parametrize("exc", [DomainError, KeyboardInterrupt])
    def test_parent_failure_with_a_full_pipe(self, monkeypatch, exc):
        # the child's rows are far over the 64 KB pipe buffer, so it blocks
        # in its write until the parent reads or closes the pipe
        fail_at(monkeypatch, {0}, exc=exc, pad=40_000)
        force_shares(monkeypatch, 2)
        with pytest.raises(exc, match="case 0"):
            run_corpus(seed=2, cases=8)

    def test_small_runs_fork_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        assert corpus._share_count(5) == 1
        assert run_corpus(seed=3, cases=5)["all_pass"]

    def test_a_failed_fork_runs_serially(self, monkeypatch):
        force_shares(monkeypatch, 1)
        serial = json.dumps(run_corpus(seed=6, cases=9))

        def fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        force_shares(monkeypatch, 3)
        assert json.dumps(run_corpus(seed=6, cases=9)) == serial


class TestShareCount:
    def test_one_share_per_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [corpus._share_count(c) for c in (0, 7, 8, 11, 12, 100)] == [1, 1, 2, 2, 3, 3]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert corpus._share_count(100) == 1

    def test_serial_off_linux(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert corpus._share_count(100) == 1

    def test_serial_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert corpus._share_count(100) == 2
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            assert corpus._share_count(100) == 1
        finally:
            stop.set()
            worker.join()
