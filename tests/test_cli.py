"""Exit codes, parsing, and JSON schemas of the command-line surface."""

import base64
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from normgen import (
    Certificate,
    CircleSpectrum,
    counterexample_pair,
    diagonalize_normal,
    haar_unitary,
    projective_one_norm,
)
from normgen.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def unpack(rec):
    """Decode a packed certificate record with the standard library."""
    raw = base64.b64decode(rec["b64"])
    return np.frombuffer(raw, dtype="<c16").reshape(rec["shape"]).copy()


def pack(arr):
    a = np.ascontiguousarray(arr, dtype="<c16")
    b64 = base64.b64encode(a.tobytes()).decode("ascii")
    return {"shape": list(a.shape), "dtype": "<c16", "b64": b64}


def short_angles(blob):
    blob["base_angles"].pop()


def small_aframe(blob):
    n = blob["aframe"]["shape"][0]
    blob["aframe"] = pack(np.eye(n - 1))


# each mutation damages one field of an emitted certificate
MALFORMED_FIELDS = {
    "metadata": lambda blob: blob.update(metadata=[1, 2]),
    "params": lambda blob: blob.update(params="ab"),
    "s0": lambda blob: blob.update(s0="x"),
    "aframe": small_aframe,
    "base_angles": short_angles,
    "theorem": lambda blob: blob.update(theorem="made_up"),
    "claimed_budget": lambda blob: blob.update(claimed_budget=-1),
}


@pytest.fixture
def diag_file(tmp_path):
    return write_json(
        tmp_path / "diag.json",
        {"n": 2, "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
    )


@pytest.fixture
def rational_files(tmp_path):
    u = write_json(
        tmp_path / "ru.json",
        {"atoms": [
            {"angle": 0.0, "num": 1, "den": 4},
            {"angle": math.pi, "num": 3, "den": 4},
        ]},
    )
    v = write_json(
        tmp_path / "rv.json",
        {"atoms": [
            {"angle": math.pi / 2, "num": 1, "den": 3},
            {"angle": -math.pi / 2, "num": 2, "den": 3},
        ]},
    )
    return u, v


class TestLengths:
    def test_identity_all_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "id.json", {"angles": [0.0, 0.0, 0.0]})
        assert main(["lengths", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "ell"
        assert out["values"] == [0.0, 0.0, 0.0]

    def test_two_point_profile(self, diag_file, capsys):
        assert main(["lengths", diag_file, "--one-norm", "--rank"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"][0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert out["values"][1] == pytest.approx(0.0, abs=1e-12)
        assert out["one_norm"] == pytest.approx(1.0, abs=1e-8)
        assert out["rank"] == 1

    def test_dense_operand_diagonalized_once(self, tmp_path, capsys, eigh_calls):
        # profile, one-norm and rank all read one spectrum
        n = 6
        op = haar_unitary(n, np.random.default_rng(3))
        path = write_json(tmp_path / "dense.json", op.to_json())
        assert main(["lengths", path, "--one-norm", "--rank"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == n - 1
        lengths_calls = eigh_calls.count((n, n))
        eigh_calls.clear()
        diagonalize_normal(op)
        assert 1 <= lengths_calls <= eigh_calls.count((n, n))

    def test_angle_operand_at_s0_max(self, tmp_path, capsys, eigh_calls):
        # the operand is a diagonal Monomial: no dense 406 MB matrix, no
        # O(n^3) unitarity check, no eigensolver
        n = 5040
        angles = np.random.default_rng(5040).uniform(-math.pi, math.pi, n)
        path = write_json(tmp_path / "big.json", {"angles": angles.tolist()})
        tracemalloc.start()
        try:
            code = main(["lengths", path, "--one-norm"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20
        assert eigh_calls == []
        out = json.loads(capsys.readouterr().out)
        assert len(out["values"]) == n
        assert out["one_norm"] == pytest.approx(
            projective_one_norm(CircleSpectrum(angles))[0], abs=1e-12
        )

    def test_mu_kind(self, diag_file, capsys):
        assert main(["lengths", diag_file, "--kind", "mu", "--one-norm"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "mu"
        assert out["values"] == [2.0, 0.0]
        assert out["one_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_file(self, tmp_path):
        assert main(["lengths", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["lengths", str(path)]) == 2

    def test_unrecognized_payload(self, tmp_path):
        path = write_json(tmp_path / "odd.json", {"something": 1})
        assert main(["lengths", str(path)]) == 2

    def test_non_unitary(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "nu.json",
            {"n": 2, "re": [[2, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
        )
        assert main(["lengths", str(path)]) == 3

    def test_rational_operand_rejected(self, rational_files):
        u, _ = rational_files
        assert main(["lengths", u]) == 3


class TestGenerate:
    def test_self_generation(self, diag_file, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(
            ["generate", diag_file, diag_file, "--mode", "rank-dep",
             "--m", "1", "--out", str(out)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("k=") and "budget=16" in line and "residual=" in line
        cert = Certificate.from_json(json.loads(out.read_text()))
        assert cert.theorem == "rank_dep"
        assert len(cert.steps) <= 16

    def test_counterexample_hypothesis_exit(self, tmp_path, capsys):
        pair = counterexample_pair(6)
        u = write_json(tmp_path / "u.json", pair["u"].to_json())
        v = write_json(tmp_path / "v.json", pair["v"].to_json())
        code = main(
            ["generate", u, v, "--mode", "rank-indep", "--s", "2", "--m", "1"]
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["satisfied"] is False
        assert err["s"] == 2

    def test_broise_mode(self, tmp_path, capsys):
        w = haar_unitary(3, np.random.default_rng(9))
        path = write_json(tmp_path / "w.json", w.to_json())
        out = tmp_path / "bcert.json"
        assert main(["generate", path, "--mode", "broise", "--out", str(out)]) == 0
        cert = Certificate.from_json(json.loads(out.read_text()))
        assert len(cert.steps) <= 4
        assert cert.theorem == "broise_kernel"

    def test_pipeline_mode(self, rational_files, tmp_path, capsys):
        u, v = rational_files
        out = tmp_path / "pcert.json"
        code = main(
            ["generate", u, v, "--mode", "pipeline", "--m", "2",
             "--s", "1/3", "--out", str(out)]
        )
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["s0"] == 12
        assert blob["claimed_budget"] == 288

    def test_missing_base(self, diag_file):
        assert main(["generate", diag_file, "--mode", "rank-dep"]) == 2

    def test_rank_indep_needs_s(self, diag_file):
        assert main(["generate", diag_file, diag_file, "--mode", "rank-indep"]) == 2

    def test_rational_into_matrix_mode(self, rational_files):
        u, v = rational_files
        assert main(["generate", u, v, "--mode", "rank-dep"]) == 3

    def test_unknown_mode(self, diag_file):
        assert main(["generate", diag_file, "--mode", "bogus"]) == 2


class TestVerify:
    def emitted(self, tmp_path, diag_file):
        out = tmp_path / "cert.json"
        assert main(["generate", diag_file, diag_file, "--out", str(out)]) == 0
        return out

    def test_emitted_cert_passes(self, tmp_path, diag_file, capsys):
        out = self.emitted(tmp_path, diag_file)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["version"] == "normgen-report/1"

    def test_tampered_cert_fails(self, tmp_path, diag_file, capsys):
        out = self.emitted(tmp_path, diag_file)
        blob = json.loads(out.read_text())
        blocks = unpack(blob["steps"][0]["blocks"])
        blocks[0] += 1e-2
        blob["steps"][0]["blocks"] = pack(blocks)
        out.write_text(json.dumps(blob))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1

    def test_tolerance_override(self, tmp_path, diag_file):
        # the product tolerance is always the measured one, and generation
        # takes no seed: both options are usage errors
        out = self.emitted(tmp_path, diag_file)
        assert main(["verify", str(out), "--tol", "1"]) == 2
        assert main(["generate", diag_file, diag_file, "--seed", "0"]) == 2

    def test_moved_target_fails_only_product(self, tmp_path, diag_file, capsys):
        out = self.emitted(tmp_path, diag_file)
        blob = json.loads(out.read_text())
        # expm(i eps H) for the unit-norm Hermitian H = [[0, 1], [1, 0]]
        lam, w = np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        move = (w * np.exp(1e-6j * lam)) @ w.conj().T
        blob["target"] = pack(move @ unpack(blob["target"]))
        out.write_text(json.dumps(blob))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [name for name, ok in report["checks"].items() if not ok]
        assert failed == ["product"], report
        assert report["residual"] > report["tolerance"]

    def test_malformed_cert(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"version": "other/9"})
        assert main(["verify", str(path)]) == 2

    def test_huge_perm_entry_is_a_parse_error(self, tmp_path, diag_file):
        out = self.emitted(tmp_path, diag_file)
        blob = json.loads(out.read_text())
        blob["perms"][blob["steps"][0]["perm"]][0] = 2**70
        out.write_text(json.dumps(blob))
        assert main(["verify", str(out)]) == 2

    @pytest.mark.parametrize("name", sorted(MALFORMED_FIELDS))
    def test_malformed_field_is_a_parse_error(self, tmp_path, diag_file, capsys, name):
        out = self.emitted(tmp_path, diag_file)
        blob = json.loads(out.read_text())
        MALFORMED_FIELDS[name](blob)
        out.write_text(json.dumps(blob))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert str(out) in capsys.readouterr().err


def monomial_cert(tmp_path):
    """A certificate generated from angle operands, whose four operands are
    monomial records."""
    rng = np.random.default_rng(17)
    u = write_json(tmp_path / "u.json", {"angles": rng.uniform(-0.3, 0.3, 8).tolist()})
    v = write_json(tmp_path / "v.json", {"angles": rng.uniform(-3.0, 3.0, 8).tolist()})
    out = tmp_path / "mono.json"
    assert main(["generate", u, v, "--m", "2", "--out", str(out)]) == 0
    return out


MALFORMED_MONOMIAL = {
    "perm index outside the table": lambda blob: blob["target"].update(perm=len(blob["perms"])),
    "phase count other than n": lambda blob: blob["base"].update(b64=pack(np.ones(7))["b64"]),
    "record not a dict": lambda blob: blob.update(aframe=[1.0, 0.0]),
}


class TestMonomialCertificates:
    def test_generate_and_verify(self, tmp_path, capsys):
        out = monomial_cert(tmp_path)
        blob = json.loads(out.read_text())
        assert blob["version"] == "normgen-cert/5"
        assert all("perm" in blob[name] for name in ("target", "base", "aframe", "bframe"))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("name", sorted(MALFORMED_MONOMIAL))
    def test_malformed_record_is_a_parse_error(self, tmp_path, capsys, name):
        out = monomial_cert(tmp_path)
        blob = json.loads(out.read_text())
        MALFORMED_MONOMIAL[name](blob)
        out.write_text(json.dumps(blob))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_tampered_phase_fails_verification(self, tmp_path, capsys):
        out = monomial_cert(tmp_path)
        blob = json.loads(out.read_text())
        phases = unpack(dict(blob["target"], shape=[8]))
        phases[0] *= 1.001
        blob["target"]["b64"] = pack(phases)["b64"]
        out.write_text(json.dumps(blob))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["inputs_unitary"] is False


class TestCorpus:
    def test_small_run_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["corpus", "--cases", "5", "--seed", "1",
             "--report", str(report_path)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert json.loads(stdout) == json.loads(report_path.read_text())

    def test_byte_identical_reruns(self, capsys):
        assert main(["corpus", "--cases", "5", "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["corpus", "--cases", "5", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_empty_run(self, capsys):
        assert main(["corpus", "--cases", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True
        assert report["results"] == []

    def test_sizes_flag(self, capsys):
        assert main(["corpus", "--cases", "2", "--sizes", "3,4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sizes"] == [3, 4]

    def test_bad_sizes_token(self, capsys):
        assert main(["corpus", "--cases", "1", "--sizes", "3,x"]) == 2

    @pytest.mark.parametrize("sizes", ["", ","])
    def test_empty_sizes_is_a_usage_error(self, sizes, capsys):
        # an empty list is malformed, not a request for the default sizes
        assert main(["corpus", "--cases", "1", "--sizes", sizes]) == 2
        assert capsys.readouterr().out == ""


class TestCounterexample:
    def test_bound_and_feasibility(self, capsys):
        assert main(["counterexample", "--n", "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower_bound"] == 5
        assert out["max_feasible_s"] == 1
        assert out["hypothesis"]["satisfied"] is True
        assert out["aligned_rank_distance"] == {"num": 5, "den": 6}

    def test_smallest_case(self, capsys):
        assert main(["counterexample", "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower_bound"] == 1

    def test_usage_error(self):
        assert main(["counterexample", "--n", "1"]) == 2

    def test_no_command(self):
        assert main([]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0


GENERATE_IN_FRESH_PROCESS = """
import sys
from normgen.cli import main
code = main(sys.argv[1:])
print("exit", code, "numpy.random" in sys.modules)
"""


def test_dense_generate_leaves_numpy_random_unloaded(tmp_path):
    """Dense operands are diagonalized through Hermitian combinations at
    fixed angles, so generate never imports numpy.random."""
    from normgen import admissible_pair

    u, v = admissible_pair(16, 2, 1, np.random.default_rng(18))
    upath = write_json(tmp_path / "u.json", u.to_json())
    vpath = write_json(tmp_path / "v.json", v.to_json())
    out = tmp_path / "cert.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", GENERATE_IN_FRESH_PROCESS,
         "generate", upath, vpath, "--m", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "exit 0 False", proc.stdout + proc.stderr
    blob = json.loads(out.read_text())
    assert "perm" not in blob["target"] and blob["target"]["shape"] == [16, 16]
