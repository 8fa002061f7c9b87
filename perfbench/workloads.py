"""The four benchmark workloads: seeded inputs, one timed operation, checks.

Each workload draws its inputs with default_rng([seed, index]) and hands
normgen only those inputs.  run() times the stages of one operation on one
input and then checks the outputs outside the timed stages; it returns a
digest of every output, so repeats of an input and the traced pass can be
compared byte for byte, and the first failed check, or None.
"""

import hashlib
import io
import json
import math
import subprocess
import sys
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import normgen as ng

import reference

# warm-up inputs are the same for every seed, so that setup_s does not
# depend on one random draw
WARMUP_SEED = 10_000


def rng(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class Stages:
    """Seconds per named stage of one operation; with a tracer, also a span
    per stage and per span() block."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {}

    @contextmanager
    def __call__(self, name):
        with self.span(f"stage.{name}"):
            t0 = perf_counter()
            try:
                yield
            finally:
                self.times[name] = self.times.get(name, 0.0) + perf_counter() - t0

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()


class Workload:
    """Base: POOL inputs, cycled by the timed loop; the traced pass runs the
    first TRACE_OPS of them.  STAGES maps stage names to report metrics."""

    POOL = 1
    TRACE_OPS = 1
    STAGES = {}

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir

    def make_inputs(self):
        raise NotImplementedError

    def input_bytes(self, item):
        raise NotImplementedError

    def warmup(self):
        pass

    def self_test(self):
        """Problems with the benchmark's own reference, as strings."""
        return []

    def run(self, item, stages, first):
        raise NotImplementedError

    # a workload whose operation runs in a subprocess also provides it in
    # this process, where the traced run can see it
    run_inprocess = None


def _cert_facts(k, budget, size):
    return {
        "cert_k": k,
        "cert_mb": size / 1e6,
        "cert.k_over_budget": k / budget,
        "cert.bytes_per_step": size / k,
    }


class CertifyRankdep(Workload):
    """n=32, m=2 rank-dependent certificates: generate, JSON round trip, verify.

    k=496 and 22 MB per certificate put the work in step assembly, the
    certificate product, the verifier's per-step checks and serialization.
    """

    name = "certify-rankdep"
    N, M = 32, 2
    POOL = 2
    TRACE_OPS = 2
    STAGES = {
        "generate": "generate_p50_s",
        "dump": "dump_p50_s",
        "load": "load_p50_s",
        "verify": "verify_p50_s",
    }

    def make_inputs(self):
        return [
            ng.admissible_pair(self.N, self.M, 1, rng(self.seed, i))
            for i in range(self.POOL)
        ]

    def input_bytes(self, item):
        return item[0].matrix.tobytes() + item[1].matrix.tobytes()

    def warmup(self):
        pair = ng.admissible_pair(8, self.M, 1, rng(WARMUP_SEED, 0))
        self.run(pair, Stages(), first=True)

    def run(self, item, stages, first):
        u, v = item
        with stages("generate"):
            cert = ng.generate_rank_dependent(u, v, self.M)
        with stages("dump"):
            obj = cert.to_json()
            with stages.span("json.dumps"):
                text = json.dumps(obj)
        with stages("load"):
            with stages.span("json.loads"):
                obj = json.loads(text)
            loaded = ng.Certificate.from_json(obj)
        with stages("verify"):
            report = ng.verify_certificate(loaded)
        k, budget = len(loaded.steps), loaded.claimed_budget
        error = None
        if not report["pass"]:
            failed = sorted(c for c, ok in report["checks"].items() if not ok)
            error = f"verify failed: {failed} {report.get('error', '')}".strip()
        elif k > budget:
            error = f"k={k} over budget {budget}"
        elif first and json.dumps(loaded.to_json()) != text:
            # later repeats of an input are held to this op's digest instead
            error = "JSON round trip does not re-dump to identical bytes"
        out = digest(text, json.dumps(report, sort_keys=True))
        return out, error, _cert_facts(k, budget, len(text))


def hard_angles(family, n, gen):
    """Eigenvalue angles from one of the hard spectrum families."""
    if family == "uniform":
        return gen.uniform(-math.pi, math.pi, n)
    if family == "clustered":
        return gen.uniform(-0.3, 0.3, n)
    if family == "four-clusters":
        return gen.choice([0.0, 1.0, -2.0, math.pi], n) + gen.normal(0.0, 1e-3, n)
    if family == "antipodal":
        half = gen.uniform(-math.pi, math.pi, n // 2)
        return np.concatenate((half, half + math.pi))
    if family == "repeated":
        return gen.uniform(-math.pi, math.pi, 3)[gen.integers(0, 3, n)]
    raise ValueError(f"unknown spectrum family {family!r}")


class ProfileHard(Workload):
    """n=128 hard spectra through projective_profile + projective_one_norm,
    the `normgen lengths --one-norm` operation; no certificate is built.

    Each output is held to the closed-form reference within TOL.ell.
    """

    name = "profile-hard"
    N = 128
    FAMILIES = ("uniform", "clustered", "four-clusters", "antipodal", "repeated")
    POOL = 50
    TRACE_OPS = 25
    STAGES = {"lengths": "lengths_p50_s"}

    def make_inputs(self):
        items = []
        for i in range(self.POOL):
            family = self.FAMILIES[i % len(self.FAMILIES)]
            spec = ng.CircleSpectrum(hard_angles(family, self.N, rng(self.seed, i)))
            items.append((family, spec.angles, spec.to_unitary()))
        return items

    def input_bytes(self, item):
        return item[0].encode() + item[1].tobytes()

    def self_test(self):
        return reference.self_test(ng)

    def warmup(self):
        spec = ng.CircleSpectrum(hard_angles("uniform", 16, rng(WARMUP_SEED, 0)))
        self.run(("uniform", spec.angles, spec.to_unitary()), Stages(), first=True)

    def run(self, item, stages, first):
        family, angles, u = item
        with stages("lengths"):
            prof = ng.projective_profile(u)
            value, phase = ng.projective_one_norm(u)
        out = digest(json.dumps(prof.to_json()), repr((value, phase)))
        tol = ng.TOL.ell
        off = float(np.max(np.abs(prof.values - reference.ell_profile(angles))))
        off_one = abs(value - reference.one_norm(angles))
        error = None
        if off > tol:
            error = f"{family}: profile off the closed form by {off:.2e}"
        elif off_one > tol:
            error = f"{family}: one-norm off the closed form by {off_one:.2e}"
        return out, error, {}


class CorpusMixed(Workload):
    """run_corpus(cases=25) over all five generators at n 2..10, with the
    commutator diagnostics: many tiny calls, orderings, SU(2) walks,
    symmetries, the rational embedding and the sampler's retry loop."""

    name = "corpus-mixed"
    CASES = 25
    POOL = 8
    TRACE_OPS = 4
    STAGES = {"corpus": "corpus_s"}

    def make_inputs(self):
        return [int(rng(self.seed, i).integers(2**31)) for i in range(self.POOL)]

    def input_bytes(self, item):
        return f"{item}/{self.CASES}".encode()

    def warmup(self):
        ng.run_corpus(seed=int(rng(WARMUP_SEED, 0).integers(2**31)), cases=5)

    def run(self, item, stages, first):
        with stages("corpus"):
            report = ng.run_corpus(seed=item, cases=self.CASES)
        error = None
        if not report["all_pass"]:
            failed = {m: b["failures"] for m, b in report["suites"].items() if b["failures"]}
            error = f"corpus failures: {failed}"
        ratios = [r["length"] / r["budget"] for r in report["results"] if r["budget"]]
        facts = {
            "cert_k": median(r["length"] for r in report["results"]),
            "cert.k_over_budget": median(ratios),
        }
        return digest(json.dumps(report, sort_keys=True)), error, facts


class CliRoundtrip(Workload):
    """`normgen generate u.json v.json --m 2 --out c.json` then
    `normgen verify c.json` at n=16, one subprocess at a time: start-up,
    import, operand parsing and file I/O are part of what is timed.  The
    subprocesses find normgen through PYTHONPATH."""

    name = "cli-roundtrip"
    N, M = 16, 2
    POOL = 4
    TRACE_OPS = 4
    STAGES = {"cli_generate": "cli_generate_s", "cli_verify": "cli_verify_s"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        import normgen.cli

        self.cli = normgen.cli

    def make_inputs(self):
        items = []
        for i in range(self.POOL):
            u, v = ng.admissible_pair(self.N, self.M, 1, rng(self.seed, i))
            upath, vpath = self.workdir / f"u{i}.json", self.workdir / f"v{i}.json"
            upath.write_text(json.dumps(u.to_json()))
            vpath.write_text(json.dumps(v.to_json()))
            items.append((str(upath), str(vpath), self.workdir / f"c{i}.json"))
        return items

    def input_bytes(self, item):
        return b"".join(Path(path).read_bytes() for path in item[:2])

    def _argvs(self, item):
        u, v, c = item
        return (
            ("cli_generate", ["generate", u, v, "--m", str(self.M), "--out", str(c)]),
            ("cli_verify", ["verify", str(c)]),
        )

    def _check(self, item, results):
        """results: (stage, exit code, stdout bytes) per command."""
        cert = item[2].read_bytes() if item[2].exists() else b""
        error = None
        for stage, code, _ in results:
            if code != 0 and error is None:
                error = f"{stage} exited {code}"
        facts = {}
        if error is None:
            report = json.loads(results[-1][2])
            k, budget = report["length"], report["budget"]
            facts = _cert_facts(k, budget, len(cert))
            if not report["pass"] or k > budget:
                error = f"verify report: pass={report['pass']} k={k} budget={budget}"
        out = digest(cert, *(stdout for _, _, stdout in results))
        return out, error, facts

    def run(self, item, stages, first):
        item[2].unlink(missing_ok=True)
        results = []
        for stage, argv in self._argvs(item):
            with stages(stage):
                proc = subprocess.run(
                    [sys.executable, "-m", "normgen.cli", *argv],
                    capture_output=True, timeout=120,
                )
            results.append((stage, proc.returncode, proc.stdout))
        return self._check(item, results)

    def run_inprocess(self, item, stages, first):
        item[2].unlink(missing_ok=True)
        results = []
        for stage, argv in self._argvs(item):
            buf = io.StringIO()
            with stages(stage), redirect_stdout(buf):
                code = self.cli.main(argv)
            results.append((stage, code, buf.getvalue().encode()))
        return self._check(item, results)


WORKLOADS = {
    w.name: w for w in (CertifyRankdep, ProfileHard, CorpusMixed, CliRoundtrip)
}
