"""Set-up, the timed loop, the traced pass and the metrics they yield."""

import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from tracer import Tracer, rebound
from workloads import WORKLOADS, Stages, digest

BENCH = Path(__file__).resolve().parent
SETUP_BEFORE, SETUP_AFTER = 3, 2

# per-layer span groups: (metric stem, span names, "busy" or "self")
LAYERS = (
    ("spectral.profile", ("spectral.projective_profile",), "busy"),
    ("spectral.one_norm", ("spectral.projective_one_norm",), "busy"),
    ("spectral.s_number", ("spectral.projective_s_number",), "busy"),
    ("spectral.diagonalize", ("spectral.diagonalize_normal",), "busy"),
    ("spectral.unitarity", ("spectral.unitarity_defect",), "busy"),
    ("generation.hypothesis", ("generation.hypothesis_check",), "busy"),
    ("orderings.optimalize", ("orderings.optimalize",), "busy"),
    ("orderings.angle_sum", ("orderings.angle_sum_optimalize",), "busy"),
    ("su2.walk", ("su2.su2_walk",), "busy"),
    ("su2.conjugator", ("su2.conjugator_to_reference",), "busy"),
    ("generation.assembly", (
        "generation.generate_rank_dependent",
        "generation.generate_rank_independent",
        "generation.generate_full",
    ), "self"),
    ("generation.product", ("generation.certificate_product",), "busy"),
    ("generation.verify", ("generation.verify_certificate",), "self"),
    ("serialize.to_json", ("generation.Certificate.to_json",), "busy"),
    ("serialize.dumps", ("json.dumps",), "busy"),
    ("serialize.loads", ("json.loads",), "busy"),
    ("serialize.from_json", ("generation.Certificate.from_json",), "busy"),
    ("symmetries.broise", ("symmetries.broise_kernel_certificate",), "busy"),
    ("rational.embed", ("rational.lcm_embed",), "busy"),
    ("rational.pipeline", ("rational.pipeline_generate",), "self"),
    ("commutator.diagnostics", (
        "commutator.llbound_diagnostic",
        "commutator.aux_inequality_check",
    ), "busy"),
    ("corpus.sample", ("corpus.admissible_pair", "corpus.admissible_rational_pair"), "busy"),
)
SAMPLERS = LAYERS[-1][1]
CERT_FACTS = ("cert_k", "cert_mb", "cert.k_over_budget", "cert.bytes_per_step")
HYPOTHESIS = "generation.hypothesis_check"

UNITS = {
    "ops_per_s": "1/s", "peak_rss_mb": "MB", "cert_k": "count", "cert_mb": "MB",
    "fail_rate": "ratio", "cert.k_over_budget": "ratio",
    "cert.bytes_per_step": "B/step", "trace.overhead_frac": "ratio",
    "corpus.sample.hypothesis_per_pair": "calls/pair",
}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith((".calls", ".samples")) else "s"


@dataclass
class Op:
    key: int
    stages: dict
    digest: str
    error: object
    facts: dict

    @property
    def seconds(self):
        return sum(self.stages.values())


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads() or os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "numba": has_numba,
    }


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def set_up(wl, setups, imports):
    """One set-up of the workload: a fresh `import normgen`, the inputs and a
    warm-up operation.  Appends the timings and returns the inputs."""
    t0 = perf_counter()
    # with pipes the wait ends on their close; without, a timeout makes
    # subprocess poll the child in steps of up to 50 ms
    subprocess.run(
        [sys.executable, "-c", "import normgen"], capture_output=True, check=True, timeout=120
    )
    imports.append(perf_counter() - t0)
    inputs = wl.make_inputs()
    wl.warmup()
    setups.append(perf_counter() - t0)
    return inputs


def peak_rss_mb():
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb * 1024 / 1e6


def execute(wl, inputs, index, seen, tracer=None, inprocess=False):
    """One operation on input index % len(inputs); a failure is recorded.

    seen maps each input to the digest of its first output, which every
    later run of that input must reproduce.
    """
    key = index % len(inputs)
    stages = Stages(tracer)
    run = wl.run_inprocess if inprocess else wl.run
    if tracer is not None:
        tracer.op = index
    try:
        with stages.span(f"op.{wl.name}"):
            out, error, facts = run(inputs[key], stages, first=key not in seen)
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
        out, facts = digest(error), {}
    if error is None and seen.get(key, out) != out:
        error = "output differs from the earlier run of the same input"
    seen.setdefault(key, out)
    return Op(key, stages.times, out, error, facts)


def outcomes(ops):
    """(inputs attempted, inputs failed): an input fails when any of its
    operations fails.  Repeats of an input are timing samples held to its
    first output, so both counts depend on the seed alone, not on how many
    repeats fit in the run."""
    failed = {op.key for op in ops if op.error is not None}
    return len({op.key for op in ops}), len(failed)


def tail(values):
    """(percent, value) of the highest percentile with at least ten samples
    beyond it, or None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return pct, sorted(values)[rank - 1]


def stage_report(wl, ops):
    """Median of each stage, its sample count and, from 20 samples on, its
    tail under the same stem."""
    out = {}
    for stage, metric in wl.STAGES.items():
        values = [op.stages[stage] for op in ops if stage in op.stages]
        out[metric] = median(values) if values else 0.0
        out[metric + ".samples"] = len(values)
        t = tail(values)
        if t:
            stem = metric.removesuffix("_s").removesuffix("_p50")
            out[f"{stem}_p{t[0]}_s"] = t[1]
    return out


def cert_report(ops):
    """Certificate size medians over the operations that report them."""
    out = {}
    for name in CERT_FACTS:
        values = [op.facts[name] for op in ops if name in op.facts]
        out[name] = median(values) if values else 0.0
    return out


def layer_metrics(spans):
    """Calls and busy or self seconds per layer, and the sampler's waste."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def under(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    out = {}
    for stem, names, kind in LAYERS:
        idxs = [i for name in names for i in by_name.get(name, ())]
        out[f"{stem}.calls"] = len(idxs)
        if kind == "self":
            out[f"{stem}.self_s"] = sum(spans[i][2] - spans[i][1] - child[i] for i in idxs)
        else:
            # a layer nested in itself is busy once
            out[f"{stem}.s"] = sum(
                spans[i][2] - spans[i][1] for i in idxs if not under(i, names)
            )
    accepted = sum(spans[i][5] for name in SAMPLERS for i in by_name.get(name, ()))
    tries = sum(under(i, SAMPLERS) for i in by_name.get(HYPOTHESIS, ()))
    out["corpus.sample.hypothesis_per_pair"] = tries / accepted if accepted else 0.0
    return out


def measure(wl, inputs, seconds, seen):
    """Cycle the inputs for `seconds`, and at least once through all of
    them; the end-to-end metrics but setup_s.

    Each operation starts from a collected heap, so that one operation's
    garbage is not collected inside the next one's timing.
    """
    ops = []
    deadline = perf_counter() + seconds
    while len(ops) < len(inputs) or perf_counter() < deadline:
        gc.collect()
        ops.append(execute(wl, inputs, len(ops), seen))
    times = [op.seconds for op in ops]
    # a mean weights every second of the run alike; a median of the few
    # long operations of certify-rankdep jumps with the machine's speed
    metrics = {
        "ops_per_s": len(ops) / sum(times),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {"op_p50_s": median(times)}
    t = tail(times)
    if t:
        details[f"op_p{t[0]}_s"] = t[1]
    return ops, metrics, {**details, **stage_report(wl, ops), **cert_report(ops)}


def trace(wl, inputs, seen, trace_path):
    """Each of the first TRACE_OPS inputs untraced, then traced; the
    per-layer metrics but cli.import_s.

    Alternating per input keeps a drift in machine speed out of the
    overhead.  The traced run is in this process; for a workload whose
    operation is not, its untraced in-process twin is the baseline.
    """
    inprocess = wl.run_inprocess is not None
    tracer = Tracer()
    untraced, baseline, traced = [], [], []
    for i in range(min(wl.TRACE_OPS, len(inputs))):
        gc.collect()
        untraced.append(execute(wl, inputs, i, seen))
        if inprocess:
            gc.collect()
            baseline.append(execute(wl, inputs, i, seen, inprocess=True))
        gc.collect()
        with rebound(tracer):
            traced.append(execute(wl, inputs, i, seen, tracer, inprocess))
    ops = untraced + baseline + traced
    baseline = baseline or untraced
    tracer.write(trace_path)
    identical = all(
        a.digest == b.digest == c.digest for a, b, c in zip(untraced, baseline, traced)
    )

    metrics = layer_metrics(tracer.spans)
    stages = stage_report(wl, untraced)
    for cls in WORKLOADS.values():
        for metric in cls.STAGES.values():
            metrics[metric] = stages.get(metric, 0.0)
    metrics.update(cert_report(untraced))
    attempted, failed = outcomes(ops)
    metrics["fail_rate"] = failed / attempted
    metrics["trace.overhead_frac"] = (
        sum(op.seconds for op in traced) / sum(op.seconds for op in baseline) - 1.0
    )
    details = {
        "trace_file": str(trace_path.relative_to(BENCH.parent)),
        "spans": len(tracer.spans),
        "traced_identical": identical,
    }
    return ops, metrics, details


def main(args):
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        problems = wl.self_test()
        setups, imports = [], []
        for _ in range(SETUP_BEFORE):
            inputs = set_up(wl, setups, imports)
        input_digest = digest(*(wl.input_bytes(x) for x in inputs))
        seen = {}
        if args.trace:
            path = BENCH / "traces" / f"{wl.name}-seed{args.seed}.jsonl.gz"
            ops, metrics, details = trace(wl, inputs, seen, path)
        else:
            ops, metrics, details = measure(wl, inputs, args.seconds, seen)
        for _ in range(SETUP_AFTER):
            set_up(wl, setups, imports)
        if args.trace:
            metrics["cli.import_s"] = median(imports)
        else:
            metrics["setup_s"] = median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = outcomes(ops)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "environment": environment(),
        "input_digest": input_digest,
        "setup_s": setups,
        "import_s": imports,
        "samples": len(ops),
        "fail_rate": failed / attempted,
        "failures": sorted({op.error for op in ops if op.error is not None})[:20],
        "self_test_problems": problems,
        **details,
    }
    print(json.dumps({"report": report}))
    for name, value in sorted(metrics.items()):
        print(f"{name:42s} {value:>14.6g} {unit(name)}")
    print(json.dumps({
        "correct": not problems and details.get("traced_identical", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0
