"""The normgen benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload certify-rankdep --seed 1 --seconds 25 --trace 0

Run it from a source checkout; it imports normgen from ./src.  Workloads
(workloads.py): certify-rankdep, profile-hard, corpus-mixed, cli-roundtrip.

Set-up (an `import normgen` subprocess, input generation, one small warm-up
operation) runs three times before the measurement and twice after it, so
that its median, setup_s, samples more than one moment of a noisy machine.

--trace 0 cycles the workload's inputs for --seconds, and at least once
through all of them, and reports the end-to-end metrics: setup_s,
ops_per_s (operations per second of operation time, a mean over the whole
run) and peak_rss_mb (peak resident memory of this process and its
children).  The report line adds op_p50_s, the median seconds per
operation, with its tail and sample count.

--trace 1 runs each of the first TRACE_OPS inputs untraced and then with
every public normgen function and method rebound to a span-recording
wrapper (tracer.py), and reports the per-layer metrics: calls and busy or
self seconds per layer from the traced runs; the untraced runs' stage
medians (generate_p50_s, corpus_s, ...), certificate sizes and fail_rate;
and trace.overhead_frac.  Spans are written to perfbench/traces/.  The
list of operations is fixed, so the call counts repeat exactly.

Every operation's outputs are checked; a failed check is counted without
stopping the run.  `attempted` and `failed` count inputs, not repeats: an
input fails when any run of it fails, and repeats of an input, and the
traced pass, must reproduce its first output byte for byte.  Both counts
therefore depend on the seed alone.  `correct` is false when the benchmark
cannot vouch for its own checks: the closed-form reference fails its
self-test, or tracing changed an output.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines above it are a report (environment, input digest, sample counts,
per-stage medians and tails, failures) and a table of every metric with
its unit.
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# one BLAS thread (of the two cores on the reference machine) keeps timings steady
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "normgen" / "__init__.py").is_file():
        print(f"error: no normgen sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy loads, and inherited by the CLI subprocesses
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
