"""Command-line surface: profiles, certificates, corpus runs, obstruction.

Exit codes are part of the contract: 0 success, 1 verification failure,
2 unreadable input or usage error, 3 validation error, 4 generation
hypothesis failure (with the feasibility report on stderr).

Each command imports the modules it uses when it runs, so `--help` and
`--version` load no numpy, and `verify` and the unitary generate modes
load no corpus, rational, symmetries or commutator module.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .config import MODES
from .errors import (
    BudgetInfeasibleError,
    CertificateFormatError,
    DegenerateInputError,
    DomainError,
    EmbeddingBlowupError,
    HypothesisError,
    NumericalDegeneracyError,
    PreconditionError,
    ValidationError,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_HYPOTHESIS = 4

_VALIDATION_ERRORS = (
    ValidationError,
    DomainError,
    PreconditionError,
    DegenerateInputError,
    EmbeddingBlowupError,
    NumericalDegeneracyError,
    CertificateFormatError,
)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from None


class _ParseFailure(Exception):
    pass


def _load_operand(path):
    """A unitary from any of the accepted JSON shapes: a UnitaryRep, or a
    RationalSpectrum for an atoms payload."""
    from .spectral import CircleSpectrum, UnitaryRep

    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise _ParseFailure(f"{path}: expected a JSON object")
    if "angles" in obj:
        return CircleSpectrum.from_json(obj).to_unitary()
    if "atoms" in obj:
        from .rational import RationalSpectrum

        return RationalSpectrum.from_json(obj)
    if "re" in obj:
        return UnitaryRep.from_json(obj)
    raise _ParseFailure(
        f"{path}: no recognized payload (need angles, atoms, or re/im)"
    )


def _emit(obj):
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def cmd_lengths(args):
    import numpy as np

    from .spectral import (
        SpectralProfile,
        UnitaryRep,
        projective_one_norm,
        projective_profile,
        rank_of_profile,
        singular_values,
        spectrum_of,
    )

    op = _load_operand(args.input)
    if not isinstance(op, UnitaryRep):
        raise ValidationError("profiles need a unitary or angle spectrum")
    if args.kind == "ell":
        # one diagonalization serves the profile, the one-norm and the rank
        spec = spectrum_of(op)
        prof = projective_profile(spec)
        out = prof.to_json()
        if args.one_norm:
            value, phase = projective_one_norm(spec)
            out["one_norm"] = value
            out["phase"] = [phase.real, phase.imag]
        if args.rank:
            out["rank"] = rank_of_profile(prof.values)
    else:
        # one SVD serves the profile, the one-norm (their mean) and the rank
        vals = singular_values(np.eye(op.n, dtype=complex) - op.matrix)
        out = SpectralProfile("mu", vals).to_json()
        if args.one_norm:
            out["one_norm"] = float(np.mean(vals))
        if args.rank:
            out["rank"] = rank_of_profile(vals)
    _emit(out)
    return EXIT_OK


def _parse_window(text):
    from fractions import Fraction

    if text is None:
        return None
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise _ParseFailure(f"window {text} has a zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(text)


def cmd_generate(args):
    from .certificate import verify_certificate
    from .spectral import UnitaryRep

    u = _load_operand(args.target)
    mode = args.mode
    window = _parse_window(args.s)
    if mode == "broise":
        if not isinstance(u, UnitaryRep):
            raise ValidationError("kernel mode takes a unitary operand")
        from .symmetries import broise_kernel_certificate

        cert = broise_kernel_certificate(u)
    else:
        if args.base is None:
            raise _ParseFailure(f"mode {mode} needs a base operand")
        v = _load_operand(args.base)
        rational = not (isinstance(u, UnitaryRep) and isinstance(v, UnitaryRep))
        if mode == "pipeline":
            if not rational:
                raise ValidationError(
                    "pipeline mode needs rational-spectrum operands"
                )
            from .rational import pipeline_generate

            cert = pipeline_generate(
                u, v, args.m, window if window is not None else 1
            )
        elif rational:
            raise ValidationError(
                f"mode {mode} takes unitary operands, not rational spectra"
            )
        elif mode == "rank-dep":
            from .generation import generate_rank_dependent

            cert = generate_rank_dependent(u, v, args.m)
        elif mode == "rank-indep":
            if window is None:
                raise _ParseFailure("rank-indep mode needs --s")
            if window.denominator != 1:
                raise ValidationError("rank-indep block count must be integral")
            from .generation import generate_rank_independent

            cert = generate_rank_independent(u, v, args.m, int(window))
        else:
            from .generation import generate_full

            cert = generate_full(u, v)
    report = verify_certificate(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(cert.to_json(), fh, sort_keys=True)
            fh.write("\n")
    print(
        f"k={len(cert)} budget={cert.claimed_budget} "
        f"residual={report['residual']:.3e}"
    )
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_verify(args):
    from .certificate import Certificate, verify_certificate

    obj = _load_json(args.certificate)
    try:
        cert = Certificate.from_json(obj)
    except CertificateFormatError as exc:
        raise _ParseFailure(f"{args.certificate}: {exc}") from None
    report = verify_certificate(cert)
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_corpus(args):
    from .corpus import run_corpus

    sizes = None
    if args.sizes is not None:
        sizes = tuple(int(tok) for tok in args.sizes.split(","))
    report = run_corpus(seed=args.seed, sizes=sizes, cases=args.cases)
    blob = json.dumps(report, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(blob)
            fh.write("\n")
    sys.stdout.write(blob)
    sys.stdout.write("\n")
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY


def cmd_counterexample(args):
    from .certificate import theorem_budgets
    from .generation import counterexample_pair, hypothesis_check

    if args.n < 2:
        raise _ParseFailure("need --n at least 2")
    pair = counterexample_pair(args.n)
    probe = hypothesis_check(pair["u"], pair["v"], 1, 1)
    mstar = probe.min_feasible_m or 1
    feas = hypothesis_check(pair["u"], pair["v"], mstar, 1)
    budgets = theorem_budgets(m=mstar, s=1, n=args.n)
    out = {
        "n": args.n,
        "lower_bound": pair["lower_bound"],
        "target": pair["u"].to_json(),
        "base": pair["v"].to_json(),
        "aligned_rank_distance": pair["aligned_rank_distance"].to_json(),
        "min_multiplier": mstar,
        "hypothesis": feas.to_json(),
        "max_feasible_s": feas.max_feasible_s,
        "rank_dependent_budget": budgets["rank_dependent"],
    }
    _emit(out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="normgen",
        description=(
            "projective singular value profiles and conjugacy-generation "
            "certificates for unitary matrices"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lengths", help="profile of a unitary or spectrum")
    p.add_argument("input", help="JSON file: unitary, angles, or atoms")
    p.add_argument("--kind", choices=("mu", "ell"), default="ell")
    p.add_argument("--one-norm", dest="one_norm", action="store_true")
    p.add_argument("--rank", action="store_true")
    p.set_defaults(fn=cmd_lengths)

    p = sub.add_parser("generate", help="emit a conjugacy certificate")
    p.add_argument("target", help="target operand JSON file")
    p.add_argument("base", nargs="?", help="base operand JSON file")
    p.add_argument("--mode", choices=MODES, default="rank-dep")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--s", default=None, help="block count or rational window")
    p.add_argument("--out", default=None, help="certificate JSON path")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="recheck a certificate file")
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", help="seeded aggregate generator run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default=None, help="comma-separated dimensions")
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--report", default=None, help="write the report here too")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("counterexample", help="rank obstruction demonstration")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(fn=cmd_counterexample)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (HypothesisError, BudgetInfeasibleError) as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            json.dump(report.to_json(), sys.stderr, sort_keys=True)
            sys.stderr.write("\n")
        else:
            print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
