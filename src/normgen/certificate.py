"""The certificate record, its JSON codec, its product and its verifier.

A certificate stores the eigenframes of target and base once and each
conjugate as a permutation times 2x2 unitary blocks in those frames, so a
conjugate costs O(n) space and O(n^2) checking time.  Operands that are
Monomials (diagonal targets and bases, permutation frames) are stored as n
phases and a perm and checked in O(n).  It carries everything
needed for an independent recheck; verify_certificate redoes the
multiplication and the bookkeeping from the stored factors and reports
rather than raises.

This module imports only config, errors and spectral: the generators build
on it, never the reverse, so checking a certificate loads no walk code.
"""

import base64
from dataclasses import dataclass, field
from fractions import Fraction
import math
from typing import NamedTuple

import numpy as np

from .config import TOL
from .errors import (
    CertificateFormatError,
    DimensionError,
    DomainError,
    NumericalDegeneracyError,
    ValidationError,
)
from .spectral import (
    CircleSpectrum,
    Monomial,
    as_operator,
    best_phase,
    projective_one_norm,
    projective_profile,
)

__all__ = [
    "CertRun",
    "CertStep",
    "Certificate",
    "certificate_product",
    "theorem_budget",
    "verify_certificate",
]

THEOREM_TAGS = ("rank_dep", "rank_indep", "full_gen", "pipeline", "broise_kernel")

CERT_VERSION = "normgen-cert/8"

# ---------------------------------------------------------------------------
# certificate container


class CertStep(NamedTuple):
    """One conjugate of a certificate as Certificate.steps reads it out of
    its run: the run's perm and offsets, the step's (nb, 2, 2) blocks (a
    view of the run's stack) and its exponent."""

    perm: np.ndarray
    offsets: np.ndarray
    blocks: np.ndarray
    e: int


@dataclass(frozen=True, init=False)
class CertRun:
    """Consecutive conjugates that share one eigenframe layout, as the steps
    of one walk batch do; the unit a certificate stores.

    Step r conjugates base^e[r] by g = A @ y_r @ B*, with the certificate's
    frames A and B and the eigenframe conjugator y_r = P @ Y_r: P sends
    basis vector a to perm[a], and Y_r is the identity except for the 2x2
    blocks blocks[r, i], each on the diagonal at offsets[i].  blocks is a
    read-only (len(e), nb, 2, 2) complex128 stack, and e holds one exponent
    per step.

    Deliberately unvalidated so that damaged certificates can still be
    loaded and then fail verification instead of failing to parse; only
    the shapes must hold (at least one step, one block per offset and
    step), else ValueError.
    """

    perm: np.ndarray
    offsets: np.ndarray
    blocks: np.ndarray
    e: np.ndarray

    def __init__(self, perm, offsets, blocks, e):
        o = np.asarray(offsets, dtype=np.int64)
        e = np.asarray(e, dtype=np.int64)
        b = np.asarray(blocks, dtype=complex)
        if o.ndim != 1 or e.ndim != 1 or not e.shape[0]:
            raise ValueError(f"a run needs offsets and steps, got "
                             f"{o.shape} offsets and {e.shape} exponents")
        shape = (e.shape[0], o.shape[0], 2, 2)
        if b.size != math.prod(shape):
            raise ValueError(f"{b.size} block entries do not fill {shape}")
        for name, a in (("perm", np.asarray(perm, dtype=np.int64)), ("offsets", o),
                        ("blocks", b.reshape(shape)), ("e", e)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self):
        return self.e.shape[0]

    def to_json(self, perm_index):
        """The run's record, with its perm as an index into the certificate's
        perm table and its blocks packed one row per step."""
        return {
            "perm": perm_index,
            "offsets": self.offsets.tolist(),
            "blocks": _pack(self.blocks.reshape(len(self), -1)),
            "e": self.e.tolist(),
        }

    @classmethod
    def from_json(cls, obj, perms):
        """Decode a run record against the decoded perm table.

        The index, offsets and exponents must be integers, the index must
        address the table and e must be nonempty; offsets, exponent values
        and perm contents are left to the verifier.
        """
        try:
            idx, offsets, e = obj["perm"], obj["offsets"], obj["e"]
            if type(offsets) is not list or type(e) is not list:
                raise TypeError("offsets and e must be lists")
            if not _all_ints(idx, *offsets, *e):
                raise TypeError("perm index, offsets and exponents must be integers")
            if not 0 <= idx < len(perms):
                raise ValueError(f"perm index {idx} outside a table of {len(perms)}")
            if not e:
                raise ValueError("a run needs steps")
            blocks = _unpack(obj["blocks"], [len(e), 4 * len(offsets)], "run blocks")
            return cls(perms[idx], offsets, blocks, e)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CertificateFormatError(f"malformed run: {exc}") from exc


def _all_ints(*values):
    return all(type(v) is int for v in values)


_DTYPE = "<c16"


def _pack(arr):
    """Packed record of a complex array: its shape, the dtype tag and base64
    of its little-endian complex128 bytes, which carry -0.0 and every NaN
    payload exactly."""
    a = np.ascontiguousarray(arr, dtype=_DTYPE)
    return {
        "shape": list(a.shape),
        "dtype": _DTYPE,
        "b64": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _pack_operand(x, perm_index):
    """_pack of a dense operand; a Monomial packs its n phases, with its
    perm as perm_index(perm), an index into the certificate's perm table."""
    if not isinstance(x, Monomial):
        return _pack(x)
    return {**_pack(x.phases), "shape": list(x.shape), "perm": perm_index(x.perm)}


def _unpack_operand(rec, n, perms, what):
    """Decode an [n, n] operand record: a Monomial when it names a perm,
    which must index the table and hold n entries, with n phases; else a
    dense record."""
    if type(rec) is not dict or "perm" not in rec:
        return _unpack(rec, [n, n], what)
    idx = rec["perm"]
    if not _all_ints(idx) or not 0 <= idx < len(perms):
        raise ValueError(f"{what} perm index {idx!r} outside a table of {len(perms)}")
    if perms[idx].shape != (n,):
        raise ValueError(f"{what} perm has {perms[idx].shape[0]} entries, need {n}")
    return Monomial(perms[idx], _unpack(rec, [n, n], what, n))


def _unpack(rec, shape, what, size=None):
    """Decode a packed record whose shape must equal shape, checking the
    dtype tag, the base64 alphabet and the decoded byte count: one entry
    per element of shape, or size entries, returned flat."""
    if type(rec) is not dict:
        raise TypeError(f"{what} must be a packed record")
    if rec.get("dtype") != _DTYPE:
        raise ValueError(f"{what} dtype must be {_DTYPE!r}, got {rec.get('dtype')!r}")
    got = rec.get("shape")
    if type(got) is not list or not _all_ints(*got) or got != shape:
        raise ValueError(f"{what} shape must be {shape}, got {got!r}")
    raw = base64.b64decode(rec.get("b64"), validate=True)
    want = 16 * (math.prod(shape) if size is None else size)
    if len(raw) != want:
        raise ValueError(f"{what} payload holds {len(raw)} bytes, need {want}")
    arr = np.frombuffer(raw, dtype=_DTYPE)
    return arr if size is not None else arr.reshape(shape)


@dataclass(frozen=True)
class Certificate:
    """Explicit product of conjugates of base^{+-1} realizing target.

    base = B @ diag(e^{i base_angles}) @ B* with bframe B and target =
    A @ diag(e^{i target_angles}) @ A* with aframe A, and every step of the
    runs conjugates base^e by A @ y @ B* (see CertRun), so the product of
    the steps, in order, is A @ M @ A* with M the product of
    y @ diag(e^{i e base_angles}) @ y* computed in the eigenframe.  M equals
    diag(e^{i target_angles}) up to one global phase, which is how the
    verifier checks it.  len(cert) is the number of steps, k; steps reads
    them out of the runs one by one.  theorem and params name the theorem
    the length is charged against and its parameters, metadata how the
    steps were found.  target, base and both frames are each a dense array
    or a Monomial; np.asarray gives the dense matrix of either.
    """

    target: np.ndarray
    base: np.ndarray
    aframe: np.ndarray
    bframe: np.ndarray
    base_angles: np.ndarray
    target_angles: np.ndarray
    runs: tuple
    theorem: str
    params: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = _operand(self.target)
        if len(t.shape) != 2 or t.shape[0] != t.shape[1]:
            raise DimensionError(f"target must be square, got {t.shape}")
        mats = {"target": t}
        for name in ("base", "aframe", "bframe"):
            m = _operand(getattr(self, name))
            if m.shape != t.shape:
                raise DimensionError(
                    f"{name} shape {m.shape} does not match target {t.shape}"
                )
            mats[name] = m
        for name in ("base_angles", "target_angles"):
            angles = np.asarray(getattr(self, name), dtype=float)
            if angles.shape != (t.shape[0],):
                raise DimensionError(
                    f"need {t.shape[0]} {name}, got shape {angles.shape}"
                )
            mats[name] = angles
        if self.theorem not in THEOREM_TAGS:
            raise ValidationError(f"unknown theorem tag {self.theorem!r}")
        runs = tuple(self.runs)
        if not all(isinstance(run, CertRun) for run in runs):
            raise ValidationError("runs must be CertRun instances")
        for name, m in mats.items():
            if isinstance(m, np.ndarray):
                m.setflags(write=False)
            object.__setattr__(self, name, m)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def n(self):
        return self.target.shape[0]

    @property
    def claimed_budget(self):
        """The length's budget, theorem_budget of theorem and params."""
        return theorem_budget(self.theorem, self.params)

    def __len__(self):
        return sum(map(len, self.runs))

    @property
    def steps(self):
        """The steps one by one, as CertStep views of the runs."""
        return tuple(CertStep(run.perm, run.offsets, b, e)
                     for run in self.runs for b, e in zip(run.blocks, run.e.tolist()))

    def product(self):
        """The dense product of the steps, A @ M @ A*, formed as
        A @ (A @ M*)*."""
        a = as_operator(self.aframe)
        m = certificate_product(self.base_angles, self.runs)
        return a.apply(a.apply(m.conj().T).conj().T)

    def to_json(self):
        perms, index = [], {}

        def perm_index(perm):
            key = perm.tobytes()
            if key not in index:
                index[key] = len(perms)
                perms.append(perm.tolist())
            return index[key]

        runs = [run.to_json(perm_index(run.perm)) for run in self.runs]
        out = {
            "version": CERT_VERSION,
            **{name: _pack_operand(getattr(self, name), perm_index)
               for name in ("target", "base", "aframe", "bframe")},
            "base_angles": self.base_angles.tolist(),
            "target_angles": self.target_angles.tolist(),
            "perms": perms,
            "runs": runs,
            "theorem": self.theorem,
            "params": dict(self.params),
            "metadata": _json_safe(self.metadata),
        }
        if "s0" in self.metadata:
            out["s0"] = int(self.metadata["s0"])
        return out

    @classmethod
    def from_json(cls, obj):
        """Decode a certificate, raising CertificateFormatError for anything
        that does not match the schema; damaged but well-typed contents
        (non-unitary blocks, bad perms, exponents other than +-1) load and
        are left to the verifier."""
        if not isinstance(obj, dict):
            raise CertificateFormatError("certificate must be an object")
        if obj.get("version") != CERT_VERSION:
            raise CertificateFormatError(
                f"unsupported certificate version {obj.get('version')!r}"
            )
        try:
            shape = obj["target"]["shape"]
            n = shape[0] if type(shape) is list and shape else 0
            if not _all_ints(n) or n < 1:
                raise ValueError(f"target shape must be [n, n] with n >= 1, got {shape!r}")
            perms = []
            for p in obj["perms"]:
                if type(p) is not list or not _all_ints(*p):
                    raise TypeError("perm table entries must be lists of integers")
                perms.append(np.array(p, dtype=np.int64))
            mats = [
                _unpack_operand(obj[name], n, perms, name)
                for name in ("target", "base", "aframe", "bframe")
            ]
            angles = [obj["base_angles"], obj["target_angles"]]
            for name, a in zip(("base_angles", "target_angles"), angles):
                if type(a) is not list or not all(type(x) is float for x in a):
                    raise TypeError(f"{name} must be a list of floats")
            runs = tuple(CertRun.from_json(r, perms) for r in obj["runs"])
            theorem = obj["theorem"]
            params, metadata = obj.get("params", {}), obj.get("metadata", {})
            if type(params) is not dict or type(metadata) is not dict:
                raise TypeError("params and metadata must be objects")
            metadata = dict(metadata)
            if "s0" in obj:
                if not _all_ints(obj["s0"]):
                    raise TypeError("s0 must be an integer")
                metadata.setdefault("s0", obj["s0"])
            return cls(*mats, *angles, runs, theorem, params, metadata)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CertificateFormatError(f"malformed certificate: {exc}") from exc


def _operand(x):
    return x if isinstance(x, Monomial) else np.asarray(x, dtype=complex)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    return obj


def _step_kernels(angles, runs):
    """What the runs do to the columns of the running product in
    certificate_product.  A step permutes the columns from the previous
    perm to its own, scales every column by its core D^e and mixes each
    2x2 block's two columns by b @ D^e @ b*, so a run, whose steps share a
    perm and a block layout, acts as one step whose core and kernels are
    the products of theirs.  Per run: the column gather from the previous
    perm (None when it is the same), the core, the (nb, 2) block columns
    and their (nb, 2, 2) kernels.  Also returns the last perm."""
    d = np.exp(1j * np.asarray(angles, dtype=float))
    cur = np.arange(d.shape[0])
    out = []
    for run in runs:
        gather = None
        if not np.array_equal(run.perm, cur):
            gather = np.argsort(cur)[run.perm]
            cur = run.perm
        cores = np.where(run.e[:, None] == 1, d, d.conj())
        core = cores[0]
        for c in cores[1:]:
            core = core * c
        cols = np.add.outer(run.offsets, np.arange(2))
        b = run.blocks
        kernels = (b * cores[:, cols][:, :, None, :]) @ b.conj().swapaxes(-1, -2)
        k = kernels[0]
        for k1 in kernels[1:]:
            k = k @ k1
        out.append((gather, core, cols, k))
    return out, cur


def _product_rows(kernels, n, start, stop):
    """Rows start..stop-1 of the eigenframe product of certificate_product,
    with their columns permuted by the last perm.  Each run acts on columns
    only, so a block of rows needs only those rows of the identity to
    start from."""
    acc = np.zeros((stop - start, n), dtype=complex)
    acc[np.arange(stop - start), np.arange(start, stop)] = 1.0
    for gather, core, cols, k in kernels:
        if gather is not None:
            # take keeps rows contiguous, where acc[:, gather] would not
            acc = np.take(acc, gather, axis=1)
        # (blocks, rows, 2): each block's columns times its kernel
        mixed = acc[:, cols].transpose(1, 0, 2) @ k
        acc *= core
        acc[:, cols] = mixed.transpose(1, 0, 2)
    return acc


# entries per row block of the eigenframe product in product_check: 16 MB
# of complex128, so up to n = 1024 the product is one block, and at
# n = 5040 its 406 MB are never held at once
_PRODUCT_BLOCK = 1 << 20


def certificate_product(angles, runs):
    """Multiply out y @ D^e @ y* over the steps of the runs, left to right,
    where D = diag(e^{i angles}) and y = P @ Y is each step's eigenframe
    conjugator.

    The running product is kept with its columns permuted by the current
    run's P, so the steps of a run need no permutation in between; D^e
    scales columns and each block b of Y mixes only its own columns, by
    b @ D^e @ b* on them.  Each run is merged into one step first (see
    _step_kernels) and its blocks are applied as one stacked matmul, so a
    run costs O(n^2) in a few numpy calls.  The runs must be well formed
    (perm a permutation, blocks in range and disjoint).
    """
    kernels, last = _step_kernels(angles, runs)
    n = len(angles)
    out = np.empty((n, n), dtype=complex)
    out[:, last] = _product_rows(kernels, n, 0, n)
    return out


# ---------------------------------------------------------------------------
# budgets


def as_fraction(s):
    """s as a Fraction; a float is read with denominator at most 10**9."""
    return Fraction(s).limit_denominator(10**9) if isinstance(s, float) else Fraction(s)


def theorem_budget(theorem, params):
    """The conjugate count a certificate of the theorem tag is charged
    against, read from the params record its certificates store: 8*m*n for
    rank_dep and full_gen, 24*m*ceil(n/s) for rank_indep, 48*m*ceil(1/s)
    with s = s_num/s_den for pipeline, and 4 for broise_kernel.
    """
    if theorem == "broise_kernel":
        return 4
    if theorem not in THEOREM_TAGS:
        raise DomainError(f"unknown theorem tag {theorem!r}")
    m = int(params["m"])
    if m <= 0:
        raise DomainError("multiplier must be positive")
    if theorem in ("rank_dep", "full_gen"):
        return 8 * m * int(params["n"])
    if theorem == "rank_indep":
        factor, span, s = 24, int(params["n"]), Fraction(params["s"])
    else:
        factor, span, s = 48, 1, Fraction(params["s_num"], params["s_den"])
    if s <= 0:
        raise DomainError("block parameter must be positive")
    return factor * m * -(-span // s)


# ---------------------------------------------------------------------------
# verification


def _defects(cert, names):
    """(max-norm, Frobenius norm) of each named defect, from the operands'
    gram_defect and rebuild: the Gram defect X X* - I of "target", "base",
    "aframe" or "bframe", and the rebuild defects B diag(e^{i base_angles})
    B* - base ("base_rebuild") and A diag(e^{i target_angles}) A* - target
    ("target_rebuild").  Dense operands take one dense product each,
    Monomials O(n).  A non-finite angle rebuilds nothing and reads nan,
    which fails every check."""
    rebuilds = {
        "base_rebuild": (cert.bframe, cert.base_angles, cert.base),
        "target_rebuild": (cert.aframe, cert.target_angles, cert.target),
    }
    out = {}
    for name in names:
        if name in rebuilds:
            f, angles, m = rebuilds[name]
            finite = np.isfinite(angles).all()
            out[name] = as_operator(f).rebuild(angles, m) if finite else (math.nan,) * 2
        else:
            out[name] = as_operator(getattr(cert, name)).gram_defect()
    return out


_PRODUCT_DEFECTS = ("target", "aframe", "bframe", "base_rebuild", "target_rebuild")


def product_check(cert, norms=None, block_defect=0.0):
    """The product check, in the eigenframe: (passed, residual, tolerance).

    M, the product in the eigenframe, is compared with lam * D, where
    D = diag(e^{i target_angles}) and lam is the best unit phase.  M is
    formed in row blocks of about _PRODUCT_BLOCK entries, each reduced to
    its diagonal and the squared Frobenius norm of its off-diagonal
    entries, so the check holds O(n) plus one block.  Since A M A* - lam T
    is A (M - lam D) A* + lam (A D A* - T) and ||A||^2 <= 1 + ||A A* - I||,
    the residual (1 + ||A A* - I||_F) ||M - lam D||_F + max|A D A* - T|
    bounds the max-norm of A M A* - lam T.  It passes when that residual is
    at most TOL.eq_tol, for the summed Frobenius defects of both frames, the
    base rebuild and block_defect (the largest block's, 0 by default), and
    the Frobenius norm of the target's T T* - I; and when the target
    rebuild, like the base rebuild, is within TOL.diag_residual.  norms
    holds _defects already measured; the rest of _PRODUCT_DEFECTS are
    computed here.
    """
    known = norms or {}
    norms = {**_defects(cert, [d for d in _PRODUCT_DEFECTS if d not in known]), **known}
    n = cert.n
    kernels, last = _step_kernels(cert.base_angles, cert.runs)
    where = np.argsort(last)  # M[i, i] is in column where[i] of its block
    diag = np.empty(n, dtype=complex)
    off = 0.0
    rows = max(1, _PRODUCT_BLOCK // n)
    for start in range(0, n, rows):
        block = _product_rows(kernels, n, start, min(start + rows, n))
        i = np.arange(block.shape[0])
        diag[start + i] = block[i, where[start + i]]
        block[i, where[start + i]] = 0.0
        off += np.vdot(block, block).real
    d = np.exp(1j * cert.target_angles)
    scaled = diag * d.conj()
    diag -= best_phase(scaled.sum(), scaled) * d
    rebuild = norms["target_rebuild"][0]
    resid = (1.0 + norms["aframe"][1]) * math.sqrt(off + np.vdot(diag, diag).real) + rebuild
    defect = sum(norms[name][1] for name in ("aframe", "bframe", "base_rebuild"))
    tol = TOL.eq_tol(len(cert), n, defect + block_defect, norms["target"][1])
    return bool(resid <= tol and rebuild <= TOL.diag_residual), resid, tol


def _assembled(trivial, build, norms=None):
    """The gate every generated certificate passes: trivial, the certificate
    with no runs of a central target (None for any other target), if it
    passes product_check; else build(), which must pass it, else
    NumericalDegeneracyError.  norms, defects of the target already
    measured (its Gram defect, from validating it), are not measured again.
    """
    if trivial is not None and product_check(trivial, norms)[0]:
        return trivial
    cert = build()
    passed, resid, tol = product_check(cert, norms)
    if not passed:
        raise NumericalDegeneracyError(
            f"assembled certificate residual {resid:.3e} over tolerance {tol:.3e}"
        )
    return cert


def _step_defects(runs, n):
    """Largest block unitarity defect of each step, in max-norm (row 0) and
    Frobenius norm (row 1), nan where the step is malformed: e not +-1, perm
    not a permutation of range(n), or a block out of range, overlapping
    another or not finite."""
    out = np.full((2, sum(map(len, runs))), np.nan)
    start = 0
    for run in runs:
        good = np.flatnonzero((run.e == 1) | (run.e == -1))
        steps = start + good
        start += len(run)
        if not (
            good.shape[0]
            and run.perm.shape == (n,)
            and np.array_equal(np.sort(run.perm), np.arange(n))
            and _layout_fits(run.offsets, n)
        ):
            continue
        # a step's (nb, 2, 2) Gram defects, reduced over its blocks; no blocks
        # read 0, and an inf entry's inf * 0 is the nan the report flags
        blocks = run.blocks[good]
        with np.errstate(invalid="ignore"):
            gram = blocks @ blocks.conj().swapaxes(-1, -2) - np.eye(2)
        out[0, steps] = np.abs(gram).max(axis=(1, 2, 3), initial=0.0)
        out[1, steps] = np.linalg.norm(gram, axis=(2, 3)).max(axis=1, initial=0.0)
    out[~np.isfinite(out)] = np.nan
    return out


def _layout_fits(offsets, n):
    """Whether 2x2 blocks at these offsets lie in range(n) and do not
    overlap."""
    end = 0
    for offset in sorted(offsets.tolist()):
        if not end <= offset <= n - 2:
            return False
        end = offset + 2
    return True


def easy_violations(target_profile, base_profile, k):
    """The indices i, k i <= n - 1 (i = 0 when k = 0), where a product of k
    conjugates of the base breaks ell_{k i} <= k ell_i(base), up to 10^-7."""
    n = len(target_profile)
    i = np.arange((n - 1) // k + 1 if k else 1)
    return np.flatnonzero(target_profile[k * i] > k * base_profile[i] + 1e-7).tolist()


def verify_certificate(cert):
    """Recheck a certificate from its stored factors; reports, never raises.

    Checks unitarity of the inputs; unitarity of both frames and of every
    block, with every perm a permutation (steps_unitary); that the base
    frame and angles rebuild the base and every exponent is +-1, which makes
    each step a conjugate of base^{+-1} (step_conjugacy); the product,
    recomputed in the eigenframe, against diag(e^{i target_angles}) up to
    one phase, with the target frame and angles rebuilding the target (see
    product_check); the length against theorem_budget of the theorem tag
    and params, whose n must be the certificate's (budget is None, and
    length fails, when params are malformed); the easy-direction profile
    inequality; and the one-norm lower bound on the length.  The product
    tolerance is always TOL.eq_tol, which grows with the measured frame and
    block defects and the target's unitarity defect, so the report depends
    on the certificate alone.  lower_bound is the length that bound forces,
    ell(target) / ell(base), or None when ell(base) is 0.

    No eigensolver runs: every profile and one-norm is read off the stored
    angles, which the two rebuild checks tie to target and base.  Each
    operand (target, base and both frames) gets one Gram product, read in
    max-norm for the unitarity checks and in Frobenius norm for the product
    tolerance.

    margins says how close each check came: the largest frame and block
    unitarity defects (with the block's step), the base and target rebuild
    defects, residual / tolerance, the lower-bound slack
    k * ell(base) - ell(target) and the first step failing a per-step check.
    """
    report = {
        "version": "normgen-report/1",
        "pass": False,
        "checks": {},
        "length": None,
        "budget": None,
        "residual": None,
        "tolerance": None,
        "lower_bound": None,
        "margins": {
            "frame_defect": None,
            "base_defect": None,
            "target_defect": None,
            "block_defect": None,
            "block_defect_step": None,
            "residual_ratio": None,
            "lower_bound_slack": None,
            "first_failing_step": None,
        },
    }
    checks = report["checks"]
    margins = report["margins"]
    try:
        n = cert.n
        k = len(cert)
        report["length"] = k
        # malformed params fail length here, not in the handler below;
        # DomainError is a ValueError, and s_den 0 raises ZeroDivisionError
        try:
            budget = int(cert.claimed_budget)
        except (KeyError, TypeError, ValueError, ArithmeticError):
            budget = None
        report["budget"] = budget
        # non-finite angles rebuild nothing and have no profile or product
        finite = bool(np.isfinite(np.r_[cert.target_angles, cert.base_angles]).all())
        norms = _defects(cert, ("base",) + _PRODUCT_DEFECTS)
        checks["inputs_unitary"] = bool(
            norms["target"][0] <= TOL.unitarity and norms["base"][0] <= TOL.unitarity
        )
        # a nan defect (a perm entry outside range(n)) must not be maxed away
        frame_def = float(np.max([norms["aframe"][0], norms["bframe"][0]]))
        base_def = norms["base_rebuild"][0]
        margins["frame_defect"] = frame_def
        margins["base_defect"] = base_def
        margins["target_defect"] = norms["target_rebuild"][0]
        defects, block_fro = _step_defects(cert.runs, n)
        malformed = np.isnan(defects)
        well_formed = not malformed.any()
        failing = np.flatnonzero(~(defects <= TOL.unitarity))
        first_bad = int(failing[0]) if failing.shape[0] else None
        block_def, block_step = 0.0, None
        if not malformed.all():
            block_step = int(np.nanargmax(defects))
            block_def = float(defects[block_step])
        margins["block_defect"] = block_def
        margins["block_defect_step"] = block_step
        margins["first_failing_step"] = first_bad
        checks["steps_unitary"] = bool(frame_def <= TOL.unitarity and first_bad is None)
        checks["step_conjugacy"] = bool(
            base_def <= TOL.diag_residual and well_formed
        )
        checks["product"] = False
        if well_formed and finite:
            ok, resid, tol = product_check(cert, norms, block_fro.max(initial=0.0))
            report["residual"] = resid
            report["tolerance"] = tol
            margins["residual_ratio"] = resid / tol
            checks["product"] = ok
        checks["length"] = bool(
            budget is not None and k <= budget and cert.params.get("n") == n
        )
        checks["easy_direction"] = checks["lower_bound"] = False
        if finite:
            tspec = CircleSpectrum(cert.target_angles)
            bspec = CircleSpectrum(cert.base_angles)
            checks["easy_direction"] = not easy_violations(
                projective_profile(tspec).values, projective_profile(bspec).values, k
            )
            ell_t = projective_one_norm(tspec)[0]
            ell_b = projective_one_norm(bspec)[0]
            report["lower_bound"] = float(ell_t / ell_b) if ell_b > 0.0 else None
            margins["lower_bound_slack"] = float(k * ell_b - ell_t)
            checks["lower_bound"] = bool(k * ell_b >= ell_t - 1e-6)
        report["pass"] = all(checks.values())
    except Exception as exc:  # noqa: BLE001 - verification must not raise
        checks["exception"] = False
        report["error"] = f"{type(exc).__name__}: {exc}"
        report["pass"] = False
    return report
