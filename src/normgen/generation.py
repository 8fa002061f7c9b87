"""Constructive certificates for bounded normal generation.

Given unitaries u and v, the generators below emit an explicit ordered list
of conjugates of v or its inverse whose product equals u up to a global
phase.  The construction decomposes the target into commuting two-by-two
block factors, realizes each factor by a class-angle walk whose generator is
a commutator of v with a block rotation, and charges every conjugate against
a stated budget.  All theorem-level generators share one walk path: the
factors are planned in batches on matched source blocks of the base
(_plan_batches, with su2.source_block making each block's commutator once)
and every batch is walked by SourceBlock.frames as one run of steps
(_shared_run).  The certificate record and its verifier live in
normgen.certificate.

Two conventions keep the walks honest.  First, a full block swap can leave
the commutator class beyond a quarter turn, where fixed-length walks lose
reachability; a partial rotation caps the class at pi/2 instead, from which
any block angle is reachable in two steps.  Second, parallel strands driven
by one shared commutator walk one shared length: the shortest even length
that reaches every strand of the batch, in closed form (su2.walk_length).
A walk that lands at some even length lands at every longer one, so the
shared length serves them all.
"""

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

from .certificate import Certificate, CertRun, _assembled, theorem_budget
from .config import EPS, TOL
from .errors import (
    BudgetInfeasibleError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    HypothesisError,
)
from .orderings import angle_sum_optimalize, center_phase
from .spectral import (
    _CENTRAL,
    CircleSpectrum,
    Monomial,
    RankDistance,
    UnitaryRep,
    _diameter_pair,
    _is_central,
    as_operator,
    as_unitary,
    canon_angle,
    diagonalize_normal,
    projective_profile,
    projective_s_number,
)
from .su2 import _climb, source_block, walk_length

__all__ = [
    "HypothesisReport",
    "counterexample_pair",
    "generate_full",
    "generate_rank_dependent",
    "generate_rank_independent",
    "hypothesis_check",
]

# ---------------------------------------------------------------------------
# hypotheses


@dataclass(frozen=True)
class HypothesisReport:
    """Feasibility of the generation hypothesis for a pair (u, v).

    slack[t] is ell_0(u) - m * ell_t(v); the hypothesis asks every slack up
    to index s-1 to be non-positive.  max_feasible_s is the largest block
    count the given m supports, min_feasible_m the smallest multiplier the
    requested s admits (None when no multiplier works).
    """

    m: int
    s: int
    slacks: tuple
    satisfied: bool
    max_feasible_s: int
    min_feasible_m: object

    def to_json(self):
        return {
            "m": self.m,
            "s": self.s,
            "slacks": [float(x) for x in self.slacks],
            "satisfied": bool(self.satisfied),
            "max_feasible_s": self.max_feasible_s,
            "min_feasible_m": self.min_feasible_m,
        }


def hypothesis_check(u, v, m, s):
    """Check ell_0(u) <= m * ell_t(v) for t < s, with slack reporting."""
    m = int(m)
    s = int(s)
    if m <= 0 or s <= 0:
        raise DomainError("multiplier and block count must be positive")
    ell_u = projective_s_number(u, 0)[0]
    prof_v = projective_profile(v).values
    n = prof_v.shape[0]
    if s > n:
        raise DomainError(f"block count {s} exceeds size {n}")
    slack = ell_u - m * prof_v
    fits = slack <= TOL.hyp_slack
    slacks = tuple(slack[:s].tolist())
    satisfied = bool(fits[:s].all())
    # the longest run of fitting slacks from t = 0
    feas = n if fits.all() else int(np.argmin(fits))
    floor = float(prof_v[s - 1])
    if ell_u <= TOL.hyp_slack:
        min_m = 1
    elif floor <= TOL.rank:
        min_m = None
    else:
        min_m = max(1, int(math.ceil((ell_u - TOL.hyp_slack) / floor)))
    return HypothesisReport(m, s, slacks, satisfied, feas, min_m)


# ---------------------------------------------------------------------------
# strand walks


class _Strand(NamedTuple):
    """One block walk inside a shared commutator schedule: the factor angle
    phi, the target block it moves, the su2.SourceBlock at (source, source
    + 1) driving it and the shortest even walk length that reaches phi."""

    phi: float
    target: int
    source: int
    block: object
    length: int


def _plan_strand(phi, target, pair, cap):
    """The strand walking phi on pair = (source, block) in at most cap
    steps, raising what su2.walk_length raises: BudgetInfeasibleError when
    the block's class angle cannot reach |phi| that fast."""
    return _Strand(phi, target, *pair, walk_length(phi, pair[1].theta, cap))


def _strand(phi, target, pair, cap):
    """_plan_strand for a valid cap, with None where it raises
    BudgetInfeasibleError: su2._climb is walk_length without the raise."""
    length = _climb(abs(canon_angle(phi)), pair[1].theta, cap)
    return None if length is None else _Strand(phi, target, *pair, length)


def _alignment(n, strands):
    """Permutation sending each source block onto its target block, as the
    array perm with perm[source index] = target index."""
    perm = [None] * n
    for st in strands:
        perm[st.source], perm[st.source + 1] = st.target, st.target + 1
    rest = iter(sorted(set(range(n)).difference(perm)))
    return np.array([next(rest) if p is None else p for p in perm], dtype=np.int64)


def _shared_run(n, strands):
    """Walk a nonempty list of parallel strands at one shared length, as
    one run of eigenframe steps.

    The strands share one commutator per step, so they all walk the longest
    of their shortest lengths, m_b; a walk that lands at some even length
    lands at every longer one.  Step pair q conjugates by P @ Y_q and
    P @ Y_q @ R, where Y_q holds the strands' walk frames and R their block
    rotations on the source blocks, and P aligns the source blocks with the
    target blocks: 2 * m_b steps in all, with e alternating 1, -1.
    """
    m = max(st.length for st in strands)
    # (strand, step, entry), made (step, strand, entry)
    blocks = np.array([st.block.frames(st.phi, m) for st in strands], dtype=complex)
    return CertRun(_alignment(n, strands), [st.source for st in strands],
                   blocks.transpose(1, 0, 2), np.resize([1, -1], 2 * m))


# ---------------------------------------------------------------------------
# theorem-level generators



class _Pair(NamedTuple):
    """A validated target and base with their spectra and eigenframes."""

    urep: UnitaryRep
    vrep: UnitaryRep
    uspec: CircleSpectrum
    uframe: object
    vspec: CircleSpectrum
    vframe: object


def _prepare_pair(u, v):
    urep = as_unitary(u, what="target")
    vrep = as_unitary(v, what="base")
    if urep.n != vrep.n:
        raise DimensionError("target and base sizes differ")
    return _Pair(urep, vrep, *diagonalize_normal(urep), *diagonalize_normal(vrep))


def _matched_layout(angles, diameter):
    """Base positions for the walks: the ends of diameter (the _diameter_pair
    of angles) at (0, 1), then the other angles in sorted order, i paired
    with i + floor((n - 2) / 2) at (2r, 2r + 1), and an odd one out last.

    Each matched pair spans about half of the spectrum, so every even and
    every odd factor of the target gets a wide source block of its own.
    """
    n = len(angles)
    _, i, j = diameter
    rest = [int(k) for k in np.argsort(angles, kind="stable") if k != i and k != j]
    h = (n - 2) // 2
    layout = [i, j]
    for r in range(h):
        layout += [rest[r], rest[r + h]]
    return np.array(layout + rest[2 * h :], dtype=np.int64)


def _plan_batches(factors, pairs, cap):
    """Shared batches for one parity group of disjoint factors (phi, target).

    Each round gives the largest remaining |phi| the widest pair (by class
    angle; pairs[0], the diameter pair, is one of the widest), the next the
    next widest, skipping vanishing gaps, and walks every factor whose walk
    fits in L in one batch; the rest go to the next round.  L minimises
    2L + sum of 2 * (diameter walk) over the factors left out: walking each
    of those alone on pairs[0] bounds what the later rounds spend, so the
    plan is never longer than one factor per batch on the widest gap.
    """
    ranked = sorted((p for p in pairs if p[1] is not None), key=lambda p: -p[1].theta)
    alone = {f: _plan_strand(phi, f, pairs[0], cap).length for phi, f in factors}
    rest = sorted(factors, key=lambda pf: -abs(pf[0]))
    batches = []
    while rest:
        matched = [_strand(phi, f, p, cap) for (phi, f), p in zip(rest, ranked)]
        matched += [None] * (len(rest) - len(matched))

        def cost(length):
            return 2 * length + sum(
                2 * alone[f] for (_, f), s in zip(rest, matched)
                if s is None or s.length > length
            )

        # the largest factor on the widest pair fits, so the batch is never empty
        best = min(
            {s.length for s in matched if s is not None},
            key=lambda length: (cost(length), -length),
        )
        batches.append([s for s in matched if s is not None and s.length <= best])
        rest = [pf for pf, s in zip(rest, matched) if s is None or s.length > best]
    return batches


def _walk_certificate(pair, theorem, m, s, admit, metadata):
    """The one gate and assembly of the walk generators.

    In order: a central target gets the empty certificate if that passes
    the product check; a central base raises DegenerateInputError; admit,
    the generator's own hypothesis check on the two spectra, raises if it
    fails (generate_full has none and passes None); then the walk, whose
    certificate must pass the product check (certificate._assembled).

    The walk factors the centered, prefix-ordered target into two-by-two
    blocks and walks the even and the odd ones in batches against the
    matched source pairs of the base (see _plan_batches).  Each batch walks
    the shortest even length, at most 4m, that reaches all of its strands.
    The steps stay in the eigenframes: the certificate stores the target's
    frame in angle-sum order and the base's frame in the matched layout
    once, and checks its product the way the verifier does.  The length is
    charged against theorem_budget of the tag and the params {m, s, n}.
    """
    urep, vrep, uspec, uframe, vspec, vframe = pair
    n = urep.n
    params = {"m": m, "s": s, "n": n}
    budget = theorem_budget(theorem, params)
    trivial = None
    if _is_central(uspec.angles):
        trivial = Certificate(urep.op, vrep.op, uframe, vframe, vspec.angles, uspec.angles,
                              (), theorem, params, {"trivial_target": True})

    def walk():
        diameter = _diameter_pair(vspec.angles)
        if diameter[0] <= _CENTRAL:
            raise DegenerateInputError("base is central and generates nothing")
        if admit is not None:
            admit(uspec, vspec)
        mult = 4 * m
        centered, phase = center_phase(uspec)
        order = angle_sum_optimalize(centered.angles)
        theta = order.values
        aframe = as_operator(uframe).columns(order.sigma)
        layout = _matched_layout(vspec.angles, diameter)
        gamma = vspec.angles[layout]
        bframe = as_operator(vframe).columns(layout)
        pairs = [(j, source_block(gamma[j] - gamma[j + 1])) for j in range(0, n - 1, 2)]

        prefix = np.cumsum(theta)
        # skipping a factor moves the product by at most |phi| in operator norm,
        # so the skipped ones stay within half of eq_tol's rounding allowance
        skip = 0.5 * TOL.eq_ulps * EPS
        batches = []
        for parity in (0, 1):
            phis = [(canon_angle(prefix[f]), f) for f in range(parity, n - 1, 2)]
            live = [(phi, f) for phi, f in phis if abs(phi) > skip]
            if live:
                batches += _plan_batches(live, pairs, mult)
        alone = sum(len(b) == 1 and b[0].source == 0 for b in batches)
        planner = {
            "batches": len(batches),
            "matched_strands": sum(map(len, batches)) - alone,
            "widest_gap_strands": alone,
        }
        runs = [_shared_run(n, strands) for strands in batches]
        k = sum(map(len, runs))
        if k > budget:
            raise BudgetInfeasibleError(
                f"construction used {k} conjugates, over budget {budget}"
            )
        meta = {"walk_multiplier": mult, **metadata, "centering_phase": float(phase),
                "planner": planner}
        return Certificate(urep.op, vrep.op, aframe, bframe, gamma, uspec.angles[order.sigma],
                           runs, theorem, params, meta)

    return _assembled(trivial, walk, {"target": urep.gram})


def generate_rank_dependent(u, v, m):
    """Certificate with at most 8*m*n conjugates via single-gap walks.

    Requires ell_0(u) <= m * ell_0(v).  Every block factor of the target
    walks with the shortest even walk that reaches it, of at most 4m steps
    (the walk multiplier), either in a shared batch on its matched source
    pair or alone on the widest gap of the base, whichever the planner
    finds shorter; a factor costs at most 8m conjugates over at most n-1
    factors.
    """
    m = int(m)
    if m <= 0:
        raise DomainError("multiplier must be positive")
    pair = _prepare_pair(u, v)

    def admit(uspec, vspec):
        ell_u = projective_s_number(uspec, 0)[0]
        ell_v = projective_s_number(vspec, 0)[0]
        if ell_u > m * ell_v + TOL.hyp_slack:
            raise BudgetInfeasibleError(
                f"ell_0(target) {ell_u:.6f} exceeds {m} * ell_0(base) {ell_v:.6f}"
            )

    return _walk_certificate(pair, "rank_dep", m, None, admit,
                             {"even_rounding": "4m is even"})


def generate_rank_independent(u, v, m, s):
    """Certificate with at most 24*m*ceil(n/s) conjugates via parallel walks.

    Requires the hypothesis ell_0(u) <= m * ell_t(v) for t < s.  The walks
    are those of every walk generator: even and odd factors in shared
    batches on the matched source pairs of the base, with walks of at most
    4m steps; s enters through the hypothesis and the budget.
    """
    m = int(m)
    s = int(s)
    if m <= 0:
        raise DomainError("multiplier must be positive")
    pair = _prepare_pair(u, v)
    n = pair.urep.n
    if not (1 <= s <= (n - 1) // 2 + 1):
        raise DomainError(f"block count {s} out of range for size {n}")

    def admit(uspec, vspec):
        report = hypothesis_check(uspec, vspec, m, s)
        if not report.satisfied:
            raise HypothesisError("generation hypothesis fails; see attached report", report)

    return _walk_certificate(pair, "rank_indep", m, s, admit,
                             {"even_rounding": "4m is even"})


def generate_full(u, v):
    """Certificate with at most 8*n*ceil(2/ell_0(v)) conjugates.

    Works for every noncentral base: ell_0 of any unitary is at most 2, so
    the multiplier ceil(2/ell_0(v)) always satisfies the single-gap
    hypothesis.
    """
    pair = _prepare_pair(u, v)
    ell_v = projective_s_number(pair.vspec, 0)[0]
    if ell_v <= TOL.rank:
        raise DegenerateInputError(
            "base has vanishing projective length and generates nothing"
        )
    m = int(math.ceil(2.0 / ell_v - 1e-12))
    return _walk_certificate(pair, "full_gen", m, None, None,
                             {"derived_multiplier": f"ceil(2/{ell_v:.6f})"})



# ---------------------------------------------------------------------------
# obstruction


def counterexample_pair(n, lam=None, mu=None):
    """Pair with small projective values needing at least n-1 conjugates.

    Both matrices are scalar except for one balancing entry, so every
    conjugate of the base is a rank-one perturbation of a scalar and k of
    them cannot fix more than k eigenvalues of the target.  Generic phases
    (defaults with irrational ratios) keep the obstruction alive, which the
    block-count feasibility report reflects.
    """
    n = int(n)
    if n < 2:
        raise DomainError("need size at least 2")
    if lam is None:
        lam = complex(np.exp(1j * math.sqrt(2.0)))
    if mu is None:
        mu = complex(np.exp(1j * math.sqrt(3.0)))
    lam = complex(lam)
    mu = complex(mu)
    for z, name in ((lam, "lam"), (mu, "mu")):
        if abs(abs(z) - 1.0) > 1e-12:
            raise DomainError(f"{name} must lie on the unit circle")
    u = np.array([lam ** (-(n - 1))] + [lam] * (n - 1), dtype=complex)
    v = np.array([mu ** (-(n - 1))] + [mu] * (n - 1), dtype=complex)
    # the rank of the diagonal diag(u) * lam^(n-1) - I, without an n x n SVD
    aligned = int(np.count_nonzero(np.abs(u * lam ** (n - 1) - 1.0) > TOL.rank))
    return {
        "u": UnitaryRep(Monomial(np.arange(n), u)),
        "v": UnitaryRep(Monomial(np.arange(n), v)),
        "lower_bound": n - 1,
        "aligned_rank_distance": RankDistance(aligned, n),
        "lam": lam,
        "mu": mu,
    }
