"""The 2x2 step engine: walking one rotation to another by conjugates.

Everything here happens in SU(2), where the conjugacy class of a rotation
diag(e^{ia}, e^{-ia}) is determined by the class angle |a| in [0, pi].  One
multiplication by a conjugate of the generator moves the class angle within
an explicitly computable interval, so a walk is planned by iterating interval
arithmetic forward (which step counts can reach the target?), backtracking
waypoints, and then realizing each step with an explicit partial-step matrix
whose off-diagonal entry spends exactly the right amount of the generator's
angle.  The final frame correction makes the product land on the reference
rotation exactly, not just up to conjugacy.
"""

from dataclasses import dataclass
import cmath
import itertools
import math

import numpy as np

from .config import EPS
from .errors import (
    BudgetInfeasibleError,
    DegenerateInputError,
    DomainError,
    NumericalDegeneracyError,
    PreconditionError,
)
from .spectral import canon_angle, unitarity_defect

# 2x2 matrices on the walk path are (a, b, c, d) row-major tuples of Python
# complex numbers: scalar arithmetic beats numpy's per-call cost at this size
_EYE = (1 + 0j, 0j, 0j, 1 + 0j)
_SWAP = (0j, 1 + 0j, -1 + 0j, 0j)


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _adj(x):
    a, b, c, d = x
    return (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())


def _defect(x):
    """Max-norm of x @ x* - I, as unitarity_defect computes it."""
    a, b, c, d = x
    return max(
        abs(abs(a) ** 2 + abs(b) ** 2 - 1.0),
        abs(abs(c) ** 2 + abs(d) ** 2 - 1.0),
        abs(a * c.conjugate() + b * d.conjugate()),
    )


def _array(x):
    a, b, c, d = x
    return np.array(((a, b), (c, d)), dtype=complex)


def reference_rotation(angle):
    """diag(e^{ia}, e^{-ia})."""
    return np.diag([np.exp(1j * angle), np.exp(-1j * angle)])


def rotation_class_angle(u):
    """Class angle in [0, pi] of an SU(2) element, from the real trace."""
    u = np.asarray(u, dtype=complex)
    return _class_angle(float(np.real(np.trace(u))) / 2.0)


def _class_angle(half_trace):
    return math.acos(min(1.0, max(-1.0, half_trace)))


@dataclass(frozen=True)
class Su2Step:
    """One conjugate in a walk: contributes conjugator @ v^exponent @ conjugator*."""

    conjugator: np.ndarray
    exponent: int

    def __post_init__(self):
        g = np.asarray(self.conjugator, dtype=complex)
        if g.shape != (2, 2):
            raise DomainError("step conjugator must be 2x2")
        if unitarity_defect(g) > 1e-9:
            raise DomainError("step conjugator must be unitary")
        if self.exponent not in (1, -1):
            raise DomainError("step exponent must be +1 or -1")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "conjugator", g)


def su2_step_matrix(theta, theta1):
    """Partial step: conjugate of diag(e^{i theta}, e^{-i theta}) that spends
    only theta1 of the rotation diagonally, the rest going off-diagonal."""
    st = math.sin(theta)
    s1 = math.sin(theta1)
    gap = st * st - s1 * s1
    if gap < -1e-12:
        raise DomainError(
            f"step angle {theta1:.6f} exceeds the generator angle {theta:.6f}"
        )
    b = math.sqrt(max(gap, 0.0))
    c = math.cos(theta)
    return np.array([[c + 1j * s1, b], [-b, c - 1j * s1]], dtype=complex)


def conjugator_to_reference(vprime, theta):
    """Unitary g with g @ reference_rotation(theta) @ g* = vprime.

    Closed-form 2x2 eigenvector extraction; the phase is fixed by making the
    largest-modulus entry of the first column real positive.
    """
    v = np.asarray(vprime, dtype=complex)
    if v.shape != (2, 2):
        raise DomainError("need a 2x2 matrix")
    (a, b), (c, d) = v.tolist()
    return _array(_reference_frame((a, b, c, d), theta))


def _reference_frame(v, theta):
    """conjugator_to_reference on a scalar 2x2 tuple: this runs twice per
    walk step."""
    a, b, c, d = v
    want = 2.0 * math.cos(theta)
    tr = a + d
    if abs(tr.real - want) > 1e-9 or abs(tr.imag) > 1e-9:
        raise PreconditionError(
            f"trace {tr.real:.3e} does not match the class of angle {theta:.6f}"
        )
    # columns of v - e^{-i theta} I span the e^{+i theta} eigenvector
    z = cmath.exp(-1j * theta)
    a -= z
    d -= z
    n0 = math.sqrt(a.real * a.real + c.real * c.real
                   + (a.imag * a.imag + c.imag * c.imag))
    n1 = math.sqrt(b.real * b.real + d.real * d.real
                   + (b.imag * b.imag + d.imag * d.imag))
    x0, x1, nrm = (a, c, n0) if n0 >= n1 else (b, d, n1)
    # a class central to rounding: anything commutes, the identity frame
    # works.  Any larger nrm still gives the frame to rounding, since an
    # eigenvector error of eps / nrm costs eps / nrm * nrm in the rebuild.
    if nrm <= 8.0 * EPS:
        return _EYE
    x0 /= nrm
    x1 /= nrm
    top = x0 if abs(x0) >= abs(x1) else x1
    ph = (top / abs(top)).conjugate()
    x0 *= ph
    x1 *= ph
    return (x0, -x1.conjugate(), x1, x0.conjugate())


def _reach(alpha, theta):
    """Interval of class angles reachable from alpha by one theta-conjugate."""
    lo = abs(alpha - theta)
    hi = min(alpha + theta, 2.0 * math.pi - alpha - theta)
    return lo, hi


def _reach_interval(lo, hi, theta):
    if lo <= theta <= hi:
        new_lo = 0.0
    else:
        new_lo = min(abs(lo - theta), abs(hi - theta))
    astar = min(max(math.pi - theta, lo), hi)
    new_hi = min(astar + theta, 2.0 * math.pi - astar - theta)
    return new_lo, new_hi


def _reach_intervals(theta):
    """Intervals (lo, hi) of class angles reachable by exactly 1, 2, 3, ...
    theta-conjugates."""
    lo = hi = theta
    while True:
        yield lo, hi
        lo, hi = _reach_interval(lo, hi, theta)


def _lands(target, lo, hi):
    return lo - 1e-12 <= target <= hi + 1e-12


def _plan_waypoints(target, theta, m):
    """Class-angle waypoints alpha_1..alpha_m with alpha_m = target, each
    consecutive pair one conjugate apart.  None if m steps cannot land."""
    los, his = zip(*itertools.islice(_reach_intervals(theta), m))
    if not _lands(target, los[-1], his[-1]):
        return None
    alphas = [min(max(target, los[-1]), his[-1])]
    for k in range(m - 2, -1, -1):
        r_lo, r_hi = _reach(alphas[-1], theta)
        lo = max(los[k], r_lo)
        hi = min(his[k], r_hi)
        if lo > hi:
            if lo - hi > 1e-9:
                raise NumericalDegeneracyError("waypoint backtracking failed")
            lo = hi = 0.5 * (lo + hi)
        alphas.append(min(max(alphas[-1], lo), hi))
    alphas.reverse()
    return alphas


def _step_to(alpha, beta, theta):
    """Partial step v' with D(alpha) @ v' in the class of beta, as a scalar
    2x2 tuple.

    The diagonal share sin(theta1) solves cos(beta) = cos(alpha)cos(theta)
    - sin(alpha)sin(theta1).  Both sin(theta) -+ sin(theta1) are computed in
    product form so a step landing on the reach boundary (a full step) comes
    out exactly diagonal instead of picking up a sqrt(eps) off-diagonal.
    """
    c = math.cos(theta)
    sa = math.sin(alpha)
    if abs(sa) <= 1e-12:
        # from a central point the only reachable class is theta away
        s1 = math.sin(theta)
        return (complex(c, s1), 0j, 0j, complex(c, -s1))
    d_hi = max(0.0, alpha + theta - beta)
    d_lo = max(0.0, beta - (alpha - theta))
    f_hi = max(0.0, 2.0 * math.sin(0.5 * (alpha + theta + beta))
               * math.sin(0.5 * d_hi) / sa)
    f_lo = max(0.0, 2.0 * math.sin(0.5 * (alpha - theta + beta))
               * math.sin(0.5 * d_lo) / sa)
    s1 = 0.5 * (f_lo - f_hi)
    cap = abs(math.sin(theta))
    if abs(s1) > cap:
        if abs(s1) > cap + 1e-9:
            raise NumericalDegeneracyError("step angle out of range")
        s1 = math.copysign(cap, s1)
    b = math.sqrt(f_hi * f_lo)
    return (complex(c, s1), complex(b), complex(-b), complex(c, -s1))


def _walk_positive(target, theta, m):
    """Exact walk: m conjugators c_k with prod c_k D(theta) c_k* = D(target),
    as scalar 2x2 tuples."""
    alphas = _plan_waypoints(target, theta, m)
    if alphas is None:
        return None
    frame = _EYE
    conjugators = []
    prev = 0.0
    for alpha in alphas:
        vp = _step_to(prev, alpha, theta)
        conjugators.append(_mul(frame, _reference_frame(vp, theta)))
        # D(prev) @ vp scales the rows by e^{+-i prev}
        z = cmath.exp(1j * prev)
        a, b, c, d = vp
        mstep = (z * a, z * b, z.conjugate() * c, z.conjugate() * d)
        frame = _mul(frame, _reference_frame(mstep, alpha))
        prev = alpha
    # pull the whole walk back so the product is exactly D(target)
    back = _adj(frame)
    return [_mul(back, g) for g in conjugators]


def _walk_angles(phi, theta, m):
    """Validated canonical (phi, theta) and their moduli, plus whether the
    generator is projectively central; raises what su2_walk raises before
    planning."""
    if not isinstance(m, (int, np.integer)) or m <= 0 or m % 2 != 0:
        raise DomainError(f"step budget must be a positive even integer, got {m}")
    phi = canon_angle(float(phi))
    theta = canon_angle(float(theta))
    ph = abs(phi)
    th = abs(theta)
    central = th <= 1e-12 or math.pi - th <= 1e-12
    if central and min(ph, math.pi - ph) > 1e-12:
        # the generator is projectively central: only central targets work
        raise DegenerateInputError(
            f"generator angle {theta:.6f} is central, cannot reach {phi:.6f}"
        )
    if not central and ph > m * th + 1e-12:
        raise BudgetInfeasibleError(
            f"|phi| = {ph:.6f} exceeds budget {m} * |theta| = {m * th:.6f}"
        )
    return phi, theta, ph, th, central


def walk_length(phi, theta, cap):
    """Smallest even m <= cap for which su2_walk(phi, theta, m) succeeds.

    One pass over the reach intervals the walk planner iterates: m steps
    land when |phi| <= m|theta| and |phi| or its mirror pi - |phi| lies in
    the m-step interval.  From two steps on the interval starts at 0 (two
    steps can cancel), so a walk that lands at m lands at every larger even
    length as well.  Raises what su2_walk(phi, theta, cap) raises when no
    length up to cap lands.
    """
    _, _, ph, th, central = _walk_angles(phi, theta, cap)
    if central:
        return 2
    for m, (lo, hi) in enumerate(itertools.islice(_reach_intervals(th), cap), 1):
        if m % 2 == 0 and ph <= m * th + 1e-12 and (
            _lands(ph, lo, hi) or _lands(math.pi - ph, lo, hi)
        ):
            return m
    raise BudgetInfeasibleError(
        f"no walk of at most {cap} steps reaches class {ph:.6f} with angle {th:.6f}"
    )


def _walk(phi, theta, m):
    """su2_walk on scalar 2x2 tuples: the conjugators, each checked unitary
    to the Su2Step bound, and their shared exponent."""
    phi, theta, ph, th, central = _walk_angles(phi, theta, m)
    if central:
        return [_EYE] * m, 1

    conjugators = _walk_positive(ph, th, m)
    if conjugators is None:
        # same projective target through the mirrored class angle
        conjugators = _walk_positive(math.pi - ph, th, m)
        if conjugators is None:
            raise BudgetInfeasibleError(
                f"no {m}-step walk reaches class {ph:.6f} with angle {th:.6f}"
            )
        conjugators = [_mul(_SWAP, g) for g in conjugators]
    if max(_defect(g) for g in conjugators) > 1e-9:
        raise DomainError("step conjugator must be unitary")

    exponent = 1 if (phi >= 0.0) == (theta >= 0.0) else -1
    if phi < 0.0:
        conjugators.reverse()
    return conjugators, exponent


def su2_walk(phi, theta, m):
    """Steps writing diag(e^{i phi}, e^{-i phi}) as m conjugates of the
    generator rotation diag(e^{i theta}, e^{-i theta}), up to global sign.

    Needs |phi| <= m|theta| (canonical branch moduli) and even m; with
    opposite signs of phi and theta, the exponents flip.  The product of
    conjugator @ generator^exponent @ conjugator* over the returned steps
    equals the target up to a global factor of -1.
    """
    conjugators, exponent = _walk(phi, theta, m)
    return [Su2Step(_array(g), exponent) for g in conjugators]


@dataclass(frozen=True)
class SourceBlock:
    """A source block diag(e^{ia}, e^{ib}) of the base and the block rotation
    r that drives walks on it: the commutator D r D* r*, its class angle
    theta, and ref_h, the adjoint of a frame taking the reference rotation
    of angle theta to that commutator.

    Made once per block by source_block; frames then walks any number of
    block targets on it.
    """

    rotation: tuple
    commutator: tuple
    theta: float
    ref_h: tuple

    def frames(self, phi, m):
        """Eigenframe blocks of an m-step walk to diag(e^{i phi}, e^{-i phi}),
        as two (m, 2, 2) arrays: the y_q with prod y_q @ comm @ y_q* equal
        to the target, and the y_q @ rotation."""
        conjugators, exponent = _walk(phi, self.theta, m)
        # conjugating by _SWAP flips the commutator's class to its inverse
        ref_h = self.ref_h if exponent == 1 else _mul(_SWAP, self.ref_h)
        ys = [_mul(g, ref_h) for g in conjugators]
        # closed-loop guard: the frames must reassemble the target exactly
        prod = _EYE
        for y in ys:
            prod = _mul(prod, _mul(_mul(y, self.commutator), _adj(y)))
        z = cmath.exp(1j * phi)
        if max(abs(p - w) for p, w in zip(prod, (z, 0j, 0j, z.conjugate()))) > 1e-9:
            raise NumericalDegeneracyError("strand walk drifted off its target")
        rotated = [_mul(y, self.rotation) for y in ys]
        return (
            np.array(ys, dtype=complex).reshape(m, 2, 2),
            np.array(rotated, dtype=complex).reshape(m, 2, 2),
        )


def source_block(delta):
    """The SourceBlock of a base block whose two angles differ by delta, or
    None when the gap vanishes.

    The commutator of the block with a rotation by t has class angle c(t)
    with cos c = 1 - sin(t)^2 (1 - cos gap); a full swap gives the gap
    itself, and when the gap passes a quarter turn a partial rotation pins
    the class to pi/2, from which two steps reach any angle.
    """
    delta = canon_angle(delta)
    if abs(delta) <= 1e-12:
        return None
    if abs(delta) <= 0.5 * math.pi + 1e-12:
        t = 0.5 * math.pi
    else:
        t = math.asin(min(1.0, 1.0 / math.sqrt(1.0 - math.cos(delta))))
    c, s = math.cos(t), math.sin(t)
    rot = (complex(c), complex(s), complex(-s), complex(c))
    # D @ rot @ D* scales entry (a, b) of rot by e^{i(g_a - g_b)}
    z = cmath.exp(1j * delta)
    comm = _mul((rot[0], rot[1] * z, rot[2] * z.conjugate(), rot[3]), _adj(rot))
    theta = _class_angle(0.5 * (comm[0] + comm[3]).real)
    return SourceBlock(rot, comm, theta, _adj(_reference_frame(comm, theta)))
