"""The 2x2 step engine: walking one rotation to another by conjugates.

Everything here happens in SU(2), where the conjugacy class of a rotation
diag(e^{ia}, e^{-ia}) is determined by the class angle |a| in [0, pi].  One
multiplication by a conjugate of a generator of class theta moves the class
angle a into [|a - theta|, min(a + theta, 2 pi - a - theta)].  For theta in
(0, pi/2], the only classes source_block makes, k >= 2 conjugates therefore
reach every class in [0, min(k theta, pi)], so the shortest walk, its
waypoints and the class angle itself are closed forms; each step is then
realized with an explicit partial-step matrix whose off-diagonal entry
spends exactly the right amount of the generator's angle.  The final frame
correction makes the product land on the reference rotation exactly, not
just up to conjugacy.

The walks run on 2x2 matrices held as scalar tuples.  The public surface is
walk_length, the shortest walk in closed form, and source_block, whose
SourceBlock makes a base block's commutator once and then walks any number
of block targets on it.
"""

from dataclasses import dataclass
import cmath
import math

import numpy as np

from .config import EPS
from .errors import (
    BudgetInfeasibleError,
    DomainError,
    NumericalDegeneracyError,
    PreconditionError,
)
from .spectral import canon_angle

# 2x2 matrices on the walk path are (a, b, c, d) row-major tuples of Python
# complex numbers: scalar arithmetic beats numpy's per-call cost at this size
_EYE = (1 + 0j, 0j, 0j, 1 + 0j)
_SWAP = (0j, 1 + 0j, -1 + 0j, 0j)
_SWAP_ADJ = (0j, -1 + 0j, 1 + 0j, 0j)


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _adj(x):
    a, b, c, d = x
    return (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())


def _defect(x):
    """Max-norm of x @ x* - I, the max-norm half of Dense.gram_defect."""
    a, b, c, d = x
    return max(
        abs(abs(a) ** 2 + abs(b) ** 2 - 1.0),
        abs(abs(c) ** 2 + abs(d) ** 2 - 1.0),
        abs(a * c.conjugate() + b * d.conjugate()),
    )


def _reference_frame(v, theta):
    """Unitary g with g @ diag(e^{i theta}, e^{-i theta}) @ g* = v.

    Closed-form 2x2 eigenvector extraction; the phase is fixed by making the
    largest-modulus entry of the first column real positive.  A walk calls
    it twice on each step that is not diagonal (see _walk_positive).
    """
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


def _diagonal_frame(p, alpha):
    """_reference_frame of diag(p, conj(p)) in the class of alpha in [0, pi]:
    the identity when p lies on the side of e^{+i alpha} (or the class is
    central), else the swap."""
    return _EYE if p.imag * math.sin(alpha) >= 0.0 else _SWAP_ADJ


def _climb(target, theta, cap):
    """Least even m >= 2 with target <= m theta + 1e-12, or None when that
    exceeds the even cap: the shortest walk to the class target by
    theta-conjugates, theta in (0, pi/2], since k >= 2 of them reach every
    class in [0, min(k theta, pi)]."""
    if target > cap * theta + 1e-12:
        return None
    m = 2 * max(1, math.ceil(max(0.0, target - 1e-12) / (2.0 * theta)))
    # the quotient may round across an integer either way
    if target > m * theta + 1e-12:
        m += 2
    elif m > 2 and target <= (m - 2) * theta + 1e-12:
        m -= 2
    return m


def _plan_waypoints(target, theta, m):
    """Class-angle waypoints alpha_1..alpha_m with alpha_m = target, each
    consecutive pair one theta-conjugate apart, for theta in (0, pi/2] and
    even m >= _climb(target, theta, m).

    The m - c surplus steps over the shortest climb c go first, as pairs
    (theta, 0): from 0 the step is diagonal, and back to 0 its conjugator is
    the swap.  The climb then takes full steps up to min(target, pi - theta)
    and lands on target with the last one.  It accumulates a + theta rather
    than forming k theta, so every full step stays exactly diagonal (see
    _step_to).
    """
    c = _climb(target, theta, m)
    top = min(target, math.pi - theta)
    alphas = [theta, 0.0] * ((m - c) // 2) + [theta]
    for _ in range(c - 2):
        alphas.append(min(alphas[-1] + theta, top))
    return alphas + [target]


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
    as scalar 2x2 tuples, for theta in (0, pi/2] and even
    m >= _climb(target, theta, m)."""
    frame = _EYE
    conjugators = []
    prev = 0.0
    for alpha in _plan_waypoints(target, theta, m):
        vp = _step_to(prev, alpha, theta)
        # D(prev) @ vp scales the rows by e^{+-i prev}
        z = cmath.exp(1j * prev)
        a, b, c, d = vp
        if b:
            conjugators.append(_mul(frame, _reference_frame(vp, theta)))
            mstep = (z * a, z * b, z.conjugate() * c, z.conjugate() * d)
            frame = _mul(frame, _reference_frame(mstep, alpha))
        else:
            # a full climb step or a surplus (theta, 0) pair: both the step
            # and D(prev) @ step are diagonal, framed by I or the swap
            conjugators.append(_mul(frame, _diagonal_frame(a, theta)))
            frame = _mul(frame, _diagonal_frame(z * a, alpha))
        prev = alpha
    # pull the whole walk back so the product is exactly D(target)
    back = _adj(frame)
    return [_mul(back, g) for g in conjugators]


def walk_length(phi, theta, cap):
    """Smallest even m <= cap for which _walk(phi, theta, m) succeeds: the
    least even m >= 2 with |phi| <= m theta (see _climb).  A walk that lands
    at m lands at every larger even length as well.

    theta is a class angle in (0, pi/2], the only classes source_block
    makes; any other theta, or a cap that is not a positive even integer,
    raises DomainError.  Raises BudgetInfeasibleError when no length up to
    cap lands.
    """
    if not isinstance(cap, (int, np.integer)) or cap <= 0 or cap % 2 != 0:
        raise DomainError(f"step budget must be a positive even integer, got {cap}")
    theta = float(theta)
    if not 0.0 < theta <= 0.5 * math.pi:
        raise DomainError(f"class angle {theta!r} is outside (0, pi/2]")
    ph = abs(canon_angle(float(phi)))
    shortest = _climb(ph, theta, cap)
    if shortest is None:
        raise BudgetInfeasibleError(
            f"|phi| = {ph:.6f} needs more than {cap} steps of class {theta:.6f}"
        )
    return shortest


def _walk(phi, theta, m):
    """Conjugators g_1..g_m and their shared exponent e writing
    diag(e^{i phi}, e^{-i phi}) as the product of g @ D(theta)^e @ g*, with
    D(theta) = diag(e^{i theta}, e^{-i theta}).

    Takes what walk_length takes and needs an even m no shorter than its
    length; a negative phi walks |phi| backwards with exponent -1.  Every
    conjugator is checked unitary to 1e-9.
    """
    walk_length(phi, theta, m)
    phi = canon_angle(float(phi))
    conjugators = _walk_positive(abs(phi), float(theta), m)
    if max(_defect(g) for g in conjugators) > 1e-9:
        raise DomainError("step conjugator must be unitary")
    if phi < 0.0:
        conjugators.reverse()
        return conjugators, -1
    return conjugators, 1


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
        as 2m scalar 2x2 tuples in step order: y_q, then y_q @ rotation, for
        the y_q with prod y_q @ comm @ y_q* equal to the target."""
        conjugators, exponent = _walk(phi, self.theta, m)
        # conjugating by _SWAP flips the commutator's class to its inverse
        ref_h = self.ref_h if exponent == 1 else _mul(_SWAP, self.ref_h)
        # closed-loop guard: the frames must reassemble the target exactly;
        # (w, x, u, v) accumulates the product of y @ commutator @ y*
        p, q, r, s = self.commutator
        w, x, u, v = _EYE
        out = []
        for g in conjugators:
            y = _mul(g, ref_h)
            out += (y, _mul(y, self.rotation))
            a, b, c, d = y
            e, f, k, h = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
            a, b, c, d = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
            t00, t01 = e * a + f * b, e * c + f * d
            t10, t11 = k * a + h * b, k * c + h * d
            w, x, u, v = (w * t00 + x * t10, w * t01 + x * t11,
                          u * t00 + v * t10, u * t01 + v * t11)
        z = cmath.exp(1j * phi)
        if max(abs(w - z), abs(x), abs(u), abs(v - z.conjugate())) > 1e-9:
            raise NumericalDegeneracyError("strand walk drifted off its target")
        return out


def source_block(delta):
    """The SourceBlock of a base block whose two angles differ by delta, or
    None when the gap vanishes.

    The commutator of the block with a rotation by t has class angle c(t)
    with cos c = 1 - sin(t)^2 (1 - cos gap); a full swap gives the gap
    itself, and when the gap passes a quarter turn a partial rotation pins
    the class to pi/2, from which two steps reach any angle.  The class
    angle is therefore min(|gap|, pi/2), read off the gap rather than off
    the commutator's trace, whose acos loses up to eps / sin(theta).
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
    theta = min(abs(delta), 0.5 * math.pi)
    return SourceBlock(rot, comm, theta, _adj(_reference_frame(comm, theta)))
