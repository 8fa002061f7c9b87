"""Central configuration: every tolerance and size limit in one record, and
the names of the certificate generators.

All matrix norms in this package are trace-normalized (the identity has
1-norm and 2-norm equal to 1), so the tolerances below are dimension-free;
only the product tolerance grows with n, as the rounding of an n x n product
does.
"""

import sys

EPS = sys.float_info.epsilon

# the certificate generators, in the order run_corpus cycles through them
MODES = ("rank-dep", "rank-indep", "full", "pipeline", "broise")


class Tolerances:
    """Read-only class-level values: assigning TOL.ell raises AttributeError."""

    __slots__ = ()

    unitarity = 1e-9      # max-norm defect allowed in U @ U.conj().T - I
    rank = 1e-9           # singular values above this count toward rank
    ell = 1e-8            # slack when checking projective profile values
    eq_ulps = 128.0       # product rounding allowance, units of n * eps per step
    hyp_slack = 1e-9      # slack in hypothesis inequalities
    tie_rel = 1e-9        # relative tie window in gap orderings
    diag_residual = 1e-8  # reconstruction defect in eigendecompositions
    s0_max = 5040         # largest common-denominator embedding dimension

    def eq_tol(
        self, steps: int, n: int, defect: float = 0.0, target_defect: float = 0.0
    ) -> float:
        """Entrywise tolerance for an n x n product of `steps` conjugates
        compared with a target.

        Each factor may add eq_ulps * n * eps of rounding plus defect, an
        operator-norm bound summed over the defect matrices of the factors'
        unitary frames and of the stored base diagonalization (their
        Frobenius norms, which bound the operator norm and never exceed n
        times the max-norm); one more factor covers the final change of
        frame.  Honest certificates of the test and corpus pools stay below
        24 units of (steps + 1) * n * eps, the worst at n = 2.  The product
        is unitary, so it cannot come closer to the target than the
        target's distance to the nearest unitary, which target_defect, the
        Frobenius norm of T T* - I, bounds.
        """
        return (steps + 1) * (n * self.eq_ulps * EPS + defect) + target_defect


TOL = Tolerances()
