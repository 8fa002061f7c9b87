"""Central numeric configuration: every tolerance and size limit in one record.

All matrix norms in this package are trace-normalized (the identity has
1-norm and 2-norm equal to 1), so the tolerances below are dimension-free.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    unitarity: float = 1e-9      # max-norm defect allowed in U @ U.conj().T - I
    rank: float = 1e-9           # singular values above this count toward rank
    ell: float = 1e-8            # slack when checking projective profile values
    eq_base: float = 1e-7        # projective equality: eq_base * (steps + 1)
    hyp_slack: float = 1e-9      # slack in hypothesis inequalities
    tie_rel: float = 1e-9        # relative tie window in gap orderings
    diag_residual: float = 1e-8  # reconstruction defect in eigendecompositions
    diag_retries: int = 8
    s0_max: int = 5040           # largest common-denominator embedding dimension
    exhaustive_n: int = 8        # exhaustive ordering search up to this size

    def eq_tol(self, steps: int) -> float:
        """Projective equality tolerance for a product of `steps` factors."""
        return self.eq_base * (steps + 1)


TOL = Tolerances()
