"""Result checks that do not go through the program's formats, drivers
or solvers: scipy recomputes ``A @ x`` from the generated COO arrays."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: A solution passes when its true relative residual ‖b − A x‖ / ‖b‖
#: is within this factor of the solver's tolerance (the recurrence
#: residual the solver stops on drifts slightly from the true one).
RESIDUAL_SLACK = 10.0
#: A product passes when every entry is within this share of the
#: largest entry of scipy's ``A @ x`` (the summation orders differ).
MATVEC_RTOL = 1e-12


class Oracle:
    def __init__(self, coo):
        self.csr = sp.csr_matrix(
            (np.asarray(coo.vals, dtype=np.float64),
             (np.asarray(coo.rows), np.asarray(coo.cols))),
            shape=coo.shape,
        )

    def residual(self, b: np.ndarray, x: np.ndarray) -> float:
        return float(
            np.linalg.norm(b - self.csr @ x) / np.linalg.norm(b)
        )

    def multiplies(self, x: np.ndarray, y: np.ndarray) -> bool:
        """True when ``y`` is ``A @ x`` up to rounding."""
        expected = self.csr @ x
        scale = MATVEC_RTOL * float(np.abs(expected).max())
        return bool(np.all(np.abs(y - expected) <= scale))

    def solves(self, b: np.ndarray, x: np.ndarray, tol: float) -> bool:
        """True when ``x`` is finite and solves ``A x = b`` to
        ``RESIDUAL_SLACK * tol``."""
        return bool(np.all(np.isfinite(x))) and (
            self.residual(b, x) <= RESIDUAL_SLACK * tol
        )
