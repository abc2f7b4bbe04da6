"""Reference least squares for the tests that compare a factorized
statistic against a loop of separate regressions."""

import numpy as np
import scipy.linalg


def ols(x, y):
    """Coefficients and residuals of ``y`` on ``x`` from scipy's economic
    column-pivoted QR and a triangular solve, with a 1-d ``y`` solved as one
    column: bitwise what ``cointegra.linalg.ols`` returned while it solved
    this way, so the loops keep their reference numbers."""
    y = np.asarray(y, dtype=float)
    rhs = y[:, None] if y.ndim == 1 else y
    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    coef = np.empty((x.shape[1], rhs.shape[1]))
    coef[piv] = scipy.linalg.solve_triangular(r, q.T @ rhs)
    resid = rhs - x @ coef
    return (coef[:, 0], resid[:, 0]) if y.ndim == 1 else (coef, resid)
