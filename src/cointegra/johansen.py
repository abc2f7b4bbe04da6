"""Johansen reduced-rank cointegration testing.

Builds the product-moment matrices S00, S01, S11 from the level/difference
regressions, solves the generalized eigenproblem, and forms trace and
max-eigenvalue statistics. Rank selection compares the trace statistic to
embedded 5% critical values; the max-eigenvalue statistic is reported for
audit only. S00 serves the singularity check and the eigenproblem; the
result keeps S01 and S11, from which the fit computes alpha.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    LeadingBlockSingular,
    NumericalFailure,
    SampleTooShort,
    SingularS00,
)
from .linalg import (
    RANK_TOL,
    cholesky,
    generalized_sym_eig,
    lstsq,
    qr_r,
    rank_deficient,
    solve_triangular,
)

_EIG_TOL = 1e-10


class DeterministicCase(enum.Enum):
    """Deterministic-term configuration of the cointegrated system.

    Restricted terms enter the cointegration relation (appended to the
    lagged-level block); unrestricted terms enter the short-run regression.
    """

    NONE = "none"
    RESTRICTED_CONSTANT = "restrictedConstant"
    UNRESTRICTED_CONSTANT = "unrestrictedConstant"

    @classmethod
    def parse(cls, text) -> "DeterministicCase":
        if isinstance(text, cls):
            return text
        aliases = {
            "none": cls.NONE,
            "rconst": cls.RESTRICTED_CONSTANT,
            "restrictedconstant": cls.RESTRICTED_CONSTANT,
            "uconst": cls.UNRESTRICTED_CONSTANT,
            "unrestrictedconstant": cls.UNRESTRICTED_CONSTANT,
        }
        # Only a string names a case: str(None) would read as "none".
        key = text.strip().lower() if isinstance(text, str) else None
        if key not in aliases:
            raise ValueError(f"unknown deterministic case {text!r}")
        return aliases[key]

    @property
    def short(self) -> str:
        return {
            DeterministicCase.NONE: "none",
            DeterministicCase.RESTRICTED_CONSTANT: "rconst",
            DeterministicCase.UNRESTRICTED_CONSTANT: "uconst",
        }[self]


# 5% critical values indexed by remaining dimension n-r = 1..6. The
# no-deterministics and restricted-constant columns are the standard
# asymptotic tables. The unrestricted-constant column is calibrated for
# driftless data (dimension 1 anchored at the squared Dickey-Fuller tau-mu
# quantile, higher dimensions simulated): rank decisions are then correctly
# sized for non-trending series and err conservative when a drift is present.
TRACE_CV5 = {
    DeterministicCase.NONE: (4.1296, 12.3212, 24.2761, 40.1749, 60.0627, 83.9383),
    DeterministicCase.RESTRICTED_CONSTANT: (
        9.1645, 20.2618, 35.1928, 54.0790, 76.9728, 103.8473,
    ),
    DeterministicCase.UNRESTRICTED_CONSTANT: (
        8.18, 18.01, 32.02, 49.92, 71.67, 97.17,
    ),
}


@dataclass
class JohansenResult:
    """Eigenvalues, statistics, and the rank decision for one system.

    ``trace_cv5[r]`` is the 5% critical value of the trace test of rank r.
    ``s01`` and ``s11`` are the product moments S01 and S11 that the fit's
    adjustment coefficients are computed from.
    """

    eigenvalues: np.ndarray
    trace_stats: np.ndarray
    max_eig_stats: np.ndarray
    trace_cv5: np.ndarray
    selected_rank: int
    beta: np.ndarray
    s01: np.ndarray
    s11: np.ndarray
    case: DeterministicCase
    k: int
    t_eff: int


def _design_blocks(x: np.ndarray, k: int, case: DeterministicCase):
    t, n = x.shape
    dx = np.diff(x, axis=0)
    z0 = dx[k - 1 :]
    t_eff = z0.shape[0]
    ones = np.ones((t_eff, 1))

    z1_cols = [x[k - 1 : t - 1]]
    if case is DeterministicCase.RESTRICTED_CONSTANT:
        z1_cols.append(ones)
    z1 = np.hstack(z1_cols)

    z2_cols = [dx[k - 1 - i : dx.shape[0] - i] for i in range(1, k)]
    if case is DeterministicCase.UNRESTRICTED_CONSTANT:
        z2_cols.append(ones)
    z2 = np.hstack(z2_cols) if z2_cols else None
    return z0, z1, z2, t_eff


def _partial_out(z0, z1, z2):
    if z2 is None:
        return z0, z1
    return z0 - z2 @ lstsq(z2, z0), z1 - z2 @ lstsq(z2, z1)


def _require_sample(t: int, n: int, k: int) -> None:
    """Raise SampleTooShort unless T - k >= 10 + n*k, naming T and k."""
    if t - k < 10 + n * k:
        raise SampleTooShort(f"{t} quarters available; k={k} needs at least {10 + (n + 1) * k}")


def johansen_test(x: np.ndarray, k: int, case="restrictedConstant") -> JohansenResult:
    """Run the cointegration-rank test on a level system.

    Parameters
    ----------
    x : ndarray (T, n)
    k : int
        Level-VAR lag order (k-1 lagged differences enter the short-run
        regression).
    case : DeterministicCase or str

    Raises
    ------
    SampleTooShort
        If the effective sample T - k is below 10 + n*k.
    SingularS00
        If the short-run residual moment matrix cannot be factorized.
    NumericalFailure
        If an eigenvalue leaves [0, 1) by more than 1e-10.
    """
    case = DeterministicCase.parse(case)
    x = np.asarray(x, dtype=float)
    t, n = x.shape
    if k < 1:
        raise ValueError("lag order k must be at least 1")
    _require_sample(t, n, k)

    z0, z1, z2, t_eff = _design_blocks(x, k, case)
    r0, r1 = _partial_out(z0, z1, z2)
    s00 = r0.T @ r0 / t_eff
    s01 = r0.T @ r1 / t_eff
    s11 = r1.T @ r1 / t_eff

    # Scale-free singularity check: pivots of the correlation-scaled S00.
    d = np.sqrt(np.diag(s00))
    if np.any(d <= 0.0):
        raise SingularS00("S00 has a non-positive diagonal entry")
    try:
        l_corr = cholesky(s00 / np.outer(d, d))
    except Exception as exc:
        raise SingularS00(str(exc)) from exc
    if rank_deficient(np.diag(l_corr) ** 2):
        raise SingularS00("S00 numerically singular")
    l00 = d[:, None] * l_corr
    # A = S10 S00^-1 S01 formed as C'C with C = L^-1 S01 for symmetry.
    c = solve_triangular(l00, s01, lower=True)
    a = c.T @ c

    eigvals, eigvecs = generalized_sym_eig(a, s11)
    eigvals = eigvals[:n]
    beta = eigvecs[:, :n]
    if np.any(eigvals < -_EIG_TOL) or np.any(eigvals > 1.0 + _EIG_TOL):
        raise NumericalFailure(f"eigenvalue outside [0, 1): {eigvals}")
    eigvals = np.clip(eigvals, 0.0, np.nextafter(1.0, 0.0))

    log_terms = np.log1p(-eigvals)
    trace = np.array([-t_eff * log_terms[r:].sum() for r in range(n)])
    maxeig = -t_eff * log_terms

    if n > len(TRACE_CV5[case]):
        raise ValueError(f"no critical values for {n}-dimensional systems")
    trace_cv = np.array([TRACE_CV5[case][n - r - 1] for r in range(n)])
    selected = n
    for r in range(n):
        if trace[r] < trace_cv[r]:
            selected = r
            break

    return JohansenResult(
        eigenvalues=eigvals,
        trace_stats=trace,
        max_eig_stats=maxeig,
        trace_cv5=trace_cv,
        selected_rank=selected,
        beta=beta,
        s01=s01,
        s11=s11,
        case=case,
        k=k,
        t_eff=t_eff,
    )


def beta_normalize(beta: np.ndarray, r: int) -> np.ndarray:
    """Normalize the first r cointegrating vectors to an identity leading block.

    Returns beta* = b (c'b)^-1 with c selecting the first r rows, so that
    span(beta*) = span(b). When the leading r x r block is singular the rows
    are re-pivoted so an invertible block exists.

    Raises
    ------
    LeadingBlockSingular
        If no set of r rows yields an invertible block (column rank < r).
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2 or not 1 <= r <= beta.shape[1]:
        raise ValueError("need a 2-d beta with at least r columns")
    b = beta[:, :r]
    block = b[:r, :]
    if rank_deficient(np.diag(qr_r(block))):
        # Rows by leverage, as a column-pivoted QR of b' orders them
        # (Businger & Golub 1965): each step takes the row farthest from
        # the span of the rows already taken.
        rows, rest = [], b.copy()
        largest = np.linalg.norm(b, axis=1).max()
        for _ in range(r):
            norms = np.linalg.norm(rest, axis=1)
            row = int(np.argmax(norms))
            if norms[row] == 0.0 or norms[row] < RANK_TOL * largest:
                raise LeadingBlockSingular("beta columns have rank below r")
            rows.append(row)
            unit = rest[row] / norms[row]
            rest -= np.outer(rest @ unit, unit)
        block = b[rows, :]
        if rank_deficient(np.diag(qr_r(block))):
            raise LeadingBlockSingular("no invertible r x r block found")
    return b @ np.linalg.inv(block)
