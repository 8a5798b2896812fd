"""The autonomous equation f_zbar = A(f_z) + h and its contraction solver.

An AutonomousMap is a pointwise map of the gradient variable with a
declared Lipschitz constant k < 1; the solver's convergence rate is
bounded by k.  A map that is linear at infinity, A(zeta) = a*zeta +
b*conj(zeta) + U(zeta) with U sublinear and |a| + |b| < 1, declares its
linear part as ``linf = CCParams(a, b)``, the constant-coefficient
operator; the solver then solves that part exactly in every step.  A map
without linf is stepped with its derivative at the mean gradient instead
(a chord step, see fixedpoint).  Both solvers audit the declared k first:
this one on A, solve_full on zeta -> H(0, 0, zeta) (_audit_declared_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fixedpoint import SolveReport, _audit_declared_k, _chord, picard_solve
from .grid import GridField, _blocked_l2, _row_blocks, lp_norm
from .operators import _first_derivatives

__all__ = [
    "CCParams",
    "AutonomousMap",
    "linear_map",
    "abs_map",
    "smooth_saturating_map",
    "solve_autonomous",
    "residual",
]


@dataclass(frozen=True)
class CCParams:
    """Constant coefficients with the ellipticity bound |a| + |b| < 1."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        s = abs(self.a) + abs(self.b)
        if not (s < 1.0):
            raise ValueError(f"ellipticity violated: |a|+|b| = {s:g} >= 1")


@dataclass(frozen=True)
class AutonomousMap:
    """Pointwise gradient map with declared Lipschitz constant k < 1.

    eval must accept complex ndarrays of any shape (vectorized) and act
    sample by sample: solve_autonomous hands it one block of grid rows at
    a time (grid._row_blocks), and its bits do not depend on numpy's ufunc
    buffer size (one row in a solve).  linf, if given, is the linear part
    at infinity: A(z) - linf.a*z - linf.b*conj(z) is sublinear.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    k: float
    linf: CCParams | None = None
    name: str = "custom"

    def __post_init__(self):
        if not (0 <= self.k < 1):
            raise ValueError(f"Lipschitz constant must be in [0, 1), got {self.k}")


def linear_map(a: complex, b: complex) -> AutonomousMap:
    """A(z) = a*z + b*conj(z); exactly linear, Lipschitz constant |a|+|b|."""
    a, b = complex(a), complex(b)
    return AutonomousMap(
        eval=lambda z: a * z + b * np.conj(z),
        k=abs(a) + abs(b),
        linf=CCParams(a, b),
        name=f"linear({a}, {b})",
    )


def abs_map(k: float) -> AutonomousMap:
    """A(z) = k*|z|; k-Lipschitz but not linear at large arguments."""
    k = float(k)
    return AutonomousMap(eval=lambda z: k * np.abs(z), k=k, linf=None,
                         name=f"kabs({k})")


def smooth_saturating_map(a: complex, b: complex, s: float) -> AutonomousMap:
    """A(z) = a*z + b*conj(z) + s*z/(1+|z|); smooth, bounded perturbation.

    The perturbation has modulus below s everywhere, so the map is linear
    at infinity with linear part (a, b); s >= 0 makes |a|+|b|+s its
    Lipschitz constant.
    """
    a, b, s = complex(a), complex(b), float(s)
    if not s >= 0:
        raise ValueError(f"smoothsat perturbation s must be >= 0, got {s:g}")
    return AutonomousMap(
        eval=lambda z: a * z + b * np.conj(z) + s * z / (1.0 + np.abs(z)),
        k=abs(a) + abs(b) + s,
        linf=CCParams(a, b),
        name=f"smoothsat({a}, {b}, {s})",
    )


def solve_autonomous(
    A: AutonomousMap,
    h: GridField,
    c_mean: complex,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> tuple[GridField, SolveReport]:
    """Fixed-point solver for f_zbar = A(f_z) + h.

    Iterates on the gradient candidate psi = f_z: each step applies the map
    pointwise, routes the mean of A(psi)+h to the affine coefficient d, and
    pulls the mean-zero part back through the beurling transform.  When A
    declares a linear part at infinity (A.linf, A = a*z + b*conj(z) + U), each
    step solves that part exactly in Fourier space and iterates only on U
    (see fixedpoint).  Converges geometrically with ratio at most k, and at
    most Lip(U)/(1 - |a| - |b|) when the declared linf is honest.  The
    solve starts from c*z with that part solved, so an exactly linear map
    converges in one iteration.  A map with no linf is stepped the same way
    with (a, b) = DA(c_mean), its derivative at the mean gradient (Newton's
    chord method), unless that is (0, 0), as for k|z| at c_mean = 0, or
    |a| + |b| >= 1.  The chord's contraction is guarded, not guaranteed:
    where f_z strays from c_mean it may contract by less than k.  A step
    that contracts by less than k switches the rest of the solve to plain
    steps and the report's notes name it; when that is the second step the
    plain steps start from c*z, and the solve returns the plain solve's
    field two iterations later.  The returned field satisfies
    ||f_zbar - A(f_z) - h||_2 <= tol * max(1, ||h||_2).  The declared k is
    audited on sampled pairs first: ValueError if clearly exceeded, a
    warning if only slightly (fixedpoint._audit_declared_k).
    """
    if not h.is_periodic():
        raise ValueError("forcing must have zero affine part")
    _audit_declared_k(A.eval, A.k)
    hv = h.values
    Aeval = A.eval

    def rhs(_field, psi):  # A is pointwise: psi takes A(psi) + h one row block at a time
        for rows in _row_blocks(h.spec.n):
            np.add(Aeval(psi[rows]), hv[rows], out=psi[rows])

    scale = max(1.0, lp_norm(h, 2))
    if A.linf is None:
        linear = _chord(Aeval, c_mean, A.k)
    else:
        linear = (A.linf.a, A.linf.b, A.k)
    return picard_solve(rhs, h.spec, c_mean, tol * scale, max_iter, linear=linear)


def residual(A: AutonomousMap, f: GridField, h: GridField) -> float:
    """l2 residual ||f_zbar - A(f_z) - h||_2 via spectral derivatives,
    evaluated one row block at a time, as solve_autonomous evaluates A: a
    block's residual is formed in f_zbar's rows and its squared moduli go
    into f_z's (grid._blocked_l2)."""
    if f.spec != h.spec:
        raise ValueError("field and forcing live on different grids")
    fz, fzb = _first_derivatives(f)
    Aeval, hv = A.eval, h.values

    def pointwise(rows):  # fzb - A(fz) - h, in that order
        r = fzb[rows]
        r -= Aeval(fz[rows])
        r -= hv[rows]
        return r

    return _blocked_l2(pointwise, fz)
