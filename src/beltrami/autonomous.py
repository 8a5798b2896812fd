"""The autonomous equation f_zbar = A(f_z) + h and its contraction solver.

An AutonomousMap is a pointwise map of the gradient variable with a
declared Lipschitz constant k < 1; the solver's convergence rate is
bounded by k.  A map that is linear at infinity, A(zeta) = a*zeta +
b*conj(zeta) + U(zeta) with U sublinear and |a| + |b| < 1, declares its
linear part as ``linf = CCParams(a, b)``, the constant-coefficient
operator; the solver then solves that part exactly in every step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fixedpoint import SolveReport, picard_solve
from .grid import GridField, lp_norm, values_l2
from .operators import derivative_pair

__all__ = [
    "CCParams",
    "AutonomousMap",
    "linear_map",
    "abs_map",
    "smooth_saturating_map",
    "estimate_lipschitz",
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

    eval must accept complex ndarrays (vectorized).  linf, when present,
    declares the linear part at infinity: A(z) - linf.a*z - linf.b*conj(z)
    is sublinear.
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


def _pair_samples(rng: np.random.Generator, samples: int, radius: float):
    """Pairs probing a map's Lipschitz ratio: random, collinear and close."""
    m = max(2, samples)
    zeta = radius * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
    eta_random = radius * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
    eta_ray = zeta * rng.uniform(0.0, 1.0, m)          # same argument, smaller modulus
    eta_close = zeta + 1e-4 * radius * np.exp(2j * np.pi * rng.uniform(0, 1, m))
    z = np.concatenate([zeta, zeta, zeta])
    e = np.concatenate([eta_random, eta_ray, eta_close])
    keep = np.abs(z - e) > 1e-12 * radius
    return z[keep], e[keep]


def estimate_lipschitz(A: AutonomousMap, samples: int, radius: float,
                       seed: int = 0) -> float:
    """Sampled lower bound on the Lipschitz constant inside a disk.

    Maximizes |A(z)-A(e)| / |z-e| over random pairs, collinear pairs (which
    realize the constant for modulus-type maps) and nearly coincident pairs
    (which probe the local derivative).
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    z, e = _pair_samples(rng, samples, radius)
    ratios = np.abs(A.eval(z) - A.eval(e)) / np.abs(z - e)
    return float(ratios.max())


def _audit_declared_k(A: AutonomousMap) -> None:
    est = estimate_lipschitz(A, samples=96, radius=10.0, seed=12345)
    excess = est - A.k
    if excess > 1e-6:
        raise ValueError(
            f"declared Lipschitz constant {A.k:g} exceeded by sampled estimate {est:g}"
        )
    if excess > 1e-9:
        warnings.warn(
            f"sampled Lipschitz estimate {est:g} slightly exceeds declared {A.k:g}",
            stacklevel=3,
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
    converges in one iteration.  A step that contracts by less than k
    switches the rest of the solve to plain steps and the report's notes
    name it.  The returned field satisfies
    ||f_zbar - A(f_z) - h||_2 <= tol * max(1, ||h||_2).  The declared k is
    audited by sampling at solve time (error if clearly exceeded).
    """
    if not h.is_periodic():
        raise ValueError("forcing must have zero affine part")
    _audit_declared_k(A)
    hv = h.values
    Aeval = A.eval

    def rhs(_field, psi):
        return Aeval(psi) + hv

    scale = max(1.0, lp_norm(h, 2))
    linear = None if A.linf is None else (A.linf.a, A.linf.b, A.k)
    return picard_solve(rhs, h.spec, c_mean, tol * scale, max_iter, linear=linear)


def residual(A: AutonomousMap, f: GridField, h: GridField) -> float:
    """l2 residual ||f_zbar - A(f_z) - h||_2 via spectral derivatives."""
    if f.spec != h.spec:
        raise ValueError("field and forcing live on different grids")
    fz, fzb = derivative_pair(f)
    return values_l2(fzb.values - A.eval(fz.values) - h.values)
