"""The autonomous equation f_zbar = A(f_z) + h and its contraction solver.

An AutonomousMap is a pointwise map of the gradient variable with a
declared Lipschitz constant k < 1; the solver's convergence rate is
bounded by k.  Maps that look like a*zeta + b*conj(zeta) + O(|zeta|^alpha)
for large |zeta| carry that structure in the ``linf`` slot, and
fit_linear_part recovers it empirically from samples.
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
    "LinfData",
    "AutonomousMap",
    "LinearFit",
    "linear_map",
    "abs_map",
    "smooth_saturating_map",
    "estimate_lipschitz",
    "fit_linear_part",
    "check_linear_at_infinity",
    "solve_autonomous",
    "residual",
]


@dataclass(frozen=True)
class LinfData:
    """Large-argument structure A(z) ~ a*z + b*conj(z) + O(|z|^alpha)."""

    a: complex
    b: complex
    alpha: float
    C: float

    def __post_init__(self):
        s = abs(self.a) + abs(self.b)
        if s >= 1:
            raise ValueError(f"ellipticity violated: |a|+|b| = {s:g} >= 1")
        if not (0 <= self.alpha < 1):
            raise ValueError("growth exponent must lie in [0, 1)")


@dataclass(frozen=True)
class AutonomousMap:
    """Pointwise gradient map with declared Lipschitz constant k < 1.

    eval must accept complex ndarrays (vectorized).  linf, when present,
    declares the linear-at-large-arguments structure.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    k: float
    linf: LinfData | None = None
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
        linf=LinfData(a, b, 0.0, 0.0),
        name=f"linear({a}, {b})",
    )


def abs_map(k: float) -> AutonomousMap:
    """A(z) = k*|z|; k-Lipschitz but not linear at large arguments."""
    k = float(k)
    return AutonomousMap(eval=lambda z: k * np.abs(z) + 0j, k=k, linf=None,
                         name=f"kabs({k})")


def smooth_saturating_map(a: complex, b: complex, s: float) -> AutonomousMap:
    """A(z) = a*z + b*conj(z) + s*z/(1+|z|); smooth, bounded perturbation.

    The perturbation has modulus below s everywhere, so the map is linear
    at large arguments with exponent 0 and constant s.
    """
    a, b, s = complex(a), complex(b), float(s)
    return AutonomousMap(
        eval=lambda z: a * z + b * np.conj(z) + s * z / (1.0 + np.abs(z)),
        k=abs(a) + abs(b) + s,
        linf=LinfData(a, b, 0.0, s),
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


@dataclass(frozen=True)
class LinearFit:
    """Result of fitting A(z) ~ a*z + b*conj(z) + O(|z|^alpha)."""

    a: complex
    b: complex
    alpha: float
    C: float
    ok: bool
    residual_per_radius: tuple[float, ...] = ()


def fit_linear_part(A: AutonomousMap, radii, angles: int = 16) -> LinearFit:
    """Least-squares linear part on the largest circle, growth fit across radii.

    The (a, b) coefficients come from uniform angular samples on the largest
    radius (the angular average decouples the two coefficients exactly).
    The leftover |A - a*z - b*conj(z)| is fit as C*r^alpha; ok=False when it
    fails to decay relative to r (alpha reaching 1 within fitting accuracy),
    as happens for modulus-type maps.

    The largest ring interpolates its own sublinear remainder into (a, b),
    which re-injects a spurious r^1 residual of relative size (r/r_max)^(1-alpha)
    at radius r; the growth fit therefore uses only radii at least two
    decades below the top whenever three such radii exist, and falls back to
    all-but-largest otherwise.
    """
    radii = np.asarray(list(radii), dtype=float)
    if radii.size < 3 or not np.all(np.diff(radii) > 0):
        raise ValueError("need at least three increasing radii")
    if radii[-1] / radii[0] < 100.0:
        raise ValueError("radii must span at least two decades")
    if angles < 8:
        raise ValueError("need at least eight angles")

    theta = 2.0 * np.pi * np.arange(angles) / angles
    ring = np.exp(1j * theta)

    z_big = radii[-1] * ring
    w = A.eval(z_big)
    # uniform angles: sum z^2 = 0, so the normal equations decouple
    a = complex(np.sum(w * np.conj(z_big)) / np.sum(np.abs(z_big) ** 2))
    b = complex(np.sum(w * z_big) / np.sum(np.abs(z_big) ** 2))

    resid = np.empty(radii.size)
    for i, r in enumerate(radii):
        z = r * ring
        resid[i] = np.max(np.abs(A.eval(z) - a * z - b * np.conj(z)))

    scale = np.abs(a) + np.abs(b) + resid[-1] / max(radii[-1], 1.0)
    tiny = resid <= 1e-9 * (1.0 + radii) * max(scale, 1e-30)
    if np.all(tiny):  # exactly linear up to roundoff
        return LinearFit(a, b, 0.0, 0.0, True, tuple(resid))

    use = radii <= radii[-1] / 100.0
    if use.sum() < 3:
        use = np.arange(radii.size) < radii.size - 1
    r_fit = radii[use]
    # log-log fit of the residual growth; clip zeros to keep logs finite
    r_clip = np.maximum(resid[use], 1e-300)
    slope, intercept = np.polyfit(np.log(r_fit), np.log(r_clip), 1)
    alpha = float(slope)
    C = float(np.exp(intercept))
    ok = alpha < 0.99
    return LinearFit(a, b, alpha, C, ok, tuple(resid))


def check_linear_at_infinity(A: AutonomousMap, samples: int = 256,
                             seed: int = 0, max_radius: float = 1e6) -> float:
    """Max violation of |A(z) - a*z - b*conj(z)| <= C*(|z|^alpha + 1).

    Uses the map's declared linf data on log-uniform moduli up to
    max_radius; returns the largest (violation) excess, <= 0 when the
    declared envelope holds on all samples.
    """
    if A.linf is None:
        raise ValueError("map declares no linear-at-large-arguments data")
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(-3, np.log10(max_radius), samples)
    z = r * np.exp(2j * np.pi * rng.uniform(0, 1, samples))
    d = A.linf
    lhs = np.abs(A.eval(z) - d.a * z - d.b * np.conj(z))
    envelope = d.C * (np.abs(z) ** d.alpha + 1.0)
    return float(np.max(lhs - envelope))


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
    pulls the mean-zero part back through the beurling transform.  Converges
    geometrically with ratio at most k; the returned field satisfies
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
    return picard_solve(rhs, h.spec, c_mean, tol, max_iter,
                        residual_scale=scale, method="autonomous")


def residual(A: AutonomousMap, f: GridField, h: GridField) -> float:
    """l2 residual ||f_zbar - A(f_z) - h||_2 via spectral derivatives."""
    if f.spec != h.spec:
        raise ValueError("field and forcing live on different grids")
    fz, fzb = derivative_pair(f)
    return values_l2(fzb.values - A.eval(fz.values) - h.values)
