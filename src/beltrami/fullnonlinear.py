"""The fully nonlinear system f_zbar = H(z, f, f_z): structural checks and
a damped Picard solver.

H depends on position, the unknown and its gradient.  Contraction holds in
the gradient slot only, so convergence of the outer iteration is reported,
never guaranteed; the report's converged flag is the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog

from .fixedpoint import SolveReport, picard_solve
from .grid import GridField, GridSpec, z_grid
from .autonomous import AutonomousMap

__all__ = [
    "FullStructure",
    "FullMap",
    "ConditionReport",
    "from_autonomous",
    "check_conditions",
    "fit_bound_constants",
    "solve_full",
]


@dataclass(frozen=True)
class FullStructure:
    """Declared structure H = a*zeta + b*conj(zeta) + U(z, w, zeta) with

        |U(z, w, zeta)| <= zeta_bound*|zeta|^alpha + w_bound*|w|^(2*alpha) + u(z).

    u is sampled on the solver grid.
    """

    a: complex
    b: complex
    alpha: float
    zeta_bound: float
    w_bound: float
    u: GridField

    def __post_init__(self):
        if not (self.alpha < 1):
            raise ValueError("growth exponent must be < 1")


@dataclass(frozen=True)
class FullMap:
    """Gradient map with position and unknown dependence.

    eval(z, w, zeta) must be vectorized over same-shape complex arrays; k
    bounds the Lipschitz constant in the zeta slot; H(z, w, 0) must vanish.
    """

    eval: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    k: float
    structure: FullStructure | None = None
    name: str = "custom"

    def __post_init__(self):
        if not (0 <= self.k < 1):
            raise ValueError(f"Lipschitz constant must be in [0, 1), got {self.k}")


def from_autonomous(A: AutonomousMap) -> FullMap:
    """Wrap a gradient-only map as a FullMap (ignores z and w)."""
    return FullMap(eval=lambda z, w, zeta: A.eval(zeta), k=A.k, name=A.name)


@dataclass
class ConditionReport:
    """Sampled violations of the structural conditions.

    lipschitz_max: largest sampled ratio |H(z,w,zeta)-H(z,w,eta)|/|zeta-eta|.
    zero_slot_max: largest |H(z, w, 0)|.
    bound_excess: largest |U| minus the declared envelope (None without
        structure); <= 0 means the declared constants hold on all samples.
    measurability is an analytic hypothesis with no numeric test; it is
    recorded as assumed.
    """

    lipschitz_max: float
    zero_slot_max: float
    bound_excess: float | None
    samples: int
    measurability_assumed: bool = True

    def passes(self, k: float, tol: float = 1e-9) -> bool:
        ok = self.lipschitz_max <= k + tol and self.zero_slot_max <= tol
        if self.bound_excess is not None:
            ok = ok and self.bound_excess <= tol
        return ok


def _sample_points(H: FullMap, spec: GridSpec, samples: int, seed: int,
                   zeta_max: float = 1e4):
    rng = np.random.default_rng(seed)
    Z = z_grid(spec).reshape(-1)
    z = rng.choice(Z, size=samples)
    w = rng.normal(size=samples) + 1j * rng.normal(size=samples)
    w *= 10.0 ** rng.uniform(-1, 2, samples)
    # log-uniform moduli stress the large-gradient regime, plus exact zeros
    r = 10.0 ** rng.uniform(-3, np.log10(zeta_max), samples)
    zeta = r * np.exp(2j * np.pi * rng.uniform(0, 1, samples))
    return rng, z, w, zeta


def check_conditions(H: FullMap, samples: int, spec: GridSpec | None = None,
                     seed: int = 0) -> ConditionReport:
    """Sample the Lipschitz, zero-slot and envelope conditions.

    z ranges over grid points (of the structure's grid when declared), w
    over a broad disk, zeta over log-uniform moduli up to 1e4.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if spec is None:
        spec = H.structure.u.spec if H.structure is not None else GridSpec(16)
    rng, z, w, zeta = _sample_points(H, spec, samples, seed)

    eta = zeta * rng.uniform(0, 1, samples) + (
        rng.normal(size=samples) + 1j * rng.normal(size=samples))
    keep = np.abs(zeta - eta) > 1e-9
    lip = np.abs(H.eval(z[keep], w[keep], zeta[keep])
                 - H.eval(z[keep], w[keep], eta[keep])) / np.abs(zeta[keep] - eta[keep])
    lipschitz_max = float(lip.max()) if lip.size else 0.0

    zero_slot = float(np.max(np.abs(H.eval(z, w, np.zeros_like(zeta)))))

    bound_excess = None
    if H.structure is not None:
        st = H.structure
        u_at = _u_at_points(st.u, z)
        U = H.eval(z, w, zeta) - st.a * zeta - st.b * np.conj(zeta)
        envelope = (st.zeta_bound * np.abs(zeta) ** st.alpha
                    + st.w_bound * np.abs(w) ** (2 * st.alpha) + u_at)
        bound_excess = float(np.max(np.abs(U) - envelope))

    return ConditionReport(lipschitz_max, zero_slot, bound_excess, samples)


def _u_at_points(u: GridField, z: np.ndarray) -> np.ndarray:
    """Nearest-sample lookup of a grid function at grid points."""
    n, L = u.spec.n, u.spec.L
    j = np.rint(z.real / L * n).astype(int) % n
    i = np.rint(z.imag / L * n).astype(int) % n
    return np.abs(u.values[i, j])


def fit_bound_constants(H: FullMap, alpha: float, samples: int = 512,
                        spec: GridSpec | None = None, seed: int = 0,
                        a: complex | None = None, b: complex | None = None,
                        u: GridField | None = None) -> tuple[float, float]:
    """Smallest (zeta_bound, w_bound) making the envelope hold on samples.

    Solves the two-variable linear program: minimize zeta_bound + w_bound
    subject to zeta_bound*|zeta_i|^alpha + w_bound*|w_i|^(2*alpha) >= r_i,
    where r_i is the sampled |U| = |H - a*zeta - b*conj(zeta)| minus the
    u(z) contribution.  The linear part defaults to the declared structure
    (zero without one); pass a, b explicitly to fit around a known part.
    """
    if spec is None:
        spec = GridSpec(16)
    _, z, w, zeta = _sample_points(H, spec, samples, seed)
    st = H.structure
    if a is None:
        a = st.a if st is not None else 0.0
    if b is None:
        b = st.b if st is not None else 0.0
    U = np.abs(H.eval(z, w, zeta) - a * zeta - b * np.conj(zeta))
    if u is not None:
        U = U - _u_at_points(u, z)
    elif st is not None:
        U = U - _u_at_points(st.u, z)
    x = np.abs(zeta) ** alpha
    y = np.abs(w) ** (2 * alpha)
    res = linprog(c=[1.0, 1.0], A_ub=np.column_stack([-x, -y]), b_ub=-np.maximum(U, 0.0),
                  bounds=[(0, None), (0, None)], method="highs")
    if not res.success:
        raise ArithmeticError(f"bound fit failed: {res.message}")
    return float(res.x[0]), float(res.x[1])


def solve_full(
    H: FullMap,
    c_mean: complex,
    tol: float = 1e-10,
    max_iter: int = 200,
    damping: float = 1.0,
    spec: GridSpec | None = None,
) -> tuple[GridField, SolveReport]:
    """Damped Picard iteration for f_zbar = H(z, f, f_z).

    Each step evaluates H pointwise at the current iterate, routes the mean
    to the affine part, pulls the gradient candidate through the beurling
    transform and rebuilds f; a damping factor below one blends consecutive
    right-hand sides.  The dependence on f itself is not contractive in
    general, so non-convergence is possible and is reported honestly via
    the converged flag (no exception): the least-residual iterate is
    returned, and a non-finite residual ends the run early with a note.
    Only when the very first residual is non-finite is ArithmeticError
    raised, since no finite iterate exists.  H is the one right-hand side
    that reads f, so each step here costs three transforms, not two.
    """
    if spec is None:
        if H.structure is None:
            raise ValueError("pass a grid spec (or declare structure with a grid)")
        spec = H.structure.u.spec
    Z = z_grid(spec)
    Heval = H.eval

    def rhs(field, psi):
        return Heval(Z, field(), psi)

    return picard_solve(rhs, spec, c_mean, tol, max_iter, damping=damping,
                        residual_scale=1.0, method="full-picard")
