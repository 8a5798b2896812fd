"""The fully nonlinear system f_zbar = H(z, f, f_z) + h: structural checks
and a damped Picard solver.

H depends on position, the unknown and its gradient.  Contraction holds in
the gradient slot only, so convergence of the outer iteration is reported,
never guaranteed; the report's converged flag is the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fixedpoint import SolveReport, _audit_declared_k, _chord, picard_solve
from .grid import GridField, GridSpec, _row_blocks, lp_norm, z_grid
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

    u is sampled on the grid that check_conditions and fit_bound_constants
    draw z from; solve_full does not read the structure.
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

    eval(z, w, zeta) must be vectorized over same-shape complex arrays and
    act sample by sample: solve_full hands it one block of grid rows at a
    time (grid._row_blocks).  k bounds the Lipschitz constant in the zeta
    slot.  solve_full audits k on zeta -> H(0, 0, zeta) as
    solve_autonomous audits an AutonomousMap's; an excess at other z or w
    is check_conditions' to find.  H(z, w, 0) must vanish (check_conditions
    samples it), and a forcing goes to solve_full as h.
    The CLI's zterm and wterm tokens break that normalisation: they add a
    position-only forcing or a w-term inside H (see cli.parse_map).
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
    Measurability is an analytic hypothesis with no numeric test.
    """

    lipschitz_max: float
    zero_slot_max: float
    bound_excess: float | None

    def passes(self, k: float) -> bool:
        """Every sampled condition holds to 1e-9."""
        ok = self.lipschitz_max <= k + 1e-9 and self.zero_slot_max <= 1e-9
        if self.bound_excess is not None:
            ok = ok and self.bound_excess <= 1e-9
        return ok


def _sample_grid(H: FullMap) -> GridSpec:
    """The grid z is sampled on: the structure's, else 16 points a side."""
    return H.structure.u.spec if H.structure is not None else GridSpec(16)


def _sample_points(spec: GridSpec, samples: int, seed: int):
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    Z = z_grid(spec).reshape(-1)
    z = rng.choice(Z, size=samples)
    w = rng.normal(size=samples) + 1j * rng.normal(size=samples)
    w *= 10.0 ** rng.uniform(-1, 2, samples)
    # log-uniform moduli stress the large-gradient regime, plus exact zeros
    r = 10.0 ** rng.uniform(-3, 4, samples)
    zeta = r * np.exp(2j * np.pi * rng.uniform(0, 1, samples))
    return rng, z, w, zeta


def check_conditions(H: FullMap, samples: int, seed: int = 0) -> ConditionReport:
    """Sample the Lipschitz, zero-slot and envelope conditions.

    z ranges over the points of the structure's grid (a 16-point grid
    without structure), w over a broad disk, zeta over log-uniform moduli
    up to 1e4.
    """
    rng, z, w, zeta = _sample_points(_sample_grid(H), samples, seed)

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

    return ConditionReport(lipschitz_max, zero_slot, bound_excess)


def _u_at_points(u: GridField, z: np.ndarray) -> np.ndarray:
    """Nearest-sample lookup of a grid function at grid points."""
    n, L = u.spec.n, u.spec.L
    j = np.rint(z.real / L * n).astype(int) % n
    i = np.rint(z.imag / L * n).astype(int) % n
    return np.abs(u.values[i, j])


def _min_sum_cover(X: np.ndarray, Y: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """Exact minimizer of x + y subject to x*X + y*Y >= r, x, y >= 0 (X, Y >= 0).

    With x = s*t, y = s*(1-t), the least feasible s is 1/e(t) for the concave
    envelope e(t) = min_{r_i > 0} (Y_i + t*(X_i - Y_i))/r_i, walked from t = 0
    to its peak vertex; s is recomputed there from all rows, so all hold to rounding.
    """
    if not (np.isfinite(X).all() and np.isfinite(Y).all() and np.isfinite(r).all()):
        raise ValueError("bound fit samples must not contain values inf or nan")
    bind = r > 0
    X, Y, r = X[bind], Y[bind], r[bind]
    if r.size == 0:
        return 0.0, 0.0
    if np.any((X == 0) & (Y == 0)):
        raise ArithmeticError("bound fit failed: a row with r > 0 has X = Y = 0")
    a, b = Y / r, (X - Y) / r      # line values at t = 0 and slopes
    t, i = 0.0, int(np.argmin(a))
    while b[i] > 0 and t < 1.0:    # e rises at t: step to the next vertex
        lower = np.flatnonzero(b < b[i])
        cross = (a[lower] - a[i]) / (b[i] - b[lower])
        t = float(cross.min(initial=1.0))   # no crossing before 1 ends at t = 1
        if t < 1.0:
            i = lower[np.argmin(cross)]
    s = float(np.max(r / (t * X + (1.0 - t) * Y)))
    return s * t, s * (1.0 - t)


def fit_bound_constants(H: FullMap, alpha: float, samples: int = 512,
                        seed: int = 0, a: complex | None = None,
                        b: complex | None = None) -> tuple[float, float]:
    """Smallest (zeta_bound, w_bound) making the envelope hold on samples.

    Solves the two-variable linear program exactly: minimize zeta_bound +
    w_bound subject to zeta_bound*|zeta_i|^alpha + w_bound*|w_i|^(2*alpha)
    >= r_i, where r_i is the sampled |U| = |H - a*zeta - b*conj(zeta)| minus
    the declared u(z) contribution.  Non-finite samples raise ValueError, a positive
    r_i at zeta_i = w_i = 0 ArithmeticError.  The linear part defaults to the
    declared structure (zero without one); pass a, b to fit around another.
    z is drawn as in check_conditions: from the structure's grid, or from a
    16-point grid without structure.  As there, samples < 1 raises
    ValueError, and so does alpha >= 1, which FullStructure refuses.
    """
    if not (alpha < 1):
        raise ValueError("growth exponent must be < 1")
    _, z, w, zeta = _sample_points(_sample_grid(H), samples, seed)
    st = H.structure
    if a is None:
        a = st.a if st is not None else 0.0
    if b is None:
        b = st.b if st is not None else 0.0
    U = np.abs(H.eval(z, w, zeta) - a * zeta - b * np.conj(zeta))
    if st is not None:
        U = U - _u_at_points(st.u, z)
    return _min_sum_cover(np.abs(zeta) ** alpha, np.abs(w) ** (2 * alpha), U)


def solve_full(
    H: FullMap,
    c_mean: complex,
    tol: float = 1e-10,
    max_iter: int = 200,
    damping: float = 1.0,
    *,
    spec: GridSpec,
    h: GridField | None = None,
) -> tuple[GridField, SolveReport]:
    """Damped Picard iteration for f_zbar = H(z, f, f_z) + h on the grid spec.

    The grid is always passed: a declared structure's grid is not read.
    H.k is audited first, damped or not, on zeta -> H(0, 0, zeta), the
    slice the chord differentiates, with solve_autonomous's sampler,
    thresholds and messages: ValueError if clearly exceeded, a warning if
    only slightly (fixedpoint._audit_declared_k).
    The forcing h, when given, must be periodic (zero affine part) on spec,
    else ValueError; h=None solves f_zbar = H(z, f, f_z) with nothing added.
    Each step evaluates H pointwise at the current iterate, routes the mean
    to the affine part, pulls the gradient candidate through the beurling
    transform and rebuilds f; a damping factor below one moves the
    candidate's spectrum only that fraction of the way to the right-hand
    side's.  Undamped, each step also solves the linear part of
    zeta -> H(0, 0, zeta) at c_mean exactly (the chord of solve_autonomous,
    which a from_autonomous map shares to the bit); as there, the chord's
    contraction is guarded, not guaranteed.  The dependence on f itself is
    not contractive in general, so non-convergence is possible and is
    reported honestly via the converged flag (no exception); converged
    means, as in solve_autonomous, ||f_zbar - H - h||_2 <= tol *
    max(1, ||h||_2).  The least-residual iterate is returned, and a
    non-finite residual ends the run early with a note.  Only when the very
    first residual is non-finite is ArithmeticError raised, since no finite
    iterate exists.  H is the one right-hand side that reads f, so each
    step here costs three transforms, not two.  As solve_autonomous does
    with A, each step evaluates H one row block at a time, from that
    block's z (z_grid's rows) and the kernel's candidate GridField.
    """
    if h is not None and (h.spec != spec or not h.is_periodic()):
        raise ValueError(f"forcing must be periodic on the solve grid {spec}")
    Heval = H.eval

    def at_origin(zeta):  # zeta -> H(0, 0, zeta)
        zero = np.zeros_like(zeta)
        return Heval(zero, zero, zeta)

    _audit_declared_k(at_origin, H.k)
    c = complex(c_mean)
    hv = None if h is None else h.values

    def rhs(field, psi):  # H is pointwise: psi takes H + h one row block at a time
        g = field()
        for rows in _row_blocks(spec.n):
            Z = z_grid(spec, rows)
            f = c * Z + g.d * np.conj(Z) + g.values[rows]
            out = psi[rows]
            out[...] = Heval(Z, f, out)
            if hv is not None:
                out += hv[rows]
        return psi

    scale = 1.0 if h is None else max(1.0, lp_norm(h, 2))
    linear = _chord(at_origin, c_mean, H.k) if damping == 1.0 else None
    return picard_solve(rhs, spec, c_mean, tol * scale, max_iter, damping=damping,
                        linear=linear)
