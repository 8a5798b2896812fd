"""Solvers for the constant-coefficient R-linear equation on the torus:

    f_zbar = a*f_z + b*conj(f_z) + u,      |a| + |b| < 1.

The coefficients are a CCParams (defined in autonomous and re-exported
here), which is also the linear part at infinity that an AutonomousMap
declares in its ``linf`` slot.

Two independent routes cross-validate each other: the contraction solver
(solve_cc_neumann), whose steps invert the equation's R-linear operator
mode pair by mode pair, and a change-of-variables reduction to the
inhomogeneous Cauchy-Riemann equation (solve_cc_changevar).

The reduction substitutes zeta = z + mu*conj(z) and
g(z) = ft(zeta) + nu*conj(ft(zeta)).  Requiring the transformed equation to
lose its ft_zeta and conj(ft_zeta) terms forces mu and nu to be the
small-modulus roots of

    conj(a)*mu^2 + (1 + |a|^2 - |b|^2)*mu + a = 0
    conj(b)*nu^2 + (1 + |b|^2 - |a|^2)*nu + b = 0

and the reduced equation then reads  g_zbar = v + (mu*nu)*conj(v)  with
v(z) = u(z + mu*conj(z)).  Note the conj(v) coefficient: it is mu*nu, which
equals a*b only when a*b = 0.  A frequently quoted simplification writes
a*b there; verify_transform checks that (historical) form, while
reduction_residual checks the identity that actually holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autonomous import CCParams, linear_map, solve_autonomous
from .fixedpoint import SolveReport
from .grid import (GridField, GridSpec, _adopt, _blocked_l2, _sum_squares, lp_norm, values_l2,
                   z_grid)
from .operators import _conj_flip, _first_derivatives, _wavevectors
from .synth import random_waves

__all__ = [
    "CCParams",
    "ChangeOfVars",
    "SolveReport",
    "solve_cc_neumann",
    "compute_mu_nu",
    "mu_nu_printed_formula",
    "verify_transform",
    "reduction_residual",
    "solve_cc_changevar",
    "cc_residual",
]


@dataclass(frozen=True)
class ChangeOfVars:
    """Shear/conjugation coefficients of the reduction, with provenance.

    ``path`` records how the pair was obtained: "numeric-root" for the
    small-modulus roots of the defining quadratics (compute_mu_nu),
    "printed-formula" for the audited printed candidate.
    """

    mu: complex
    nu: complex
    path: str = "numeric-root"


def solve_cc_neumann(
    p: CCParams,
    u: GridField,
    c_mean: complex,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> tuple[GridField, SolveReport]:
    """Contraction solver for f_zbar = a*f_z + b*conj(f_z) + u.

    The autonomous solver for the linear map a*zeta + b*conj(zeta), whose
    linear part at infinity is the whole map: each step inverts
    I - a*S0 - b*conj∘S0 exactly, one 2x2 solve per mode pair (k, -k), on
    the residual of r = a*psi + b*conj(psi) + u with psi = c_mean + S0(r).
    Lip(U) = 0, so the start, c*z with the linear part solved, solves the
    discrete equation to roundoff, Nyquist rows included, and the first
    iteration measures it: one iteration and four transforms, and a rate
    bound of k = |a| + |b| that is never reached.
    The solution is normalized to z-derivative mean c_mean and periodic
    mean zero; the residual contract is
    ||f_zbar - a f_z - b conj(f_z) - u||_2 <= tol * max(1, ||u||_2).
    """
    return solve_autonomous(linear_map(p.a, p.b), u, c_mean, tol, max_iter)


def mu_nu_printed_formula(p: CCParams) -> ChangeOfVars:
    """The closed-form candidate as commonly printed (kept for auditing).

    Its discriminants read (1+|a|-|b|^2)^2 - 4|a|^2 and
    (1+|b|-|a|^2)^2 - 4|a|^2; they do not solve the defining quadratics
    except in degenerate cases, and verify_transform rejects it off them.
    Square roots are taken in the complex plane so a negative discriminant
    cannot crash the audit path.
    """
    a, b = p.a, p.b
    da = 1 + abs(a) ** 2 - abs(b) ** 2
    db = 1 + abs(b) ** 2 - abs(a) ** 2
    mu = -2 * a / (da + np.sqrt(complex((1 + abs(a) - abs(b) ** 2) ** 2 - 4 * abs(a) ** 2)))
    nu = -2 * b / (db + np.sqrt(complex((1 + abs(b) - abs(a) ** 2) ** 2 - 4 * abs(a) ** 2)))
    return ChangeOfVars(complex(mu), complex(nu), path="printed-formula")


def _defining_conditions_residual(p: CCParams, mu: complex, nu: complex) -> float:
    """Max modulus of the two annihilation conditions at (mu, nu)."""
    c1 = mu + p.a + nu * mu * np.conj(p.b)
    c2 = p.b + nu + nu * mu * np.conj(p.a)
    return float(max(abs(c1), abs(c2)))


def compute_mu_nu(p: CCParams) -> ChangeOfVars:
    """Shear/conjugation pair that reduces the equation to Cauchy-Riemann form.

    mu = -2a/(D + sqrt(D^2 - 4|a|^2)), D = 1+|a|^2-|b|^2, is the small root of
    the first defining quadratic and nu its a <-> b twin.  D^2 - 4|a|^2 =
    ((1-|a|)^2-|b|^2)((1+|a|)^2-|b|^2) > 0 in the ellipticity ball, so the
    root is real and cancellation-free; the annihilation conditions are checked.
    """
    roots = []
    for c, other in ((p.a, p.b), (p.b, p.a)):
        ac, ao = abs(c), abs(other)
        disc = ((1 - ac) ** 2 - ao ** 2) * ((1 + ac) ** 2 - ao ** 2)
        roots.append(complex(-2 * c / (1 + ac ** 2 - ao ** 2 + math.sqrt(disc))))
    mu, nu = roots
    cond = _defining_conditions_residual(p, mu, nu)
    if cond > 1e-10:
        raise ArithmeticError(f"closed-form roots fail the defining conditions: {cond:g}")
    return ChangeOfVars(mu, nu, path="numeric-root")


def _wave_derivatives(waves, L: float, zz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both Wirtinger derivatives of a wave list, evaluated anywhere in the plane."""
    x, y = zz.real, zz.imag
    dz = np.zeros(zz.shape, dtype=complex)
    dzb = np.zeros(zz.shape, dtype=complex)
    for k1, k2, cc in waves:
        kc = (2.0 * np.pi / L) * (k1 + 1j * k2)
        e = np.exp(1j * (2.0 * np.pi / L) * (k1 * x + k2 * y))
        dz += cc * (0.5j * np.conj(kc)) * e
        dzb += cc * (0.5j * kc) * e
    return dz, dzb


def _transform_residual(
    p: CCParams,
    mu: complex,
    nu: complex,
    vbar_coeff: complex,
    trials: int,
    seed: int = 0,
) -> float:
    """Max relative l2 residual of g_zbar - v - vbar_coeff*conj(v).

    Draws random trigonometric polynomials ft, treats them as solutions by
    defining u := ft_zbar - a ft_z - b conj(ft_z), and evaluates everything
    analytically at the sheared points zeta = z + mu*conj(z); the check is
    exact for band-limited data, so a correct pair leaves only roundoff.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    spec = GridSpec(32)
    Z = z_grid(spec)
    zeta = Z + mu * np.conj(Z)
    worst = 0.0
    for _ in range(trials):
        waves = random_waves(rng)
        ft_z, ft_zb = _wave_derivatives(waves, spec.L, zeta)
        v = ft_zb - p.a * ft_z - p.b * np.conj(ft_z)  # u evaluated at zeta
        # chain rule for g(z) = ft(zeta) + nu*conj(ft(zeta)), zeta = z + mu*conj(z)
        g_zb = mu * ft_z + ft_zb + nu * (np.conj(ft_z) + mu * np.conj(ft_zb))
        res = g_zb - v - vbar_coeff * np.conj(v)
        denom = values_l2(v)
        worst = max(worst, values_l2(res) / denom if denom > 0 else values_l2(res))
    return worst


def verify_transform(p: CCParams, cv: ChangeOfVars, trials: int, seed: int = 0) -> float:
    """Residual of the reduced equation in its a*b-coefficient form.

    Returns the max relative l2 residual of g_zbar - v - (a*b)*conj(v) over
    random band-limited solutions.  This is the historical statement of the
    reduction; it can only vanish when a*b = 0, since the substitution's
    true conj(v) coefficient is mu*nu (see reduction_residual).  For a pair
    satisfying the defining conditions the residual is exactly
    (mu*nu - a*b)*conj(v), so the returned value is |mu*nu - a*b| up to
    roundoff.
    """
    return _transform_residual(p, cv.mu, cv.nu, p.a * p.b, trials, seed=seed)


def reduction_residual(p: CCParams, cv: ChangeOfVars, trials: int, seed: int = 0) -> float:
    """Residual of the exact reduced equation g_zbar = v + (mu*nu)*conj(v)."""
    return _transform_residual(p, cv.mu, cv.nu, cv.mu * cv.nu, trials, seed=seed)


def _inverse_sheared_dzbar(G: np.ndarray, spec: GridSpec, mu: complex) -> None:
    """G times 1/(0.5j*kappa) in place, kappa = KC + mu*conj(KC) the sheared
    wavevector, 0 at the zero mode: built as applied, a _row_blocks block at
    a time, so that its expression rounds as the whole grid's (grid._BLOCK)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, KC in _wavevectors(spec.n, spec.L):
            W = mu * np.conj(KC)            # an expression, rounded as the grid's
            W += KC                         # kappa
            np.multiply(0.5j, W, out=W)     # 0.5j*kappa, in that operand order
            np.divide(1.0, W, out=W)
            if rows.start == 0:
                W[0, 0] = 0.0
            G[rows] *= W


def solve_cc_changevar(
    p: CCParams,
    u: GridField,
    c_mean: complex,
) -> tuple[GridField, SolveReport]:
    """Direct solver via the change of variables, one spectral pass.

    Works mode by mode: the shear maps the lattice wave with wavevector kc
    to a plane wave with wavevector kc + mu*conj(kc), which is integrated
    in closed form and mapped back through the inverse shear, landing
    exactly on the original lattice.  Exact up to roundoff for forcings
    resolved below the Nyquist rows; at the Nyquist rows the conjugate
    partner of a mode aliases onto the mode itself, the continuum identity
    no longer matches the grid, and the solve raises instead of returning
    a field that misses the residual contract.  Output normalization
    matches solve_cc_neumann: z-derivative mean c_mean, periodic mean zero.
    """
    if not u.is_periodic():
        raise ValueError("forcing must have zero affine part")
    if not np.isfinite(c_mean):
        raise ValueError(f"c_mean must be finite, got {c_mean}")
    cv = compute_mu_nu(p)
    mu, nu = cv.mu, cv.nu
    spec = u.spec
    n = spec.n

    # The passes run in place.  A complex scalar times a fresh array stays an
    # expression: from 256 KiB numpy elides it into the array, and its operand
    # order (which rounds differently) is the one the results are pinned to.
    U = np.fft.fft2(u.values, out=np.empty_like(u.values))
    U /= n * n
    if mu != 0 or nu != 0:
        nyq = np.sqrt(np.sum(np.abs(U[n // 2, :]) ** 2)
                      + np.sum(np.abs(U[:, n // 2]) ** 2))
        total = math.sqrt(_sum_squares(U))
        if nyq > 1e-12 * max(total, 1e-300):
            raise ValueError(
                "shear-resampling failure: forcing has energy at the Nyquist "
                "rows, whose conjugate pairing is ambiguous on the grid; use "
                "solve_cc_neumann or resample the forcing to a finer grid")
    mean_u = complex(U[0, 0])

    # g_zbar = v + (mu*nu)*conj(v) integrated mode-wise on sheared waves
    G = (mu * nu) * _conj_flip(U)
    G += U
    U = None
    _inverse_sheared_dzbar(G, spec, mu)
    # undo the conjugation mixing: ft = (g - nu*conj(g)) / (1 - |nu|^2)
    FT = nu * _conj_flip(G)
    np.subtract(G, FT, out=FT)
    G = None
    FT /= 1.0 - abs(nu) ** 2
    FT[0, 0] = 0.0

    FT *= n * n
    d = p.a * c_mean + p.b * complex(c_mean).conjugate() + mean_u
    f = _adopt(spec, np.fft.ifftn(FT, out=FT), c_mean, d)  # ifftn: ifft2 ignores out=

    res = cc_residual(p, f, u)
    return f, SolveReport(residual_history=[res],
                          converged=res <= 1e-8 * max(1.0, lp_norm(u, 2)),
                          notes=f"mu={mu!r}, nu={nu!r}, path={cv.path}")


def cc_residual(p: CCParams, f: GridField, u: GridField) -> float:
    """l2 residual of f in the constant-coefficient equation with forcing u,
    evaluated one row block at a time: a block's residual is formed in
    f_zbar's rows and its squared moduli go into f_z's (grid._blocked_l2)."""
    if f.spec != u.spec:
        raise ValueError("field and forcing live on different grids")
    fz, fzb = _first_derivatives(f)
    a, b, uv = p.a, p.b, u.values

    def pointwise(rows):  # fzb - a*fz - b*conj(fz) - u, in that order
        z, r = fz[rows], fzb[rows]
        r -= np.multiply(a, z)
        r -= b * np.conj(z)                # an expression, as in solve_cc_changevar
        r -= uv[rows]
        return r

    return _blocked_l2(pointwise, fz)
