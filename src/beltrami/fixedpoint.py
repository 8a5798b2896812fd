"""Shared fixed-point machinery for the torus solvers.

All solvers iterate on the conj(z)-derivative candidate r ~ f_zbar:

    R   = fft2(r)
    psi = c + ifft2(R * beurling)      # f_z candidate; S0 = mean-zero beurling
    f   = c*z + d*conj(z) + P          # d = mean(r), P = ifft2(R / dzbar)
    r'  = rhs(f, psi)                  # the equation's right-hand side

The measured residual ||r' - r||_2 is exactly the equation residual of the
candidate f built from r, because f_zbar = r and f_z = psi by construction.
Since S0 is an l2 isometry on mean-zero fields and the mean projection is a
contraction, a k-Lipschitz rhs makes successive residuals decay by a factor
of at most k.

One step costs two transforms (fft2 of r, ifft2 for psi).  The field f is
handed to rhs as a zero-argument callable: only a right-hand side that reads
f (the fully nonlinear H(z, f, f_z)) pays the third transform for P and the
affine rebuild.  The returned field is built once, after the loop, from the
spectrum of the best iterate.

Apart from rhs's result, field() and the damped blend, a step allocates no
n x n array: it writes into four work arrays that live for the whole solve.

    spectra[0], spectra[1]  fft2(r) is written into whichever one does not
                            hold the best iterate's spectrum, so a new best
                            only re-points best_R and copies nothing
    psi                     R * beurling, transformed back in place; once
                            rhs has returned it takes the difference r - r'
    work                    real: |r - r'|^2 for the residual norm

Because psi is reused, a right-hand side may read or overwrite psi during
its call but must not keep it.  If rhs returns psi or a view of it, the
kernel copies the result before reusing the array.  The inverse transform
is np.fft.ifftn, not ifft2: numpy 2.4's ifft2 accepts out= but ignores it
(it passes out=None on), while ifftn writes into out and gives the same
bits as ifft2 over both axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridField, GridSpec, values_l2, z_grid
from .operators import _multipliers

__all__ = ["SolveReport", "picard_solve"]


@dataclass
class SolveReport:
    """Iteration diagnostics of one solve."""

    iterations: int
    residual_history: list[float]
    contraction_ratio: float
    final_residual: float
    converged: bool
    method: str = "fixed-point"
    notes: str = ""

    def __post_init__(self):
        if not self.residual_history:
            raise ValueError("residual history must be non-empty")
        if self.final_residual != min(self.residual_history):
            raise ValueError("final_residual must equal the least history entry")


def _contraction_ratio(history: list[float]) -> float:
    """Geometric mean of successive residual ratios (0.0 if under two points)."""
    pairs = [(a, b) for a, b in zip(history, history[1:]) if a > 0.0]
    if not pairs:
        return 0.0
    logs = [np.log(b / a) for a, b in pairs if b > 0.0]
    if len(logs) < len(pairs):  # a residual hit exactly zero: perfect contraction
        return 0.0
    return float(np.exp(np.mean(logs)))


def picard_solve(
    rhs: Callable[[Callable[[], np.ndarray], np.ndarray], np.ndarray],
    spec: GridSpec,
    c_mean: complex,
    tol: float,
    max_iter: int,
    damping: float = 1.0,
    residual_scale: float = 1.0,
    method: str = "fixed-point",
) -> tuple[GridField, SolveReport]:
    """Run the damped fixed-point iteration.

    rhs(field, psi_values) must return the sampled right-hand side of the
    equation f_zbar = rhs(f, f_z), where field() returns the samples of the
    current candidate f.  Calling field() costs one inverse transform and
    the affine rebuild, so a right-hand side that ignores f should not call
    it; each step then runs two transforms instead of three.  psi_values is
    the kernel's work array: rhs may read or overwrite it during the call
    but must not keep it, since the next step writes into it again.  A
    result that is psi_values or a view of it is copied first.

    Stops when the equation residual drops to tol * residual_scale.  On
    exhaustion the best iterate (least residual) is returned with
    converged=False, and final_residual is its residual.  A non-finite
    residual stops the iteration at once: it is left out of the history,
    the best finite iterate is returned with converged=False and the notes
    name the iteration.  If the first residual is already non-finite there
    is no finite iterate to return and ArithmeticError is raised.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    n = spec.n
    _, _, beur, inv_dzbar = _multipliers(n, spec.L)
    Z = z_grid(spec)
    c_mean = complex(c_mean)
    affine_c = c_mean * Z

    def periodic_and_d(R: np.ndarray) -> tuple[np.ndarray, complex]:
        """Mean-zero periodic part P of f and its affine d = mean(r)."""
        return np.fft.ifft2(R * inv_dzbar), complex(R[0, 0]) / (n * n)

    # Start from the affine candidate f = c*z (periodic part zero).
    r_prev = rhs(affine_c.copy, np.full((n, n), c_mean, dtype=complex))

    history: list[float] = []
    converged = False
    notes = ""
    best_R, best_res = None, np.inf
    spectra = (np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex))
    psi = np.empty((n, n), dtype=complex)
    work = np.empty((n, n))
    threshold = tol * residual_scale
    for it in range(1, max_iter + 1):
        R = spectra[1] if best_R is spectra[0] else spectra[0]
        np.fft.fft2(r_prev, out=R)
        np.multiply(R, beur, out=psi)
        np.fft.ifftn(psi, out=psi)  # not ifft2, which ignores out=
        psi += c_mean

        def field(R=R):
            # conj(Z) stays a per-call temporary: numpy elides it into the
            # product on large grids, and that operand order is part of the
            # rounding the full-map results are pinned to.
            P, d = periodic_and_d(R)
            return affine_c + d * np.conj(Z) + P

        r = rhs(field, psi)
        if np.may_share_memory(r, psi):
            r = r.copy()
        res = values_l2(np.subtract(r, r_prev, out=psi), _work=work)
        if not math.isfinite(res):
            if not history:
                raise ArithmeticError(f"{method}: residual non-finite at iteration 1; "
                                      "no finite iterate to return")
            notes = f"residual non-finite at iteration {it}; stopped"
            break
        history.append(res)
        if res < best_res:
            best_R, best_res = R, res
        if res <= threshold:
            converged = True
            break
        if damping == 1.0:
            r_prev = r
        else:
            r_prev = (1.0 - damping) * r_prev + damping * r

    P, d = periodic_and_d(best_R)
    report = SolveReport(
        iterations=len(history),
        residual_history=history,
        contraction_ratio=_contraction_ratio(history),
        final_residual=best_res,
        converged=converged,
        method=method,
        notes=notes,
    )
    return GridField(spec, c_mean, d, P), report
