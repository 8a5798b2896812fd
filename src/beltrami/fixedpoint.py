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
of at most k.  The loop stops at the first residual <= tol: tol is an
absolute threshold, and a solver that wants a relative one scales it first.

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

Preconditioned steps.  When the right-hand side is linear at infinity,
rhs(psi) = a*psi + b*conj(psi) + U(psi) + h with U of Lipschitz constant
l, the kernel solves the R-linear part exactly and iterates only on U.
Writing S for the mean-zero beurling transform and T = I - a*S - b*conj∘S,
the fixed point r satisfies T r = a*c + b*conj(c) + U(psi) + h, and the
step is r <- r + T^-1 (rhs(psi) - r).  The candidate stays in Fourier
space:

    psi = c + ifft2(R * beurling)
    Q   = fft2(rhs(f, psi))
    res = sqrt(vdot(E, E)) / n^2       # E = Q - R; Parseval: ||rhs - r||_2
    R  <- R + T^-1 (Q - R)

conj couples mode k with -k, so T^-1 is one closed-form 2x2 solve per
mode pair, applied as m1*E + m2*conj(E[-k]) with two multipliers built
once per solve; the determinant is bounded below by (1-|a|)^2 - |b|^2 > 0.
One step still costs two transforms, the ifft2 for psi and the fft2 of
the right-hand side; the spectrum is transformed once before the loop.
Since ||T^-1|| <= 1/(1-|a|-|b|), successive residuals decay by at most
l/(1-|a|-|b|), which is at most k = |a|+|b|+l: an exactly linear map is
solved in one step, and the second measures a residual at roundoff.

The declared linear part is not checked.  The first time a preconditioned
step contracts the residual by less than k, the rest of the solve takes
plain steps, starting from that step's right-hand side, and the notes name
the iteration.  Until then every step makes a new best iterate, so the
update can write into the spectrum buffer that does not hold it.  E = Q - R
lives in psi and np.vdot reads the residual from it without a temporary,
so the preconditioned step uses the same work arrays (work waits for a
fallback) and allocates no n x n array apart from rhs's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridField, GridSpec, values_l2, z_grid
from .operators import _conj_flip, _multipliers

__all__ = ["SolveReport", "picard_solve"]


@dataclass
class SolveReport:
    """Iteration diagnostics of one solve: the residual of each iterate in
    order, whether the last met the stopping threshold, and notes.
    iterations, final_residual (the least entry: solvers return their best
    iterate) and contraction_ratio are read from the history."""

    residual_history: list[float]
    converged: bool
    notes: str = ""

    def __post_init__(self):
        if not self.residual_history:
            raise ValueError("residual history must be non-empty")

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def final_residual(self) -> float:
        return min(self.residual_history)

    @property
    def contraction_ratio(self) -> float:
        """Geometric mean of successive residual ratios (0.0 if under two points)."""
        history = self.residual_history
        pairs = [(a, b) for a, b in zip(history, history[1:]) if a > 0.0]
        if not pairs:
            return 0.0
        logs = [np.log(b / a) for a, b in pairs if b > 0.0]
        if len(logs) < len(pairs):  # a residual hit exactly zero: perfect contraction
            return 0.0
        return float(np.exp(np.mean(logs)))


def _linear_inverse(beur: np.ndarray, a: complex, b: complex):
    """Multipliers (m1, m2) with T^-1 E = m1*E + m2*conj(E[-k]).

    T = I - a*S - b*conj∘S acts on a spectrum R as
    (1 - a*B)*R - b*F*conj(R[-k]), where B is the beurling symbol and
    F = conj(B[-k]).  For each pair (R_k, conj(R_-k)) that is the 2x2 matrix
    [[1 - a*B, -b*F], [-conj(b)*B, 1 - conj(a)*F]], inverted in closed form.
    """
    F = _conj_flip(beur)
    m1 = 1.0 - np.conj(a) * F
    det = (1.0 - a * beur) * m1 - abs(b) ** 2 * (beur * F)
    m1 /= det
    F *= b
    F /= det
    return m1, F


def picard_solve(
    rhs: Callable[[Callable[[], np.ndarray], np.ndarray], np.ndarray],
    spec: GridSpec,
    c_mean: complex,
    tol: float,
    max_iter: int,
    damping: float = 1.0,
    linear: tuple[complex, complex, float] | None = None,
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

    tol is the absolute stopping threshold: the solve stops at the first
    equation residual <= tol.  On exhaustion the best iterate (least
    residual) is returned with converged=False.  A non-finite residual
    stops the iteration at once: it is left out of the history,
    the best finite iterate is returned with converged=False and the notes
    name the iteration.  If the first residual is already non-finite there
    is no finite iterate to return and ArithmeticError is raised.

    linear = (a, b, k) declares rhs(psi) = a*psi + b*conj(psi) + U(psi) + h
    with |a| + |b| < 1 and the whole map k-Lipschitz, k < 1.  With (a, b)
    not both zero each step solves the linear part exactly (see the module
    docstring) and damping must be 1; the first step that contracts by less
    than k switches the rest of the solve to plain steps.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    n = spec.n
    _, _, beur, inv_dzbar = _multipliers(n, spec.L)
    precondition = linear is not None and (linear[0], linear[1]) != (0, 0)
    if precondition:
        a, b, k = complex(linear[0]), complex(linear[1]), float(linear[2])
        if not (abs(a) + abs(b) < 1.0 and 0.0 <= k < 1.0):
            raise ValueError(f"linear part needs |a|+|b| < 1 and k in [0, 1), got {linear}")
        if damping != 1.0:
            raise ValueError("a preconditioned solve takes no damping")
        m1, m2 = _linear_inverse(beur, a, b)
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
    notes: list[str] = []
    best_R, best_res = None, np.inf
    spectra = (np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex))
    psi = np.empty((n, n), dtype=complex)
    work = np.empty((n, n))
    if precondition:
        R = np.fft.fft2(r_prev, out=spectra[0])
    for it in range(1, max_iter + 1):
        if not precondition:
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
        if precondition:  # psi takes E = Q - R; vdot reads it once, writes nothing
            E = np.subtract(np.fft.fft2(r, out=psi), R, out=psi)
            res = math.sqrt(np.vdot(E, E).real) / (n * n)
        else:
            res = values_l2(np.subtract(r, r_prev, out=psi), _work=work)
        if not math.isfinite(res):
            if not history:
                raise ArithmeticError("residual non-finite at iteration 1; "
                                      "no finite iterate to return")
            notes.append(f"residual non-finite at iteration {it}; stopped")
            break
        history.append(res)
        if res < best_res:
            best_R, best_res = R, res
        if res <= tol:
            converged = True
            break
        if precondition and len(history) > 1 and res > k * history[-2]:
            precondition = False
            notes.append(f"preconditioned step contracted by less than k = {k:g} "
                         f"at iteration {it}; plain steps from there")
        if precondition:  # R is the best iterate: write R + T^-1 E beside it
            R_next = _conj_flip(E, out=spectra[1] if R is spectra[0] else spectra[0])
            R_next *= m2
            E *= m1
            R_next += E
            R_next += R
            R = R_next
        elif damping == 1.0:
            r_prev = r
        else:
            r_prev = (1.0 - damping) * r_prev + damping * r

    P, d = periodic_and_d(best_R)
    return GridField(spec, c_mean, d, P), SolveReport(history, converged, "; ".join(notes))
