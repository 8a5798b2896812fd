"""Shared fixed-point machinery for the torus solvers.

All solvers iterate on the spectrum R = fft2(r) of the conj(z)-derivative
candidate r ~ f_zbar, and every step has one form:

    psi = c + ifft2(R * beurling)      # f_z candidate; S0 = mean-zero beurling
    f   = c*z + d*conj(z) + P          # d = mean(r), P = ifft2(R / dzbar)
    E   = fft2(rhs(f, psi)) - R        # the equation's right-hand side, less r
    res = sqrt(sum |E|^2) / n^2        # Parseval: ||rhs - r||_2
    R  <- R + damping * M(E)

M is the identity in a plain step (a damped one when damping < 1) and
T^-1 in a preconditioned one (below).  The measured residual is exactly
the equation residual of the candidate f built from R, because f_zbar = r
and f_z = psi by construction.  Since S0 is an l2 isometry on mean-zero
fields and the mean projection is a contraction, a k-Lipschitz rhs makes
successive plain residuals decay by a factor of at most k.  The loop
stops at the first residual <= tol: tol is an absolute threshold, and a
solver that wants a relative one scales it first.  The solve starts from
the affine f = c*z: R is the spectrum of its right-hand side, one fft2
before the loop.

One step costs two transforms (ifft2 for psi, fft2 of the right-hand
side).  The candidate f is handed to rhs as a zero-argument callable,
field(), that returns it as a GridField (c, d and P) for one inverse
transform: only a right-hand side that reads f (the fully nonlinear
H(z, f, f_z)) pays that third transform.  The kernel deals only in spectra
and GridFields and builds no z; solve_full assembles f's samples, one row
block at a time.  The returned field is field() of the best iterate's
spectrum, built once every other work array is freed.

Apart from rhs's own temporaries and field(), a step allocates no n x n
array: it writes into work arrays that live for the whole solve.

    psi       R * beurling, transformed back in place, then rhs's result:
              the solvers' right-hand sides write it there
              (np.add(..., out=psi)), and any other result is copied in;
              then E, transformed in place, whose residual norm is the sum
              of squares of its float view (grid._sum_squares)
    spectra   R + damping * M(E) is written into whichever of two buffers
              does not hold the best iterate's spectrum: beside R while R
              is the best, over R once it is not.  So a new best only
              re-points best_R and copies nothing.

A preconditioned step adds T^-1's two multipliers, kept on half the
spectrum as the kernel's symbols are and applied through
operators._half_multiply, whose mirror buffer holds at most one row
block.  rhs's temporaries come on top; both solvers evaluate their map
one row block at a time, so they are block-sized.  Each field() call
transforms P into a fresh array, locked and adopted by its GridField
without a copy: a right-hand side that drops the field frees it.

Because psi is reused, a right-hand side may read or overwrite psi during
its call, and may return it, but must not keep it.  The inverse transform
is np.fft.ifftn, not ifft2: numpy 2.4's ifft2 accepts out= but ignores it
(it passes out=None on), while ifftn writes into out and gives the same
bits as ifft2 over both axes; fft2 honours out=, in place too.

Padded rows.  From n = 128 psi is the [:, :n] view of an n x (n + 8)
buffer, and every transform the kernel runs in place runs there (the
start's is copied into R, the answer's into its field).  A contiguous
column strides n*16 bytes, a power of two, onto a few cache sets (Bailey,
J. Supercomputing 4, 1990); padded, fft2 takes half the time from n = 512
with the same bits.  numpy buffers a ufunc over a padded view in 8192
samples unless its buffer size is at most a row: the kernel's own passes
run under _ufunc_buffer(min(n, caller's)), rhs under the caller's.

Preconditioned steps.  When the right-hand side is linear at infinity,
rhs(psi) = a*psi + b*conj(psi) + U(psi) + h with U of Lipschitz constant
l, the kernel solves the R-linear part exactly and iterates only on U.
Writing S for the mean-zero beurling transform and T = I - a*S - b*conj∘S,
the fixed point r satisfies T r = a*c + b*conj(c) + U(psi) + h, and the
step is R <- R + T^-1 E.  conj couples mode k with -k, so T^-1 is one
closed-form 2x2 solve per mode pair, applied as m1*E + m2*conj(E[-k])
with two multipliers built once per solve on rows 0..n/2 and the Nyquist
column (both are even off that column); the determinant is bounded
below by (1-|a|)^2 - |b|^2 > 0.  The start's spectrum goes through T^-1
too, R = T^-1 fft2(rhs(c)): the affine start with U frozen at U(c) and the
linear part solved.  Since ||T^-1|| <= 1/(1-|a|-|b|), successive residuals
decay by at most l/(1-|a|-|b|), which is at most k = |a|+|b|+l: an exactly
linear map is solved by the start, and the first iteration measures a
residual at roundoff, in four transforms all told.

The declared linear part is not checked.  The first time a preconditioned
step contracts the residual by less than k, T^-1 is freed, the rest of the
solve takes plain steps and the notes name the iteration.  After a later
step that only drops T^-1: the step's own R + E is the first plain step,
from there.  When it is the second step, the plain steps restart from the
affine start's right-hand side, evaluated again, and return the plain
solve's field to the bit, two iterations later.  Until then each residual
is below k times the one before, so every step makes a new best iterate
and T^-1 E is always written beside R, never over it.  The
kernel calls no BLAS: np.vdot woke a multithreaded OpenBLAS at 4-8 ms per
call on 2 shared x86 CPUs (einsum: 0.06 ms at n = 256) and slowed the fft2
calls after it twofold.

Chord steps.  A map that declares no linear part is handed to the kernel
with its derivative at the start's gradient c, (a, b) = DA(c) from
_chord: the Jacobian of the step frozen at the start, Newton's chord
method (Kelley, Iterative Methods for Linear and Nonlinear Equations,
SIAM 1995, 5.4).  Where f_z stays near its mean the chord contracts far
below k; where it does not, nothing bounds the step, and the guard above
returns the solve to plain steps: a chord whose first step fails costs
two iterations.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .grid import GridField, GridSpec, _sum_squares
from .operators import _conj_flip, _Half, _half_multiply, _kernel_symbols

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


def _pair_inverse(B: np.ndarray, F: np.ndarray, a: complex, b: complex):
    """The closed-form 2x2 inverse (m1, m2) at symbols B and F = conj(B[-k])."""
    m1 = 1.0 - np.conj(a) * F
    det = (1.0 - a * B) * m1 - abs(b) ** 2 * (B * F)
    return m1 / det, b * F / det


def _linear_inverse(beur: _Half, a: complex, b: complex):
    """Multipliers (m1, m2) with T^-1 E = m1*E + m2*conj(E[-k]), as _Half
    multipliers over the beurling symbol's half of the spectrum.

    T = I - a*S - b*conj∘S acts on a spectrum R as
    (1 - a*B)*R - b*F*conj(R[-k]), where B is the beurling symbol and
    F = conj(B[-k]).  For each pair (R_k, conj(R_-k)) that is the 2x2 matrix
    [[1 - a*B, -b*F], [-conj(b)*B, 1 - conj(a)*F]], inverted in closed form.
    B is even and of modulus 1 off the zero mode, so off the Nyquist row and
    column F = conj(B) and the determinant |1 - a*B|^2 - |b|^2 is real: the
    bulk takes one real reciprocal and no complex division, and m1 and m2
    are even there too.  On the Nyquist lines -k is not the lattice twin of
    k, and the 2x2 solve runs as written, over the kept row and the whole
    column.
    """
    top, col, _ = beur
    n = top.shape[1]
    m1 = np.multiply(top, a)
    np.subtract(1.0, m1, out=m1)
    det = np.abs(m1)
    np.square(det, out=det)
    det -= abs(b) ** 2
    det[0, 0] = 1.0                     # B = 0 at the zero mode: T is the identity
    np.reciprocal(det, out=det)
    np.conjugate(m1, out=m1)
    m1 *= det
    m2 = np.conjugate(top)
    m2 *= det
    m2 *= b
    h, flip = n // 2, -np.arange(n) % n
    m1[h], m2[h] = _pair_inverse(top[h], np.conj(top[h, flip]), a, b)
    c1, c2 = _pair_inverse(col, np.conj(col[flip]), a, b)
    m1[:, h], m2[:, h] = c1[:h + 1], c2[:h + 1]
    return _Half(m1, c1, 1.0), _Half(m2, c2, 1.0)


def _apply_inverse(E: np.ndarray, out: np.ndarray, m1: _Half, m2: _Half):
    """T^-1 E = m1*E + m2*conj(E[-k]), written into out; E is overwritten."""
    _conj_flip(E, out=out)
    _half_multiply(out, m2, out=out)
    _half_multiply(E, m1, out=E)
    out += E
    return out


@contextmanager
def _ufunc_buffer(size: int):
    """numpy's ufunc buffer size inside the block, which gets the outer one."""
    outer = np.setbufsize(size)
    try:
        yield outer
    finally:
        np.setbufsize(outer)


def _chord(g: Callable[[np.ndarray], np.ndarray], c_mean: complex, k: float):
    """picard_solve's linear = (a, b, k) for a map g of the gradient, frozen at
    the start's gradient c: Newton's chord method.  None takes plain steps.

    (a, b) = DA(c) by central differences at c +- s and c +- i*s, with
    s = 2^-20 * max(1, |c|): a = (dx - i*dy)/2 and b = (dx + i*dy)/2.  A
    derivative with |a| + |b| >= 1, or not finite, gives None; k*|z| at
    c = 0 gives (0, 0), which picard_solve also steps plainly.
    """
    c = complex(c_mean)
    s = 2.0 ** -20 * max(1.0, abs(c))
    gx, gx_, gy, gy_ = (complex(v) for v in g(np.array([c + s, c - s, c + 1j * s, c - 1j * s])))
    dx, dy = (gx - gx_) / (2 * s), (gy - gy_) / (2 * s)
    a, b = (dx - 1j * dy) / 2, (dx + 1j * dy) / 2
    return (a, b, k) if abs(a) + abs(b) < 1.0 else None


def _audit_declared_k(g: Callable[[np.ndarray], np.ndarray], k: float) -> None:
    """Refuse a declared Lipschitz constant k that the map g of the gradient,
    the map _chord takes, clearly exceeds.

    Samples |g(zeta) - g(eta)| / |zeta - eta| at 96 points zeta of the disk
    of radius 10 (seed 12345), each paired with a random point of the disk,
    a point on its ray nearer 0 (these realize a modulus map's constant) and
    a point 1e-3 away.  The estimate is the largest finite ratio, so a map
    that is NaN somewhere is still measured where it is not; with no finite
    ratio the verdict is left to the kernel's non-finite residual.  An
    excess over k above 1e-6 raises ValueError, one above 1e-9 warns at the
    solver's caller: each solver calls the audit from its own body
    (stacklevel=3).
    """
    rng, m, radius = np.random.default_rng(12345), 96, 10.0

    def disk():
        return radius * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * np.pi * rng.uniform(0, 1, m))

    zeta = disk()
    eta = np.concatenate([disk(), zeta * rng.uniform(0.0, 1.0, m),
                          zeta + 1e-4 * radius * np.exp(2j * np.pi * rng.uniform(0, 1, m))])
    zeta = np.tile(zeta, 3)
    keep = np.abs(zeta - eta) > 1e-12 * radius
    zeta, eta = zeta[keep], eta[keep]
    ratios = np.abs(g(zeta) - g(eta)) / np.abs(zeta - eta)
    ratios = ratios[np.isfinite(ratios)]
    if not ratios.size:  # nothing to measure: the kernel meets the non-finite values
        return
    est = float(ratios.max())
    if est - k > 1e-6:
        raise ValueError(f"declared Lipschitz constant {k:g} exceeded by sampled estimate {est:g}")
    if est - k > 1e-9:
        warnings.warn(f"sampled Lipschitz estimate {est:g} slightly exceeds declared {k:g}",
                      stacklevel=3)


def picard_solve(
    rhs: Callable[[Callable[[], GridField], np.ndarray], np.ndarray],
    spec: GridSpec,
    c_mean: complex,
    tol: float,
    max_iter: int,
    damping: float = 1.0,
    linear: tuple[complex, complex, float] | None = None,
) -> tuple[GridField, SolveReport]:
    """Run the damped fixed-point iteration.

    rhs(field, psi_values) must return the sampled right-hand side of the
    equation f_zbar = rhs(f, f_z), where field() returns the current
    candidate f as a GridField; the start's is GridField(spec, c_mean, 0, 0)
    with zero samples, f = c*z.  Calling field() costs one inverse transform
    and one n x n array, so a right-hand side that ignores f should not call
    it; each step then runs two transforms instead of three.  psi_values is
    the kernel's work array, from n = 128 a view with padded rows: rhs may
    read or overwrite it during the call but must not keep it.  A result
    written into psi_values and returned costs nothing; any other result,
    a view of psi_values included, is copied into it.

    Each step is R <- R + damping * M(fft2(rhs) - R) on the candidate's
    spectrum R (see the module docstring), written into the one of two
    spectrum buffers that does not hold the best iterate.

    tol is the absolute stopping threshold, finite and >= 0: the solve
    stops at the first equation residual <= tol.  On exhaustion the best
    iterate (least residual) is returned with converged=False.  A
    non-finite residual stops the iteration at once: it is left out of
    the history, the best finite iterate is returned with converged=False
    and the notes name the iteration.  If the first residual is already
    non-finite there is no finite iterate to return and ArithmeticError
    is raised.

    linear = (a, b, k) declares rhs(psi) = a*psi + b*conj(psi) + U(psi) + h
    with |a| + |b| < 1 and the whole map k-Lipschitz, k < 1.  With (a, b)
    not both zero, M = T^-1 solves the linear part exactly in the start and
    each step, and damping must be 1; the first step that contracts by less
    than k drops T^-1 for the rest of the solve, and restarts it from the
    affine start if it is the second step.  (a, b) may also be a map's
    derivative at c_mean (_chord), which the map need not honour away from
    c_mean: the same guard holds it.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (0.0 <= tol < math.inf):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")

    n = spec.n
    beur, inv_dzbar = _kernel_symbols(n, spec.L)
    if linear is not None and (linear[0], linear[1]) == (0, 0):
        linear = None  # a zero linear part: plain steps
    if linear is not None:
        a, b, k = complex(linear[0]), complex(linear[1]), float(linear[2])
        if not (abs(a) + abs(b) < 1.0 and 0.0 <= k < 1.0):
            raise ValueError(f"linear part needs |a|+|b| < 1 and k in [0, 1), got {linear}")
        if damping != 1.0:
            raise ValueError("a preconditioned solve takes no damping")
    c_mean = complex(c_mean)

    def field(R: np.ndarray | None = None, work: np.ndarray | None = None) -> GridField:
        """The candidate with spectrum R, transformed in work if given; None: f = c*z."""
        if R is None:
            P, d = np.zeros((n, n), dtype=complex), 0
        else:
            P, d = _half_multiply(R, inv_dzbar, out=work), complex(R[0, 0]) / (n * n)
            np.fft.ifftn(P, out=P)
        P.setflags(write=False)  # adopted by the field if fresh, copied if work
        return GridField(spec, c_mean, d, P)

    pad = 8 if n >= 128 else 0  # psi's rows: see the module docstring
    psi = np.empty((n, n + pad), dtype=complex)[:, :n]

    def take_rhs(candidate: Callable[[], GridField]) -> np.ndarray:
        """rhs(candidate, psi), run under the caller's buffer size, taken into psi."""
        with _ufunc_buffer(caller):
            r = rhs(candidate, psi)
        if r is not psi:  # a fresh array, or a view of psi
            np.copyto(psi, r)
        return psi

    def from_start(out: np.ndarray) -> np.ndarray:
        """fft2 of the right-hand side at the affine start f = c*z, into out."""
        psi.fill(c_mean)
        np.copyto(out, np.fft.fft2(take_rhs(field), out=psi))
        return out

    with _ufunc_buffer(min(n, np.getbufsize())) as caller:  # one row: see above
        R = from_start(np.empty((n, n), dtype=complex))
        # T^-1's multipliers while the solve preconditions, built before the
        # second spectrum buffer so that its temporaries never coexist with it
        inverse = None if linear is None else _linear_inverse(beur, a, b)
        spectra = (R, np.empty((n, n), dtype=complex))
        if inverse is not None:  # the start with U frozen at U(c) and the linear part solved
            R = _apply_inverse(R, spectra[1], *inverse)

        history: list[float] = []
        converged = False
        notes: list[str] = []
        best_R, best_res = None, np.inf
        for it in range(1, max_iter + 1):
            _half_multiply(R, beur, out=psi)
            np.fft.ifftn(psi, out=psi)  # not ifft2, which ignores out=
            psi += c_mean
            take_rhs(partial(field, R))
            # psi takes E = fft2(rhs) - R; by Parseval ||rhs - r||_2 = ||E||_2 / n^2
            E = np.subtract(np.fft.fft2(psi, out=psi), R, out=psi)
            res = math.sqrt(_sum_squares(E)) / (n * n)
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
            # beside R while R is the best iterate, over R once it is not
            R_next = spectra[1] if best_R is spectra[0] else spectra[0]
            if inverse is not None and len(history) > 1 and res > k * history[-2]:
                inverse = None  # later steps are plain, from this step's R + E
                notes.append(f"preconditioned step contracted by less than k = {k:g} "
                             f"at iteration {it}; plain steps from "
                             f"{'the start' if it == 2 else 'there'}")
                if it == 2:  # the first step failed: plain steps as from the start
                    R = from_start(R_next)
                    continue
            if inverse is not None:  # R is the best iterate: R_next is not R
                E = _apply_inverse(E, R_next, *inverse)
            elif damping != 1.0:
                E *= damping
            R = np.add(R, E, out=R_next)

        # free all but best_R and psi, in which the answer is transformed,
        # so that it is built below the loop's peak
        spectra = R = R_next = E = inverse = None
        return field(best_R, psi), SolveReport(history, converged, "; ".join(notes))
