"""Synthetic fields: band-limited trigonometric fields and the radial
calibration fixture with a prescribed critical integrability exponent.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridField, GridSpec, z_grid

__all__ = [
    "trig_field",
    "random_waves",
    "random_trig_field",
    "radial_extremal_field",
    "radial_extremal_pair",
]


def trig_field(spec: GridSpec, waves, c: complex = 0.0, d: complex = 0.0) -> GridField:
    """Field whose periodic part is sum of coeff * exp(2i*pi*(k1*x+k2*y)/L).

    waves is an iterable of (k1, k2, coeff).  Synthesized spectrally, which
    reproduces pointwise evaluation exactly (integer modes alias onto the
    lattice the same way in either route).
    """
    n = spec.n
    coeffs = np.zeros((n, n), dtype=complex)
    for k1, k2, coeff in waves:
        coeffs[k2 % n, k1 % n] += coeff
    return GridField(spec, c, d, np.fft.ifft2(coeffs) * (n * n))


def random_waves(rng: np.random.Generator, band: int = 3, modes: int = 6,
                 amplitude: float = 1.0):
    """Random band-limited wave list without the zero mode; coefficients
    ~ amplitude in size."""
    out = []
    while len(out) < modes:
        k1, k2 = (int(v) for v in rng.integers(-band, band + 1, size=2))
        if k1 == 0 and k2 == 0:
            continue
        coeff = amplitude * (rng.normal() + 1j * rng.normal()) / math.sqrt(2)
        out.append((k1, k2, coeff))
    return out


def random_trig_field(spec: GridSpec, seed: int, band: int = 3, modes: int = 6,
                      amplitude: float = 1.0, c: complex = 0.0,
                      d: complex = 0.0) -> GridField:
    rng = np.random.default_rng(seed)
    return trig_field(spec, random_waves(rng, band, modes, amplitude), c, d)


# Off-lattice center of the radial fixture.  Thirds are invariant
# under dyadic refinement (doubling maps the fractional offset 1/3 <-> 2/3,
# and the two offset patterns are mirror images), so for every power-of-two
# n >= 16 the lattice samples the singular neighborhood self-similarly: the
# nearest sample always sits at sqrt(2)/3 spacings and the surrounding ring
# distances scale exactly with the lattice.  Riemann sums of |Df|^p then
# grow like n^(p/2 - p_critical/2) with a level-independent prefactor,
# which is precisely what the probe's increment test measures.
_CENTER_FRAC = (0.5 + 1.0 / 48.0, 0.5 + 1.0 / 24.0)


def _window(r: np.ndarray, r0: float, r1: float):
    """C-infinity radial bump: 1 on [0, r0], 0 beyond r1, and its r-derivative;
    the exponentials are evaluated on the transition band r0 < r < r1 only."""
    t = (r - r0) / (r1 - r0)
    w = (t <= 0).astype(float)
    dw = np.zeros_like(r)
    band = (t > 0) & (t < 1)
    t = t[band]
    sa = np.exp(-1.0 / t)
    sb = np.exp(-1.0 / (1.0 - t))
    w[band] = sb / (sa + sb)
    # d/dt of sb/(sa+sb); sa' = sa/t^2, sb' = -sb/(1-t)^2
    da = sa / t ** 2
    db = -sb / (1.0 - t) ** 2
    dw[band] = (db * (sa + sb) - sb * (da + db)) / (sa + sb) ** 2 / (r1 - r0)
    return w, dw


def _radial_parts(spec: GridSpec, K: float):
    if not 1 < K < math.inf:
        raise ValueError(f"distortion parameter must be finite and exceed 1, got {K}")
    L = spec.L
    z0 = L * (_CENTER_FRAC[0] + 1j * _CENTER_FRAC[1])
    Z = z_grid(spec)
    Z -= z0
    r = np.abs(Z)
    beta = (1.0 - K) / (2.0 * K)          # f0 = Z * |Z|^(2*beta), exponent 1/K - 1
    rb = r ** (2.0 * beta)                # diverges at the (off-lattice) center
    f0 = Z * rb
    g_z = (1.0 + beta) * rb + 0j          # f0_z, windowed in place below
    g_zb = np.divide(Z, np.conj(Z), out=np.zeros_like(Z), where=r > 0)
    g_zb *= beta
    g_zb *= rb                            # f0_zb, windowed in place below
    # wide transition band keeps the window's own gradient small, so the
    # distribution tail stays a clean power law from the center alone
    w, dw = _window(r, 0.15 * L, 0.45 * L)
    two_r = np.maximum(r, 1e-300)
    two_r *= 2.0
    # g_z = w*f0_z + dw*conj(Z)/(2r)*f0 and g_zb = w*f0_zb + dw*Z/(2r)*f0,
    # built in place in that operation order, so the samples keep their
    # bytes; one scratch buffer holds each pass's term, then g = w*f0
    term = np.empty_like(Z)
    for g_d, z_part in ((g_z, np.conj(Z, out=term)), (g_zb, Z)):
        np.multiply(z_part, dw, out=term)
        term /= two_r
        term *= f0
        g_d *= w
        g_d += term
    return np.multiply(w, f0, out=term), g_z, g_zb


def radial_extremal_field(spec: GridSpec, K: float) -> GridField:
    """Windowed radial map z*|z|^(1/K-1) around an off-lattice center.

    Constant distortion K inside the window; its gradient lies in L^p
    exactly for p < 2K/(K-1), which calibrates the integrability probe.
    The window makes the samples exactly periodic.
    """
    g, _, _ = _radial_parts(spec, K)
    return GridField(spec, 0.0, 0.0, g)


def radial_extremal_pair(spec: GridSpec, K: float) -> tuple[GridField, GridField, GridField]:
    """The windowed radial map plus its analytically sampled derivative pair.

    Returns (field, dz, dzbar).  Analytic sampling avoids polluting the
    probe calibration with ringing from spectral differentiation of a
    point-singular field.
    """
    g, g_z, g_zb = _radial_parts(spec, K)
    return (GridField(spec, 0.0, 0.0, g),
            GridField(spec, 0.0, 0.0, g_z),
            GridField(spec, 0.0, 0.0, g_zb))
