"""Synthetic fields: band-limited trigonometric fields and the radial
calibration fixture with a prescribed critical integrability exponent.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridField, GridSpec, _adopt, _row_blocks, z_grid

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
    lattice the same way in either route).  The inverse transform and its
    scaling run in place on the coefficient array, which the field adopts:
    the bytes of ifft2(coeffs) * n^2 from one n x n array.
    """
    n = spec.n
    coeffs = np.zeros((n, n), dtype=complex)
    for k1, k2, coeff in waves:
        coeffs[k2 % n, k1 % n] += coeff
    np.fft.ifftn(coeffs, out=coeffs)
    coeffs *= n * n
    return _adopt(spec, coeffs, c, d)


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
# distances scale exactly with the lattice.  With |Df| ~ r^(-2/p_critical),
# Riemann sums of |Df|^p then grow like n^(2p/p_critical - 2) with a
# level-independent prefactor, so their increments grow by
# 2^(2(p - p_critical)/p_critical) per doubling: precisely what the
# probe's increment test measures.
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
    """Fresh samples of (g, g_z, g_zb), g = w(r)*Z*s with Z = z - z0,
    r = |Z|, s = r^(2*beta) and w the window, from the closed form
    g_z = s*((1 + beta)*w + c), g_zb = (Z^2/r^2)*s*(beta*w + c), c = r*w'(r)/2.
    Real products, real-by-complex products and one complex square over
    row blocks (_row_blocks): the bytes do not depend on the blocking, and
    no n x n temporary is made."""
    if not 1 < K < math.inf:
        raise ValueError(f"distortion parameter must be finite and exceed 1, got {K}")
    L, n = spec.L, spec.n
    z0 = L * (_CENTER_FRAC[0] + 1j * _CENTER_FRAC[1])
    beta = (1.0 - K) / (2.0 * K)          # exponent 2*beta = 1/K - 1
    parts = tuple(np.empty((n, n), dtype=complex) for _ in range(3))
    for rows in _row_blocks(n):
        g, g_z, g_zb = (a[rows] for a in parts)
        Z = z_grid(spec, rows)
        Z -= z0
        # the centre sits a third of a spacing off the lattice in x and y,
        # so r >= h/3 and nothing below divides by zero
        r = np.abs(Z)
        # wide transition band keeps the window's own gradient small, so the
        # distribution tail stays a clean power law from the center alone
        w, dw = _window(r, 0.15 * L, 0.45 * L)
        c = r * dw / 2.0
        s = r ** (2.0 * beta)             # diverges at the (off-lattice) center
        np.multiply(Z, w * s, out=g)
        g_z[...] = s * ((1.0 + beta) * w + c)
        np.multiply(Z, Z, out=g_zb)
        g_zb *= s * (beta * w + c) / (r * r)
    return parts


def radial_extremal_field(spec: GridSpec, K: float) -> GridField:
    """Windowed radial map z*|z|^(1/K-1) around an off-lattice center.

    Its gradient lies in L^p exactly for p < 2K/(K-1), which calibrates
    the integrability probe.  Its distortion is K where the window is flat,
    r < 0.15*L; the largest lies on the window's band 0.15*L < r < 0.45*L.
    The window makes the samples exactly periodic.
    """
    return _adopt(spec, _radial_parts(spec, K)[0])


def radial_extremal_pair(spec: GridSpec, K: float) -> tuple[GridField, GridField, GridField]:
    """The windowed radial map plus its analytically sampled derivative pair.

    Returns (field, dz, dzbar); dz is real.  The distortion is K only
    where the window is flat, r < 0.15*L (see radial_extremal_field).
    Analytic sampling avoids polluting the probe calibration with ringing
    from spectral differentiation of a point-singular field.  The samples
    are built over blocks of rows into the arrays the fields adopt, and
    their bytes do not depend on the blocking.
    """
    return tuple(_adopt(spec, a) for a in _radial_parts(spec, K))
