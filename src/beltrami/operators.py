"""Spectral derivative and singular-integral operators on torus fields.

Everything here is a Fourier multiplier.  For the plane wave
exp(i*(k1*x + k2*y)*2*pi/L) with complex wavevector kc = (2*pi/L)*(k1 + i*k2):

    d/dz       -> (i/2) * conj(kc)
    d/dconj(z) -> (i/2) * kc
    beurling   -> conj(kc) / kc          (zero mode maps to 0)

Conventions fixed here: coefficients are stored in numpy fft2 layout
(fftfreq ordering, Nyquist rows use the signed representative -n/2), and
the beurling transform's zero mode is 0; means of derivative fields are
carried by the affine coefficients, never by the periodic part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import DerivedPair, GridField, GridSpec

__all__ = [
    "SpectralCoeffs",
    "to_coeffs",
    "from_coeffs",
    "coeff_at",
    "d_z",
    "d_zbar",
    "derivative_pair",
    "beurling",
    "antiderivative_zbar",
    "resample",
]


@lru_cache(maxsize=32)
def _wavevectors(n: int, L: float) -> np.ndarray:
    """The complex wavevector grid KC = (2*pi/L) * (k1 + i*k2)."""
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)  # 0, 1, ..., n/2-1, -n/2, ..., -1
    K1, K2 = np.meshgrid(k, k)  # K1 varies along columns (x), K2 along rows (y)
    KC = (2.0 * np.pi / L) * (K1 + 1j * K2)
    KC.setflags(write=False)
    return KC


@lru_cache(maxsize=32)
def _multipliers(n: int, L: float):
    """(d/dz symbol, d/dzbar symbol, beurling symbol, 1/dzbar symbol)."""
    KC = _wavevectors(n, L)
    sym_dz = 0.5j * np.conj(KC)
    sym_dzbar = 0.5j * KC
    with np.errstate(divide="ignore", invalid="ignore"):
        beur = np.conj(KC) / KC
        inv_dzbar = 1.0 / sym_dzbar
    beur[0, 0] = 0.0
    inv_dzbar[0, 0] = 0.0
    for a in (sym_dz, sym_dzbar, beur, inv_dzbar):
        a.setflags(write=False)
    return sym_dz, sym_dzbar, beur, inv_dzbar


@dataclass(frozen=True)
class SpectralCoeffs:
    """Fourier coefficients of a field's periodic part, fft2 layout.

    coeffs[k2_index, k1_index] multiplies exp(i*(k1*x + k2*y)*2*pi/L); the
    (0, 0) entry is the periodic mean.
    """

    spec: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=complex)
        if a.shape != (self.spec.n, self.spec.n):
            raise ValueError(f"coefficient shape {a.shape} does not match grid {self.spec.n}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)


def to_coeffs(f: GridField) -> SpectralCoeffs:
    """Coefficients of the periodic part (the affine part is not spectral)."""
    return SpectralCoeffs(f.spec, np.fft.fft2(f.values) / (f.spec.n ** 2))


def from_coeffs(sc: SpectralCoeffs, c: complex = 0.0, d: complex = 0.0) -> GridField:
    vals = np.fft.ifft2(sc.coeffs * (sc.spec.n ** 2))
    return GridField(sc.spec, c, d, vals)


def coeff_at(sc: SpectralCoeffs, k1: int, k2: int) -> complex:
    """Coefficient of the (k1, k2) mode; indices in [-n/2, n/2)."""
    n = sc.spec.n
    if not (-n // 2 <= k1 < n // 2 and -n // 2 <= k2 < n // 2):
        raise ValueError(f"wavevector ({k1}, {k2}) outside the resolved band")
    return complex(sc.coeffs[k2 % n, k1 % n])


def d_zbar(f: GridField) -> GridField:
    """df/dconj(z), computed spectrally.

    The output is purely periodic: the input's affine d becomes the output's
    mean (folded into the zero mode), and the output's affine part is zero.
    """
    _, sym, _, _ = _multipliers(f.spec.n, f.spec.L)
    vals = np.fft.ifft2(np.fft.fft2(f.values) * sym)
    return GridField(f.spec, 0.0, 0.0, vals + f.d)


def d_z(f: GridField) -> GridField:
    """df/dz, computed spectrally; mirror of d_zbar (mean = input's c)."""
    sym, _, _, _ = _multipliers(f.spec.n, f.spec.L)
    vals = np.fft.ifft2(np.fft.fft2(f.values) * sym)
    return GridField(f.spec, 0.0, 0.0, vals + f.c)


def derivative_pair(f: GridField) -> DerivedPair:
    """Both Wirtinger derivatives of f with one forward transform."""
    sym_dz, sym_dzbar, _, _ = _multipliers(f.spec.n, f.spec.L)
    F = np.fft.fft2(f.values)
    dz = np.fft.ifft2(F * sym_dz) + f.c
    dzb = np.fft.ifft2(F * sym_dzbar) + f.d
    return DerivedPair(GridField(f.spec, 0.0, 0.0, dz),
                       GridField(f.spec, 0.0, 0.0, dzb))


def _second_derivatives(f: GridField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples of (f_zz, f_zzbar, f_zbarzbar) from one forward transform of f.

    Each is the product of two first-derivative symbols applied to the same
    spectrum; the affine part is linear, so no second derivative sees it.
    """
    sym_dz, sym_dzbar, _, _ = _multipliers(f.spec.n, f.spec.L)
    F = np.fft.fft2(f.values)
    Fz = F * sym_dz
    Fzb = F * sym_dzbar
    return (np.fft.ifft2(Fz * sym_dz), np.fft.ifft2(Fz * sym_dzbar),
            np.fft.ifft2(Fzb * sym_dzbar))


def beurling(phi: GridField) -> GridField:
    """Beurling transform of a purely periodic field.

    Mode-wise multiplication by conj(kc)/kc; the zero mode maps to 0, so the
    output has mean zero.  Intertwines the derivatives: beurling(d_zbar(f))
    equals d_z(f) for purely periodic f.  Callers must strip the affine part
    first (its image is not representable on the torus).
    """
    if not phi.is_periodic():
        raise ValueError("beurling requires a field with zero affine part")
    _, _, beur, _ = _multipliers(phi.spec.n, phi.spec.L)
    return GridField(phi.spec, 0.0, 0.0, np.fft.ifft2(np.fft.fft2(phi.values) * beur))


def antiderivative_zbar(phi: GridField, c: complex = 0.0) -> GridField:
    """The field F with dF/dconj(z) = phi, normalized to periodic mean zero.

    The mean of phi becomes F's affine coefficient d; the prescribed c sets
    F's z-derivative mean.  phi must be purely periodic (an affine part in
    phi would require quadratic terms, which fields cannot represent).
    """
    if not phi.is_periodic():
        raise ValueError("antiderivative_zbar requires a field with zero affine part")
    _, _, _, inv = _multipliers(phi.spec.n, phi.spec.L)
    F = np.fft.fft2(phi.values)
    mean = complex(F[0, 0]) / (phi.spec.n ** 2)
    vals = np.fft.ifft2(F * inv)
    return GridField(phi.spec, c, mean, vals)


def _resize_rows(A: np.ndarray, n: int) -> np.ndarray:
    """Spectrum rows in fft2 layout moved to a grid of n rows.

    Truncation sums the +-n/2 pair into the coarse Nyquist row, the mode both
    alias to; padding splits the Nyquist row in halves between +-m/2, so a
    real field stays real.  Halving and summing are exact in binary, so
    padding then truncating gives the rows back bit for bit.
    """
    m = A.shape[0]
    if n < m:
        half = n // 2
        B = A[np.r_[0:half, -half:0]]
        B[half] += A[half]
    else:
        half = m // 2
        B = np.zeros((n,) + A.shape[1:], dtype=complex)
        B[np.r_[0:half, -half:0]] = A
        B[-half] *= 0.5
        B[half] = B[-half]
    return B


def resample(f: GridField, new_n: int) -> GridField:
    """Re-sample the periodic part on a finer or coarser power-of-two grid.

    Exact for band-limited fields (spectral zero padding / truncation); the
    Nyquist modes are split evenly between +-n/2 when padding and summed when
    truncating, so real fields stay real either way.  The affine part is
    carried over unchanged.
    """
    src = f.spec
    dst = GridSpec(new_n, src.L)
    if new_n == src.n:
        return GridField(dst, f.c, f.d, f.values)
    A = np.fft.fft2(f.values) / (src.n ** 2)
    B = _resize_rows(_resize_rows(A, new_n).T, new_n).T
    vals = np.fft.ifft2(B * (new_n ** 2))
    return GridField(dst, f.c, f.d, vals)
