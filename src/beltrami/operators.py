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

from functools import lru_cache

import numpy as np

from .grid import DerivedPair, GridField, GridSpec

__all__ = [
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


def _conj_flip(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """conj(A[-k]) at every mode k of an fft2-layout spectrum.

    This is the spectrum of conj(ifft2(A)): conjugation pairs each mode with
    its negative, and the Nyquist rows map to themselves.  The reversed
    blocks are copied and then conjugated in place, so an out array takes
    the result without a temporary (a ufunc reading reversed strides
    allocates buffers; np.copyto does not).
    """
    if out is None:
        out = np.empty_like(A)
    blocks = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for dst_r, src_r in blocks:
        for dst_c, src_c in blocks:
            np.copyto(out[dst_r, dst_c], A[src_r, src_c])
    return np.conjugate(out, out=out)


def derivative_pair(f: GridField) -> DerivedPair:
    """Both Wirtinger derivatives (df/dz, df/dconj(z)) with one forward transform.

    Both outputs are purely periodic; f's affine c and d become their means.
    dz is built in one buffer and dzbar in the spectrum's own array (ifftn,
    since ifft2 ignores out=); both are locked and adopted by their fields,
    so two n x n arrays are allocated and none is copied.
    """
    sym_dz, sym_dzbar, _, _ = _multipliers(f.spec.n, f.spec.L)
    F = np.fft.fft2(f.values)
    dz = F * sym_dz
    np.add(np.fft.ifftn(dz, out=dz), f.c, out=dz)
    F *= sym_dzbar
    dzb = np.add(np.fft.ifftn(F, out=F), f.d, out=F)
    for a in (dz, dzb):
        a.setflags(write=False)
    return DerivedPair(GridField(f.spec, 0.0, 0.0, dz), GridField(f.spec, 0.0, 0.0, dzb))


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
    output has mean zero.  Intertwines the derivatives: for purely periodic
    f, beurling(derivative_pair(f).dzbar) equals derivative_pair(f).dz.
    Callers must strip the affine part first (its image is not representable
    on the torus).
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
