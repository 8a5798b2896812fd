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

Only the beurling symbol, which the fixed-point kernel reads in every
step, is kept: cached per grid on half the spectrum (rows 0..n/2 and the
Nyquist column; _half_multiply applies it).  Every other symbol (d/dz,
d/dzbar, 1/dzbar) is built as it is applied, over blocks of wavevector
rows, each used while it is in cache and then dropped.  Each wavevector
entry is one rounded product (2*pi/L)*k, k an integer, and a symbol's
parts are exact halves of them, so every block holds the bits of the
whole-grid expression.  The symbols are applied by calls with out=, which
no temporary elision reorders, so their blocks need not be _row_blocks':
a grid of one block (n <= 128) is cut into sixteenths (_symbol_blocks).
Only changevar's sheared symbol, an expression, takes _row_blocks.

Forward transforms write into a fresh array through out=: without it,
numpy's fft2 allocates an array per axis pass and holds two at its peak.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import _BLOCK, DerivedPair, GridField, GridSpec, _adopt, _row_blocks

__all__ = [
    "derivative_pair",
    "beurling",
    "antiderivative_zbar",
    "resample",
]


def _wavevectors(n: int, L: float, blocks=None):
    """Blocks of rows of the complex wavevector grid KC = (2*pi/L)*(k1 + i*k2),
    as (row slice, KC block) pairs, over the row slices blocks
    (_row_blocks(n) by default); k1 varies along columns (x), k2 along rows
    (y).  One buffer is refilled for every block, so a caller may overwrite
    a block but must be done with it before it takes the next."""
    k = (2.0 * np.pi / L) * np.fft.fftfreq(n, d=1.0 / n).astype(int)
    buf = np.empty(0, dtype=complex)
    for rows in _row_blocks(n) if blocks is None else blocks:
        size = (rows.stop - rows.start) * n
        if buf.size < size:
            buf = np.empty(size, dtype=complex)
        KC = buf[:size].reshape(rows.stop - rows.start, n)
        KC.real = k
        KC.imag = k[rows, None]
        yield rows, KC


def _symbol_blocks(n: int):
    """Row slices of an n x n grid for a symbol applied with out=: _BLOCK
    samples each, but a sixteenth of a grid that fits in one block
    (n <= 128), so no block is the whole grid."""
    step = n // 16 if n * n <= _BLOCK else _BLOCK // n
    return (slice(s, min(s + step, n)) for s in range(0, n, step))


class _Half(NamedTuple):
    """An even multiplier S kept on half the spectrum: rows 0..n/2 of S
    (top) and its whole Nyquist column (col, n entries).  Off that column
    S[-k] equals S[k]; on it, -k aliases back onto the column (k1 = -n/2 is
    its own negative), where S is no mirror of itself, so it is kept."""

    top: np.ndarray
    col: np.ndarray


@lru_cache(maxsize=32)
def _beurling_half(n: int, L: float) -> _Half:
    """The beurling symbol conj(KC)/KC as a _Half, 0 at the zero mode, from
    one pass over _symbol_blocks: read by the fixed-point kernel in every
    step, so kept per grid and locked."""
    h = n // 2
    top, col = np.empty((h + 1, n), dtype=complex), np.empty(n, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, KC in _wavevectors(n, L, _symbol_blocks(n)):
            S = np.divide(np.conj(KC), KC, out=KC)
            col[rows] = S[:, h]
            top[rows] = S[:len(top[rows])]  # top[rows] stops at row n/2
    top[0, 0] = 0.0
    top.setflags(write=False)
    col.setflags(write=False)
    return _Half(top, col)


def _half_multiply(A: np.ndarray, sym: _Half, out: np.ndarray) -> np.ndarray:
    """A * S for an fft2-layout spectrum A and a _Half multiplier S, written
    into out, which may be A.  Wherever A has no zero part the product has
    the bits of the product by the whole-grid S: a mode's negative has the
    exactly negated wavevector, so a mirrored entry differs from that S at
    most in the sign of a zero part.

    Rows 0..n/2 multiply the kept rows.  The rows below take S from a
    buffer of at most n/2 - 1 rows, and at most _BLOCK samples, per block:
    the kept rows mirrored through k -> -k by np.copyto (as _conj_flip
    does, with no ufunc buffers), and the Nyquist column.
    """
    top, col = sym
    n = A.shape[0]
    h = n // 2
    np.multiply(A[:h + 1], top, out=out[:h + 1])
    step = min(max(1, _BLOCK // n), h - 1)
    buf = np.empty((step, n), dtype=complex)
    for s in range(h + 1, n, step):
        e = min(s + step, n)
        S, src = buf[:e - s], slice(n - s, n - e, -1)  # rows n-s down to n-e+1
        np.copyto(S[:, :1], top[src, :1])
        np.copyto(S[:, 1:], top[src, :0:-1])
        S[:, h] = col[s:e]
        np.multiply(A[s:e], S, out=out[s:e])
    return out


def _inverse_dzbar(A: np.ndarray, L: float, out: np.ndarray | None = None) -> np.ndarray:
    """A times the 1/dzbar symbol 1/(0.5j*KC), 0 at the zero mode, for an
    fft2-layout spectrum A of period L, to the bits of the whole-grid
    product; out may be A.  Built as applied, a _symbol_blocks block at a time."""
    n = A.shape[0]
    if out is None:
        out = np.empty_like(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, KC in _wavevectors(n, L, _symbol_blocks(n)):
            S = np.divide(1.0, np.multiply(0.5j, KC, out=KC), out=KC)
            if rows.start == 0:
                S[0, 0] = 0.0
            np.multiply(A[rows], S, out=out[rows])
    return out


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


def _first_derivatives(f: GridField) -> tuple[np.ndarray, np.ndarray]:
    """Samples of (df/dz, df/dconj(z)) with one forward transform, in two
    fresh arrays that the caller owns.

    dz is built in one buffer and dzbar in the spectrum's own array (ifftn,
    since ifft2 ignores out=): two n x n arrays are allocated and none is
    copied.  Each block of the d/dz symbol is built in dz's rows, that of
    the d/dzbar symbol in the wavevector block (_symbol_blocks).
    """
    F = np.fft.fft2(f.values, out=np.empty_like(f.values))
    dz = np.empty_like(F)
    for rows, KC in _wavevectors(f.spec.n, f.spec.L, _symbol_blocks(f.spec.n)):
        sym_dz = np.conjugate(KC, out=dz[rows])
        sym_dz *= 0.5j
        np.multiply(F[rows], sym_dz, out=sym_dz)
        sym_dzbar = np.multiply(KC, 0.5j, out=KC)
        F[rows] *= sym_dzbar
    np.add(np.fft.ifftn(dz, out=dz), f.c, out=dz)
    return dz, np.add(np.fft.ifftn(F, out=F), f.d, out=F)


def derivative_pair(f: GridField) -> DerivedPair:
    """Both Wirtinger derivatives (df/dz, df/dconj(z)) with one forward transform.

    Both outputs are purely periodic; f's affine c and d become their means.
    Their fields adopt the two arrays _first_derivatives builds, so none is
    copied.
    """
    dz, dzb = _first_derivatives(f)
    return DerivedPair(_adopt(f.spec, dz), _adopt(f.spec, dzb))


def _second_derivatives(f: GridField, zbarzbar: bool = False) -> tuple[np.ndarray, ...]:
    """Samples of (f_zz, f_zzbar) from one forward transform of f, and
    f_zbarzbar after them when zbarzbar is set.

    Each is the product of two first-derivative symbols applied to the same
    spectrum; the affine part is linear, so no second derivative sees it.
    Every output costs one inverse transform, taken in place in a fresh
    array that the caller owns.  The spectra are built block by block of
    rows (_symbol_blocks): f_zz's rows first hold the d/dz symbol, and F's
    rows take f_z's spectrum and then f_zzbar's.
    """
    F = np.fft.fft2(f.values, out=np.empty_like(f.values))
    Fzz = np.empty_like(F)
    spectra = [Fzz, F] + ([np.empty_like(F)] if zbarzbar else [])
    for rows, KC in _wavevectors(f.spec.n, f.spec.L, _symbol_blocks(f.spec.n)):
        sym_dz = np.conjugate(KC, out=Fzz[rows])
        sym_dz *= 0.5j
        sym_dzbar = np.multiply(KC, 0.5j, out=KC)
        Fr = F[rows]
        if zbarzbar:
            Fzbzb = np.multiply(Fr, sym_dzbar, out=spectra[2][rows])
            Fzbzb *= sym_dzbar
        Fr *= sym_dz                            # f_z
        np.multiply(Fr, sym_dz, out=sym_dz)     # f_zz
        Fr *= sym_dzbar                         # f_zzbar
    return tuple(np.fft.ifftn(S, out=S) for S in spectra)


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
    F = np.fft.fft2(phi.values, out=np.empty_like(phi.values))
    beur = _beurling_half(phi.spec.n, phi.spec.L)
    return _adopt(phi.spec, np.fft.ifftn(_half_multiply(F, beur, out=F), out=F))


def antiderivative_zbar(phi: GridField, c: complex = 0.0) -> GridField:
    """The field F with dF/dconj(z) = phi, normalized to periodic mean zero.

    The mean of phi becomes F's affine coefficient d; the prescribed c sets
    F's z-derivative mean and must be finite.  phi must be purely periodic
    (an affine part in phi would require quadratic terms, which fields
    cannot represent).  phi's spectrum takes 1/dzbar in place (_inverse_dzbar).
    """
    if not phi.is_periodic():
        raise ValueError("antiderivative_zbar requires a field with zero affine part")
    if not np.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    F = np.fft.fft2(phi.values, out=np.empty_like(phi.values))
    mean = complex(F[0, 0]) / (phi.spec.n ** 2)
    return _adopt(phi.spec, np.fft.ifftn(_inverse_dzbar(F, phi.spec.L, out=F), out=F), c, mean)


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
    carried over unchanged; on the same grid f itself is returned (it is
    immutable).  The transforms are pruned (Markel, IEEE Trans. Audio
    Electroacoust. 1971) and keep the bits of the full fft2/ifft2, which
    transform rows first and columns second: padding takes the row pass of
    only the m + 1 spectrum rows that hold modes (a zero row transforms to
    zero), truncation the column pass of only the new_n + 1 columns it
    keeps or folds into the coarse Nyquist column.
    """
    src = f.spec
    dst = GridSpec(new_n, src.L)
    m = src.n
    if new_n == m:
        return f
    if new_n > m:
        half = m // 2
        A = np.fft.fft2(f.values, out=np.empty_like(f.values))
        A /= m ** 2
        keep = np.r_[0:half + 1, -half:0]  # the padded spectrum's nonzero rows
        rows = _resize_rows(_resize_rows(A, new_n)[keep].T, new_n).T * (new_n ** 2)
        vals = np.zeros((new_n, new_n), dtype=complex)
        vals[keep] = np.fft.ifft(rows, axis=1)
        np.fft.ifft(vals, axis=0, out=vals)
    else:
        half = new_n // 2
        # the coarse columns in fft2 layout, then +new_n/2, which folds into -new_n/2
        cols = np.fft.fft(f.values, axis=1)[:, np.r_[0:half, -half:0, half]]
        B = _resize_rows(np.fft.fft(cols, axis=0, out=cols) / (m ** 2), new_n)
        B[:, half] += B[:, new_n]
        vals = B[:, :new_n] * (new_n ** 2)
        np.fft.ifftn(vals, out=vals)
    return _adopt(dst, vals, f.c, f.d)
