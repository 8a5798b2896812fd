"""Periodic complex fields on a square torus with an explicit affine part.

A field is represented as

    f(z) = c*z + d*conj(z) + P(z)

where P is doubly periodic with period L in both coordinates and is stored
as point samples on the n-by-n lattice z = (j + i*k) * L/n (column j gives
the x coordinate, row k the y coordinate, sample (0, 0) at z = 0).  The
affine part carries the prescribed derivative means: the z-derivative of f
has mean c, the conj(z)-derivative has mean d.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridSpec",
    "GridField",
    "DerivedPair",
    "zero_field",
    "lp_norm",
    "z_grid",
    "read_field",
    "write_field",
]

# Full-precision decimal format of the BFLD2 header and the CSV outputs; 17
# significant digits round-trips any float64 exactly.
_FMT = "%.17g"


@dataclass(frozen=True)
class GridSpec:
    """Square torus lattice: n samples per axis, physical period L."""

    n: int
    L: float = 2.0 * math.pi

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {self.n}")
        if not (0 < self.L < math.inf):
            raise ValueError(f"period must be positive and finite, got {self.L}")

    @property
    def h(self) -> float:
        """Lattice spacing L/n."""
        return self.L / self.n


def z_grid(spec: GridSpec, rows: slice = slice(None)) -> np.ndarray:
    """Complex sample locations, shape (n, n); [k, j] = (j + i*k) * L/n.

    One array, its real and imaginary parts filled from the coordinates:
    the bits of meshgrid's x + 1j*y, with none of its three temporaries.
    rows builds only those grid rows: the bits of z_grid(spec)[rows]."""
    t = np.arange(spec.n) * spec.h
    y = t[rows]
    z = np.empty((y.size, spec.n), dtype=complex)
    z.real = t
    z.imag = y[:, None]
    return z


def _z_at(spec: GridSpec, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """z_grid(spec)[i, j] without the grid: the same coordinates, read at
    the points only."""
    t = np.arange(spec.n) * spec.h
    z = np.empty(np.shape(i), dtype=complex)
    z.real = t[j]
    z.imag = t[i]
    return z


@dataclass(frozen=True)
class GridField:
    """Immutable field c*z + d*conj(z) + P on a GridSpec lattice.

    values is stored as a read-only complex (n, n) array.  An array that is
    already one (complex, C-contiguous, of the grid's shape, owning its
    memory and read-only) is adopted as it is; any other input, a writeable
    array or a view included, is copied.  The package hands over its fresh
    arrays through _adopt, which locks them.
    """

    spec: GridSpec
    c: complex
    d: complex
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.spec.n
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype == complex and v.shape == (n, n)
                and v.flags.c_contiguous and v.flags.owndata and not v.flags.writeable):
            v = np.asarray(v, dtype=complex)
            if v.size != n * n:
                raise ValueError(f"sample-count mismatch: expected {n ** 2}, got {v.size}")
            v = v.reshape(n, n).copy()
            v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "d", complex(self.d))

    def total_values(self) -> np.ndarray:
        """Samples of the full field (affine part included) on one cell."""
        z = z_grid(self.spec)
        return self.c * z + self.d * np.conj(z) + self.values

    def is_periodic(self) -> bool:
        return self.c == 0 and self.d == 0

    # Pointwise arithmetic; the affine coefficients combine linearly.
    def __add__(self, other: "GridField") -> "GridField":
        self._check_same_spec(other)
        return _adopt(self.spec, self.values + other.values,
                      self.c + other.c, self.d + other.d)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check_same_spec(other)
        return _adopt(self.spec, self.values - other.values,
                      self.c - other.c, self.d - other.d)

    def __mul__(self, s: complex) -> "GridField":
        return _adopt(self.spec, s * self.values, s * self.c, s * self.d)

    __rmul__ = __mul__

    def _check_same_spec(self, other: "GridField") -> None:
        if self.spec != other.spec:
            raise ValueError(f"grid spec mismatch: {self.spec} vs {other.spec}")


class DerivedPair(NamedTuple):
    """The derivative pair (df/dz, df/dconj(z)) of one field.

    Built by operators.derivative_pair, so both members share the source
    field's GridSpec; mean(dz) equals the source's c and mean(dzbar) equals
    the source's d.  A tuple, so ``dz, dzbar = pair`` unpacks.
    """

    dz: GridField
    dzbar: GridField


def _adopt(spec: GridSpec, values: np.ndarray, c: complex = 0.0, d: complex = 0.0) -> GridField:
    """The GridField that adopts values, a fresh complex n x n array that
    nothing else keeps: locked here, so it is not copied (a view still is)."""
    values.setflags(write=False)
    return GridField(spec, c, d, values)


def zero_field(spec: GridSpec) -> GridField:
    return _adopt(spec, np.zeros((spec.n, spec.n), dtype=complex))


def lp_norm(f: GridField, p: float) -> float:
    """Riemann-sum L^p norm over one period, normalized by the cell area.

    Computes (mean of |f|^p over the lattice)^(1/p) for 1 <= p < inf,
    which approximates ( (1/L^2) * integral |f|^p )^(1/p).  A field without
    an affine part is read from its samples directly:
    |0*z + 0*conj(z) + P| = |P| exactly.
    """
    if not (1 <= p < math.inf):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    v = f.values if f.is_periodic() else f.total_values()
    return _lp_of_moduli(np.abs(v), p)


def _lp_of_moduli(moduli: np.ndarray, p: float) -> float:
    """lp_norm's formula on moduli already taken, so that a caller needing
    several exponents takes |v| once."""
    return float(np.mean(moduli ** p) ** (1.0 / p))


def _sum_squares(values: np.ndarray) -> float:
    """sum |v|^2 of a complex n x n array, contiguous or a padded view, by
    einsum (no BLAS), which sums a flat float array in 8192-double buffers,
    in order, whatever np.setbufsize says: 4096-sample chunks copied into
    one scratch give its bits (an einsum per row would not)."""
    n = len(values)
    rows, cols = min(n, max(1, 4096 // n)), min(n, 4096)
    chunk = np.empty((rows, cols), dtype=complex)
    x = chunk.reshape(-1).view(float)
    total = 0.0
    for r in range(0, n, rows):
        for c in range(0, n, cols):
            np.copyto(chunk, values[r:r + rows, c:c + cols])
            total += float(np.einsum("i,i->", x, x))
    return total


def values_l2(values: np.ndarray) -> float:
    """Cell-averaged l2 norm of raw samples: sqrt(mean |v|^2)."""
    sq = np.abs(values)
    return float(np.sqrt(np.mean(np.square(sq, out=sq))))


def _blocked_l2(pointwise, scratch: np.ndarray) -> float:
    """values_l2 of the n x n samples that pointwise(rows) returns block by
    block (_row_blocks), in one pass and with values_l2's bits.

    scratch is a complex n x n array that pointwise has read up to the
    block's rows when it returns, and that the block it returns does not
    share.  A block's squared moduli fill the n*(e - s) floats of scratch's
    float view from s*n, which lie in rows s/2..e/2, already read; one
    np.mean over its first n^2 floats, in grid order, sums them as
    values_l2 sums the whole array.
    """
    n = len(scratch)
    sq = scratch.reshape(-1).view(float)[:n * n]
    for rows in _row_blocks(n):
        out = sq[rows.start * n:rows.stop * n].reshape(-1, n)
        np.abs(pointwise(rows), out=out)
        np.square(out, out=out)
    return float(np.sqrt(np.mean(sq)))


# Samples per row block of every blocked pass over an n x n grid
# (_row_blocks): wavevectors, the mirrored rows of a half-spectrum symbol,
# both solvers' right-hand sides, radial fixture, moduli pass, the
# coefficients writer.  A complex block is 256 KiB, so its arrays stay in
# L2 (the radial fixture builds about as fast at 2^13..2^16, n = 128..1024,
# on a Xeon), and the writer's floats, cell tuple and string stay near 2 MB.
# 256 KiB is also numpy's threshold for eliding a temporary into a
# product's result, which reorders its operands: a block elides where the
# whole grid does (n <= 128 is one block), so blocked products round as
# the grid's, and the bytes of changevar and of the autonomous and
# full-map solves depend on that.
_BLOCK = 1 << 14


def _row_blocks(n: int):
    """Slices of the rows of an n x n grid in order, about _BLOCK samples
    (and at least one row) each; the last may be shorter."""
    rows = max(1, _BLOCK // n)
    for s in range(0, n, rows):
        yield slice(s, min(s + rows, n))


def _all_finite(values: np.ndarray, *affine) -> bool:
    """Whether a contiguous complex array and the affine numbers are finite, with
    no temporary of the array's size: a NaN or an infinity sets a min or max."""
    x = values.reshape(-1).view(float)
    return bool(np.isfinite([*affine, x.min(), x.max()]).all())


def write_field(f: GridField, path) -> None:
    """Write a field as a BFLD2 file.

    Line 1 is ASCII: ``BFLD2 <n> <n> <L> <c_re> <c_im> <d_re> <d_im>``, 17
    significant digits; then exactly n^2 samples as little-endian complex128
    (``<c16``) in row-major order, the array's own buffer on a little-endian
    host.  A non-finite sample or affine coefficient raises ValueError before
    the file is created, since read_field refuses such a file.
    """
    if not _all_finite(f.values, f.c, f.d):
        raise ValueError(f"cannot write non-finite values to {path!r}")
    nums = (f.spec.L, f.c.real, f.c.imag, f.d.real, f.d.imag)
    head = f"BFLD2 {f.spec.n} {f.spec.n} " + " ".join(_FMT % x for x in nums)
    with open(path, "wb") as fh:
        fh.write(head.encode() + b"\n")
        fh.write(f.values.astype("<c16", copy=False))


def read_field(path) -> GridField:
    """Read a BFLD2 file, bit for bit: the header line, then exactly 16*n^2
    bytes.  A BFLD1 (text) file is refused."""
    with open(path, "rb") as fh:
        line = fh.readline()
        head = line.split()
        if head[:1] == [b"BFLD1"]:
            raise ValueError(f"{path!r} is BFLD1 text, which is no longer read: re-run the solve")
        if len(head) != 8 or head[0] != b"BFLD2":
            raise ValueError(f"malformed header in {path!r}")
        try:
            n1, n2 = int(head[1]), int(head[2])
            L, cre, cim, dre, dim = (float(x) for x in head[3:])
        except ValueError as exc:
            raise ValueError(f"malformed header in {path!r}: {exc}") from None
        if n1 != n2:
            raise ValueError(f"malformed header in {path!r}: grid must be square")
        spec = GridSpec(n1, L)
        size = os.fstat(fh.fileno()).st_size - len(line)
        if size != 16 * n1 * n1:
            raise ValueError(f"sample-count mismatch in {path!r}: {size} bytes, not 16*{n1 * n1}")
        # rows of n samples: one owning n x n array, which the field adopts
        values = np.fromfile(fh, dtype=np.dtype(("<c16", n1)))
    if not _all_finite(values, cre, cim, dre, dim):
        raise ValueError(f"non-finite values in {path!r}")
    return _adopt(spec, values, complex(cre, cim), complex(dre, dim))
