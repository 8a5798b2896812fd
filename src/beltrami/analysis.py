"""Probes that verify properties of computed solutions: pointwise
distortion, empirical critical integrability exponents, recovery of
pointwise coefficients for the derivative fields, and the inverse-map
(hodograph) identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autonomous import AutonomousMap
from .grid import GridField, _adopt, _row_blocks, _z_at, values_l2
from .operators import _second_derivatives, derivative_pair

__all__ = [
    "DEGENERACY_GAP",
    "distortion_stats",
    "DistortionStats",
    "RegularityReport",
    "sobolev_probe",
    "second_order_probe",
    "CoefficientFields",
    "recover_coefficients",
    "GradientCheckResult",
    "gradient_equation_check",
    "HodographResult",
    "hodograph_check",
    "directional_derivative_fields",
    "directional_family_max_distortion",
]

# |f_z| - |f_zbar| at or below this gap counts as orientation-degenerate.
DEGENERACY_GAP = 1e-12


def _distortion_values(fz: np.ndarray, fzb: np.ndarray) -> np.ndarray:
    """Samplewise distortion (|f_z|+|f_zbar|)/(|f_z|-|f_zbar|), inf where
    the orientation degenerates."""
    a, b = np.abs(fz), np.abs(fzb)
    lo = a - b
    return np.divide(a + b, lo, out=np.full(a.shape, np.inf), where=lo > DEGENERACY_GAP)


def _moduli_blocks(fz: np.ndarray, fzb: np.ndarray):
    """(|f_z|, |f_zbar|, |f_z| + |f_zbar|) over the row blocks (_row_blocks)
    of the pair's n x n sample arrays, in row order: one block's moduli,
    their sum and its distortion stay in cache."""
    for rows in _row_blocks(fz.shape[0]):
        a, b = np.abs(fz[rows]), np.abs(fzb[rows])
        yield a, b, a + b


def _finite_distortion(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The finite values of _distortion_values over one block, in row order,
    from its moduli a, b and their sum m; overwrites a and b."""
    lo = np.subtract(a, b, out=a)
    b.fill(np.inf)
    K = np.divide(m, lo, out=b, where=lo > DEGENERACY_GAP)
    return K[np.isfinite(K)]


class _Compacted:
    """Samples picked out block by block, kept front to back in one buffer."""

    def __init__(self, size: int):
        self._buf, self._used = np.empty(size), 0

    def add(self, picked: np.ndarray) -> None:
        self._buf[self._used:self._used + picked.size] = picked
        self._used += picked.size

    def values(self) -> np.ndarray:
        return self._buf[:self._used]


@dataclass(frozen=True)
class DistortionStats:
    max: float
    quantiles: tuple[float, ...]          # 50%, 90%, 99% over nondegenerate samples
    degenerate_fraction: float


def _pair_stats(fz: np.ndarray, fzb: np.ndarray) -> DistortionStats:
    """Distortion statistics of one derivative pair's sample arrays, from
    one pass over row blocks that keeps only the finite distortion values,
    which the quantiles then partition in place."""
    finite = _Compacted(fz.size)
    for a, b, m in _moduli_blocks(fz, fzb):
        finite.add(_finite_distortion(a, b, m))
    finite = finite.values()
    if finite.size == 0:
        return DistortionStats(math.inf, (math.inf,) * 3, 1.0)
    top = float(finite.max())  # before quantile partitions the array
    q = tuple(float(v) for v in np.quantile(finite, [0.5, 0.9, 0.99], overwrite_input=True))
    return DistortionStats(top, q, 1.0 - finite.size / fz.size)


def distortion_stats(f: GridField) -> DistortionStats:
    fz, fzb = derivative_pair(f)
    return _pair_stats(fz.values, fzb.values)


@dataclass
class RegularityReport:
    """Outcome of an integrability probe over a refinement ladder.

    p_critical is the largest probed exponent whose mean |Df|^p stays
    stable under grid doubling (math.inf when every exponent is stable);
    tail_exponent, Hill's tail index of the finest |Df|, cross-checks it:
    2K/(K-1) for |Df| ~ r^((1-K)/K); on a smooth field, finite but no
    exponent (30 to 280 on random_trig_fields).  The verdicts (stable),
    p_critical and norms are read from p_grid and power_means.
    """

    tail_exponent: float
    distortion_max: float
    grid_levels: tuple[int, ...]
    p_grid: tuple[float, ...]
    power_means: tuple[tuple[float, ...], ...]   # [level][p]: mean |Df|^p

    @property
    def stable(self) -> tuple[bool, ...]:
        """[p]: the Cauchy test on the level-to-level increments of mean
        |Df|^p.  Increments growing by more than GROWTH_TOLERANCE per
        doubling (geometric mean) read unstable; increments of at most
        1e-12 times the column's largest mean, or a column below 1e-280 (a
        zero gradient), read stable."""
        stable = []
        for col in np.array(self.power_means).T:
            scale, diffs = float(col.max()), np.abs(np.diff(col))
            # an identically-zero gradient, or increments at roundoff: stable
            if scale < 1e-280 or np.all(diffs <= 1e-12 * scale):
                stable.append(True)
                continue
            ratios = np.maximum(diffs[1:], 1e-300) / np.maximum(diffs[:-1], 1e-300)
            stable.append(float(np.exp(np.mean(np.log(ratios)))) <= GROWTH_TOLERANCE)
        return tuple(stable)

    @property
    def tail_stderr(self) -> float:
        """Hill's asymptotic standard error, tail_exponent / sqrt(m), bias aside."""
        return self.tail_exponent / math.sqrt(_tail_count(self.grid_levels[-1]))

    @property
    def norms(self) -> tuple[tuple[float, ...], ...]:
        """[level][p]: (mean |Df|^p)^(1/p)."""
        norms = np.array(self.power_means) ** (1.0 / np.array(self.p_grid))[None, :]
        return tuple(tuple(r) for r in norms)

    @property
    def p_critical(self) -> float:
        stable = self.stable
        if all(stable):
            return math.inf
        first_bad = stable.index(False)
        return self.p_grid[first_bad - 1] if first_bad > 0 else self.p_grid[0]

    def norm_rows(self):
        """(p, level, norm, power_mean, stable) rows for CSV emission."""
        norms, stable = self.norms, self.stable
        rows = []
        for j, p in enumerate(self.p_grid):
            for i, n in enumerate(self.grid_levels):
                rows.append((p, n, norms[i][j], self.power_means[i][j], stable[j]))
        return rows


# Growth of the level-to-level increments of mean |Df|^p per doubling above
# this factor marks p unstable (a Cauchy test: shrinking increments mean the
# Riemann sums converge, growing increments mean they diverge).
GROWTH_TOLERANCE = 1.10

# Samples per chunk of the power-mean pass: every exponent's terms for one
# chunk (len(p_grid) * _CHUNK doubles) stay in cache.  Not grid._BLOCK,
# the row block the moduli are read in.
_CHUNK = 4096

# Hill's estimator reads the largest _TAIL_FRACTION of the finest level's
# samples: m = _tail_count(n) of them.
_TAIL_FRACTION = 0.005


def _tail_count(n: int) -> int:
    return math.ceil(_TAIL_FRACTION * n * n)


def sobolev_probe(fields, p_grid, pairs=None) -> RegularityReport:
    """Estimate the critical integrability exponent of the gradient.

    fields: the same solution sampled at >= 3 doubling grid levels.
    p_grid: increasing finite exponents >= 1, else ValueError.
    pairs: optional derivative pairs, one per level (a DerivedPair or any
    (dz, dzbar) pair of fields on that level's grid), read one level at a
    time as that level is probed, so an iterator may build each on demand;
    a pair on another grid, or too few or too many pairs, raise ValueError.
    By default each is computed spectrally, with one forward transform per
    level.  For each p the probe tracks the Riemann sums mean(|Df|^p)
    across levels (|Df| = |f_z| + |f_zbar|, the maximal directional
    derivative) and applies a Cauchy test to their level-to-level
    increments: shrinking increments mean convergence, increments growing
    beyond 10% per doubling mean divergence.  For a power-law singularity
    |Df| ~ r^(-2/p_critical) the increment ratio per doubling is
    2^(2(p - p_critical)/p_critical) on both sides of the critical
    exponent, so the crossing locates it sharply.
    p_critical is the largest stable exponent below the first unstable one
    (inf when every probed p is stable).
    Each level is one pass over row blocks of about 2^14 samples of its
    pair, taking |f_z|, |f_zbar| and |Df| once per block.  Each power mean
    sums exp(p log|Df|) over the samples with |Df| != 0 (a zero adds
    0^p = 0) and divides by all n^2 samples: every exponent is evaluated
    together over chunks of 4096 of those logarithms, in sample order, the
    fewer than 4096 left at the end of a block carried into the next.  Only
    the finest level keeps samples beyond a block: its finite log|Df| above
    a running floor, which np.partition cuts back to the top m + 1 once past
    2m + 1 (m = _tail_count(n)), for tail_exponent, Hill's estimator (Ann.
    Statist. 3, 1975) m / sum(log x_i - log x_0) over the top m, x_0 the
    (m+1)-th largest, summed in sorted order (inf with at most m samples or
    a zero sum); its largest finite distortion is a running maximum.  A term
    differs from |Df|^p by at most about eps*(1 + p*|log|Df||) relative,
    and both overflow or underflow alike once p*|log|Df|| passes about 709
    (1.7e-13 relative); adding up the chunks adds at most about eps per
    chunk (5.7e-14 at n = 1024).  Up to n = 2048 this stays below the
    1e-12 increment guard (2.4e-15 on the benchmark's ladders).
    """
    fields = list(fields)
    if len(fields) < 3:
        raise ValueError("need at least three refinement levels")
    ns = [f.spec.n for f in fields]
    if any(b != 2 * a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"levels must double the grid: {ns}")
    if len({f.spec.L for f in fields}) != 1:
        raise ValueError("levels must share the physical period")
    p_grid = [float(p) for p in p_grid]
    if (not p_grid or not all(1 <= p < math.inf for p in p_grid)
            or any(b <= a for a, b in zip(p_grid, p_grid[1:]))):
        raise ValueError("p_grid must be non-empty, increasing, finite and >= 1")
    misfit = "pairs must hold one derivative pair per level, on that level's grid"
    if pairs is not None:
        pairs = iter(pairs)

    power_means = np.zeros((len(fields), len(p_grid)))
    p_col, blk = np.array(p_grid)[:, None], np.empty((len(p_grid), _CHUNK))

    def add_chunk(row, logs):
        part = blk[:, :logs.size]
        row += np.exp(np.multiply(p_col, logs, out=part), out=part).sum(axis=1)

    top = -math.inf  # the finest level's largest finite distortion
    tail = _tail_count(ns[-1])
    kept, floor = np.empty(0), -math.inf  # the finest level's finite log|Df| > floor
    for i, (row, f) in enumerate(zip(power_means, fields)):
        pair = derivative_pair(f) if pairs is None else next(pairs, None)
        if pair is None or any(g.spec != f.spec for g in pair):
            raise ValueError(misfit)
        fz, fzb = (g.values for g in pair)
        finest = i == len(fields) - 1
        carry = np.empty(0)  # the logarithms short of a whole chunk
        for a, b, m in _moduli_blocks(fz, fzb):
            logs = m[m != 0]  # a zero adds 0^p = 0; a NaN still reaches the sum
            np.log(logs, out=logs)
            if finest:
                top = float(_finite_distortion(a, b, m).max(initial=top))
                kept = np.concatenate((kept, logs[(logs > floor) & (logs < math.inf)]))
                if kept.size > 2 * tail + 1:
                    kept = np.partition(kept, -tail - 1)[-tail - 1:]
                    floor = kept[0]
            logs = np.concatenate((carry, logs))
            whole = logs.size - logs.size % _CHUNK
            for s in range(0, whole, _CHUNK):
                add_chunk(row, logs[s:s + _CHUNK])
            carry = logs[whole:]
        if carry.size:
            add_chunk(row, carry)
        row /= fz.size
    if pairs is not None and next(pairs, None) is not None:
        raise ValueError(misfit)
    x = np.sort(kept)[-tail - 1:]  # the top tail + 1, ascending
    total = float(np.sum(x[1:] - x[0])) if kept.size > tail else 0.0
    return RegularityReport(
        tail_exponent=tail / total if total > 0 else math.inf,
        distortion_max=top if top > -math.inf else math.inf,
        grid_levels=tuple(ns),
        p_grid=tuple(p_grid),
        power_means=tuple(tuple(r) for r in power_means),
    )


def second_order_probe(fields, k: float, q_grid) -> RegularityReport:
    """Integrability probe for the second derivatives.

    Applies the gradient probe to (f_zz, f_zzbar), the derivative pair of
    f_z, taken from one forward and two inverse transforms of each ladder
    member when its level is probed.  q_grid is checked as the gradient probe's p_grid.  The
    interesting comparison level is q against 1 + 1/k; k is only
    range-checked and changes no output.
    """
    if not (0 < k < 1):
        raise ValueError("need a Lipschitz constant in (0, 1)")
    fields = list(fields)

    def pair(f):  # built when sobolev_probe reads f's level
        return tuple(_adopt(f.spec, a) for a in _second_derivatives(f))

    return sobolev_probe(fields, q_grid, pairs=map(pair, fields))


@dataclass(frozen=True)
class CoefficientFields:
    """Pointwise coefficients (mu, nu) for the derivative-field equations.

    flagged marks samples where the 2x2 recovery system was too close to
    singular (both directional gradients conformal, proportional, or zero);
    values there are least-norm placeholders, not measurements.
    """

    mu: GridField
    nu: GridField
    flagged: np.ndarray

    @property
    def flagged_fraction(self) -> float:
        return float(np.mean(self.flagged))


def recover_coefficients(fx: GridField, fy: GridField, k: float) -> CoefficientFields:
    """Samplewise solve of h_zbar = mu*h_z + nu*conj(h_z) for h in {fx, fy}.

    fx, fy must be the two directional derivative fields of one solution.
    The 2x2 complex system is solved where its smallest singular value is
    at least 1e-6 times the largest (and the largest clears an absolute
    floor, so roundoff-level gradients of constant fields cannot
    masquerade as data); elsewhere the sample is flagged and a least-norm
    value, computed on the flagged samples only, is stored.  k is only
    range-checked, as second_order_probe checks it (ValueError outside
    (0, 1)): no output depends on it.
    """
    if not (0 < k < 1):
        raise ValueError("need a Lipschitz constant in (0, 1)")
    if fx.spec != fy.spec:
        raise ValueError("directional derivative fields live on different grids")
    ax, bx = (g.values for g in derivative_pair(fx))
    ay, by = (g.values for g in derivative_pair(fy))

    det = ax * np.conj(ay) - np.conj(ax) * ay
    fro2 = (np.abs(ax) ** 2 + np.abs(ay) ** 2) * 2.0
    # exact singular values of [[ax, conj(ax)], [ay, conj(ay)]]
    disc = np.sqrt(np.maximum(fro2 ** 2 - 4.0 * np.abs(det) ** 2, 0.0))
    smax = np.sqrt((fro2 + disc) / 2.0)
    smin = np.where(smax > 0, np.abs(det) / np.maximum(smax, 1e-300), 0.0)

    floor = 1e-9 * max(float(smax.max()), 1e-300)
    good = (smin >= 1e-6 * smax) & (smax > floor)

    safe_det = np.where(good, det, 1.0)
    mu = (bx * np.conj(ay) - np.conj(ax) * by) / safe_det
    nu = (ax * by - bx * ay) / safe_det
    flagged = ~good
    if flagged.any():  # least-norm values there (rank <= 1 pseudo-inverse)
        ax, bx, ay, by = (a[flagged] for a in (ax, bx, ay, by))
        s2 = np.maximum(smax[flagged] ** 2, 1e-300)
        mu[flagged] = (np.conj(ax) * bx + np.conj(ay) * by) / s2
        nu[flagged] = (ax * bx + ay * by) / s2
    return CoefficientFields(mu=_adopt(fx.spec, mu), nu=_adopt(fx.spec, nu), flagged=flagged)


@dataclass(frozen=True)
class GradientCheckResult:
    residual: float        # relative l2 residual on the well-conditioned set
    k_prime: float         # max |mu| / (1 - |nu|) on that set


def gradient_equation_check(f: GridField, coeffs: CoefficientFields) -> GradientCheckResult:
    """Check that f_z satisfies the derived equation with the recovered
    coefficients:

        (f_z)_zbar = [mu/(1-|nu|^2)] (f_z)_z + [conj(mu) nu/(1-|nu|^2)] conj((f_z)_z)

    restricted to the well-conditioned samples.  Also reports the derived
    equation's ellipticity bound k' = max |mu|/(1-|nu|) there: inf once any
    of those samples has |nu| >= 1, 0.0 when every sample is flagged (f is
    then not transformed).
    """
    if f.spec != coeffs.mu.spec:
        raise ValueError("field and coefficients live on different grids")
    good = ~coeffs.flagged
    if not np.any(good):
        return GradientCheckResult(0.0, 0.0)
    fzz, fzzb = _second_derivatives(f)
    # flat views when every sample is good, else gathers of the good ones
    take = slice(None) if good.all() else good.reshape(-1)
    mu, nu, fzz, lhs = (a.reshape(-1)[take] for a in
                        (coeffs.mu.values, coeffs.nu.values, fzz, fzzb))
    denom = 1.0 - np.abs(nu) ** 2
    rhs = mu / denom * fzz + np.conj(mu) * nu / denom * np.conj(fzz)
    num, den = values_l2(lhs - rhs), values_l2(lhs)
    residual = 0.0 if den < 1e-280 and num < 1e-280 else num / max(den, 1e-300)
    abs_nu = np.abs(nu)
    k_prime = math.inf if np.any(abs_nu >= 1.0) else float(np.max(np.abs(mu) / (1.0 - abs_nu)))
    return GradientCheckResult(residual, k_prime)


def directional_derivative_fields(f: GridField) -> tuple[GridField, GridField]:
    """The x- and y-directional derivatives of f as purely periodic fields."""
    fz, fzb = (g.values for g in derivative_pair(f))
    return _adopt(f.spec, fz + fzb), _adopt(f.spec, 1j * (fz - fzb))


def directional_family_max_distortion(f: GridField) -> float:
    """Max samplewise distortion over cos(t)*fx + sin(t)*fy, 16 directions t.

    The angles t are spaced evenly over [0, pi).  Samples wherever the
    member's gradient magnitude |v_z| + |v_zbar| exceeds the floor 1e-8.
    Returns 0.0 when every member is below the floor, else inf on a periodic
    field: by Parseval a member's sum |v_z|^2 equals its sum |v_zbar|^2, so
    each non-constant one reaches a degenerate sample, |v_z| <= |v_zbar|.
    The member cos(t)*fx + sin(t)*fy is e^{it} f_z + e^{-it} f_zbar, so its
    derivative pair comes from f's second derivatives (one transform).  The
    loop stops once the running max is inf, which no later member exceeds.
    """
    fzz, fzzb, fzbzb = _second_derivatives(f, zbarzbar=True)
    worst = 0.0
    for t in np.linspace(0.0, np.pi, 16, endpoint=False):
        e = complex(math.cos(t), math.sin(t))
        vz = e * fzz + e.conjugate() * fzzb
        vzb = e * fzzb + e.conjugate() * fzbzb
        mag = np.abs(vz) + np.abs(vzb)
        active = mag > 1e-8
        if not np.any(active):
            continue
        K = _distortion_values(vz, vzb)[active]
        worst = max(worst, float(K.max()))
        if worst == math.inf:
            break
    return worst


@dataclass(frozen=True)
class HodographResult:
    max_identity_residual: float
    max_derivative_ratio: float   # max |h_wbar| / |h_w| over accepted points
    accepted: int
    skipped: int


def _bilinear(values: np.ndarray, spec, z: np.ndarray) -> np.ndarray:
    """Periodic bilinear interpolation of grid samples at the points z."""
    n, h = spec.n, spec.h
    fx, fy = z.real / h, z.imag / h
    j0, i0 = np.floor(fx), np.floor(fy)
    tx, ty = fx - j0, fy - i0
    # wrap before the int cast: a diverging probe can leave the int64 range
    j0 = (j0 % n).astype(int)
    i0 = (i0 % n).astype(int)
    j1, i1 = (j0 + 1) % n, (i0 + 1) % n
    return ((1 - tx) * (1 - ty) * values[i0, j0] + tx * (1 - ty) * values[i0, j1]
            + (1 - tx) * ty * values[i1, j0] + tx * ty * values[i1, j1])


def hodograph_check(
    f: GridField,
    A: AutonomousMap,
    sample_points: int,
    seed: int = 0,
    min_jacobian: float = 0.1,
    fd_step: float | None = None,
) -> HodographResult:
    """Probe the equation satisfied by the local inverse h of f.

    Near randomly chosen grid points the inverse is computed by damped
    fixed-point refinement on the bilinear interpolant (target 1e-12, 50
    steps), its derivatives h_w, h_wbar and Jacobian J = |h_w|^2 - |h_wbar|^2
    are estimated by centered differences, and the identity

        h_wbar = -J * A( conj(h_w) / J )

    is evaluated (the sign and conjugation follow from the 2x2 inverse
    Jacobian; they are forced by the closed-form affine case).  Points
    whose forward Jacobian falls below min_jacobian, whose inversion misses
    1e-9 after the 50 steps, or whose inverse Jacobian is not positive are
    skipped and counted.  Also reports max |h_wbar|/|h_w|, which the
    gradient bound |A(zeta)| <= k|zeta| caps at k.  The inversion runs as
    one batch over the four probes of every point, each probe stopping on
    its own once it meets the target; both maxima are Python floats (0.0
    when no point is accepted).
    """
    if sample_points < 1:
        raise ValueError("need at least one sample point")
    spec = f.spec
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, spec.n, size=(sample_points, 2)).T
    dfz, dfzb = (g.values[i, j] for g in derivative_pair(f))
    jac = np.abs(dfz) ** 2 - np.abs(dfzb) ** 2
    kept = jac > min_jacobian
    i, j, dfz, dfzb, jac = i[kept], j[kept], dfz[kept], dfzb[kept], jac[kept]

    delta = fd_step if fd_step is not None else 0.5 * spec.h
    z0 = _z_at(spec, i, j)
    w0 = f.c * z0 + f.d * np.conj(z0) + f.values[i, j]

    def f_at(z: np.ndarray) -> np.ndarray:
        return f.c * z + f.d * np.conj(z) + _bilinear(f.values, spec, z)

    # rows: the probes w0 + delta, w0 - delta, w0 + i*delta, w0 - i*delta
    w = w0 + np.array([delta, -delta, 1j * delta, -1j * delta])[:, None]
    z = np.broadcast_to(z0, w.shape)
    moving = np.ones(w.shape, dtype=bool)
    for _ in range(50):
        err = w - f_at(z)
        moving &= np.abs(err) > 1e-12
        if not moving.any():
            break
        step = (np.conj(dfz) * err - dfzb * np.conj(err)) / jac
        z = np.where(moving, z + 0.8 * step, z)
    inverted = np.all(np.abs(w - f_at(z)) <= 1e-9, axis=0)

    hx = (z[0] - z[1]) / (2 * delta)
    hy = (z[2] - z[3]) / (2 * delta)
    h_w = (hx - 1j * hy) / 2
    h_wb = (hx + 1j * hy) / 2
    J_h = np.abs(h_w) ** 2 - np.abs(h_wb) ** 2
    ok = inverted & (J_h > 0)
    h_w, h_wb, J_h = h_w[ok], h_wb[ok], J_h[ok]
    rhs = -J_h * A.eval(np.conj(h_w) / J_h)
    scale = np.maximum(np.abs(h_w), 1e-300)
    accepted = int(ok.sum())
    return HodographResult(float(np.max(np.abs(h_wb - rhs) / scale, initial=0.0)),
                           float(np.max(np.abs(h_wb) / scale, initial=0.0)),
                           accepted, sample_points - accepted)
