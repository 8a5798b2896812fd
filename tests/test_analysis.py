import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami import (
    CoefficientFields,
    DerivedPair,
    GridField,
    GridSpec,
    abs_map,
    derivative_pair,
    directional_derivative_fields,
    directional_family_max_distortion,
    distortion_stats,
    gradient_equation_check,
    HodographResult,
    hodograph_check,
    linear_map,
    radial_extremal_field,
    radial_extremal_pair,
    random_trig_field,
    recover_coefficients,
    second_order_probe,
    sobolev_probe,
    solve_autonomous,
    trig_field,
    zero_field,
    z_grid,
)
from beltrami import analysis, grid
from beltrami.analysis import (
    GROWTH_TOLERANCE,
    DistortionStats,
    RegularityReport,
    _distortion_values,
)
from beltrami.operators import _second_derivatives
from beltrami.synth import _CENTER_FRAC
from _helpers import rel_l2, traced_peak, wavevectors

SPEC = GridSpec(64)
# a smooth ladder, built outside the counted calls (trig_field calls ifft2)
LADDER = [random_trig_field(GridSpec(n), seed=5, amplitude=0.05, c=1.0)
          for n in (32, 64, 128)]


def affine(c, d, spec=SPEC):
    return GridField(spec, c, d, np.zeros(spec.n ** 2))


def field_with_dz(dz):
    """A field whose z-derivative has the samples dz (to roundoff): the mean
    of dz is its affine c, the rest comes from dividing by the d/dz symbol."""
    spec = GridSpec(dz.shape[0])
    sym_dz = 0.5j * np.conj(wavevectors(spec.n, spec.L))
    F = np.fft.fft2(dz - dz.mean())
    F[0, 0] = 0.0
    F[1:] /= sym_dz[1:]
    F[0, 1:] /= sym_dz[0, 1:]
    return GridField(spec, dz.mean(), 0.0, np.fft.ifft2(F))


class TestDistortion:
    def test_conformal(self):
        st = distortion_stats(affine(1.0, 0.0))
        assert st.max == 1.0
        assert st.degenerate_fraction == 0.0

    def test_half_shear_is_three(self):
        assert distortion_stats(affine(1.0, 0.5)).max == pytest.approx(3.0)

    def test_orientation_reversal_fully_degenerate(self):
        st = distortion_stats(affine(0.0, 1.0))
        assert st.degenerate_fraction == 1.0
        assert math.isinf(st.max)

    def test_field_carries_sentinels(self):
        K = _distortion_values(*(g.values for g in derivative_pair(affine(0.0, 1.0))))
        assert np.all(np.isinf(K))

    def test_matches_directional_ratio(self):
        # (|fz|+|fzb|)/(|fz|-|fzb|) equals max/min of |d_alpha f| over
        # directions; check on a smooth field against 360 sampled angles
        # with one local refinement pass around each extreme (coarse-only
        # sampling is O(step^2) away from the true extremes)
        f = random_trig_field(SPEC, seed=4, amplitude=0.15, c=1.0)
        fz, fzb = (g.values for g in derivative_pair(f))
        K = _distortion_values(fz, fzb)

        def directional(i, j, alphas):
            return np.abs(fz[i, j] * np.exp(1j * alphas)
                          + fzb[i, j] * np.exp(-1j * alphas))

        coarse = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        step = coarse[1]
        for i, j in [(3, 7), (11, 40), (60, 5), (32, 32)]:
            d = directional(i, j, coarse)
            hi, lo = coarse[d.argmax()], coarse[d.argmin()]
            d_hi = directional(i, j, hi + np.linspace(-step, step, 400))
            d_lo = directional(i, j, lo + np.linspace(-step, step, 400))
            ratio = d_hi.max() / d_lo.min()
            assert ratio == pytest.approx(K[i, j], rel=1e-6)

    def test_degeneracy_gap_is_1e_12(self):
        # |f_z| - |f_zbar| = 1e-10 is orientation-preserving, 1e-13 is not
        e = np.exp(0.3j)
        K = _distortion_values(np.array([3e-10, 3e-13]) * e, np.array([2e-10, 2e-13]) / e)
        assert K[0] == pytest.approx(5.0, rel=1e-5)
        assert math.isinf(K[1])


class TestSobolevProbe:
    def test_smooth_field_all_stable(self):
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128, 256)]
        rep = sobolev_probe(fields, [2.0, 4.0, 8.0])
        assert math.isinf(rep.p_critical)
        assert rep.distortion_max == 1.0

    def test_radial_extremal_calibration(self):
        fields, pairs = [], []
        for n in (64, 128, 256):
            g, gz, gzb = radial_extremal_pair(GridSpec(n), 2.0)
            fields.append(g)
            pairs.append((gz, gzb))
        rep = sobolev_probe(fields, np.arange(2.0, 8.01, 0.2), pairs=pairs)
        # closed-form oracle: integral of r^(p(1/K-1)+1) dr diverges exactly
        # at p = 2K/(K-1) = 4
        assert 3.6 <= rep.p_critical <= 4.4
        assert rep.tail_exponent == pytest.approx(4.0, rel=0.1)

    @pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
    def test_increment_law(self, K):
        # |Df| ~ r^(-2/p*) on the self-similar fixture: the increments of
        # mean |Df|^p grow by 2^(2(p - p*)/p*) per doubling, on both sides of
        # p* = 2K/(K-1) (measured within 6.5e-4 relative)
        fields, pairs = _extremal_ladder(K, 256)
        p_star = 2.0 * K / (K - 1.0)
        p_grid = np.array([p_star - 1.0, p_star + 1.0, p_star + 2.0])
        rep = sobolev_probe(fields, p_grid, pairs=pairs)
        steps = np.abs(np.diff(np.array(rep.power_means), axis=0))
        law = 2.0 ** (2.0 * (p_grid - p_star) / p_star)
        assert np.allclose(steps[1] / steps[0], law, rtol=1e-3, atol=0.0)

    def test_abs_map_solve_regression_baseline(self):
        # empirical baseline, frozen: solves of the modulus map with smooth
        # forcing are analytic, so every probed exponent stays stable
        A = abs_map(0.3)
        fields = []
        for n in (64, 128, 256):
            spec = GridSpec(n)
            h = trig_field(spec, [(1, 0, 0.1)])
            f, rep = solve_autonomous(A, h, 1.0, tol=1e-11)
            assert rep.converged
            fields.append(f)
        rep = sobolev_probe(fields, np.arange(2.0, 10.01, 0.5))
        assert math.isinf(rep.p_critical)
        assert rep.distortion_max == pytest.approx(2.2657, abs=2e-3)
        assert distortion_stats(fields[-1]).degenerate_fraction == 0.0

    def test_derived_pairs_read_like_tuples(self):
        fields, tuples = [], []
        for n in (64, 128, 256):
            g, gz, gzb = radial_extremal_pair(GridSpec(n), 2.0)
            fields.append(g)
            tuples.append((gz, gzb))
        p_grid = np.arange(2.0, 6.01, 0.5)
        analytic = sobolev_probe(fields, p_grid, pairs=[DerivedPair(*t) for t in tuples])
        assert analytic == sobolev_probe(fields, p_grid, pairs=tuples)
        # the given pairs are the ones probed: spectral pairs read differently
        spectral = sobolev_probe(fields, p_grid, pairs=[derivative_pair(g) for g in fields])
        assert spectral == sobolev_probe(fields, p_grid)
        assert spectral.power_means != analytic.power_means

    def test_needs_three_levels(self):
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128)]
        with pytest.raises(ValueError, match="three"):
            sobolev_probe(fields, [2.0])

    def test_needs_one_pair_per_level(self):
        # two pairs for three levels ran into an unbound name
        fields, pairs = _extremal_ladder(2.0, 16)
        with pytest.raises(ValueError, match="one derivative pair per level"):
            sobolev_probe(fields, [2.0], pairs=pairs[:2])

    @pytest.mark.parametrize("count", [2, 4])
    def test_iterated_pairs_one_per_level(self, count):
        # pairs are read one level at a time: an iterator of too few or too
        # many is refused as a list is, and one of three probes as the list
        fields, pairs = _extremal_ladder(2.0, 16)
        with pytest.raises(ValueError, match="one derivative pair per level"):
            sobolev_probe(fields, [2.0], pairs=iter((pairs + pairs)[:count]))
        assert sobolev_probe(fields, [2.0], pairs=iter(pairs)) == sobolev_probe(
            fields, [2.0], pairs=pairs)

    def test_pairs_sit_on_their_levels_grid(self):
        # three pairs of the coarse level were read as three levels
        fields, pairs = _extremal_ladder(2.0, 16)
        with pytest.raises(ValueError, match="on that level's grid"):
            sobolev_probe(fields, [2.0], pairs=[pairs[0]] * 3)
        with pytest.raises(ValueError, match="on that level's grid"):
            sobolev_probe(fields, [2.0], pairs=[pairs[0], (pairs[1][0], pairs[2][1]),
                                                pairs[2]])

    def test_levels_must_double(self):
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128, 512)]
        with pytest.raises(ValueError, match="double"):
            sobolev_probe(fields, [2.0])

    @pytest.mark.parametrize("p_grid", [[math.nan, 2.0], [2.0, math.inf], [2.0, math.nan]])
    def test_rejects_non_finite_exponents(self, p_grid):
        # nan reported p_critical = nan, and inf a verdict from an infinite exponent
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128, 256)]
        with pytest.raises(ValueError, match="finite"):
            sobolev_probe(fields, p_grid)

    def test_accepts_p_one(self):
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128, 256)]
        assert math.isinf(sobolev_probe(fields, [1.0, 2.0]).p_critical)

    @pytest.mark.parametrize("probe", ["sobolev", "second_order"])
    def test_rejects_an_empty_exponent_grid(self, probe):
        # no exponent probed read as p_critical = inf, "every exponent stable"
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128, 256)]
        with pytest.raises(ValueError, match="p_grid must be non-empty"):
            if probe == "sobolev":
                sobolev_probe(fields, [])
            else:
                second_order_probe(fields, 0.5, np.array([]))

    def test_norm_rows_shape(self):
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128, 256)]
        rep = sobolev_probe(fields, [2.0, 3.0])
        rows = rep.norm_rows()
        assert len(rows) == 6  # 2 exponents x 3 levels

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), zero_frac=st.floats(0.0, 0.5),
           p_grid=st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=6,
                           unique=True).map(sorted),
           reach=st.floats(1.0, 700.0))
    def test_power_means_match_mean_of_powers(self, seed, zero_frac, p_grid, reach):
        # one logarithm per level and one exponential per exponent give
        # mean(|Df| ** p) to about eps * (1 + p * |log|Df||) relative; exact
        # zeros map to 0 ** p = 0.  The largest p reaches p * |log|Df|| =
        # reach, up to the overflow edge
        rng = np.random.default_rng(seed)
        fields, pairs, mags = [], [], []
        for n in (16, 32, 64):
            spec = GridSpec(n)
            m = np.exp(rng.uniform(-reach, reach, (n, n)) / p_grid[-1])
            m[rng.random((n, n)) < zero_frac] = 0.0
            fields.append(zero_field(spec))
            pairs.append((GridField(spec, 0.0, 0.0, m + 0j),
                          GridField(spec, 0.0, 0.0, np.zeros((n, n), complex))))
            mags.append(m)
        rep = sobolev_probe(fields, p_grid, pairs=pairs)
        eps = np.finfo(float).eps
        for row, m in zip(rep.power_means, mags):
            ref = np.array([np.mean(m ** p) for p in p_grid])
            log_max = float(np.max(np.abs(np.log(m[m > 0]))))
            bound = eps * (16.0 + np.array(p_grid) * log_max) * ref
            assert np.all(np.abs(np.array(row) - ref) <= bound)
        # Hill reads the finest level's logarithms, the top m + 1 as a whole-array sort
        assert rep.tail_exponent == _hill_reference(mags[-1])

    @pytest.mark.parametrize("step, stable", [(1e-11, False), (1e-13, True)])
    def test_increment_guard_is_1e_12(self, step, stable):
        # constant magnitudes 1, 1 + step, 1 + 3 * step: the increments grow
        # x2 per doubling, which the Cauchy test reads as divergence once
        # they pass the 1e-12 roundoff guard
        fields, pairs = [], []
        for n, level in ((16, 1.0), (32, 1.0 + step), (64, 1.0 + 3 * step)):
            spec = GridSpec(n)
            fields.append(zero_field(spec))
            pairs.append((GridField(spec, 0.0, 0.0, np.full((n, n), level + 0j)),
                           zero_field(spec)))
        rep = sobolev_probe(fields, [1.0], pairs=pairs)
        assert np.diff(np.ravel(rep.power_means)) == pytest.approx([step, 2 * step], rel=1e-3)
        assert rep.stable == (stable,)

    def test_power_means_over_several_blocks(self):
        # the finest level's positive samples fill two chunks and part of a
        # third; every chunk adds each exponent's terms once
        rng = np.random.default_rng(19)
        p_grid = [1.0, 2.5, 7.0, 40.0]
        fields, pairs, mags = [], [], []
        for n in (32, 64, 128):
            spec = GridSpec(n)
            m = np.exp(rng.uniform(-3.0, 3.0, (n, n)))
            m[rng.random((n, n)) < 0.3] = 0.0
            fields.append(zero_field(spec))
            pairs.append((GridField(spec, 0.0, 0.0, m + 0j), zero_field(spec)))
            mags.append(m)
        positive = int(np.count_nonzero(mags[-1]))
        assert positive > 2 * analysis._CHUNK and positive % analysis._CHUNK
        rep = sobolev_probe(fields, p_grid, pairs=pairs)
        # the documented bound: eps * (1 + p * |log|Df||) per term and about
        # eps per chunk from adding up the chunks
        eps = np.finfo(float).eps
        for row, m in zip(rep.power_means, mags):
            ref = np.array([np.mean(m ** p) for p in p_grid])
            log_max = float(np.max(np.abs(np.log(m[m > 0]))))
            chunks = m.size / analysis._CHUNK
            bound = eps * (16.0 + chunks + np.array(p_grid) * log_max) * ref
            assert np.all(np.abs(np.array(row) - ref) <= bound)

    def test_zero_gradient_reads_zero_and_stable(self):
        # no positive sample: every power mean is 0 and no log of 0 is taken
        fields = [zero_field(GridSpec(n)) for n in (16, 32, 64)]
        rep = sobolev_probe(fields, [1.0, 2.0, 4.0])
        assert rep.power_means == ((0.0,) * 3,) * 3
        assert rep.stable == (True,) * 3 and math.isinf(rep.p_critical)

    def test_nan_sample_reaches_the_power_means(self):
        # skipping the zeros must not skip a NaN: it reads as unstable
        fields, pairs = [], []
        for n in (16, 32, 64):
            spec = GridSpec(n)
            dz = np.ones((n, n), complex)
            if n == 32:
                dz[3, 5] = np.nan
            fields.append(zero_field(spec))
            pairs.append((GridField(spec, 0.0, 0.0, dz), zero_field(spec)))
        rep = sobolev_probe(fields, [1.0, 2.0], pairs=pairs)
        assert np.isnan(rep.power_means[1]).all() and not np.isnan(rep.power_means[0]).any()
        assert rep.stable == (False, False)

    @pytest.mark.parametrize("K, p_critical", [(1.5, 6.4), (2.0, 4.2), (3.0, 3.2)])
    def test_extremal_verdicts_at_128(self, K, p_critical):
        # the fixture's documented verdicts on the 128, 256, 512 ladder
        # over p = 2, 2.2, ..., 8 (closed forms 6, 4 and 3)
        fields, pairs = [], []
        for n in (128, 256, 512):
            g, gz, gzb = radial_extremal_pair(GridSpec(n), K)
            fields.append(g)
            pairs.append((gz, gzb))
        rep = sobolev_probe(fields, np.arange(2.0, 8.0 + 1e-9, 0.2), pairs=pairs)
        assert rep.p_critical == pytest.approx(p_critical, abs=1e-9)


class TestStableVerdict:
    """A report reads its verdicts from its power means: the Cauchy test on
    the level-to-level increments of each exponent's column."""

    @staticmethod
    def report(*columns):
        """A report over len(column) levels with one power-mean column per p."""
        levels = len(columns[0])
        return RegularityReport(tail_exponent=math.inf, distortion_max=1.0,
                                grid_levels=tuple(16 << i for i in range(levels)),
                                p_grid=tuple(1.0 + j for j in range(len(columns))),
                                power_means=tuple(zip(*columns)))

    @staticmethod
    def growing(growth, first=1e-3, levels=4):
        """1, 1 + first, ...: increments growing by growth per doubling."""
        col = [1.0]
        for i in range(levels - 1):
            col.append(col[-1] + first * growth ** i)
        return col

    def test_growth_per_doubling(self):
        # the last two columns sit just inside and just beyond the tolerance
        assert 1.05 < GROWTH_TOLERANCE < 1.2
        rep = self.report(self.growing(1.05), self.growing(1.2), self.growing(0.5),
                          self.growing(GROWTH_TOLERANCE * (1 - 1e-6)),
                          self.growing(GROWTH_TOLERANCE * (1 + 1e-6)))
        assert rep.stable == (True, False, True, True, False)
        assert rep.p_critical == 1.0
        assert [row[-1] for row in rep.norm_rows()] == \
            [True] * 4 + [False] * 4 + [True] * 8 + [False] * 4

    def test_roundoff_increments_and_zero_scale_read_stable(self):
        # increments doubling per level, but at most 1e-12 of the column's
        # scale; and a column whose scale is below 1e-280
        rep = self.report(self.growing(2.0, first=1e-13), [0.0] * 4,
                          [0.0, 1e-300, 3e-300, 7e-300], self.growing(2.0, first=1e-11))
        assert rep.stable == (True, True, True, False)
        assert rep.p_critical == 3.0


class TestSecondOrderProbe:
    def test_smooth_solution_stable_below_threshold(self):
        A = linear_map(0.5, 0.0)
        fields = []
        for n in (64, 128, 256):
            spec = GridSpec(n)
            h = trig_field(spec, [(1, 0, 0.05), (0, 1, 0.03j)])
            f, rep = solve_autonomous(A, h, 1.0, tol=1e-11)
            assert rep.converged
            fields.append(f)
        # 1 + 1/k = 3: every q below stays stable for this smooth solve
        rep = second_order_probe(fields, 0.5, np.arange(1.2, 2.91, 0.1))
        assert math.isinf(rep.p_critical)

    def test_affine_trivially_stable(self):
        fields = [affine(1.0, 0.2, GridSpec(n)) for n in (64, 128, 256)]
        rep = second_order_probe(fields, 0.5, [1.5, 2.0, 2.5])
        assert math.isinf(rep.p_critical)

    def test_k_range(self):
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128, 256)]
        with pytest.raises(ValueError, match="Lipschitz"):
            second_order_probe(fields, 1.5, [2.0])

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_rejects_non_finite_exponents(self, q):
        fields = [affine(1.0, 0.0, GridSpec(n)) for n in (64, 128, 256)]
        with pytest.raises(ValueError, match="finite"):
            second_order_probe(fields, 0.5, [1.5, q])
        assert math.isinf(second_order_probe(fields, 0.5, [1.0, 1.5]).p_critical)

    def test_probes_the_derivative_pair_of_fz(self):
        # reference: the gradient probe on the z-derivative of each member
        q_grid = np.arange(1.2, 3.01, 0.2)
        rep = second_order_probe(LADDER, 0.5, q_grid)
        ref = sobolev_probe([derivative_pair(f).dz for f in LADDER], q_grid)
        assert rep.stable == ref.stable and rep.p_critical == ref.p_critical
        assert np.allclose(rep.power_means, ref.power_means, rtol=1e-13, atol=0)
        assert rep.distortion_max == pytest.approx(ref.distortion_max, rel=1e-9)


def _pair_stats_reference(fz, fzb):
    """Distortion statistics from whole arrays of the moduli, as first written."""
    K = _distortion_values(fz, fzb)
    finite = K[np.isfinite(K)]
    frac = 1.0 - finite.size / K.size
    if finite.size == 0:
        return DistortionStats(math.inf, (math.inf,) * 3, 1.0)
    q = tuple(float(v) for v in np.quantile(finite, [0.5, 0.9, 0.99]))
    return DistortionStats(float(finite.max()), q, frac)


def _sobolev_reference(fields, p_grid, pairs=None):
    """sobolev_probe as first written: whole arrays of the moduli, |Df| and
    its logarithms at every level."""
    p_grid = [float(p) for p in p_grid]
    if pairs is None:
        pairs = [derivative_pair(f) for f in fields]
    power_means = np.zeros((len(fields), len(p_grid)))
    p_col, blk = np.array(p_grid)[:, None], np.empty((len(p_grid), analysis._CHUNK))
    for i, (dz, dzb) in enumerate(pairs):
        m = np.abs(dz.values) + np.abs(dzb.values)
        logm = m[m != 0]
        np.log(logm, out=logm)
        for s in range(0, logm.size, analysis._CHUNK):
            part = blk[:, :logm.size - s]
            power_means[i] += np.exp(np.multiply(p_col, logm[s:s + analysis._CHUNK], out=part),
                                     out=part).sum(axis=1)
        power_means[i] /= m.size
    st = _pair_stats_reference(dz.values, dzb.values)
    return RegularityReport(_hill_reference(m), st.max, tuple(f.spec.n for f in fields),
                            tuple(p_grid), tuple(tuple(r) for r in power_means))


def _hill_reference(mags):
    """Hill's estimator over a whole array of |Df|: the logarithms of every
    positive finite sample, sorted, and their largest m + 1, m = ceil(0.005 n^2)."""
    m = math.ceil(0.005 * mags.size)
    logs = np.sort(np.log(mags[np.isfinite(mags) & (mags > 0)]))
    if logs.size <= m:
        return math.inf
    total = float(np.sum(logs[-m:] - logs[-m - 1]))
    return m / total if total > 0 else math.inf


def _tail_ladder(mags):
    """fields and pairs on n/4, n/2, n whose finest |Df| is mags (n x n)
    and whose coarser levels are zero."""
    specs = [GridSpec(mags.shape[0] >> s) for s in (2, 1, 0)]
    pairs = [(zero_field(s), zero_field(s)) for s in specs[:2]]
    pairs.append((GridField(specs[2], 0.0, 0.0, mags + 0j), zero_field(specs[2])))
    return [zero_field(s) for s in specs], pairs


def _probe_tail(mags):
    fields, pairs = _tail_ladder(mags)
    return sobolev_probe(fields, [1.0], pairs=pairs).tail_exponent


def _extremal_ladder(K, base):
    fields, pairs = [], []
    for n in (base, 2 * base, 4 * base):
        g, gz, gzb = radial_extremal_pair(GridSpec(n), K)
        fields.append(g)
        pairs.append((gz, gzb))
    return fields, pairs


def _rough_ladder(nan_level, degenerate_top=False):
    """Random pairs on 64, 128, 256 with 30% zeros and one NaN sample at
    nan_level; the top level's pair is orientation-degenerate on request."""
    rng = np.random.default_rng(23 + nan_level)
    fields, pairs = [], []
    for lev, n in enumerate((64, 128, 256)):
        spec = GridSpec(n)
        fz, fzb = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        fzb *= 0.6
        if degenerate_top and lev == 2:
            fzb = fz.copy()
        zero = rng.random((n, n)) < 0.3
        fz[zero] = fzb[zero] = 0.0
        if lev == nan_level:
            fz[n // 3, n // 5] = np.nan
        fields.append(zero_field(spec))
        pairs.append((GridField(spec, 0.0, 0.0, fz), GridField(spec, 0.0, 0.0, fzb)))
    return fields, pairs


class TestOnePassPerLevel:
    """sobolev_probe streams each level over row blocks: its reports equal
    the whole-array probe's in every field, bit for bit."""

    P = np.arange(2.0, 8.0 + 1e-9, 0.2)

    @staticmethod
    def assert_same(got, ref):
        # repr spells every float exactly, NaNs included, where == fails on NaN
        assert repr(got) == repr(ref)

    @pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
    def test_extremal_ladders(self, K):
        fields, pairs = _extremal_ladder(K, 128)
        rep = sobolev_probe(fields, self.P, pairs=pairs)
        assert rep == _sobolev_reference(fields, self.P, pairs)
        assert distortion_stats(fields[-1]) == _pair_stats_reference(
            *(g.values for g in derivative_pair(fields[-1])))

    @pytest.mark.parametrize("rows", [None, 7], ids=["default", "ragged"])
    @pytest.mark.parametrize("nan_level", [1, 2])
    def test_zeros_and_a_nan(self, monkeypatch, rows, nan_level):
        # the top level's nonzero |Df| span several pass blocks and end mid
        # chunk, so chunks straddle blocks through the carry; 7 rows per
        # block leave a ragged last block at every level
        if rows:
            monkeypatch.setattr(grid, "_BLOCK", rows * 256)
        fields, pairs = _rough_ladder(nan_level)
        nonzero = int(np.count_nonzero(np.abs(pairs[-1][0].values)
                                       + np.abs(pairs[-1][1].values)))
        assert nonzero > 2 * grid._BLOCK and nonzero % analysis._CHUNK
        p_grid = [1.0, 2.5, 7.0, 40.0]
        rep = sobolev_probe(fields, p_grid, pairs=pairs)
        self.assert_same(rep, _sobolev_reference(fields, p_grid, pairs))
        assert np.isnan(rep.power_means[nan_level]).all()
        dz, dzb = (g.values for g in pairs[-1])
        assert analysis._pair_stats(dz, dzb) == _pair_stats_reference(dz, dzb)

    def test_all_degenerate_top_level(self):
        fields, pairs = _rough_ladder(1, degenerate_top=True)
        rep = sobolev_probe(fields, [1.0, 2.0], pairs=pairs)
        self.assert_same(rep, _sobolev_reference(fields, [1.0, 2.0], pairs))
        assert rep.distortion_max == math.inf

    def test_spectral_pairs(self):
        rep = sobolev_probe(LADDER, self.P)
        assert rep == _sobolev_reference(LADDER, self.P)
        for f in LADDER:
            assert distortion_stats(f) == _pair_stats_reference(
                *(g.values for g in derivative_pair(f)))

    def test_second_order(self):
        q_grid = np.arange(1.2, 3.01, 0.1)
        pairs = [tuple(GridField(f.spec, 0.0, 0.0, a) for a in _second_derivatives(f))
                 for f in LADDER]
        assert second_order_probe(LADDER, 0.5, q_grid) == _sobolev_reference(LADDER, q_grid,
                                                                             pairs)

    def test_tie_at_the_running_floor(self, monkeypatch):
        # 7 rows per block of 64, m = 21: every row holds one |Df| = 2 and
        # ten rows one |Df| = 3, above random values below 1.  The buffer is
        # cut back to its top 22 in blocks 1, 2 and 4, the last time to ten
        # 3s and twelve 2s, so the 2s of every later block tie with the
        # running floor
        monkeypatch.setattr(grid, "_BLOCK", 7 * 64)
        mags = np.random.default_rng(3).uniform(0.1, 1.0, (64, 64))
        mags[:, 5] = 2.0
        mags[0:60:6, 9] = 3.0
        fields, pairs = _tail_ladder(mags)
        rep = sobolev_probe(fields, [1.0, 2.0], pairs=pairs)
        self.assert_same(rep, _sobolev_reference(fields, [1.0, 2.0], pairs))
        assert rep.tail_exponent == pytest.approx(21 / (10 * math.log(1.5)), rel=1e-12)

    def test_peak_above_the_inputs(self):
        # The 256, 512, 1024 ladder: the whole-array probe held 5.65 real
        # arrays of the top level above its inputs (moduli, distortion,
        # finite distortion, |Df| and its logarithms); one pass per level
        # kept two compacted buffers and blocks, 2.23; a running maximum in
        # place of the finite distortion buffer leaves one, 1.25; Hill's
        # streamed top m + 1 in place of the positive |Df| buffer leaves
        # 0.244, half of it the 31 exponents' terms of one chunk (0.12) and
        # most of the rest one block's arrays.  A first call in a process
        # also traces state numpy builds lazily, so the probe runs once on a
        # small ladder first.
        small, small_pairs = _extremal_ladder(2.0, 16)
        sobolev_probe(small, self.P, small_pairs)
        fields, pairs = _extremal_ladder(2.0, 256)
        _, peak, _ = traced_peak(sobolev_probe, fields, self.P, pairs)
        assert peak / (1024 ** 2 * 8) < 0.27

    def test_second_order_peak_above_the_inputs(self):
        # The 128, 256, 512 trig ladder, in complex arrays of the top level:
        # 3.99 while every level's (f_zz, f_zzbar) was built before the
        # first was probed, 2.90 with each built as its level is probed.
        ladder = [random_trig_field(GridSpec(n), seed=5, amplitude=0.05, c=1.0)
                  for n in (128, 256, 512)]
        q_grid = np.arange(1.2, 3.01, 0.1)
        second_order_probe(LADDER, 0.5, q_grid)
        _, peak, _ = traced_peak(second_order_probe, ladder, 0.5, q_grid)
        assert peak / (512 ** 2 * 16) < 3.0


class TestTransformCount:
    # A field is transformed forward once per call; each derivative it
    # yields costs one inverse transform (second derivatives: two, and a
    # third for f_zbarzbar, which only the directional family reads).

    def test_sobolev_probe_one_pair_per_level(self, fft_counts):
        sobolev_probe(LADDER, [2.0, 4.0])
        assert fft_counts == {"fft2": 3, "ifft2": 6}

    def test_second_order_probe_one_transform_per_level(self, fft_counts):
        second_order_probe(LADDER, 0.5, [1.5, 2.0])
        assert fft_counts == {"fft2": 3, "ifft2": 6}

    def test_directional_family_one_transform(self, fft_counts):
        directional_family_max_distortion(LADDER[0])
        assert fft_counts == {"fft2": 1, "ifft2": 3}

    def test_gradient_check_one_transform(self, fft_counts):
        f = LADDER[0]
        coeffs = recover_coefficients(*directional_derivative_fields(f), 0.3)
        fft_counts.update(fft2=0, ifft2=0)
        gradient_equation_check(f, coeffs)
        assert fft_counts == {"fft2": 1, "ifft2": 2}


class TestRecoverCoefficients:
    def test_affine_fully_flagged(self):
        # constant directional derivatives: singular system everywhere
        f = affine(1.0, 0.2)
        fx, fy = directional_derivative_fields(f)
        co = recover_coefficients(fx, fy, 0.3)
        assert co.flagged_fraction == 1.0

    @pytest.mark.parametrize("theta, flagged", [(4e-6, 0.0), (1e-6, 1.0)],
                             ids=["ratio-2e-6-solved", "ratio-0.5e-6-flagged"])
    def test_singular_value_ratio_bound_is_1e_6(self, theta, flagged):
        # constant derivative pairs h_z = 1 and e^{i theta}: the system's
        # singular values are about theta and 2, a ratio of about theta/2
        fx = GridField(SPEC, 1.0, 0.1, np.zeros(SPEC.n ** 2))
        fy = GridField(SPEC, np.exp(1j * theta), 0.2, np.zeros(SPEC.n ** 2))
        assert recover_coefficients(fx, fy, 0.3).flagged_fraction == flagged

    @pytest.mark.parametrize("scale, flagged", [(2e-9, False), (0.5e-9, True)],
                             ids=["2e-9-solved", "0.5e-9-flagged"])
    def test_absolute_floor_is_1e_9_of_the_largest(self, scale, flagged):
        # h_z = 1 and i everywhere (singular values sqrt 2 and sqrt 2) but
        # scale and i*scale at one sample: its ratio stays 1, and only the
        # floor 1e-9 * max(smax) can flag it
        ax, ay = np.ones((32, 32), complex), np.full((32, 32), 1j)
        ax[3, 5], ay[3, 5] = scale, 1j * scale
        co = recover_coefficients(field_with_dz(ax), field_with_dz(ay), 0.3)
        assert co.flagged[3, 5] == flagged
        assert co.flagged.sum() == flagged

    def test_partly_flagged_matches_all_samples_formula(self):
        # the least-norm values, now taken on the flagged samples only, keep
        # the bytes of the formula that took them at every sample.  n = 128
        # makes the full-size temporaries large enough for numpy to elide
        rng = np.random.default_rng(12)
        shape = (128, 128)
        ax = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ay = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        singular = rng.random(shape) < 0.3
        ay[singular] = 2.5 * ax[singular]
        ax[:2], ay[:2] = 1e-12 * ax[:2], 1e-12 * ay[:2]   # below the floor
        fx, fy = field_with_dz(ax), field_with_dz(ay)
        co = recover_coefficients(fx, fy, 0.3)
        mu, nu, flagged = _recover_reference(fx, fy)
        assert 0.3 < co.flagged_fraction < 0.5
        assert np.array_equal(co.flagged, flagged)
        assert co.mu.values.tobytes() == mu.tobytes()
        assert co.nu.values.tobytes() == nu.tobytes()

    def test_matches_per_sample_lstsq_oracle(self):
        # feed generic smooth fields and compare the vectorized solve with
        # an independent per-sample numpy least-squares solve
        fx = random_trig_field(SPEC, seed=31, amplitude=1.0)
        fy = random_trig_field(SPEC, seed=32, amplitude=1.0)
        co = recover_coefficients(fx, fy, 0.5)
        ax, bx = (g.values for g in derivative_pair(fx))
        ay, by = (g.values for g in derivative_pair(fy))
        rng = np.random.default_rng(0)
        idx = rng.integers(0, SPEC.n, size=(40, 2))
        for i, j in idx:
            if co.flagged[i, j]:
                continue
            M = np.array([[ax[i, j], np.conj(ax[i, j])],
                          [ay[i, j], np.conj(ay[i, j])]])
            rhs = np.array([bx[i, j], by[i, j]])
            sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            assert abs(co.mu.values[i, j] - sol[0]) < 1e-9 * (1 + abs(sol[0]))
            assert abs(co.nu.values[i, j] - sol[1]) < 1e-9 * (1 + abs(sol[1]))

    def test_solved_relations_hold(self):
        fx = random_trig_field(SPEC, seed=41)
        fy = random_trig_field(SPEC, seed=42)
        co = recover_coefficients(fx, fy, 0.5)
        ax, bx = (g.values for g in derivative_pair(fx))
        good = ~co.flagged
        resid = bx - co.mu.values * ax - co.nu.values * np.conj(ax)
        scale = np.abs(bx[good]).max()
        assert np.max(np.abs(resid[good])) < 1e-10 * max(scale, 1.0)

    def test_spec_mismatch(self):
        with pytest.raises(ValueError, match="grids"):
            recover_coefficients(zero_field(SPEC), zero_field(GridSpec(32)), 0.3)

    @pytest.mark.parametrize("k", [0.0, 1.0, math.nan, math.inf, -5.0])
    def test_k_outside_the_unit_interval_refused(self, k):
        # as second_order_probe and the CLI's --k refuse it
        fx, fy = random_trig_field(SPEC, seed=41), random_trig_field(SPEC, seed=42)
        with pytest.raises(ValueError, match=r"need a Lipschitz constant in \(0, 1\)"):
            recover_coefficients(fx, fy, k)
        with pytest.raises(ValueError, match=r"need a Lipschitz constant in \(0, 1\)"):
            second_order_probe(LADDER, k, [1.5, 2.0])

    def test_k_inside_the_unit_interval_accepted(self):
        fx, fy = random_trig_field(SPEC, seed=41), random_trig_field(SPEC, seed=42)
        co = recover_coefficients(fx, fy, 0.3)
        assert co.mu.spec == SPEC and 0.0 <= co.flagged_fraction <= 1.0


def _recover_reference(fx, fy):
    """recover_coefficients with the least-norm values taken at every
    sample and chosen by np.where: (mu, nu, flagged) samples."""
    ax, bx = (g.values for g in derivative_pair(fx))
    ay, by = (g.values for g in derivative_pair(fy))
    det = ax * np.conj(ay) - np.conj(ax) * ay
    fro2 = (np.abs(ax) ** 2 + np.abs(ay) ** 2) * 2.0
    disc = np.sqrt(np.maximum(fro2 ** 2 - 4.0 * np.abs(det) ** 2, 0.0))
    smax = np.sqrt((fro2 + disc) / 2.0)
    smin = np.where(smax > 0, np.abs(det) / np.maximum(smax, 1e-300), 0.0)
    floor = 1e-9 * max(float(smax.max()), 1e-300)
    good = (smin >= 1e-6 * smax) & (smax > floor)
    s2 = np.maximum(smax ** 2, 1e-300)
    mu_ln = (np.conj(ax) * bx + np.conj(ay) * by) / s2
    nu_ln = (ax * bx + ay * by) / s2
    safe_det = np.where(good, det, 1.0)
    mu = np.where(good, (bx * np.conj(ay) - np.conj(ax) * by) / safe_det, mu_ln)
    nu = np.where(good, (ax * by - bx * ay) / safe_det, nu_ln)
    return mu, nu, ~good


class TestGradientEquationCheck:
    def test_vacuous_on_affine(self):
        f = affine(1.0, 0.0)
        fx, fy = directional_derivative_fields(f)
        co = recover_coefficients(fx, fy, 0.3)
        res = gradient_equation_check(f, co)
        assert res.residual == 0.0 and res.k_prime == 0.0
        assert co.flagged_fraction == 1.0

    def test_implied_identity_near_machine(self):
        # wherever the 2x2 recovery solves exactly, the second-derivative
        # relation follows algebraically from mixed-partial symmetry
        A = abs_map(0.3)
        h = trig_field(SPEC, [(1, 0, 0.01), (0, 1, 0.01j)])
        f, rep = solve_autonomous(A, h, 1.0, tol=1e-12)
        assert rep.converged
        fx, fy = directional_derivative_fields(f)
        co = recover_coefficients(fx, fy, 0.3)
        res = gradient_equation_check(f, co)
        assert co.flagged_fraction < 0.5
        assert res.residual < 1e-6

    def test_k_prime_is_inf_at_unit_nu(self):
        # one well-conditioned sample with |nu| = 1 exactly and mu = 0: k' is
        # inf, where max |mu| / (1 - |nu|) would read 0/0 = nan.  The
        # residual's 1 / (1 - |nu|^2) divides by zero at that sample too
        f = random_trig_field(SPEC, seed=6, amplitude=0.05, c=1.0)
        mu = np.full((SPEC.n, SPEC.n), 0.1 + 0j)
        nu = np.full((SPEC.n, SPEC.n), 0.2j)
        mu[5, 9], nu[5, 9] = 0.0, 1j
        co = CoefficientFields(GridField(SPEC, 0, 0, mu), GridField(SPEC, 0, 0, nu),
                               np.zeros((SPEC.n, SPEC.n), dtype=bool))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert gradient_equation_check(f, co).k_prime == math.inf


class TestDirectionalFamily:
    def test_affine_family_all_constant(self):
        f, _ = solve_autonomous(abs_map(0.3), zero_field(SPEC), 1.0)
        assert directional_family_max_distortion(f) == 0.0

    def test_members_are_the_directional_derivatives(self, monkeypatch):
        # each member's pair is the derivative pair of cos(t)*fx + sin(t)*fy.
        # The recorder reports distortion 1 everywhere: the family stops at
        # the first member that reads inf, and this field's first one does
        f = random_trig_field(SPEC, seed=78, amplitude=0.05, c=1.0)
        seen = []

        def record(vz, vzb):
            seen.append((vz, vzb))
            return np.ones(vz.shape)

        monkeypatch.setattr(analysis, "_distortion_values", record)
        directional_family_max_distortion(f)
        fx, fy = directional_derivative_fields(f)
        ax, bx = (g.values for g in derivative_pair(fx))
        ay, by = (g.values for g in derivative_pair(fy))
        angles = np.linspace(0.0, np.pi, 16, endpoint=False)
        assert len(seen) == len(angles)
        for t, (vz, vzb) in zip(angles, seen):
            for got, want in ((vz, np.cos(t) * ax + np.sin(t) * ay),
                              (vzb, np.cos(t) * bx + np.sin(t) * by)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("size, worst", [(1e-6, 1.0), (1e-10, 0.0)])
    def test_gradient_floor_is_1e_8(self, monkeypatch, size, worst):
        # members with |v_z| = size and v_zbar = 0 (distortion 1) count above
        # the 1e-8 floor and are skipped below it.  The second derivatives are
        # patched in: a periodic member has sum |v_z|^2 = sum |v_zbar|^2 over
        # the grid, so some active sample of a real field is degenerate (inf)
        n = SPEC.n
        fzz, zero = np.full((n, n), size + 0j), np.zeros((n, n), complex)
        monkeypatch.setattr(analysis, "_second_derivatives",
                            lambda f, zbarzbar=False: (fzz, zero, zero))
        assert directional_family_max_distortion(zero_field(SPEC)) == worst

    @pytest.mark.parametrize("case, worst", [("smooth", math.inf), ("affine", 0.0),
                                             ("nan-sample", None)])
    def test_matches_all_members_loop(self, monkeypatch, case, worst):
        # stopping at the first inf gives the loop over all 16 members
        f = {"smooth": random_trig_field(SPEC, seed=79, amplitude=0.05, c=1.0),
             "affine": affine(1.0, 0.2)}.get(case, zero_field(SPEC))
        if case == "nan-sample":
            # finite distortion in every member except one NaN sample, which
            # no member counts (its magnitude is not above the floor)
            rng = np.random.default_rng(3)
            fzz = 1.0 + 0.1 * rng.standard_normal((SPEC.n, SPEC.n)) + 0j
            fzz[7, 9] = np.nan
            small = [0.05 * rng.standard_normal((SPEC.n, SPEC.n)) + 0j for _ in range(2)]
            monkeypatch.setattr(analysis, "_second_derivatives",
                                lambda f, zbarzbar=False: (fzz, *small))
        got = directional_family_max_distortion(f)
        assert got == _family_reference(*analysis._second_derivatives(f, zbarzbar=True))
        if worst is not None:
            assert got == worst
        else:
            assert 1.0 < got < math.inf

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_smooth_periodic_family_reads_inf(self, n):
        # Parseval: every non-constant periodic member reaches a sample
        # with |v_z| <= |v_zbar|, so no finite distortion is reported
        f = random_trig_field(GridSpec(n), seed=77, amplitude=0.05, c=1.0)
        assert directional_family_max_distortion(f) == math.inf


def _family_reference(fzz, fzzb, fzbzb):
    """The directional family's loop over all 16 members."""
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
    return worst


class TestHodograph:
    def test_identity_map(self):
        res = hodograph_check(affine(1.0, 0.0), linear_map(0, 0), 10, seed=0)
        assert res.accepted == 10
        assert res.max_identity_residual < 1e-12
        assert res.max_derivative_ratio < 1e-12

    def test_closed_form_shear(self):
        # f = z + 0.3 conj(z): inverse is linear, finite differences exact
        res = hodograph_check(affine(1.0, 0.3), linear_map(0.3, 0), 32, seed=1)
        assert res.accepted == 32 and res.skipped == 0
        assert res.max_identity_residual <= 1e-8
        assert res.max_derivative_ratio == pytest.approx(0.3, abs=1e-9)

    def test_abs_map_solve(self):
        A = abs_map(0.3)
        h = trig_field(SPEC, [(1, 0, 0.005), (0, 1, 0.005j), (1, 1, 0.003)])
        f, rep = solve_autonomous(A, h, 1.0, tol=1e-12)
        assert rep.converged
        res = hodograph_check(f, A, 48, seed=2)
        assert res.accepted == 48
        assert res.max_identity_residual <= 0.05
        assert res.max_derivative_ratio <= 0.3 + 0.02

    def test_low_jacobian_points_skipped(self):
        # f = z + 0.95 conj(z): forward Jacobian 1 - 0.95^2 < 0.1 everywhere
        res = hodograph_check(affine(1.0, 0.95), linear_map(0, 0.95), 8, seed=3)
        assert res.accepted == 0
        assert res.skipped == 8

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="sample"):
            hodograph_check(affine(1.0, 0.0), linear_map(0, 0), 0)

    def test_reads_z_at_its_points_only(self):
        # the points come from the coordinates (tests/test_grid.py pins
        # their bytes to z_grid's), so no n x n grid of z is built
        assert not hasattr(analysis, "z_grid")

    @staticmethod
    def _forced_abs_solution():
        h = trig_field(SPEC, [(1, 0, 0.005), (0, 1, 0.005j), (1, 1, 0.003)])
        f, _ = solve_autonomous(abs_map(0.3), h, 1.0, tol=1e-12)
        return f

    @pytest.mark.parametrize("case", ["accept-all", "skip-low-jacobian", "failed-or-reversed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_reference(self, case, seed):
        A = abs_map(0.3)
        if case == "failed-or-reversed":
            # a wavy field inverted everywhere: near folds the damped inversion
            # misses 1e-9, and where f reverses orientation the inverse does too
            f = random_trig_field(GridSpec(32), seed=5, amplitude=0.3, c=1.0)
            kw = {"min_jacobian": -10.0, "fd_step": 0.05}
        else:
            f = self._forced_abs_solution()
            fz, fzb = derivative_pair(f)
            jac = np.abs(fz.values) ** 2 - np.abs(fzb.values) ** 2
            # a fine difference step makes h_w sensitive to where each probe stops
            kw = ({"min_jacobian": float(np.median(jac))} if case == "skip-low-jacobian"
                  else {"fd_step": 1e-3})
        ref, failed, reversed_ = _hodograph_reference(f, A, 64, seed=seed, **kw)
        res = hodograph_check(f, A, 64, seed=seed, **kw)
        assert (res.accepted, res.skipped) == (ref.accepted, ref.skipped)
        assert res.accepted > 0
        assert (res.skipped > 0) == (case != "accept-all")
        assert (failed > 0 and reversed_ > 0) == (case == "failed-or-reversed")
        assert type(res.max_identity_residual) is float
        assert type(res.max_derivative_ratio) is float
        assert math.isclose(res.max_identity_residual, ref.max_identity_residual, rel_tol=1e-12)
        assert math.isclose(res.max_derivative_ratio, ref.max_derivative_ratio, rel_tol=1e-12)


def _bilinear_reference(values, spec, x, y):
    n, h = spec.n, spec.h
    fx, fy = x / h, y / h
    j0, i0 = int(np.floor(fx)), int(np.floor(fy))
    tx, ty = fx - j0, fy - i0
    j0 %= n
    i0 %= n
    j1, i1 = (j0 + 1) % n, (i0 + 1) % n
    return ((1 - tx) * (1 - ty) * values[i0, j0] + tx * (1 - ty) * values[i0, j1]
            + (1 - tx) * ty * values[i1, j0] + tx * ty * values[i1, j1])


def _hodograph_reference(f, A, sample_points, seed=0, min_jacobian=0.1, fd_step=None):
    """Point-by-point hodograph check; also returns how many points were
    skipped for a failed inversion and for a reversed inverse Jacobian."""
    spec = f.spec
    rng = np.random.default_rng(seed)
    Z = z_grid(spec)
    fz, fzb = (g.values for g in derivative_pair(f))
    J_f = np.abs(fz) ** 2 - np.abs(fzb) ** 2
    W = f.total_values()
    delta = fd_step if fd_step is not None else 0.5 * spec.h

    def f_at(z):
        return (f.c * z + f.d * np.conjugate(z)
                + _bilinear_reference(f.values, spec, z.real, z.imag))

    def invert(w, z0, dfz, dfzb, jac):
        z = z0
        for _ in range(50):
            err = w - f_at(z)
            if abs(err) <= 1e-12:
                return z
            step = (np.conjugate(dfz) * err - dfzb * np.conjugate(err)) / jac
            z = z + 0.8 * step
        return z if abs(w - f_at(z)) <= 1e-9 else None

    worst_identity = worst_ratio = 0.0
    accepted = skipped = failed = reversed_ = 0
    for i, j in rng.integers(0, spec.n, size=(sample_points, 2)):
        if J_f[i, j] <= min_jacobian:
            skipped += 1
            continue
        z0, w0 = complex(Z[i, j]), complex(W[i, j])
        dfz, dfzb, jac = complex(fz[i, j]), complex(fzb[i, j]), float(J_f[i, j])
        probes = [invert(w0 + dw, z0, dfz, dfzb, jac)
                  for dw in (delta, -delta, 1j * delta, -1j * delta)]
        if any(p is None for p in probes):
            skipped += 1
            failed += 1
            continue
        hx = (probes[0] - probes[1]) / (2 * delta)
        hy = (probes[2] - probes[3]) / (2 * delta)
        h_w, h_wb = (hx - 1j * hy) / 2, (hx + 1j * hy) / 2
        J_h = abs(h_w) ** 2 - abs(h_wb) ** 2
        if J_h <= 0:
            skipped += 1
            reversed_ += 1
            continue
        rhs = -J_h * complex(A.eval(np.array([np.conjugate(h_w) / J_h]))[0])
        worst_identity = max(worst_identity, abs(h_wb - rhs) / max(abs(h_w), 1e-300))
        worst_ratio = max(worst_ratio, abs(h_wb) / max(abs(h_w), 1e-300))
        accepted += 1
    return HodographResult(worst_identity, worst_ratio, accepted, skipped), failed, reversed_


class TestHill:
    """tail_exponent is Hill's estimator over the top m = ceil(0.005 n^2)
    positive finite |Df| of the finest level."""

    @pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n, rel", [(256, 0.015), (512, 0.005), (1024, 0.005)])
    def test_extremal_tail_index(self, K, n, rel):
        # |Df| = r^(2 beta) inside the window, whose tail index is
        # p* = 2K/(K-1): measured -1.26%, -0.34% and +0.11% at 256, 512
        # and 1024, the same for every K
        fields, pairs = _extremal_ladder(K, n // 4)
        rep = sobolev_probe(fields, [2.0], pairs=pairs)
        assert rep.tail_exponent == pytest.approx(2 * K / (K - 1), rel=rel)
        assert rep.tail_stderr == rep.tail_exponent / math.sqrt(math.ceil(0.005 * n * n))

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_rounding_moves_it_by_rounding(self, n):
        # every sample times 1 + 1e-15 N(0, 1): measured at most 1.1e-14
        # relative
        _, gz, gzb = radial_extremal_pair(GridSpec(n), 2.0)
        mags = np.abs(gz.values) + np.abs(gzb.values)
        noise = 1e-15 * np.random.default_rng(n).normal(size=mags.shape)
        tail, moved = _probe_tail(mags), _probe_tail(mags * (1 + noise))
        assert abs(moved / tail - 1) <= 1e-13

    @pytest.mark.parametrize("extra, finite", [(0, False), (1, True)])
    def test_needs_more_than_m_samples(self, extra, finite):
        m = math.ceil(0.005 * 64 * 64)
        mags = np.zeros(64 * 64)
        mags[:m + extra] = 1.1 ** np.arange(m + extra)
        tail = _probe_tail(np.random.default_rng(1).permutation(mags).reshape(64, 64))
        assert math.isfinite(tail) == finite

    def test_constant_field_reads_inf(self):
        assert _probe_tail(np.full((64, 64), 3.0)) == math.inf
        fields = [affine(1.0, 0.3, GridSpec(n)) for n in (16, 32, 64)]
        assert sobolev_probe(fields, [1.0]).tail_exponent == math.inf

    @pytest.mark.parametrize("extra", [0, 1])
    def test_nan_inf_and_zero_are_left_out(self, extra):
        # m + extra positive samples among NaN, inf and 0: the same reading
        # as with zeros in their place
        m = math.ceil(0.005 * 64 * 64)
        mags = np.zeros(64 * 64)
        mags[:m + extra] = 1.1 ** np.arange(m + extra)
        mags[m + extra:m + extra + 300] = np.nan
        mags[-300:] = np.inf
        mags = np.random.default_rng(2).permutation(mags).reshape(64, 64)
        # an infinite |f_z| makes its distortion inf/inf, which numpy flags
        with np.errstate(invalid="ignore"):
            tail = _probe_tail(mags)
        clean = np.where(np.isfinite(mags), mags, 0.0)
        assert repr(tail) == repr(_probe_tail(clean)) == repr(_hill_reference(mags))
        assert math.isfinite(tail) == bool(extra)


def _window_reference(r, r0, r1):
    """The window as first written: both exponentials on every sample."""
    t = np.clip((r - r0) / (r1 - r0), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sa = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        sb = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
        w = sb / (sa + sb)
        da = np.where(t > 0, sa / np.maximum(t, 1e-300) ** 2, 0.0)
        db = np.where(t < 1, -sb / np.maximum(1.0 - t, 1e-300) ** 2, 0.0)
        dw = (db * (sa + sb) - sb * (da + db)) / (sa + sb) ** 2
    inside = t <= 0
    outside = t >= 1
    w = np.where(inside, 1.0, np.where(outside, 0.0, w))
    dw = np.where(inside | outside, 0.0, dw) / (r1 - r0)
    return w, dw


def _radial_parts_reference(spec, K):
    """The radial fixture as first written, one fresh array per operation."""
    L = spec.L
    z0 = L * (_CENTER_FRAC[0] + 1j * _CENTER_FRAC[1])
    Z = z_grid(spec) - z0
    r = np.abs(Z)
    beta = (1.0 - K) / (2.0 * K)
    rb = r ** (2.0 * beta)
    f0 = Z * rb
    f0_z = (1.0 + beta) * rb + 0j
    f0_zb = beta * np.divide(Z, np.conj(Z), out=np.zeros_like(Z), where=r > 0) * rb
    w, dw = _window_reference(r, 0.15 * L, 0.45 * L)
    safe_r = np.maximum(r, 1e-300)
    g = w * f0
    g_z = w * f0_z + dw * np.conj(Z) / (2.0 * safe_r) * f0
    g_zb = w * f0_zb + dw * Z / (2.0 * safe_r) * f0
    return g, g_z, g_zb


class TestRadialFixture:
    @pytest.mark.parametrize("n", [16, 128, 512])
    @pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
    def test_pair_keeps_the_reference_bytes(self, n, K):
        # the fixture is pinned to the bit, so any change to its operation
        # order shows here
        spec = GridSpec(n)
        got = radial_extremal_pair(spec, K)
        for g, ref in zip(got, _radial_parts_reference(spec, K)):
            assert g.values.dtype == ref.dtype and g.values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [128, 1024])
    def test_ragged_row_blocks_keep_the_reference_bytes(self, monkeypatch, n):
        # 7 rows per block: the last block of 128 and 1024 rows holds 2
        monkeypatch.setattr(grid, "_BLOCK", 7 * n)
        spec = GridSpec(n)
        got = radial_extremal_pair(spec, 2.0)
        for g, ref in zip(got, _radial_parts_reference(spec, 2.0)):
            assert g.values.tobytes() == ref.tobytes()

    def test_centre_stays_off_the_lattice(self):
        # the centre sits a third of a spacing off the lattice in x and y, so
        # the fixture divides by r and 2r with no guard against r = 0
        for n in 2 ** np.arange(4, 12):
            spec = GridSpec(int(n))
            Z = z_grid(spec)
            Z -= spec.L * (_CENTER_FRAC[0] + 1j * _CENTER_FRAC[1])
            assert np.abs(Z).min() >= spec.h / 3

    def test_window_makes_field_periodic(self):
        g = radial_extremal_field(SPEC, 2.0)
        # the support ends before the cell boundary, so edge samples vanish
        assert np.abs(g.values[0, :]).max() == 0.0
        assert np.abs(g.values[:, 0]).max() == 0.0

    def test_constant_distortion_in_core(self):
        spec = GridSpec(256)
        g, gz, gzb = radial_extremal_pair(spec, 2.0)
        z0 = spec.L * (_CENTER_FRAC[0] + 1j * _CENTER_FRAC[1])
        r = np.abs(z_grid(spec) - z0)
        core = (r > 0.02 * spec.L) & (r < 0.12 * spec.L)
        hi = (np.abs(gz.values) + np.abs(gzb.values))[core]
        lo = (np.abs(gz.values) - np.abs(gzb.values))[core]
        assert np.allclose(hi / lo, 2.0, atol=1e-9)

    def test_pair_matches_finite_differences(self):
        # the analytic pair is the Wirtinger derivative of the sampled map
        spec = GridSpec(256)
        g, gz, gzb = radial_extremal_pair(spec, 2.0)
        from _helpers import fd_dz, fd_dzbar
        z0 = spec.L * (_CENTER_FRAC[0] + 1j * _CENTER_FRAC[1])
        r = np.abs(z_grid(spec) - z0)
        smooth = (r > 0.05 * spec.L) & (r < 0.12 * spec.L)
        fdz = fd_dz(g.values, spec.h)
        fdzb = fd_dzbar(g.values, spec.h)
        assert rel_l2(fdz[smooth], gz.values[smooth]) < 5e-3
        assert rel_l2(fdzb[smooth], gzb.values[smooth]) < 5e-3

    def test_rejects_unit_distortion(self):
        with pytest.raises(ValueError, match="exceed"):
            radial_extremal_field(SPEC, 1.0)

    @pytest.mark.parametrize("K", [math.inf, math.nan])
    def test_rejects_non_finite_distortion(self, K):
        # K = inf has no critical exponent and nan gives nan samples
        with pytest.raises(ValueError, match="finite and exceed 1"):
            radial_extremal_field(SPEC, K)


class TestTrigField:
    WAVES = [(1, 0, 0.3 + 0.1j), (2, -1, 0.2j), (0, 3, -0.5), (-5, 7, 1e-3 - 2j),
             (1, 0, 0.25), (0, 0, 1.5)]

    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_keeps_the_out_of_place_bytes(self, n):
        # the in-place transform and scaling give ifft2(coeffs) * n^2 to the bit
        spec = GridSpec(n)
        coeffs = np.zeros((n, n), dtype=complex)
        for k1, k2, coeff in self.WAVES:
            coeffs[k2 % n, k1 % n] += coeff
        ref = np.fft.ifft2(coeffs) * (n * n)
        f = trig_field(spec, self.WAVES, c=0.5, d=-0.25j)
        assert f.values.tobytes() == ref.tobytes()
        assert (f.c, f.d) == (0.5, -0.25j)

    def test_holds_one_array(self):
        # the out-of-place product peaked at 3 complex arrays, one of them a copy
        spec = GridSpec(1024)
        f, peak, kept = traced_peak(trig_field, spec, self.WAVES)
        assert peak < 1.1 * f.values.nbytes
        assert kept < 1.01 * f.values.nbytes
        assert f.values.flags.owndata and not f.values.flags.writeable
