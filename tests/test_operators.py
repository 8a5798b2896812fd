import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami import (
    GridField,
    GridSpec,
    antiderivative_zbar,
    beurling,
    derivative_pair,
    lp_norm,
    abs_map,
    random_trig_field,
    resample,
    smooth_saturating_map,
    solve_autonomous,
    trig_field,
    z_grid,
    zero_field,
)
from beltrami.operators import _conj_flip, _resize_rows, _second_derivatives
from _helpers import fd_dz, fd_dzbar, rel_l2, spectrum

SPEC = GridSpec(32)
TAU = 2 * math.pi


def wave(k1, k2, coeff=1.0, spec=SPEC):
    return trig_field(spec, [(k1, k2, coeff)])


class TestDerivatives:
    def test_holomorphic_affine(self):
        fz, fzb = derivative_pair(GridField(SPEC, 1.0, 0.0, np.zeros(SPEC.n ** 2)))  # f = z
        assert lp_norm(fzb, 2) == 0.0
        assert np.allclose(fz.values, 1.0)

    def test_antiholomorphic_affine(self):
        fz, fzb = derivative_pair(GridField(SPEC, 0.0, 1.0, np.zeros(SPEC.n ** 2)))  # conj(z)
        assert np.allclose(fzb.values, 1.0)
        assert lp_norm(fz, 2) == 0.0

    def test_dzbar_symbol_diagonal_wave(self):
        # d/dzbar of exp(2i pi (x+y)/L) multiplies by (i/2)(2 pi/L)(1+i)
        f = wave(1, 1)
        expected = (1j * TAU / SPEC.L) * (1 + 1j) / 2 * f.values
        assert np.allclose(derivative_pair(f).dzbar.values, expected, atol=1e-13)

    def test_dz_symbol_x_wave_vs_finite_differences(self):
        f = wave(1, 0)
        out = derivative_pair(f).dz
        assert np.allclose(out.values, (1j * math.pi / SPEC.L) * f.values, atol=1e-13)
        fd = fd_dz(f.values, SPEC.h)
        # centered differences converge at second order; at n=32 the symbol
        # error for mode 1 is (sin(h k)/ (h k) - 1) ~ 0.6%
        assert rel_l2(fd, out.values) < 7e-3

    @pytest.mark.parametrize("n", [32, 64])
    def test_fd_consistency_second_order(self, n):
        spec = GridSpec(n)
        f = random_trig_field(spec, seed=5, band=3, modes=8)
        fz, fzb = derivative_pair(f)
        errs = (rel_l2(fd_dz(f.values, spec.h), fz.values),
                rel_l2(fd_dzbar(f.values, spec.h), fzb.values))
        bound = 8.0 * (TAU * 3 / n) ** 2  # O(h^2) with the largest mode
        assert max(errs) < bound

    def test_fd_error_shrinks_4x_per_doubling(self):
        errs = []
        for n in (32, 64, 128):
            spec = GridSpec(n)
            f = trig_field(spec, [(2, 1, 1.0), (1, -2, 0.5j)])
            errs.append(rel_l2(fd_dz(f.values, spec.h), derivative_pair(f).dz.values))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_mixed_partials_commute(self):
        f = random_trig_field(SPEC, seed=9)
        a = derivative_pair(derivative_pair(f).dzbar).dz
        b = derivative_pair(derivative_pair(f).dz).dzbar
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_derivative_pair_means(self):
        f = random_trig_field(SPEC, seed=3, c=0.7 + 0.2j, d=-0.1j)
        dz, dzb = derivative_pair(f)
        assert dz.values.mean() == pytest.approx(f.c, abs=1e-13)
        assert dzb.values.mean() == pytest.approx(f.d, abs=1e-13)


class TestSecondDerivatives:
    @pytest.mark.parametrize("A", [abs_map(0.3), smooth_saturating_map(0.3, 0.1j, 0.2)],
                             ids=["kabs", "smoothsat"])
    def test_matches_chained_first_derivatives(self, A):
        spec = GridSpec(64)
        h = trig_field(spec, [(1, 0, 0.1), (2, -1, 0.05j), (0, 3, 0.02)])
        f, rep = solve_autonomous(A, h, 1.0 + 0.2j, tol=1e-12)
        assert rep.converged
        fz, fzb = derivative_pair(f)
        fzz, fzzb = derivative_pair(fz)
        chained = (fzz.values, fzzb.values, derivative_pair(fzb).dzbar.values)
        for got, want in zip(_second_derivatives(f, zbarzbar=True), chained):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_exact_symbol_products_on_trig_field(self):
        waves = [(1, 2, 0.3 + 0.1j), (-3, 1, 0.2j), (0, -5, 0.5), (4, 4, -0.1)]
        f = trig_field(SPEC, waves, c=0.7, d=-0.2j)  # the affine part drops out
        x, y = z_grid(SPEC).real, z_grid(SPEC).imag
        exact = [np.zeros((SPEC.n, SPEC.n), dtype=complex) for _ in range(3)]
        for k1, k2, coeff in waves:
            kc = (TAU / SPEC.L) * (k1 + 1j * k2)
            sz, szb = 0.5j * np.conj(kc), 0.5j * kc
            w = coeff * np.exp(1j * (TAU / SPEC.L) * (k1 * x + k2 * y))
            for out, sym in zip(exact, (sz * sz, sz * szb, szb * szb)):
                out += sym * w
        for got, want in zip(_second_derivatives(f, zbarzbar=True), exact):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestBeurling:
    def test_x_wave_fixed(self):
        f = wave(1, 0)  # wavevector (1,0): multiplier conj(kc)/kc = 1
        assert np.allclose(beurling(f).values, f.values, atol=1e-13)

    def test_y_wave_negated(self):
        f = wave(0, 1)  # wavevector (0,1): multiplier = -1
        assert np.allclose(beurling(f).values, -f.values, atol=1e-13)

    def test_constant_maps_to_zero(self):
        f = GridField(SPEC, 0.0, 0.0, np.full(SPEC.n ** 2, 3.0 + 1j))
        assert np.all(beurling(f).values == 0)

    def test_rejects_affine_part(self):
        f = GridField(SPEC, 1.0, 0.0, np.zeros(SPEC.n ** 2))
        with pytest.raises(ValueError, match="affine"):
            beurling(f)

    def test_intertwines_derivatives(self):
        # beurling(f_zbar) = f_z, mode by mode
        for seed in range(5):
            f = random_trig_field(SPEC, seed=seed, band=8, modes=12)
            dz, dzb = derivative_pair(f)
            lhs = spectrum(beurling(dzb).values)
            rhs = spectrum(dz.values)
            scale = np.abs(rhs).max()
            assert np.allclose(lhs, rhs, atol=1e-13 * scale)

    def test_l2_isometry(self):
        for seed in range(20):
            f = random_trig_field(SPEC, seed=100 + seed, band=10, modes=15)
            assert lp_norm(beurling(f), 2) == pytest.approx(lp_norm(f, 2), rel=1e-10)

    def test_conj_flip_is_spectrum_of_conjugate(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        idx = (-np.arange(16)) % 16
        out = np.empty_like(A)
        assert _conj_flip(A, out=out) is out
        assert np.array_equal(out, np.conj(A[np.ix_(idx, idx)]))
        assert np.allclose(out, np.fft.fft2(np.conj(np.fft.ifft2(A))), rtol=0, atol=1e-13)

    def test_twice_is_squared_multiplier(self):
        f = random_trig_field(SPEC, seed=2, band=5, modes=10)
        twice = spectrum(beurling(beurling(f)).values)
        k = np.fft.fftfreq(SPEC.n, 1 / SPEC.n).astype(int)
        K1, K2 = np.meshgrid(k, k)
        kc = K1 + 1j * K2
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = (np.conj(kc) / kc) ** 2
        mult[0, 0] = 0.0
        expected = mult * spectrum(f.values)
        assert np.allclose(twice, expected, atol=1e-12)

    def test_nyquist_convention_deterministic(self):
        # Nyquist rows use the signed representative -n/2; the x-Nyquist
        # wave has a real wavevector, so the multiplier is exactly 1
        n = SPEC.n
        f = wave(-n // 2, 0)
        assert np.allclose(beurling(f).values, f.values, atol=1e-12)
        g = wave(0, -n // 2)  # purely imaginary wavevector: multiplier -1
        assert np.allclose(beurling(g).values, -g.values, atol=1e-12)

    def test_commutes_with_derivatives(self):
        f = random_trig_field(SPEC, seed=12)
        a = beurling(derivative_pair(f).dzbar)
        b_field = derivative_pair(GridField(SPEC, 0, 0, beurling(f).values)).dzbar
        # the zbar-derivative of a mean-zero periodic field has mean zero, so
        # both are the same Fourier multiplier product in either order
        assert np.allclose(a.values, b_field.values, atol=1e-12)


class TestAntiderivative:
    def test_zero_gives_affine(self):
        F = antiderivative_zbar(zero_field(SPEC), c=1.0)
        assert F.c == 1.0 and F.d == 0.0
        assert np.all(F.values == 0)

    def test_constant_absorbed_into_affine(self):
        m = 0.3 - 0.2j
        F = antiderivative_zbar(GridField(SPEC, 0, 0, np.full(SPEC.n ** 2, m)), c=0.0)
        assert F.d == pytest.approx(m)
        assert np.allclose(F.values, 0.0, atol=1e-14)

    def test_inverts_dzbar(self):
        phi = wave(1, 0)
        F = antiderivative_zbar(phi, c=0.0)
        assert rel_l2(derivative_pair(F).dzbar.values, phi.values) < 1e-10
        assert abs(F.values.mean()) < 1e-13

    def test_random_inversion(self):
        phi = random_trig_field(SPEC, seed=21, band=6, modes=10)
        F = antiderivative_zbar(phi, c=2.0)
        dzb = derivative_pair(F).dzbar
        assert rel_l2(dzb.values, phi.values) < 1e-12
        assert F.c == 2.0

    def test_rejects_affine_part(self):
        f = GridField(SPEC, 0.5, 0.0, np.zeros(SPEC.n ** 2))
        with pytest.raises(ValueError, match="affine"):
            antiderivative_zbar(f)


class TestSpectralCoeffs:
    def test_zero_mode_is_mean(self):
        # trig_field puts the (k1, k2) wave at spectrum entry [k2 % n, k1 % n]
        n = SPEC.n
        f = trig_field(SPEC, [(0, 0, 1.5 + 0.5j), (2, 1, 1.0), (-3, 5, -0.5j)])
        sc = spectrum(f.values)
        assert sc[0, 0] == pytest.approx(f.values.mean())
        assert sc[1, 2] == pytest.approx(1.0)
        assert sc[5 % n, -3 % n] == pytest.approx(-0.5j)
        sc[0, 0] = sc[1, 2] = sc[5 % n, -3 % n] = 0
        assert np.abs(sc).max() < 1e-14


class TestResample:
    def test_band_limited_round_trip(self):
        f = random_trig_field(GridSpec(32), seed=6, band=5, modes=8,
                              c=1.0, d=0.25j)
        up = resample(f, 64)
        back = resample(up, 32)
        assert back.c == f.c and back.d == f.d
        assert np.allclose(back.values, f.values, atol=1e-12)

    def test_upsample_preserves_modes(self):
        f = trig_field(GridSpec(32), [(3, -2, 1.0 - 0.5j)])
        up = resample(f, 128)
        expected = trig_field(GridSpec(128), [(3, -2, 1.0 - 0.5j)])
        assert np.allclose(up.values, expected.values, atol=1e-12)

    @pytest.mark.parametrize("waves", [
        lambda x, y: np.cos(8 * x),                       # Nyquist column
        lambda x, y: np.cos(8 * y) + 0.5 * np.sin(3 * x),  # Nyquist row
        lambda x, y: np.cos(8 * x) * np.cos(8 * y),       # the corner mode
    ], ids=["column", "row", "corner"])
    def test_real_field_stays_real_at_nyquist(self, waves):
        coarse, fine = GridSpec(16), GridSpec(32)
        zc, zf = z_grid(coarse), z_grid(fine)
        f = GridField(coarse, 0.0, 0.0, waves(zc.real, zc.imag))
        up = resample(f, 32)
        assert np.max(np.abs(up.values.imag)) < 1e-14
        assert np.allclose(up.values, waves(zf.real, zf.imag), atol=1e-14)

    def test_round_trip_with_nyquist_content(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        f = GridField(GridSpec(16), 0.0, 0.0, vals)
        for n in (32, 64):
            back = resample(resample(f, n), 16)
            assert np.allclose(back.values, f.values, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m, n", [(16, 32), (16, 64), (32, 16), (64, 16), (128, 32)])
    def test_pruned_transforms_match_full_transforms(self, m, n):
        # random samples put energy on every mode, the Nyquist row and column
        # included; the pruned passes give the full transforms' bytes
        rng = np.random.default_rng(m + n)
        vals = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        A = np.fft.fft2(vals)
        assert min(np.abs(A[m // 2]).min(), np.abs(A[:, m // 2]).min()) > 1e-3
        f = GridField(GridSpec(m), 0.5, -0.25j, vals)
        g = resample(f, n)
        assert (g.spec.n, g.c, g.d) == (n, f.c, f.d)
        assert g.values.tobytes() == _resample_reference(vals, n).tobytes()

    def test_downsample_band_limited_is_subsampling(self):
        # modes up to |k| = 8 sit on the 16-grid's Nyquist rows; exp(8ix) and
        # exp(-8ix) both alias to that row, so truncation must add them
        fine = trig_field(GridSpec(32), [(8, 3, 1.0), (-8, -8, 0.5j), (2, 8, -0.25),
                                         (5, -1, 0.3 + 0.1j)])
        down = resample(fine, 16)
        assert np.allclose(down.values, fine.values[::2, ::2], rtol=0, atol=1e-14)


def _resample_reference(vals, new_n):
    """resample's samples through the full transforms: fft2, both axes
    resized, ifft2."""
    m = vals.shape[0]
    A = np.fft.fft2(vals) / (m ** 2)
    B = _resize_rows(_resize_rows(A, new_n).T, new_n).T
    return np.fft.ifft2(B * (new_n ** 2))


# Band-limited wave lists below the n = 16 Nyquist rows, with an affine part.
_coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
_waves = st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7), _coeff),
                  min_size=1, max_size=8)
_affine = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_period = st.floats(0.5, 20.0)


def _symbol_spectra(waves, c, d, spec):
    """The derivative pair's spectra from the multiplier table, wave by wave."""
    n = spec.n
    sz, szb = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    sz[0, 0], szb[0, 0] = c, d
    for k1, k2, coeff in waves:
        kc = (TAU / spec.L) * (k1 + 1j * k2)
        sz[k2 % n, k1 % n] += coeff * 0.5j * np.conj(kc)
        szb[k2 % n, k1 % n] += coeff * 0.5j * kc
    return sz, szb


@settings(max_examples=25, derandomize=True, deadline=None)
@given(waves=_waves, c=_affine, d=_affine, L=_period)
def test_derivative_pair_matches_multiplier_table(waves, c, d, L):
    spec = GridSpec(16, L)
    fz, fzb = derivative_pair(trig_field(spec, waves, c=c, d=d))
    assert fz.is_periodic() and fzb.is_periodic()
    for got, want in zip((fz, fzb), _symbol_spectra(waves, c, d, spec)):
        scale = max(1.0, np.abs(want).max())
        assert np.allclose(spectrum(got.values), want, rtol=0, atol=1e-12 * scale)
        assert got.values.mean() == pytest.approx(want[0, 0], rel=0, abs=1e-12 * scale)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(waves=_waves, c=_affine, d=_affine, L=_period)
def test_beurling_takes_dzbar_to_dz(waves, c, d, L):
    # beurling drops the zero mode, which carries d on the left and c on the right
    fz, fzb = derivative_pair(trig_field(GridSpec(16, L), waves, c=c, d=d))
    want = fz.values - c
    scale = max(1.0, np.abs(want).max())
    assert np.allclose(beurling(fzb).values, want, rtol=0, atol=1e-12 * scale)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(n=st.sampled_from([16, 32]), factor=st.sampled_from([2, 4]),
       seed=st.integers(0, 2 ** 32 - 1), c=_affine, d=_affine)
def test_resample_up_then_down_property(n, factor, seed, c, d):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # the spectrum makes the round trip bit for bit (halving and summing the
    # Nyquist rows are exact); the samples also pass through two transform
    # pairs, so they come back to roundoff
    A = np.fft.fft2(vals)
    up = _resize_rows(_resize_rows(A, factor * n).T, factor * n).T
    assert np.array_equal(_resize_rows(_resize_rows(up, n).T, n).T, A)
    f = GridField(GridSpec(n), c, d, vals)
    back = resample(resample(f, factor * n), n)
    assert back.spec == f.spec and back.c == f.c and back.d == f.d
    assert np.allclose(back.values, f.values, rtol=0, atol=1e-14 * np.abs(vals).max())


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), L=_period)
def test_beurling_is_l2_isometry_property(seed, L):
    # every mode, the Nyquist rows included, has |conj(kc)/kc| = 1
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    f = GridField(GridSpec(32, L), 0.0, 0.0, vals - vals.mean())
    assert lp_norm(beurling(f), 2) == pytest.approx(lp_norm(f, 2), rel=1e-13)
