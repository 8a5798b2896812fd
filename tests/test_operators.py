import math

import numpy as np
import pytest

from beltrami import (
    GridSpec,
    antiderivative_zbar,
    beurling,
    coeff_at,
    d_z,
    d_zbar,
    derivative_pair,
    from_coeffs,
    lp_norm,
    make_field,
    abs_map,
    random_trig_field,
    resample,
    smooth_saturating_map,
    solve_autonomous,
    to_coeffs,
    trig_field,
    z_grid,
    zero_field,
)
from beltrami.operators import _second_derivatives
from _helpers import fd_dz, fd_dzbar, rel_l2

SPEC = GridSpec(32)
TAU = 2 * math.pi


def wave(k1, k2, coeff=1.0, spec=SPEC):
    return trig_field(spec, [(k1, k2, coeff)])


class TestDerivatives:
    def test_holomorphic_affine(self):
        f = make_field(SPEC, 1.0, 0.0, np.zeros(SPEC.n ** 2))  # f(z) = z
        assert lp_norm(d_zbar(f), 2) == 0.0
        assert np.allclose(d_z(f).values, 1.0)

    def test_antiholomorphic_affine(self):
        f = make_field(SPEC, 0.0, 1.0, np.zeros(SPEC.n ** 2))  # f(z) = conj(z)
        assert np.allclose(d_zbar(f).values, 1.0)
        assert lp_norm(d_z(f), 2) == 0.0

    def test_dzbar_symbol_diagonal_wave(self):
        # d/dzbar of exp(2i pi (x+y)/L) multiplies by (i/2)(2 pi/L)(1+i)
        f = wave(1, 1)
        expected = (1j * TAU / SPEC.L) * (1 + 1j) / 2 * f.values
        assert np.allclose(d_zbar(f).values, expected, atol=1e-13)

    def test_dz_symbol_x_wave_vs_finite_differences(self):
        f = wave(1, 0)
        out = d_z(f)
        assert np.allclose(out.values, (1j * math.pi / SPEC.L) * f.values, atol=1e-13)
        fd = fd_dz(f.values, SPEC.h)
        # centered differences converge at second order; at n=32 the symbol
        # error for mode 1 is (sin(h k)/ (h k) - 1) ~ 0.6%
        assert rel_l2(fd, out.values) < 7e-3

    @pytest.mark.parametrize("n", [32, 64])
    def test_fd_consistency_second_order(self, n):
        spec = GridSpec(n)
        f = random_trig_field(spec, seed=5, band=3, modes=8)
        errs = (rel_l2(fd_dz(f.values, spec.h), d_z(f).values),
                rel_l2(fd_dzbar(f.values, spec.h), d_zbar(f).values))
        bound = 8.0 * (TAU * 3 / n) ** 2  # O(h^2) with the largest mode
        assert max(errs) < bound

    def test_fd_error_shrinks_4x_per_doubling(self):
        errs = []
        for n in (32, 64, 128):
            spec = GridSpec(n)
            f = trig_field(spec, [(2, 1, 1.0), (1, -2, 0.5j)])
            errs.append(rel_l2(fd_dz(f.values, spec.h), d_z(f).values))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_mixed_partials_commute(self):
        f = random_trig_field(SPEC, seed=9)
        a = d_z(d_zbar(f))
        b = d_zbar(d_z(f))
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_derivative_pair_means(self):
        f = random_trig_field(SPEC, seed=3, c=0.7 + 0.2j, d=-0.1j)
        dz, dzb = derivative_pair(f)
        assert dz.periodic_mean == pytest.approx(f.c, abs=1e-13)
        assert dzb.periodic_mean == pytest.approx(f.d, abs=1e-13)


class TestSecondDerivatives:
    @pytest.mark.parametrize("A", [abs_map(0.3), smooth_saturating_map(0.3, 0.1j, 0.2)],
                             ids=["kabs", "smoothsat"])
    def test_matches_chained_first_derivatives(self, A):
        spec = GridSpec(64)
        h = trig_field(spec, [(1, 0, 0.1), (2, -1, 0.05j), (0, 3, 0.02)])
        f, rep = solve_autonomous(A, h, 1.0 + 0.2j, tol=1e-12)
        assert rep.converged
        fz, fzb = derivative_pair(f)
        chained = (d_z(fz).values, d_zbar(fz).values, d_zbar(fzb).values)
        for got, want in zip(_second_derivatives(f), chained):
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
        for got, want in zip(_second_derivatives(f), exact):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestBeurling:
    def test_x_wave_fixed(self):
        f = wave(1, 0)  # wavevector (1,0): multiplier conj(kc)/kc = 1
        assert np.allclose(beurling(f).values, f.values, atol=1e-13)

    def test_y_wave_negated(self):
        f = wave(0, 1)  # wavevector (0,1): multiplier = -1
        assert np.allclose(beurling(f).values, -f.values, atol=1e-13)

    def test_constant_maps_to_zero(self):
        f = make_field(SPEC, 0.0, 0.0, np.full(SPEC.n ** 2, 3.0 + 1j))
        assert np.all(beurling(f).values == 0)

    def test_rejects_affine_part(self):
        f = make_field(SPEC, 1.0, 0.0, np.zeros(SPEC.n ** 2))
        with pytest.raises(ValueError, match="affine"):
            beurling(f)

    def test_intertwines_derivatives(self):
        # beurling(d_zbar(f)) = d_z(f), mode by mode
        for seed in range(5):
            f = random_trig_field(SPEC, seed=seed, band=8, modes=12)
            lhs = to_coeffs(beurling(d_zbar(f)))
            rhs = to_coeffs(d_z(f))
            scale = np.abs(rhs.coeffs).max()
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13 * scale)

    def test_l2_isometry(self):
        for seed in range(20):
            f = random_trig_field(SPEC, seed=100 + seed, band=10, modes=15)
            assert lp_norm(beurling(f), 2) == pytest.approx(lp_norm(f, 2), rel=1e-10)

    def test_twice_is_squared_multiplier(self):
        f = random_trig_field(SPEC, seed=2, band=5, modes=10)
        twice = to_coeffs(beurling(beurling(f))).coeffs
        k = np.fft.fftfreq(SPEC.n, 1 / SPEC.n).astype(int)
        K1, K2 = np.meshgrid(k, k)
        kc = K1 + 1j * K2
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = (np.conj(kc) / kc) ** 2
        mult[0, 0] = 0.0
        expected = mult * to_coeffs(f).coeffs
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
        a = beurling(d_zbar(f))
        b_field = d_zbar(make_field(SPEC, 0, 0, beurling(f).values))
        # d_zbar of a mean-zero periodic field keeps mean zero, so both are
        # the same Fourier multiplier product in either order
        assert np.allclose(a.values, b_field.values, atol=1e-12)


class TestAntiderivative:
    def test_zero_gives_affine(self):
        F = antiderivative_zbar(zero_field(SPEC), c=1.0)
        assert F.c == 1.0 and F.d == 0.0
        assert np.all(F.values == 0)

    def test_constant_absorbed_into_affine(self):
        m = 0.3 - 0.2j
        F = antiderivative_zbar(make_field(SPEC, 0, 0, np.full(SPEC.n ** 2, m)), c=0.0)
        assert F.d == pytest.approx(m)
        assert np.allclose(F.values, 0.0, atol=1e-14)

    def test_inverts_dzbar(self):
        phi = wave(1, 0)
        F = antiderivative_zbar(phi, c=0.0)
        assert rel_l2(d_zbar(F).values, phi.values) < 1e-10
        assert abs(F.periodic_mean) < 1e-13

    def test_random_inversion(self):
        phi = random_trig_field(SPEC, seed=21, band=6, modes=10)
        F = antiderivative_zbar(phi, c=2.0)
        dzb = d_zbar(F)
        assert rel_l2(dzb.values, phi.values) < 1e-12
        assert F.c == 2.0

    def test_rejects_affine_part(self):
        f = make_field(SPEC, 0.5, 0.0, np.zeros(SPEC.n ** 2))
        with pytest.raises(ValueError, match="affine"):
            antiderivative_zbar(f)


class TestSpectralCoeffs:
    def test_round_trip(self):
        f = random_trig_field(SPEC, seed=4, c=0.3, d=0.1)
        g = from_coeffs(to_coeffs(f), c=f.c, d=f.d)
        assert rel_l2(g.values, f.values) < 1e-12

    def test_zero_mode_is_mean(self):
        f = trig_field(SPEC, [(0, 0, 1.5 + 0.5j), (2, 1, 1.0)])
        sc = to_coeffs(f)
        assert coeff_at(sc, 0, 0) == pytest.approx(f.periodic_mean)
        assert coeff_at(sc, 2, 1) == pytest.approx(1.0)

    def test_out_of_band_lookup(self):
        sc = to_coeffs(zero_field(SPEC))
        with pytest.raises(ValueError, match="band"):
            coeff_at(sc, SPEC.n, 0)


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
