import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beltrami import (
    GridField,
    GridSpec,
    lp_norm,
    read_field,
    trig_field,
    write_field,
    z_grid,
    zero_field,
)
from beltrami import grid
from beltrami.grid import _z_at
from _helpers import spectrum, traced_peak


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec(16)
        assert spec.L == pytest.approx(2 * math.pi)
        assert spec.h == pytest.approx(2 * math.pi / 16)

    @pytest.mark.parametrize("n", [8, 15, 17, 48, 0, -16])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(n)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_period(self, L):
        with pytest.raises(ValueError, match="period"):
            GridSpec(16, L)

    @pytest.mark.parametrize("n", [16, 64, 1024])
    @pytest.mark.parametrize("L", [2 * math.pi, 3.0, 1e-3])
    def test_z_grid_is_the_meshgrid_expression(self, n, L):
        # one array filled from the coordinates holds meshgrid's x + 1j*y
        # byte for byte, sign bits included
        spec = GridSpec(n, L)
        t = np.arange(n) * spec.h
        x, y = np.meshgrid(t, t)
        assert z_grid(spec).tobytes() == (x + 1j * y).tobytes()

    @pytest.mark.parametrize("n", [16, 64, 1024])
    @pytest.mark.parametrize("L", [2 * math.pi, 3.0, 1e-3])
    def test_points_are_z_grid_entries(self, n, L):
        # the sample points hodograph_check reads, built without the grid,
        # hold z_grid's entries byte for byte, the axes' zeros included
        spec = GridSpec(n, L)
        i, j = np.random.default_rng(n).integers(0, n, size=(2, 200))
        i[:3], j[:3] = (0, 0, n - 1), (0, n - 1, 0)
        assert _z_at(spec, i, j).tobytes() == z_grid(spec)[i, j].tobytes()

    @pytest.mark.parametrize("n", [16, 64, 1024])
    @pytest.mark.parametrize("L", [2 * math.pi, 3.0, 1e-3])
    def test_row_blocks_are_z_grid_rows(self, monkeypatch, n, L):
        # the blocks solve_full and the radial fixture build hold z_grid's
        # rows byte for byte; 7 rows a block leave a ragged last block
        monkeypatch.setattr(grid, "_BLOCK", 7 * n)
        spec = GridSpec(n, L)
        z = z_grid(spec)
        blocks = list(grid._row_blocks(n))
        assert blocks[-1].stop - blocks[-1].start < 7
        for rows in blocks:
            assert z_grid(spec, rows).tobytes() == z[rows].tobytes()


class TestMakeField:
    def test_identity_map(self):
        f = GridField(GridSpec(16), 1.0, 0.0, np.zeros(256))
        assert f.c == 1.0 and f.d == 0.0
        assert np.all(f.values == 0)

    def test_constant_field(self):
        f = GridField(GridSpec(16), 0.0, 0.0, np.full(256, 5.0 + 0j))
        assert f.values.mean() == pytest.approx(5.0)
        assert np.all(f.values == 5.0)

    def test_composite_field_value_at_origin(self):
        # c*0 + d*0 + P(0) with P = 0.1*exp(2i pi x/L): total at z=0 is 0.1
        spec = GridSpec(16)
        x = (np.arange(16) * spec.h)[None, :] * np.ones((16, 1))
        samples = 0.1 * np.exp(1j * (2 * np.pi / spec.L) * x)
        f = GridField(spec, 1.0, 0.3, samples)
        assert f.total_values()[0, 0] == pytest.approx(0.1)

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError, match="sample-count mismatch"):
            GridField(GridSpec(16), 0.0, 0.0, np.zeros(255))

    def test_inputs_reproduced_exactly(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        f = GridField(GridSpec(32), 0.25 + 1j, -0.5j, vals)
        assert f.c == 0.25 + 1j and f.d == -0.5j
        assert np.array_equal(f.values, vals)

    def test_values_immutable(self):
        f = zero_field(GridSpec(16))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_writeable_input_is_copied(self):
        v = np.zeros((16, 16), dtype=complex)
        f = GridField(GridSpec(16), 0.0, 0.0, v)
        v[0, 0] = 1.0
        assert f.values[0, 0] == 0.0 and not np.shares_memory(f.values, v)

    def test_locked_owner_is_adopted(self):
        # a read-only complex (n, n) array that owns its memory is taken over
        # without a copy, and stays read-only
        v = np.arange(256, dtype=complex).reshape(16, 16).copy()
        v.setflags(write=False)
        f = GridField(GridSpec(16), 0.0, 0.0, v)
        assert np.shares_memory(f.values, v)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["row-view", "broadcast", "flat-view", "transposed",
                                      "fortran", "real", "flat"])
    def test_other_locked_arrays_are_copied(self, kind):
        # a view may be written through its base; an owner of another dtype,
        # shape or order is converted
        base = np.arange(512, dtype=complex).reshape(32, 16)
        v = {"row-view": base[:16],
             "broadcast": np.broadcast_to(base[0], (16, 16)),
             "flat-view": base[:16].reshape(-1),
             "transposed": base[:16].T,
             "fortran": np.array(base[:16], order="F"),
             "real": base[:16].real.copy(),
             "flat": base[:16].reshape(-1).copy()}[kind]
        v.setflags(write=False)
        f = GridField(GridSpec(16), 0.0, 0.0, v)
        assert not np.shares_memory(f.values, v)
        assert np.array_equal(f.values, np.reshape(v, (16, 16)))
        assert f.values.dtype == complex and f.values.flags.c_contiguous
        assert f.values.flags.owndata and not f.values.flags.writeable

    def test_arithmetic(self):
        spec = GridSpec(16)
        f = trig_field(spec, [(1, 0, 1.0)], c=1.0)
        g = trig_field(spec, [(0, 1, 2.0)], d=0.5)
        s = f + g
        assert s.c == 1.0 and s.d == 0.5
        assert np.allclose(s.values, f.values + g.values)
        assert np.allclose((2.0 * f).values, 2.0 * f.values)
        assert np.allclose((f - f).values, 0.0)

    def test_spec_mismatch_arithmetic(self):
        with pytest.raises(ValueError, match="mismatch"):
            zero_field(GridSpec(16)) + zero_field(GridSpec(32))


class TestLpNorm:
    def test_constant(self):
        f = GridField(GridSpec(16), 0.0, 0.0, np.full(256, 2.0 + 0j))
        assert lp_norm(f, 3) == pytest.approx(2.0)

    def test_unimodular_wave(self):
        f = trig_field(GridSpec(32), [(1, 0, 1.0)])
        assert lp_norm(f, 2) == pytest.approx(1.0)

    def test_sine_closed_form(self):
        # mean of sin^2 over a period is 1/2
        spec = GridSpec(32)
        x = (np.arange(32) * spec.h)[None, :] * np.ones((32, 1))
        f = GridField(spec, 0.0, 0.0, np.sin(2 * np.pi * x / spec.L))
        assert lp_norm(f, 2) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError, match="p must be"):
            lp_norm(zero_field(GridSpec(16)), 0.5)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        # an infinite p read 1.0 for every field, whatever its largest |v|
        f = GridField(GridSpec(16), 0.0, 0.0, np.full(256, 3.0 + 0j))
        with pytest.raises(ValueError, match="p must be finite"):
            lp_norm(f, p)

    def test_accepts_p_one(self):
        f = GridField(GridSpec(16), 0.0, 0.0, np.full(256, 0.3 + 0j))
        assert lp_norm(f, 1) == pytest.approx(0.3, rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 4.0, 8.0])
    def test_matches_total_values_reference(self, p):
        # periodic fields skip the affine rebuild; the norm is bit-identical
        rng = np.random.default_rng(3)
        v = rng.normal(size=256) + 1j * rng.normal(size=256)
        v[:4] = [-0.0, complex(-0.0, -0.0), 5e-324, 1e3]
        for c, d in [(0.0, 0.0), (0.5, 0.0), (0.0, 0.2j)]:
            f = GridField(GridSpec(16), c, d, v)
            reference = float(np.mean(np.abs(f.total_values()) ** p) ** (1.0 / p))
            assert lp_norm(f, p) == reference

    def test_parseval(self):
        # sample-space l2 equals coefficient-space l2
        for seed in range(5):
            f = trig_field(GridSpec(64), [(1, 2, 0.5), (3, -1, 0.2j), (0, 0, 1.1)])
            rng = np.random.default_rng(seed)
            f = GridField(f.spec, 0, 0, f.values + 0.1 * rng.normal(size=(64, 64)))
            spectral = math.sqrt(np.sum(np.abs(spectrum(f.values)) ** 2))
            assert lp_norm(f, 2) == pytest.approx(spectral, rel=1e-10)


class TestFieldFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        f = GridField(GridSpec(16, 3.5), 0.1 - 2j, 0.25j, vals)
        path = tmp_path / "f.bfld"
        write_field(f, path)
        g = read_field(path)
        assert g.spec == f.spec
        assert g.c == f.c and g.d == f.d
        assert np.array_equal(g.values, f.values)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(samples=arrays(np.float64, (256, 2),
                          elements=st.floats(allow_nan=False, allow_infinity=False)),
           affine=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=4, max_size=4),
           L=st.floats(1e-300, 1e300))
    def test_round_trip_is_bit_exact_property(self, samples, affine, L):
        # any finite float64 survives the 17-digit text, signed zeros and
        # subnormals included
        f = GridField(GridSpec(16, L), complex(*affine[:2]), complex(*affine[2:]),
                      samples.view(complex))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.bfld"
            write_field(f, path)
            g = read_field(path)
        assert g.spec == f.spec
        assert np.array([g.c, g.d]).tobytes() == np.array([f.c, f.d]).tobytes()
        assert g.values.tobytes() == f.values.tobytes()

    def test_round_trip_bytes_stable(self, tmp_path):
        f = trig_field(GridSpec(16), [(1, 1, 0.3 + 0.7j)], c=1 / 3)
        p1, p2 = tmp_path / "a.bfld", tmp_path / "b.bfld"
        write_field(f, p1)
        write_field(read_field(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_extreme_magnitudes(self, tmp_path):
        vals = np.zeros((16, 16), dtype=complex)
        vals[0, 0] = 1e-308 + 1e308j
        vals[3, 5] = -2.2250738585072014e-308
        vals[7, 7] = 0.1 + 1 / 3 * 1j
        f = GridField(GridSpec(16), 1e-300, 1e300j, vals)
        path = tmp_path / "x.bfld"
        write_field(f, path)
        g = read_field(path)
        assert g.c == f.c and g.d == f.d
        assert np.array_equal(g.values, f.values)

    def test_identity_map_encoding(self, tmp_path):
        path = tmp_path / "id.bfld"
        lines = ["BFLD1 16 16 6.283185307179586 1 0 0 0"] + ["0 0"] * 256
        path.write_text("\n".join(lines) + "\n")
        f = read_field(path)
        assert f.c == 1.0 and f.d == 0.0 and f.spec.n == 16
        assert np.all(f.values == 0)

    def test_sample_count_mismatch(self, tmp_path):
        path = tmp_path / "short.bfld"
        lines = ["BFLD1 16 16 6.283185307179586 1 0 0 0"] + ["0 0"] * 255
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="sample-count mismatch"):
            read_field(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.bfld"
        path.write_text("BFLD2 16 16 1 0 0 0 0\n")
        with pytest.raises(ValueError, match="malformed header"):
            read_field(path)

    def test_non_finite_values(self, tmp_path):
        path = tmp_path / "nan.bfld"
        lines = ["BFLD1 16 16 6.283185307179586 0 0 0 0"] + ["0 0"] * 255 + ["nan 0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_field(path)

    @pytest.mark.parametrize("affine", ["nan 0 0 0", "0 0 0 -inf"])
    def test_non_finite_header(self, affine, tmp_path):
        path = tmp_path / "nan.bfld"
        lines = [f"BFLD1 16 16 6.283185307179586 {affine}"] + ["0 0"] * 256
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite values in"):
            read_field(path)

    def test_write_format_pinned(self, tmp_path):
        vals = np.zeros((16, 16), dtype=complex)
        vals[0, 0] = complex(-0.0, 1e-308)
        vals[0, 1] = 1e308 + 0.1j
        path = tmp_path / "pin.bfld"
        write_field(GridField(GridSpec(16, 1.0), 1.0, -0.5j, vals), path)
        lines = path.read_text().split("\n")
        assert lines[:4] == ["BFLD1 16 16 1 1 0 -0 -0.5", "-0 9.9999999999999991e-309",
                             "1e+308 0.10000000000000001", "0 0"]
        assert len(lines) == 256 + 2 and lines[-1] == ""

    def test_matches_per_sample_reference(self, tmp_path):
        # the per-sample loop BFLD1 was first written and read with
        rng = np.random.default_rng(11)
        vals = (rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))) \
            * 10.0 ** rng.integers(-310, 308, size=(32, 32))
        vals[1, 2] = complex(-0.0, 5e-324)
        path = tmp_path / "ref.bfld"
        write_field(GridField(GridSpec(32), 0.0, 0.0, vals), path)
        rows = path.read_text().splitlines()[1:]
        assert rows == ["%.17g %.17g" % (v.real, v.imag) for v in vals.reshape(-1)]
        parsed = [complex(*(float(x) for x in row.split())) for row in rows]
        assert np.array_equal(read_field(path).values.reshape(-1).view(float),
                              np.array(parsed).view(float))

    @pytest.mark.parametrize("sample, c, d", [
        (complex(0.5, math.nan), 1.0, 0.0),
        (complex(-math.inf, 0.5), 1.0, 0.0),
        (0.0, complex(math.nan, 0.0), 0.0),
        (0.0, 1.0, complex(0.0, math.inf)),
    ], ids=["sample-nan", "sample-inf", "c-nan", "d-inf"])
    def test_non_finite_is_refused_before_the_file(self, sample, c, d, tmp_path):
        # read_field refuses such a file, so writing one would break the round trip
        vals = np.zeros((16, 16), dtype=complex)
        vals[9, 4] = sample
        path = tmp_path / "bad.bfld"
        with pytest.raises(ValueError, match="non-finite"):
            write_field(GridField(GridSpec(16), c, d, vals), path)
        assert not path.exists()

    @staticmethod
    def _write_rows(path, rows):
        path.write_text("\n".join(["BFLD1 16 16 6.283185307179586 1 0 0 0"] + rows) + "\n")

    def test_too_many_rows(self, tmp_path):
        path = tmp_path / "long.bfld"
        self._write_rows(path, ["0 0"] * 257)
        with pytest.raises(ValueError, match="sample-count mismatch"):
            read_field(path)

    def test_one_number_row(self, tmp_path):
        path = tmp_path / "ragged.bfld"
        self._write_rows(path, ["0 0"] * 100 + ["0"] + ["0 0"] * 155)
        with pytest.raises(ValueError, match="malformed samples"):
            read_field(path)

    def test_comment_row_is_an_error(self, tmp_path):
        path = tmp_path / "comment.bfld"
        self._write_rows(path, ["# a note"] + ["0 0"] * 256)
        with pytest.raises(ValueError, match="malformed samples"):
            read_field(path)

    def test_header_only_is_a_count_mismatch_without_warning(self, tmp_path):
        path = tmp_path / "empty.bfld"
        self._write_rows(path, [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sample-count mismatch"):
                read_field(path)


def _bfld_reference(f: GridField) -> bytes:
    """BFLD1 bytes from the per-sample loop: the header, then one line per
    sample, row-major."""
    head = " ".join(["BFLD1", str(f.spec.n), str(f.spec.n)]
                    + ["%.17g" % x for x in (f.spec.L, f.c.real, f.c.imag,
                                             f.d.real, f.d.imag)])
    rows = ["%.17g %.17g" % (v.real, v.imag) for v in f.values.reshape(-1)]
    return ("\n".join([head] + rows) + "\n").encode()


def _awkward_field(n: int, seed: int) -> GridField:
    """Samples over the whole float64 range, and -0.0, a subnormal and 1e300
    in the last grid row."""
    rng = np.random.default_rng(seed)
    vals = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) \
        * 10.0 ** rng.integers(-310, 300, size=(n, n))
    vals[-1, :3] = [complex(-0.0, 5e-324), complex(1e300, -0.0), complex(-2.5e-310, 1e300)]
    vals[-1, -1] = complex(-0.0, -0.0)
    return GridField(GridSpec(n, 3.5), complex(1 / 3, -0.0), complex(-0.0, 1e-300), vals)


class TestBlockedFieldWriter:
    @pytest.mark.parametrize("n", [64, 128])
    def test_ragged_row_blocks_keep_the_reference_bytes(self, monkeypatch, n, tmp_path):
        # 7 rows per block: the last block of 64 and 128 rows holds 1 and 2
        monkeypatch.setattr(grid, "_BLOCK", 7 * n)
        f = _awkward_field(n, seed=n)
        write_field(f, tmp_path / "f.bfld")
        assert (tmp_path / "f.bfld").read_bytes() == _bfld_reference(f)
        g = read_field(tmp_path / "f.bfld")
        assert g.values.tobytes() == f.values.tobytes()

    def test_default_blocks_keep_the_reference_bytes(self, tmp_path):
        f = _awkward_field(256, seed=3)
        assert 256 * 256 > 2 * grid._BLOCK  # several blocks
        write_field(f, tmp_path / "f.bfld")
        assert (tmp_path / "f.bfld").read_bytes() == _bfld_reference(f)

    def test_traced_peak_is_one_block(self, tmp_path):
        # one %-operation over the whole file peaked at 9.04 complex arrays
        n = 512
        rng = np.random.default_rng(5)
        f = GridField(GridSpec(n), 0.0, 0.0,
                      rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        _, peak, kept = traced_peak(write_field, f, tmp_path / "f.bfld")
        assert peak < 0.6 * f.values.nbytes
        assert kept < 0.01 * f.values.nbytes
