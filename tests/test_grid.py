import math
import tempfile
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

    @pytest.mark.parametrize("op, s", [("add", None), ("sub", None), ("mul", 0.3 - 1.7j),
                                       ("rmul", 2.5)])
    def test_arithmetic_adopts_its_result(self, op, s):
        # the fresh result is adopted, not copied: one n x n array at
        # n = 512 (a copy would make it 2.0), with numpy's bytes
        n = 512
        rng = np.random.default_rng(4)
        f, g = (GridField(GridSpec(n), c, d, rng.normal(size=(n, n))
                          + 1j * rng.normal(size=(n, n)))
                for c, d in ((1 + 2j, -0.5j), (0.25, 3.0)))
        call = {"add": lambda: f + g, "sub": lambda: f - g,
                "mul": lambda: f * s, "rmul": lambda: s * f}[op]
        out, peak, _ = traced_peak(call)
        assert peak < 1.1 * f.values.nbytes
        expected = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
                    "mul": lambda a, b: s * a, "rmul": lambda a, b: s * a}[op]
        assert out.values.tobytes() == expected(f.values, g.values).tobytes()
        assert (out.c, out.d) == (expected(f.c, g.c), expected(f.d, g.d))
        assert not out.values.flags.writeable

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


class TestBlockedL2:
    """grid._blocked_l2: one pass over row blocks, each block's squared
    moduli in the float view of an array the pass has read."""

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_whole_array_bits(self, monkeypatch, n, rows):
        # the float of values_l2 over the whole array, and every squared
        # modulus in place, with the default blocks and ragged ones of 7 rows
        if rows is not None:
            monkeypatch.setattr(grid, "_BLOCK", rows * n)
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        whole = b - 0.3 * np.abs(a)
        read = []

        def pointwise(r):
            assert all(s.stop <= r.start for s in read)   # rows in order, once
            read.append(r)
            return b[r] - 0.3 * np.abs(a[r])

        assert grid._blocked_l2(pointwise, a) == grid.values_l2(whole)
        assert sum(r.stop - r.start for r in read) == n
        assert a.reshape(-1).view(float)[:n * n].tobytes() == (np.abs(whole) ** 2).tobytes()


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
        path.write_bytes(_IDENTITY_HEAD + bytes(16 * 256))
        f = read_field(path)
        assert f.c == 1.0 and f.d == 0.0 and f.spec.n == 16
        assert np.all(f.values == 0)

    @pytest.mark.parametrize("payload", [bytes(16 * 255), bytes(16 * 257),
                                         bytes(16 * 256 + 8), b""],
                             ids=["one-short", "one-extra", "stray-8-bytes", "header-only"])
    def test_sample_count_mismatch(self, payload, tmp_path):
        # judged by the file's length: np.fromfile would drop a partial
        # sample without a word, and pytest turns any warning into an error
        path = tmp_path / "count.bfld"
        path.write_bytes(_IDENTITY_HEAD + payload)
        with pytest.raises(ValueError, match="sample-count mismatch"):
            read_field(path)

    def test_huge_header_count_is_refused_before_reading(self, tmp_path):
        # 2^40 samples would need 16 TiB: the length check comes first
        path = tmp_path / "huge.bfld"
        path.write_bytes(b"BFLD2 1048576 1048576 1 0 0 0 0\n" + bytes(16 * 256))
        with pytest.raises(ValueError, match="sample-count mismatch"):
            read_field(path)

    @pytest.mark.parametrize("head", [b"BFLD3 16 16 1 0 0 0 0\n", b"bfld2 16 16 1 0 0 0 0\n",
                                      b"BFLD2 16 16 1 0 0 0\n", b"BFLD2 16 16 1 0 0 0 x\n",
                                      b"BFLD2 16 32 1 0 0 0 0\n"],
                             ids=["magic", "magic-case", "short", "not-a-number", "non-square"])
    def test_malformed_header(self, head, tmp_path):
        path = tmp_path / "bad.bfld"
        path.write_bytes(head + bytes(16 * 256))
        with pytest.raises(ValueError, match="malformed header"):
            read_field(path)

    def test_text_bfld1_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "old.bfld"
        lines = ["BFLD1 16 16 6.283185307179586 1 0 0 0"] + ["0 0"] * 256
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="BFLD1 text.*re-run the solve"):
            read_field(path)

    def test_non_finite_values(self, tmp_path):
        vals = np.zeros(256, dtype="<c16")
        vals[-1] = complex(math.nan, 0.0)
        path = tmp_path / "nan.bfld"
        path.write_bytes(_IDENTITY_HEAD + vals.tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            read_field(path)

    @pytest.mark.parametrize("affine", ["nan 0 0 0", "0 0 0 -inf"])
    def test_non_finite_header(self, affine, tmp_path):
        path = tmp_path / "nan.bfld"
        path.write_bytes(f"BFLD2 16 16 6.283185307179586 {affine}\n".encode() + bytes(16 * 256))
        with pytest.raises(ValueError, match="non-finite values in"):
            read_field(path)

    def test_write_format_pinned(self, tmp_path):
        vals = np.zeros((16, 16), dtype=complex)
        vals[0, 0] = complex(-0.0, 1e-308)
        vals[0, 1] = 1e308 + 0.1j
        f = GridField(GridSpec(16, 1.0), 1.0, -0.5j, vals)
        path = tmp_path / "pin.bfld"
        write_field(f, path)
        head = b"BFLD2 16 16 1 1 0 -0 -0.5\n"
        data = path.read_bytes()
        assert data[:len(head)] == head
        assert data[len(head):] == f.values.astype("<c16").tobytes()
        assert len(data) == len(head) + 16 * 256

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

    def test_awkward_samples_are_the_payload(self, tmp_path):
        # the whole float64 range, signed zeros and subnormals: the payload
        # is the samples' bytes, and they read back bit for bit
        f = _awkward_field(256, seed=3)
        path = tmp_path / "f.bfld"
        write_field(f, path)
        assert path.read_bytes().endswith(f.values.astype("<c16").tobytes())
        g = read_field(path)
        assert g.spec == f.spec
        assert np.array([g.c, g.d]).tobytes() == np.array([f.c, f.d]).tobytes()
        assert g.values.tobytes() == f.values.tobytes()

    def test_read_adopts_what_it_reads(self, tmp_path):
        # np.fromfile's array becomes the field's values: no second copy
        n = 512
        f = _awkward_field(n, seed=5)
        path = tmp_path / "f.bfld"
        write_field(f, path)
        g, peak, kept = traced_peak(read_field, path)
        assert g.values.flags.owndata and not g.values.flags.writeable
        assert peak < 1.1 * f.values.nbytes
        assert 0.99 * f.values.nbytes < kept < 1.01 * f.values.nbytes

    def test_write_allocates_no_array(self, tmp_path):
        # the buffer is written as it is, and the finite check takes no
        # n x n temporary
        n = 512
        f = _awkward_field(n, seed=5)
        _, peak, kept = traced_peak(write_field, f, tmp_path / "f.bfld")
        assert peak < 0.05 * f.values.nbytes
        assert kept < 0.01 * f.values.nbytes


_IDENTITY_HEAD = b"BFLD2 16 16 6.283185307179586 1 0 0 0\n"


def _awkward_field(n: int, seed: int) -> GridField:
    """Samples over the whole float64 range, and -0.0, a subnormal and 1e300
    in the last grid row."""
    rng = np.random.default_rng(seed)
    vals = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) \
        * 10.0 ** rng.integers(-310, 300, size=(n, n))
    vals[-1, :3] = [complex(-0.0, 5e-324), complex(1e300, -0.0), complex(-2.5e-310, 1e300)]
    vals[-1, -1] = complex(-0.0, -0.0)
    return GridField(GridSpec(n, 3.5), complex(1 / 3, -0.0), complex(-0.0, 1e-300), vals)
