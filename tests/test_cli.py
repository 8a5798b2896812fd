import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beltrami
from beltrami import (GridField, GridSpec, derivative_pair, lp_norm, read_field, trig_field,
                      write_field, z_grid)
from beltrami import cli, grid
from beltrami.analysis import CoefficientFields
from beltrami.cli import _write_coefficients, _write_csv, build_parser, main, parse_map
from beltrami.autonomous import AutonomousMap
from beltrami.fullnonlinear import FullMap
from _helpers import traced_peak


def run(args):
    return main(args)


class TestMapGrammar:
    def test_linear_token(self):
        m = parse_map("linear:0.3,0,0.2,0", 2 * math.pi)
        assert isinstance(m, AutonomousMap)
        assert m.k == pytest.approx(0.5)

    def test_kabs_token(self):
        assert parse_map("kabs:0.3", 2 * math.pi).k == pytest.approx(0.3)

    def test_smoothsat_token(self):
        m = parse_map("smoothsat:0.3,0,0.2,0,0.1", 2 * math.pi)
        assert m.k == pytest.approx(0.6)

    def test_full_map_tokens(self):
        m = parse_map("kabs:0.3+zterm:0.02,0,1,0+wterm:0.05,0", 2 * math.pi)
        assert isinstance(m, FullMap)
        z = np.array([0.5 + 0.25j])
        w = np.array([2.0 + 0j])
        zeta = np.array([1.0 + 0j])
        expected = (0.3 * np.abs(zeta) + 0.02 * np.sin(z.real)
                    + 0.05 * w / (1 + np.abs(w)))
        assert np.allclose(m.eval(z, w, zeta), expected)

    @pytest.mark.parametrize("argv, token", [
        (["--h", "trig:0.1,0,1.5,0"], "0.1,0,1.5,0"),
        (["--h", "trig:0.1,0,1,0+0.2,0,0,nan"], "0.2,0,0,nan"),
        (["--map", "kabs:0.3+zterm:0.1,0,2.9,0"], "zterm:0.1,0,2.9,0"),
        (["--map", "kabs:0.3+zterm:0.1,0,1,inf"], "zterm:0.1,0,1,inf"),
    ], ids=["trig-fraction", "trig-nan", "zterm-fraction", "zterm-inf"])
    def test_non_integer_wavenumber_exits_1(self, argv, token, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["solve", "--map", "kabs:0.3", "--grid", "16", "--out", str(out)]
        assert run(args + argv) == 1
        err = capsys.readouterr().err
        assert "wavenumbers must be integers" in err and repr(token) in err
        assert not out.exists()

    def test_integer_valued_wavenumbers_accepted(self):
        z = z_grid(GridSpec(16)).reshape(-1)
        w, zeta = np.full(z.shape, 0.5 + 0j), np.full(z.shape, 1.0 + 0j)
        maps = [parse_map(f"kabs:0.3+zterm:0.1,0,{k1},{k2}", 2 * math.pi)
                for k1, k2 in (("2.0", "-1.0"), ("2", "-1"))]
        assert np.array_equal(maps[0].eval(z, w, zeta), maps[1].eval(z, w, zeta))
        spec = GridSpec(16)
        assert np.array_equal(cli._parse_h("trig:0.1,0,1.0,-2.0", spec).values,
                              cli._parse_h("trig:0.1,0,1,-2", spec).values)

    def test_unknown_token_named_in_error(self, capsys):
        code = run(["solve", "--map", "bogus:1", "--grid", "16",
                    "--out", "/tmp/x-cli-bogus"])
        assert code == 1
        assert "bogus:1" in capsys.readouterr().err


class TestSolveCommand:
    def test_trivial_identity(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["solve", "--map", "linear:0,0,0,0", "--grid", "64",
                    "--mean", "1,0", "--out", str(out)])
        assert code == 0
        f = read_field(out / "solution.bfld")
        assert f.c == 1.0 and f.d == 0.0
        assert not f.values.any()
        for name in ("report.csv", "summary.csv", "fz_heatmap.pgm", "manifest.json"):
            assert (out / name).exists()
        assert "converged=True" in capsys.readouterr().out

    def test_ellipticity_violation_exits_1(self, tmp_path, capsys):
        code = run(["solve", "--map", "linear:2,0,0,0", "--grid", "64",
                    "--mean", "1,0", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "ellipticity violated" in err and "2" in err

    def test_kabs_solve_with_trig_forcing(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["solve", "--map", "kabs:0.3", "--grid", "64",
                    "--h", "trig:0.1,0,1,0", "--mean", "1,0",
                    "--tol", "1e-10", "--out", str(out)])
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        ratio = float(summary[1].split(",")[2])
        assert ratio <= 0.32

    def test_forcing_from_file(self, tmp_path):
        h = trig_field(GridSpec(64), [(1, 0, 0.05)])
        hpath = tmp_path / "h.bfld"
        write_field(h, hpath)
        out = tmp_path / "run"
        code = run(["solve", "--map", "linear:0.4,0,0,0", "--grid", "64",
                    "--h", str(hpath), "--mean", "1,0", "--out", str(out)])
        assert code == 0

    @pytest.mark.parametrize("map_spec", ["kabs:0.3", "kabs:0.3+zterm:0.02,0,1,0+wterm:0.05,0"],
                             ids=["autonomous", "full"])
    def test_forcing_file_resampled_to_the_grid(self, map_spec, tmp_path):
        # a band-limited forcing written at n = 32 drives an n = 64 solve as
        # the same waves sampled at n = 64 do
        waves = "trig:0.1,0,1,0+0.05,-0.02,2,-1"
        write_field(cli._parse_h(waves, GridSpec(32)), tmp_path / "h32.bfld")
        fields = []
        for name, h in (("file", str(tmp_path / "h32.bfld")), ("trig", waves)):
            out = tmp_path / name
            assert run(["solve", "--map", map_spec, "--grid", "64", "--h", h,
                        "--out", str(out)]) == 0
            fields.append(read_field(out / "solution.bfld"))
        a, b = fields
        assert abs(a.d - b.d) <= 1e-14 and np.max(np.abs(a.values - b.values)) <= 1e-14

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--map", "kabs:0.3,0.1"], "bad map token 'kabs:0.3,0.1': expected 1 numbers"),
        (["solve", "--map", "linear:0.3,x,0,0"],
         "bad map token 'linear:0.3,x,0,0': non-numeric field"),
        (["solve", "--map", "kabs:0.3+kabs:0.2"], "duplicate base map token 'kabs:0.2'"),
        (["solve", "--map", "zterm:0.1,0,1,0"], "map 'zterm:0.1,0,1,0' lacks a base token"),
        (["solve", "--map", "kabs:0.3", "--h", "H_OTHER_PERIOD"], "--h file grid"),
        (["solve", "--map", "kabs:0.3", "--max-iter", "ten"],
         "argument --max-iter: expected int, got 'ten'"),
        (["probe"], "probe needs --fields, --map or --extremal"),
        (["probe", "--map", "kabs:0.3", "--h", "trig:0.1,0,1,0", "--max-iter", "1"],
         "ladder solve at n=16 did not converge within --max-iter 1"),
        (["hodograph", "--field", "H_OTHER_PERIOD", "--map", "kabs:0.3+wterm:0.1,0"],
         "hodograph --map must be autonomous (no zterm/wterm), got 'kabs:0.3+wterm:0.1,0'"),
    ], ids=["token-count", "token-non-numeric", "duplicate-base", "no-base",
            "forcing-file-period", "option-non-numeric", "probe-no-source",
            "ladder-not-converged",
            "hodograph-full-map"])
    def test_usage_errors_exit_1(self, argv, message, tmp_path, capsys):
        other = tmp_path / "h.bfld"  # the right n on a period of 1
        write_field(trig_field(GridSpec(16, 1.0), [(1, 0, 0.1)]), other)
        argv = [str(other) if a == "H_OTHER_PERIOD" else a for a in argv]
        grid = ["--grid", "16"] if argv[0] in ("solve", "probe") else []
        out = tmp_path / "o"
        assert run([*argv, *grid, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergence_exits_2_with_output(self, tmp_path):
        out = tmp_path / "run"
        code = run(["solve", "--map", "kabs:0.9", "--grid", "32",
                    "--h", "trig:0.5,0,1,0", "--mean", "1,0",
                    "--tol", "1e-14", "--max-iter", "3", "--out", str(out)])
        assert code == 2
        assert (out / "solution.bfld").exists()  # best iterate still written

    @pytest.mark.parametrize("bad, option", [
        (["--tol", "nan"], "--tol"), (["--tol", "0"], "--tol"), (["--tol", "inf"], "--tol"),
        (["--damping", "0"], "--damping"), (["--damping", "1.5"], "--damping"),
        (["--damping", "nan"], "--damping"),
        (["--max-iter", "0"], "--max-iter"), (["--max-iter", "-3"], "--max-iter"),
        (["--period", "inf"], "period"),
    ])
    def test_bad_solver_options_exit_1(self, bad, option, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["solve", "--map", "kabs:0.3", "--grid", "16", *bad,
                    "--out", str(out)]) == 1
        assert option in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--map", "kabs:0.3", "--grid", "32"],
        ["solve", "--map", "linear:0.3,0,0.2,0", "--solver", "changevar", "--grid", "32"],
        ["probe", "--map", "kabs:0.3", "--grid", "16"],
        ["probe", "--extremal", "2", "--grid", "16"],
        ["probe", "--map", "kabs:0.3+zterm:0.02,0,1,0", "--extremal", "2", "--grid", "16"],
    ], ids=["solve-autonomous", "solve-changevar", "probe-autonomous", "probe-extremal",
            "probe-extremal-over-full-map"])
    def test_damping_rejected_where_nothing_reads_it(self, argv, monkeypatch, tmp_path,
                                                     capsys):
        def no_solves(*_args):
            raise AssertionError("ladder solved before --damping was checked")

        monkeypatch.setattr(cli, "_solve_ladder", no_solves)
        out = tmp_path / "o"
        assert run(argv + ["--damping", "0.5", "--out", str(out)]) == 1
        assert "--damping" in capsys.readouterr().err
        assert not out.exists()

    def test_damping_reaches_a_full_map_ladder(self, monkeypatch, tmp_path, capsys):
        def ladder(args, mapping, specs):
            raise cli._UsageError(f"ladder reached with a {type(mapping).__name__}")

        monkeypatch.setattr(cli, "_solve_ladder", ladder)
        assert run(["probe", "--map", "kabs:0.3+zterm:0.02,0,1,0", "--grid", "16",
                    "--damping", "0.5", "--out", str(tmp_path / "o")]) == 1
        assert "ladder reached with a FullMap" in capsys.readouterr().err

    def test_changevar_solver(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["solve", "--grid", "64", "--h", "trig:0.1,0,1,0",
                "--mean", "1,0"]
        assert run(args + ["--map", "linear:0.3,0,0.2,0", "--out", str(out1),
                           "--solver", "changevar"]) == 0
        assert run(args + ["--map", "linear:0.3,0,0.2,0", "--out", str(out2)]) == 0
        fa = read_field(out1 / "solution.bfld")
        fb = read_field(out2 / "solution.bfld")
        diff = np.sqrt(np.mean(np.abs(fa.values - fb.values) ** 2))
        assert diff < 1e-7

    @pytest.mark.parametrize("token", ["smoothsat:0.3,0,0.2,0,0.1",
                                       "smoothsat:0.3,0,0.2,0,0"], ids=["s>0", "s=0"])
    def test_changevar_takes_exactly_linear_maps(self, token, tmp_path, capsys):
        # smoothsat with s = 0 is the linear map and solves to the same bytes
        args = ["solve", "--grid", "32", "--h", "trig:0.1,0,1,0", "--solver", "changevar"]
        lin, out = tmp_path / "lin", tmp_path / "o"
        assert run(args + ["--map", "linear:0.3,0,0.2,0", "--out", str(lin)]) == 0
        code = run(args + ["--map", token, "--out", str(out)])
        if token.endswith(",0.1"):
            assert code == 1
            assert "--solver changevar requires a linear:* map" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            assert (out / "solution.bfld").read_bytes() == (lin / "solution.bfld").read_bytes()

    def test_negative_smoothsat_s_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["solve", "--map", "smoothsat:0.3,0,0,0,-0.1", "--grid", "16",
                    "--out", str(out)]) == 1
        assert "smoothsat perturbation s must be >= 0, got -0.1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("limit, option", [
        (["--tol", "1e-3"], "--tol"), (["--max-iter", "1"], "--max-iter"),
        (["--tol", "1e-10", "--max-iter", "2000"], None),
    ], ids=["tol", "max-iter", "defaults"])
    def test_changevar_refuses_iteration_limits(self, limit, option, tmp_path, capsys):
        args = ["solve", "--map", "linear:0.3,0,0.2,0", "--grid", "16",
                "--h", "trig:0.1,0,1,0", "--solver", "changevar"]
        plain, out = tmp_path / "plain", tmp_path / "o"
        assert run(args + ["--out", str(plain)]) == 0
        code = run(args + limit + ["--out", str(out)])
        if option is None:  # the defaults, spelled out, change nothing
            assert code == 0
            assert (out / "solution.bfld").read_bytes() == (plain / "solution.bfld").read_bytes()
        else:
            assert code == 1
            err = capsys.readouterr().err
            assert f"{option} is read only by the fixed-point solver" in err
            assert not out.exists()

    def test_changevar_requires_linear(self, tmp_path, capsys):
        code = run(["solve", "--map", "kabs:0.3", "--grid", "32",
                    "--mean", "1,0", "--solver", "changevar",
                    "--out", str(tmp_path / "x")])
        assert code == 1
        assert "linear" in capsys.readouterr().err

    def test_heatmap_is_valid_pgm(self, tmp_path):
        out = tmp_path / "run"
        run(["solve", "--map", "linear:0.3,0,0,0", "--grid", "32",
             "--h", "trig:0.1,0,1,0", "--mean", "1,0", "--out", str(out)])
        data = (out / "fz_heatmap.pgm").read_bytes()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32
        manifest = json.loads((out / "manifest.json").read_text())
        assert "heatmap_scale" in manifest


class TestProbeCommand:
    def test_extremal_calibration(self, tmp_path, capsys):
        out = tmp_path / "probe"
        code = run(["probe", "--extremal", "2", "--grid", "64",
                    "--levels", "3", "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("p_critical=")
        p_c = float(line.split()[0].split("=")[1])
        assert 3.6 <= p_c <= 4.4
        assert (out / "regularity.csv").exists()

    def test_smooth_identity_reports_inf(self, tmp_path, capsys):
        fields = []
        for n in (32, 64, 128):
            f = trig_field(GridSpec(n), [], c=1.0)
            p = tmp_path / f"f{n}.bfld"
            write_field(f, p)
            fields.append(str(p))
        code = run(["probe", "--fields", *fields, "--out", str(tmp_path / "o")])
        assert code == 0
        assert "p_critical=inf" in capsys.readouterr().out

    def test_too_few_levels_exits_1(self, tmp_path, capsys):
        f = trig_field(GridSpec(32), [], c=1.0)
        p = tmp_path / "f.bfld"
        write_field(f, p)
        code = run(["probe", "--fields", str(p), str(p),
                    "--out", str(tmp_path / "o")])
        assert code == 1

    def test_resolve_ladder(self, tmp_path, capsys):
        out = tmp_path / "probe"
        code = run(["probe", "--map", "smoothsat:0.3,0,0.2,0,0.1",
                    "--grid", "32", "--levels", "3", "--h", "trig:0.05,0,1,0",
                    "--mean", "1,0", "--p-max", "10", "--out", str(out)])
        assert code == 0
        assert "p_critical=inf" in capsys.readouterr().out

    def test_second_order_ladder(self, tmp_path, capsys):
        out = tmp_path / "probe2"
        code = run(["probe", "--map", "linear:0.5,0,0,0", "--grid", "32",
                    "--levels", "3", "--h", "trig:0.05,0,1,0", "--mean", "1,0",
                    "--second-order", "--k", "0.5",
                    "--p-min", "1.2", "--p-max", "2.9", "--p-step", "0.1",
                    "--out", str(out)])
        assert code == 0
        assert "p_critical=inf" in capsys.readouterr().out

    @pytest.mark.parametrize("grid_args, option", [
        (["--p-step", "-1"], "--p-step"),
        (["--p-step", "0"], "--p-step"),
        (["--p-step", "nan"], "--p-step"),
        (["--p-min", "5", "--p-max", "3"], "--p-min"),
        (["--p-max", "inf"], "--p-max"),
    ])
    def test_bad_p_grid_rejected_before_work(self, grid_args, option, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["probe", "--extremal", "2", "--grid", "16", *grid_args,
                    "--out", str(out)]) == 1
        assert option in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source, unused", [
        (["--extremal", "2"], ["--map", "nonsense:1"]),
        (["--extremal", "2"], ["--h", "trig:9,9,1,1"]),
        (["--fields", "F"], ["--map", "kabs:0.3"]),
        (["--fields", "F"], ["--h", "trig:0.1,0,1,0"]),
    ], ids=["extremal-map", "extremal-h", "fields-map", "fields-h"])
    def test_solver_inputs_rejected_without_a_ladder_solve(self, source, unused,
                                                           tmp_path, capsys):
        # --fields and --extremal bring their own fields: --map and --h go unread
        f = tmp_path / "f.bfld"
        write_field(trig_field(GridSpec(16), [], c=1.0), f)
        source = [str(f) if a == "F" else a for a in source]
        out = tmp_path / "o"
        assert run(["probe", *source, "--grid", "16", *unused, "--out", str(out)]) == 1
        assert f"{unused[0]} is read only by a probe that solves" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source, unused", [
        (["probe", "--extremal", "2"], ["--tol", "1e-3"]),
        (["probe", "--extremal", "2"], ["--mean", "2,0"]),
        (["probe", "--extremal", "2"], ["--max-iter", "3"]),
        (["probe", "--fields", "F"], ["--extremal", "2"]),
        (["probe", "--fields", "F"], ["--grid", "16"]),
        (["probe", "--fields", "F"], ["--levels", "4"]),
        (["probe", "--fields", "F"], ["--period", "1"]),
        (["probe", "--map", "kabs:0.3"], ["--k", "0.5"]),
    ], ids=["extremal-tol", "extremal-mean", "extremal-max-iter", "fields-extremal",
            "fields-grid", "fields-levels", "fields-period", "k-without-second-order"])
    def test_unread_options_refused_before_work(self, source, unused, monkeypatch,
                                                tmp_path, capsys):
        def no_work(*_args):
            raise AssertionError(f"work started before {unused[0]} was checked")

        for name in ("read_field", "radial_extremal_pair", "_solve_ladder",
                     "_solve_fixed_point"):
            monkeypatch.setattr(cli, name, no_work)
        source = [str(tmp_path / "f.bfld") if a == "F" else a for a in source]
        out = tmp_path / "o"
        assert run([*source, *unused, "--out", str(out)]) == 1
        assert f"{unused[0]} is read only by" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", [
        ["probe", "--map", "kabs:0.3+zterm:0.02,0,1,0", "--grid", "16"],
        ["solve", "--map", "kabs:0.3+zterm:0.02,0,1,0", "--grid", "32"],
    ], ids=["full-map-h", "solve-full-map-h"])
    def test_full_map_reads_h(self, source, monkeypatch, tmp_path):
        # every fixed-point solve reads --h and meets tol * max(1, ||h||_2)
        solved = []
        solve = cli._solve_fixed_point

        def recording(args, mapping, h, spec):
            f, rep = solve(args, mapping, h, spec)
            solved.append((mapping, h, f))
            return f, rep

        monkeypatch.setattr(cli, "_solve_fixed_point", recording)
        for name, forcing in (("plain", []), ("forced", ["--h", "trig:5,0,1,0"])):
            assert run([*source, *forcing, "--out", str(tmp_path / name)]) == 0
        half = len(solved) // 2
        assert half == (3 if source[0] == "probe" else 1)
        if source[0] == "solve":  # the residual is read from the written field
            f = read_field(tmp_path / "forced" / "solution.bfld")
            assert f.values.tobytes() == solved[-1][2].values.tobytes()
        for (_, h0, f0), (H, h, f) in zip(solved[:half], solved[half:]):
            assert isinstance(H, FullMap) and not h0.values.any()
            assert np.max(np.abs(f.values - f0.values)) > 0.1
            fz, fzb = derivative_pair(f)
            r = fzb.values - H.eval(z_grid(f.spec), f.total_values(), fz.values) - h.values
            assert lp_norm(h, 2) == pytest.approx(5.0)
            assert np.sqrt(np.mean(np.abs(r) ** 2)) <= 1e-10 * 5.0

    @pytest.mark.parametrize("source, defaults", [
        (["--extremal", "2", "--grid", "16"],
         ["--damping", "1", "--mean", "1,0", "--tol", "1e-10", "--max-iter", "2000",
          "--h", "zero"]),
        (["--fields", "F16", "F32", "F64"],
         ["--grid", "64", "--levels", "3", "--period", "6.283185307179586", "--h", "zero"]),
    ], ids=["extremal", "fields"])
    def test_unread_options_at_their_defaults_accepted(self, source, defaults, tmp_path,
                                                       capsys):
        for n in (16, 32, 64):
            write_field(trig_field(GridSpec(n), [(1, 0, 0.1)], c=1.0), tmp_path / f"F{n}")
        source = [str(tmp_path / a) if a.startswith("F") else a for a in source]
        runs = []
        for name, extra in (("plain", []), ("spelled", defaults)):
            out = tmp_path / name
            assert run(["probe", *source, *extra, "--out", str(out)]) == 0
            runs.append([capsys.readouterr().out] + [(out / f).read_bytes() for f in
                                                     ("regularity.csv", "manifest.json")])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("source", [["--map", "kabs:0.3", "--h", "trig:0.1,0,1,0"],
                                        ["--extremal", "2"]], ids=["map", "extremal"])
    @pytest.mark.parametrize("p_min", ["0.5", "0", "-inf", "inf"])
    def test_p_min_checked_before_the_ladder(self, source, p_min, monkeypatch, tmp_path,
                                             capsys):
        def no_work(*_args):
            raise AssertionError("ladder built before --p-min was checked")

        for name in ("radial_extremal_pair", "_solve_ladder"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "o"
        assert run(["probe", *source, "--grid", "16", f"--p-min={p_min}",
                    "--out", str(out)]) == 1
        assert "argument --p-min: must be finite and >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_checked_before_the_ladder(self, monkeypatch, tmp_path, capsys):
        def no_solves(*_args):
            raise AssertionError("ladder solved before --levels was checked")

        monkeypatch.setattr(cli, "_solve_ladder", no_solves)
        out = tmp_path / "o"
        assert run(["probe", "--map", "kabs:0.3", "--grid", "16", "--levels", "2",
                    "--out", str(out)]) == 1
        assert "argument --levels: must be >= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_second_order_requires_k(self, tmp_path, capsys):
        code = run(["probe", "--map", "linear:0.5,0,0,0", "--grid", "32",
                    "--levels", "3", "--second-order",
                    "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("k_args", [[], ["--k", "1.5"], ["--k", "0"], ["--k", "nan"]],
                             ids=["missing", "above-one", "zero", "nan"])
    def test_second_order_k_checked_before_the_ladder(self, k_args, monkeypatch,
                                                      tmp_path, capsys):
        def no_solves(*_args):
            raise AssertionError("ladder solved before --k was checked")

        monkeypatch.setattr(cli, "_solve_ladder", no_solves)
        out = tmp_path / "x"
        code = run(["probe", "--map", "linear:0.5,0,0,0", "--grid", "32",
                    "--second-order", *k_args, "--out", str(out)])
        assert code == 1
        assert "--k" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyTransformCommand:
    def test_zero_case(self, capsys):
        assert run(["verify-transform", "--a", "0,0", "--b", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "mu=0" in out and "path=" in out

    def test_half_case_passes_via_numeric_root(self, capsys):
        assert run(["verify-transform", "--a", "0.5,0", "--b", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "path=numeric-root" in out
        assert "mu=-0.5" in out

    def test_ellipticity_exits_1(self, capsys):
        assert run(["verify-transform", "--a", "0.6,0", "--b", "0.5,0"]) == 1
        assert "ellipticity" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["solve", "--map", "kabs:0.3", "--grid", "16", "--mean", "1", "--out", "x"],
         "--mean"),
        (["verify-transform", "--a", "0.3", "--b", "0,0"], "--a"),
        (["verify-transform", "--a", "0.3,0", "--b", "0,0,1"], "--b"),
        (["verify-transform", "--a", "0.3,0", "--b", "x,0"], "--b"),
    ])
    def test_bad_complex_option_named(self, argv, option, capsys):
        assert run(argv) == 1
        assert f"argument {option}: expected 're,im'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["solve", "--map", "linear:0.3,0,0.1,0", "--solver", "changevar", "--grid", "16",
          "--mean", "nan,0"], "--mean"),
        (["solve", "--map", "kabs:0.3", "--grid", "16", "--mean", "0,inf"], "--mean"),
        (["probe", "--extremal", "nan", "--grid", "16"], "--extremal"),
        (["probe", "--extremal", "inf", "--grid", "16"], "--extremal"),
        (["probe", "--extremal", "1", "--grid", "16"], "--extremal"),
        (["verify-transform", "--a", "inf,0", "--b", "0,0"], "--a"),
    ], ids=["changevar-mean-nan", "solve-mean-inf", "extremal-nan", "extremal-inf",
            "extremal-one", "verify-a-inf"])
    def test_non_finite_value_named(self, argv, option, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 1
        assert f"argument {option}: must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("a, b, code", [
        ("0.02,0", "0.01,0", 2),    # a*b-form residual 1.0e-7
        ("0.01,0", "0.005,0", 0),   # a*b-form residual 6.3e-9
    ], ids=["above", "below"])
    def test_exit_code_bound_is_1e_8(self, a, b, code, capsys):
        # the README: exit 0 iff the a*b-coefficient residual is <= 1e-8
        assert run(["verify-transform", "--a", a, "--b", b]) == code
        residual = float(capsys.readouterr().out.split("residual_ab_form=")[1].split()[0])
        assert (residual <= 1e-8) == (code == 0)

    def test_generic_pair_fails_ab_form_with_exact_reduction(self, capsys):
        # both residuals are printed; the a*b-form one gates the exit code
        assert run(["verify-transform", "--a", "0.3,0", "--b", "0.2,0"]) == 2
        out = capsys.readouterr().out
        reduction = float(out.split("residual_reduction=")[1].split()[0])
        assert reduction < 1e-12


class TestOtherCommands:
    def test_coefficients_and_report(self, tmp_path, capsys):
        sol = tmp_path / "sol"
        run(["solve", "--map", "kabs:0.3", "--grid", "32",
             "--h", "trig:0.01,0,1,0", "--mean", "1,0", "--out", str(sol)])
        out = tmp_path / "coef"
        code = run(["coefficients", "--field", str(sol / "solution.bfld"),
                    "--k", "0.3", "--out", str(out)])
        assert code == 0
        assert (out / "coefficients.csv").exists()
        code = run(["report", "--field", str(sol / "solution.bfld"),
                    "--out", str(tmp_path / "rep")])
        assert code == 0
        assert "distortion_max=" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_hodograph_min_jacobian_must_be_finite(self, value, solved_field, tmp_path,
                                                   capsys):
        # nan skips every point, which would read as a perfect identity
        out = tmp_path / "h"
        assert run(["hodograph", "--field", solved_field, "--map", "kabs:0.3",
                    "--points", "8", "--min-jacobian", value, "--out", str(out)]) == 1
        assert "argument --min-jacobian" in capsys.readouterr().err
        assert not out.exists()

    def test_report_and_coefficients_transform_counts(self, solved_field, tmp_path,
                                                      fft_counts):
        # report: one derivative pair feeds both CSVs; coefficients: the
        # directional fields and their two pairs.  Every sample of this field
        # is flagged, so the gradient check reads no second derivative
        assert run(["report", "--field", solved_field, "--out", str(tmp_path / "r")]) == 0
        assert fft_counts == {"fft2": 1, "ifft2": 2}
        fft_counts.update(fft2=0, ifft2=0)
        assert run(["coefficients", "--field", solved_field, "--k", "0.3",
                    "--out", str(tmp_path / "c")]) == 0
        assert fft_counts == {"fft2": 3, "ifft2": 6}

    def test_hodograph_command(self, tmp_path, capsys):
        sol = tmp_path / "sol"
        run(["solve", "--map", "linear:0.3,0,0,0", "--grid", "32",
             "--mean", "1,0", "--out", str(sol)])
        code = run(["hodograph", "--field", str(sol / "solution.bfld"),
                    "--map", "linear:0.3,0,0,0", "--points", "16",
                    "--out", str(tmp_path / "h")])
        assert code == 0
        out = capsys.readouterr().out
        assert "max_identity_residual=" in out


    def test_coefficients_k_prime_inf_off_the_ellipticity_ball(self, tmp_path, capsys):
        # the full map drives |nu| >= 1 on unflagged samples: k' is unbounded
        sol = tmp_path / "sol"
        assert run(["solve", "--map", "kabs:0.3+zterm:0.02,0,1,0+wterm:0.05,0",
                    "--grid", "32", "--damping", "0.7", "--out", str(sol)]) == 0
        out = tmp_path / "coef"
        capsys.readouterr()
        assert run(["coefficients", "--field", str(sol / "solution.bfld"),
                    "--k", "0.31", "--out", str(out)]) == 0
        assert "k_prime=inf" in capsys.readouterr().out
        header, row = (out / "coefficients_summary.csv").read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("k_prime")]) == math.inf
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["result"]["k_prime"] == "inf"

    def test_coefficients_csv_matches_per_sample_writer(self, tmp_path):
        spec = GridSpec(16)
        rng = np.random.default_rng(0)
        mu = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        nu = 1e-3 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        mu[0, :3] = [-0.0, 5e-324, complex(1e300, -2.5e-310)]
        nu[1, 1] = complex(-0.0, 1 / 3)
        flagged = rng.random((16, 16)) < 0.3
        assert flagged.any() and not flagged.all()
        coeffs = CoefficientFields(GridField(spec, 0, 0, mu), GridField(spec, 0, 0, nu),
                                   flagged)
        rows = [(i, j, mu[i, j].real, mu[i, j].imag, nu[i, j].real, nu[i, j].imag,
                 bool(flagged[i, j])) for i in range(16) for j in range(16)]
        _write_csv(tmp_path / "ref.csv",
                   ["row", "col", "mu_re", "mu_im", "nu_re", "nu_im", "flagged"], rows)
        _write_coefficients(tmp_path / "new.csv", coeffs)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def _coefficients(n: int, seed: int) -> CoefficientFields:
        """Coefficients over the whole float64 range, with -0.0, subnormals and
        1e300 in the last grid row."""
        spec = GridSpec(n)
        rng = np.random.default_rng(seed)
        mu = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) \
            * 10.0 ** rng.integers(-310, 300, size=(n, n))
        nu = 1e-3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        mu[-1, :3] = [-0.0, 5e-324, complex(1e300, -2.5e-310)]
        nu[-1, -1] = complex(-0.0, 1 / 3)
        flagged = rng.random((n, n)) < 0.3
        assert flagged.any() and not flagged.all()
        return CoefficientFields(GridField(spec, 0, 0, mu), GridField(spec, 0, 0, nu),
                                 flagged)

    @staticmethod
    def _per_sample_bytes(path, coeffs: CoefficientFields) -> bytes:
        n = coeffs.mu.spec.n
        mu, nu = coeffs.mu.values, coeffs.nu.values
        rows = [(i, j, mu[i, j].real, mu[i, j].imag, nu[i, j].real, nu[i, j].imag,
                 bool(coeffs.flagged[i, j])) for i in range(n) for j in range(n)]
        _write_csv(path, ["row", "col", "mu_re", "mu_im", "nu_re", "nu_im", "flagged"], rows)
        return path.read_bytes()

    @pytest.mark.parametrize("n", [64, 128])
    def test_coefficients_csv_ragged_row_blocks(self, monkeypatch, n, tmp_path):
        # 7 rows per block: the last block of 64 and 128 rows holds 1 and 2
        monkeypatch.setattr(grid, "_BLOCK", 7 * n)
        coeffs = self._coefficients(n, seed=n)
        _write_coefficients(tmp_path / "new.csv", coeffs)
        assert (tmp_path / "new.csv").read_bytes() == \
            self._per_sample_bytes(tmp_path / "ref.csv", coeffs)

    def test_coefficients_csv_default_blocks(self, tmp_path):
        coeffs = self._coefficients(256, seed=2)
        assert 256 * 256 > 2 * grid._BLOCK  # several blocks
        _write_coefficients(tmp_path / "new.csv", coeffs)
        assert (tmp_path / "new.csv").read_bytes() == \
            self._per_sample_bytes(tmp_path / "ref.csv", coeffs)

    def test_coefficients_csv_traced_peak_is_one_block(self, tmp_path):
        # one %-operation over the whole file peaked at 25.5 complex arrays
        n = 512
        coeffs = self._coefficients(n, seed=1)
        _, peak, kept = traced_peak(_write_coefficients, tmp_path / "c.csv", coeffs)
        assert peak < 2.0 * coeffs.mu.values.nbytes
        assert kept < 0.01 * coeffs.mu.values.nbytes

    def test_report_norms_are_lp_norms(self, solved_field, tmp_path):
        assert run(["report", "--field", solved_field, "--out", str(tmp_path / "r")]) == 0
        fz, fzb = derivative_pair(read_field(solved_field))
        expected = "p,fz_norm,fzbar_norm\n" + "".join(
            "%.17g,%.17g,%.17g\n" % (p, lp_norm(fz, p), lp_norm(fzb, p))
            for p in (1.0, 2.0, 4.0, 8.0))
        assert (tmp_path / "r" / "norms.csv").read_text() == expected


def _option_dests(command: str) -> set[str]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help", "out"}


@pytest.fixture(scope="module")
def solved_field(tmp_path_factory):
    out = tmp_path_factory.mktemp("field")
    assert run(["solve", "--map", "kabs:0.3", "--grid", "16",
                "--h", "trig:0.01,0,1,0", "--out", str(out)]) == 0
    return str(out / "solution.bfld")


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ["solve", "--map", "kabs:0.3", "--grid", "16"],
        ["probe", "--extremal", "2", "--grid", "16", "--levels", "3"],
        ["verify-transform", "--a", "0.3,0", "--b", "0,0"],
        ["coefficients", "--field", "FIELD", "--k", "0.3"],
        ["hodograph", "--field", "FIELD", "--map", "kabs:0.3", "--points", "8"],
        ["report", "--field", "FIELD"],
    ], ids=lambda argv: argv[0])
    def test_config_echoes_every_option_but_out(self, argv, solved_field, tmp_path):
        out = tmp_path / "run"
        argv = [solved_field if a == "FIELD" else a for a in argv]
        assert run(argv + ["--out", str(out)]) in (0, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["version"] == beltrami.__version__
        assert set(manifest["config"]) == _option_dests(argv[0])
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["outputs"] + ["manifest.json"])

    def test_empty_fields_recorded_as_null(self, tmp_path):
        out = tmp_path / "run"
        assert run(["probe", "--fields", "--extremal", "2", "--grid", "16",
                    "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["fields"] is None and config["h"] == "zero"

    def test_solve_manifest_pinned(self, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--map", "kabs:0.3", "--grid", "16", "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text()
        expected = {
            "command": "solve",
            "config": {"damping": 1.0, "grid": 16, "h": "zero", "map": "kabs:0.3",
                       "max_iter": 2000, "mean": [1.0, 0.0],
                       "period": 6.283185307179586, "seed": 0,
                       "solver": "fixed-point", "tol": 1e-10},
            "heatmap_scale": {"max": 1.0, "min": 1.0},
            "outputs": ["solution.bfld", "report.csv", "summary.csv", "fz_heatmap.pgm"],
            "result": {"converged": True, "final_residual": 0.0, "iterations": 1},
            "version": beltrami.__version__,
        }
        assert json.loads(text) == expected
        assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.fixture(scope="module")
def constant_field(tmp_path_factory):
    path = tmp_path_factory.mktemp("const") / "const.bfld"
    write_field(trig_field(GridSpec(16), []), path)
    return str(path)


class TestStrictManifest:
    # inputs whose results or options are non-finite wherever a command allows it
    @pytest.mark.parametrize("argv, spelled", [
        (["solve", "--map", "kabs:0.3", "--grid", "16"], {}),
        (["probe", "--map", "kabs:0.3", "--grid", "16", "--levels", "3"],
         {("result", "p_critical"): "inf"}),
        (["verify-transform", "--a", "0.3,0", "--b", "0.2,0"], {}),
        (["coefficients", "--field", "FIELD", "--k", "inf"], {("config", "k"): "inf"}),
        (["hodograph", "--field", "FIELD", "--map", "kabs:0.3", "--points", "8"], {}),
        (["report", "--field", "CONST"], {("result", "distortion_max"): "inf"}),
    ], ids=["solve", "probe-smooth", "verify-transform", "coefficients",
            "hodograph", "report-constant"])
    def test_manifest_is_strict_json(self, argv, spelled, solved_field, constant_field,
                                     tmp_path):
        out = tmp_path / "run"
        files = {"FIELD": solved_field, "CONST": constant_field}
        argv = [files.get(a, a) for a in argv]
        assert run(argv + ["--out", str(out)]) in (0, 2)
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=_reject_constant)
        for (section, key), value in spelled.items():
            assert manifest[section][key] == value

    def test_nested_non_finite_spelled(self):
        # no option takes a non-finite pair any more; the list branch still spells it
        value = {"mean": [math.nan, -math.inf], "nested": ([1.5, math.inf],)}
        assert cli._strict_json(value) == {"mean": ["nan", "-inf"], "nested": [[1.5, "inf"]]}


class TestDeterminism:
    def test_solve_outputs_byte_identical(self, tmp_path):
        args = ["solve", "--map", "kabs:0.3", "--grid", "32",
                "--h", "trig:0.1,0,1,0", "--mean", "1,0", "--seed", "7"]
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(args + ["--out", str(out)]) == 0
            outs.append(out)
        for fname in ("solution.bfld", "report.csv", "summary.csv",
                      "fz_heatmap.pgm"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_probe_outputs_byte_identical(self, tmp_path):
        args = ["probe", "--extremal", "2", "--grid", "32", "--levels", "3",
                "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "regularity.csv").read_bytes() == (b / "regularity.csv").read_bytes()


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; a fresh interpreter proves it
    src = str(Path(beltrami.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import beltrami.cli; "
            "sys.exit(3 if 'scipy' in sys.modules else 0)")
    proc = subprocess.run([sys.executable, "-c", code, src], timeout=120)
    assert proc.returncode == 0
