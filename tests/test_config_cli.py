"""Config parsing, CSV round trips, and the six CLI subcommands."""

import multiprocessing
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bifluor
from bifluor import bloch, cli, csvio, floquet
from bifluor.bloch import Spectrum, mollow_shape, mollow_spectrum
from bifluor.config import (
    build_bichromatic_drive,
    build_grid,
    build_strong_drive,
    parse_config_text,
)
from bifluor.dressed import doubly_dressed_lines
from bifluor.emitter import DriveField
from bifluor.errors import ConfigError, ValidationError
from bifluor.fitting import GaussNewtonResult
from bifluor.scans import DipRecord, ScanResult2D


def read_keyvalue(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


class TestConfigParsing:
    TEXT = """\
# reference run
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8
alpha = 0.3

[scan]
fit_delta1 = yes
orders = 1, 2, 3
"""

    def test_sections_comments_and_types(self):
        cfg = parse_config_text(self.TEXT)
        assert cfg.get_float("emitter.t1_ps") == 390.0
        assert cfg.get_bool("scan.fit_delta1") is True
        assert cfg.get_int_list("scan.orders") == (1, 2, 3)
        assert cfg.get_float("numerics.tau_max_ns", None) is None
        assert cfg.line("drive.alpha") == 8

    def test_defaults_are_recorded_for_metadata(self):
        cfg = parse_config_text(self.TEXT)
        cfg.get_float("emitter.t1_ps")
        cfg.get_int("numerics.n_phases", 16)
        eff = cfg.effective()
        assert eff["emitter.t1_ps"] == "390"
        assert eff["numerics.n_phases (default)"] == 16

    def test_missing_required_key(self):
        cfg = parse_config_text(self.TEXT)
        with pytest.raises(ConfigError, match="missing required key"):
            cfg.get_float("etalon.fsr_ghz")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("a = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[s]\na = 1\na = 2\n")
        with pytest.raises(ConfigError, match="empty section"):
            parse_config_text("[]\n")
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 3\n")

    def test_typed_getter_errors(self):
        cfg = parse_config_text("[a]\nx = hello\ny = maybe\nz = 1, two\n")
        for getter, key, line, raw, kind in (
            (cfg.get_float, "a.x", 2, "hello", "a number"),
            (cfg.get_int, "a.x", 2, "hello", "an integer"),
            (cfg.get_bool, "a.y", 3, "maybe", "a boolean"),
            (cfg.get_int_list, "a.z", 4, "1, two", "a comma-separated integer list"),
        ):
            with pytest.raises(ConfigError) as info:
                getter(key)
            message = f"<config>:{line}: key {key}: could not parse {raw!r} as {kind}"
            assert str(info.value) == message

    def test_unused_keys_are_flagged(self):
        cfg = parse_config_text("[emitter]\nt1_ps = 390\nt3_ps = 1\n")
        cfg.get_float("emitter.t1_ps")
        with pytest.raises(ConfigError, match="unknown key emitter.t3_ps"):
            cfg.raise_on_unused()


class TestConfigBuilders:
    def test_strong_drive_uses_half_the_splitting(self):
        cfg = parse_config_text("[drive]\nrabi2_strong_ghz = 5.8\n")
        strong = build_strong_drive(cfg)
        assert strong.rabi == 2.9
        assert strong.detuning == 0.0

    def test_weak_field_from_alpha_or_splitting(self):
        # drive.alpha is the power ratio of `degenerate`, never a weak field:
        # the weak field comes from its splitting alone
        drive = "[drive]\nrabi2_strong_ghz = 5.8\ndetuning_weak_ghz = -5.8\n"
        alpha_only = parse_config_text(drive + "alpha = 0.3\n")
        with pytest.raises(ConfigError, match="missing required key drive.rabi2_weak_ghz"):
            build_bichromatic_drive(alpha_only)
        splitting = parse_config_text(drive + "rabi2_weak_ghz = 1.74\n")
        assert build_bichromatic_drive(splitting).weak.rabi == 0.87

    def test_weak_field_keys_are_exclusive_and_required(self):
        drive = "[drive]\nrabi2_strong_ghz = 5.8\ndetuning_weak_ghz = -5.8\n"
        neither = parse_config_text(drive)
        with pytest.raises(ConfigError, match="missing required key drive.rabi2_weak_ghz"):
            build_bichromatic_drive(neither)
        both = parse_config_text(drive + "alpha = 0.3\nrabi2_weak_ghz = 1\n")
        assert build_bichromatic_drive(both).weak.rabi == 0.5
        with pytest.raises(ConfigError, match="unknown key drive.alpha"):
            both.raise_on_unused()

    def test_bichromatic_drive_round_trip(self):
        cfg = parse_config_text(
            "[drive]\nrabi2_strong_ghz = 5.8\nrabi2_weak_ghz = 1.74\n"
            "detuning_weak_ghz = -5.8\nrelative_phase_rad = 0.5\n"
        )
        drive = build_bichromatic_drive(cfg)
        assert drive.weak.rabi == 0.87
        assert drive.delta == -5.8
        assert drive.relative_phase == 0.5

    def test_grid_construction_and_validation(self):
        cfg = parse_config_text(
            "[numerics]\ngrid_min_ghz = -1\ngrid_max_ghz = 1\ngrid_step_ghz = 0.5\n"
        )
        assert np.allclose(build_grid(cfg), [-1.0, -0.5, 0.0, 0.5, 1.0])
        bad = parse_config_text(
            "[numerics]\ngrid_min_ghz = 1\ngrid_max_ghz = -1\ngrid_step_ghz = 0.5\n"
        )
        with pytest.raises(ConfigError):
            build_grid(bad)

    def test_grid_step_must_divide_the_span(self):
        # 18 / 0.7 is not whole: linspace would space 27 points 0.6923 GHz apart
        cfg = parse_config_text(
            "[numerics]\ngrid_min_ghz = -9\ngrid_max_ghz = 9\ngrid_step_ghz = 0.7\n"
        )
        with pytest.raises(ConfigError, match=r"<config>:4: grid_step_ghz = 0\.7 does not divide"):
            build_grid(cfg)


class TestCsvIO:
    def test_spectrum_round_trip_is_exact(self, tmp_path, emitter, strong):
        grid = np.linspace(-9.0, 9.0, 181)
        spec = mollow_spectrum(emitter, strong, grid)
        path = tmp_path / "spec.csv"
        csvio.write_spectrum(path, spec)
        freq, intensity = csvio.read_spectrum(path)
        assert np.array_equal(freq, grid)
        assert np.array_equal(intensity, spec.intensity)
        meta = read_keyvalue(tmp_path / "spec.csv.meta.txt")
        assert float(meta["elastic_weight"]) == spec.elastic_weight
        assert meta["n_elastic_lines"] == "1"

    def test_read_spectrum_rejects_malformed_files(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("wavelength,counts\n1,2\n2,3\n")
        with pytest.raises(ValidationError, match="header"):
            csvio.read_spectrum(bad_header)
        short = tmp_path / "b.csv"
        short.write_text("freq_ghz,intensity\n1,2\n")
        with pytest.raises(ValidationError, match="two samples"):
            csvio.read_spectrum(short)
        wide = tmp_path / "c.csv"
        wide.write_text("freq_ghz,intensity\n1,2,3\n4,5,6\n")
        with pytest.raises(ValidationError, match="two columns"):
            csvio.read_spectrum(wide)
        words = tmp_path / "d.csv"
        words.write_text("freq_ghz,intensity\n1,2\nx,3\n")
        with pytest.raises(ValidationError):
            csvio.read_spectrum(words)
        gaps = tmp_path / "e.csv"  # blank lines still count: the bad value is on line 5
        gaps.write_text("freq_ghz,intensity\n\n1.0,2.0\n\n2.0,x\n")
        with pytest.raises(ValidationError, match=r"e\.csv:5: "):
            csvio.read_spectrum(gaps)
        for name, value in (("f.csv", "nan"), ("g.csv", "inf")):  # non-finite, on line 4
            (tmp_path / name).write_text(f"freq_ghz,intensity\n1,2\n\n3,{value}\n4,5\n")
            with pytest.raises(ValidationError, match=rf"{name[0]}\.csv:4: .*finite"):
                csvio.read_spectrum(tmp_path / name)

    def test_map_long_format(self, tmp_path):
        result = ScanResult2D(
            delta2=np.array([-1.0, 1.0]),
            freq=np.array([0.0, 0.5, 1.0]),
            intensity=np.arange(6.0).reshape(2, 3),
            elastic_weight=np.zeros(2),
            failures=(),
        )
        path = tmp_path / "map.csv"
        csvio.write_map(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "delta2_ghz,freq_ghz,intensity"
        assert len(lines) == 7
        assert lines[1] == "-1.0,0.0,0.0"
        assert lines[-1] == "1.0,1.0,5.0"

    def test_dip_report_and_line_list(self, tmp_path, drive):
        dips = (
            DipRecord(
                order=1,
                dip_position_ghz=5.995,
                unshifted_ghz=5.8,
                formula_shift_ghz=0.13,
            ),
        )
        rpath = tmp_path / "dips.csv"
        csvio.write_dip_report(rpath, dips)
        lines = rpath.read_text().splitlines()
        assert lines[0] == "n,dip_position_ghz,unshifted_2omega_over_n_ghz,formula_shift_ghz"
        assert lines[1].startswith("1,5.995,5.8,")
        lpath = tmp_path / "lines.csv"
        csvio.write_lines(lpath, doubly_dressed_lines(drive))
        rows = lpath.read_text().splitlines()
        assert rows[0] == "label,center_ghz,weight"
        assert len(rows) == 10

    def test_values_are_written_as_their_python_scalar(self, tmp_path):
        entries = {
            "nan": float("nan"),
            "inf": np.inf,
            "ninf": -np.inf,
            "nzero": -0.0,
            "tiny": 5e-324,
            "f64": np.float64(0.1),
            "i64": np.int64(-7),
            "npbool": np.bool_(True),
            "bool": False,
        }
        csvio.write_keyvalue(tmp_path / "kv.txt", entries)
        assert (tmp_path / "kv.txt").read_text() == (
            "nan=nan\ninf=inf\nninf=-inf\nnzero=-0.0\ntiny=5e-324\n"
            "f64=0.1\ni64=-7\nnpbool=True\nbool=False\n"
        )
        x = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1])
        csvio.write_curve(tmp_path / "a.csv", x, np.arange(6, dtype=np.int64))
        assert (tmp_path / "a.csv").read_text() == (
            "x_ghz,intensity\nnan,0\ninf,1\n-inf,2\n-0.0,3\n5e-324,4\n0.1,5\n"
        )
        csvio.write_curve(tmp_path / "b.csv", np.array([True, False]), [np.float64(1.5), 2])
        assert (tmp_path / "b.csv").read_text() == "x_ghz,intensity\nTrue,1.5\nFalse,2\n"

    def test_products_get_the_mode_open_gives(self, tmp_path):
        def mode(name):
            return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

        with open(tmp_path / "plain.txt", "w"):
            pass
        csvio.atomic_write_text(tmp_path / "atomic.txt", "x\n")
        assert mode("atomic.txt") == mode("plain.txt")
        with pytest.raises(TypeError):
            csvio.atomic_write_text(tmp_path / "atomic.txt", None)
        assert sorted(os.listdir(tmp_path)) == ["atomic.txt", "plain.txt"]  # no temp file left
        assert (tmp_path / "atomic.txt").read_text() == "x\n"


MOLLOW_CFG = """\
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8

[numerics]
grid_min_ghz = -9
grid_max_ghz = 9
grid_step_ghz = 0.05
"""

SPECTRUM_CFG = """\
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8
rabi2_weak_ghz = 1.74
detuning_weak_ghz = -5.8

[numerics]
grid_min_ghz = -9
grid_max_ghz = 9
grid_step_ghz = 0.1
"""

DEGENERATE_CFG = """\
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8
alpha = 0.25

[numerics]
grid_min_ghz = -12
grid_max_ghz = 12
grid_step_ghz = 0.02
"""

SUBHARMONICS_CFG = """\
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8

[etalon]
fsr_ghz = 9.18
fwhm_ghz = 0.14

[scan]
alpha_squared = 0
orders = 1
points_per_order = 5
"""


MAP_CFG = """\
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8
rabi2_weak_ghz = 1.74

[numerics]
grid_min_ghz = -10
grid_max_ghz = 10
grid_step_ghz = 0.25

[scan]
delta2_min_ghz = -1
delta2_max_ghz = 1
delta2_step_ghz = 0.5
fit_delta1 = true
"""


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCli:
    def test_readme_configs_parse_and_its_spectrum_example_runs(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) >= 2
        for text in blocks:
            entries = parse_config_text(text, path="README.md").entries
            # a value takes no trailing comment
            assert not [key for key, (raw, _line) in entries.items() if "#" in raw]
        (example,) = [text for text in blocks if "[emitter]" in text]
        cfg = write_cfg(tmp_path, example)
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "lines.csv").read_text().splitlines()) == 10

    def test_mollow_writes_spectrum_and_metadata(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MOLLOW_CFG)
        out = tmp_path / "out"
        assert cli.main(["mollow", "--config", cfg, "--out", str(out)]) == 0
        freq, intensity = csvio.read_spectrum(out / "mollow.csv")
        assert freq.size == 361
        assert intensity.max() > 0.0
        meta = (out / "metadata.txt").read_text()
        assert "command=mollow" in meta
        assert "config.drive.detuning_strong_ghz (default)=0.0" in meta
        assert "---config---" in meta and "rabi2_strong_ghz = 5.8" in meta
        keys = read_keyvalue(out / "metadata.txt")
        assert "workers" not in keys and "strict" not in keys  # mollow has neither flag
        assert "wrote mollow.csv" in capsys.readouterr().out

    def test_spectrum_writes_line_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        freq, _ = csvio.read_spectrum(out / "spectrum.csv")
        assert freq.size == 181
        rows = (out / "lines.csv").read_text().splitlines()
        assert len(rows) == 10
        assert "\ndiag.max_resolvent_cutoff=12\n" in (out / "metadata.txt").read_text()
        assert "daughter separation 3.48" in capsys.readouterr().out

    def test_map_with_detuning_fit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MAP_CFG)
        out = tmp_path / "out"
        assert cli.main(["map", "--config", cfg, "--out", str(out)]) == 0
        map_rows = (out / "map.csv").read_text().splitlines()
        assert map_rows[0] == "delta2_ghz,freq_ghz,intensity"
        assert len(map_rows) == 1 + 5 * 81
        curve_rows = (out / "central_curve.csv").read_text().splitlines()
        assert curve_rows[0] == "delta2_ghz,intensity"
        assert len(curve_rows) == 6
        meta = (out / "metadata.txt").read_text()
        assert "n_failures=0" in meta
        assert "\ndiag.max_resolvent_cutoff=12\n" in meta
        assert "fit_delta1_ghz=" in meta
        assert "\nstrict=False\nworkers=1\n" in meta
        assert "fitted strong detuning" in capsys.readouterr().out

    def test_map_records_its_processes(self, tmp_path, monkeypatch):
        # five rows of 81 points are far too few to pay for a pool
        cfg = write_cfg(tmp_path, MAP_CFG)
        processes = {}
        for gate in ("closed", "open"):
            if gate == "open":
                monkeypatch.setattr(floquet, "_POOL_MIN_WORK", 0)
            out = tmp_path / gate
            assert cli.main(["map", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
            processes[gate] = read_keyvalue(out / "metadata.txt")["diag.map_processes"]
        assert processes == {"closed": "1", "open": "2"}

    def test_detuning_fit_without_weak_field_exits_one_before_any_row(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_rows(*args, **kwargs):
            raise AssertionError("a scan started")

        monkeypatch.setattr(cli, "detuning_map", no_rows)
        cfg = write_cfg(tmp_path, MAP_CFG.replace("rabi2_weak_ghz = 1.74", "rabi2_weak_ghz = 0"))
        assert cli.main(["map", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "scan.fit_delta1" in err and "drive.rabi2_weak_ghz" in err

    def test_subharmonics_without_weak_field_reports_no_dips(self, tmp_path):
        text = """\
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8

[scan]
alpha_squared = 0
orders = 1
points_per_order = 5

[etalon]
fsr_ghz = 9.18
fwhm_ghz = 0.14
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["subharmonics", "--config", cfg, "--out", str(out)]) == 0
        curve = (out / "subharmonics.csv").read_text().splitlines()
        assert curve[0] == "delta3_ghz,intensity"
        assert len(curve) == 6
        report = (out / "dip_report.csv").read_text().splitlines()
        assert len(report) == 1
        meta = read_keyvalue(out / "metadata.txt")
        assert meta["n_dips"] == "0"
        # no weak field: every row is solved at cutoff 0, over 41 etalon orders
        assert meta["diag.max_resolvent_cutoff"] == "0"
        assert meta["diag.etalon_orders_per_row"] == "41"
        assert 0.0 < float(meta["diag.max_tail_fraction"]) < 0.01
        assert "workers" not in meta

    def test_degenerate_reports_plateau(self, tmp_path, capsys):
        text = """\
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8
alpha = 0.25

[numerics]
grid_min_ghz = -12
grid_max_ghz = 12
grid_step_ghz = 0.02
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["degenerate", "--config", cfg, "--out", str(out)]) == 0
        freq, _ = csvio.read_spectrum(out / "degenerate.csv")
        assert freq.size == 1201
        meta = (out / "metadata.txt").read_text()
        assert "method=phase_average" in meta
        assert "\ndiag.max_resolvent_cutoff=0\n" in meta  # a Bloch average, no resolvent
        assert "plateau_high_ghz=" in meta
        assert "upper plateau" in capsys.readouterr().out

    def test_degenerate_without_a_plateau_still_writes_its_spectrum(self, tmp_path, capsys):
        # alpha = 0 leaves no plateau to measure: the run succeeds without edges
        text = """\
[emitter]
t1_ps = 390
t2_ps = 424

[drive]
rabi2_strong_ghz = 5.8
alpha = 0

[numerics]
grid_min_ghz = -12
grid_max_ghz = 12
grid_step_ghz = 0.02
"""
        cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
        assert cli.main(["degenerate", "--config", cfg, "--out", str(out)]) == 0
        assert "plateau edges not resolvable" in capsys.readouterr().out
        assert (out / "degenerate.csv").is_file()
        assert "plateau_" not in (out / "metadata.txt").read_text()

    def test_fit_recovers_the_generating_parameters(self, tmp_path, emitter, strong):
        grid = np.linspace(-9.0, 9.0, 721)
        spec = mollow_spectrum(emitter, strong, grid)
        data = tmp_path / "measured.csv"
        csvio.write_spectrum(data, spec)
        cfg = write_cfg(
            tmp_path,
            "[emitter]\nt1_ps = 390\n\n[fit]\nrabi2_guess_ghz = 5.0\nt2_guess_ps = 380\n",
        )
        out = tmp_path / "out"
        code = cli.main(
            ["fit", "--config", cfg, "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        result = read_keyvalue(out / "fit_result.txt")
        assert result["converged"] == "True"
        assert float(result["rabi2_ghz"]) == pytest.approx(5.8, abs=1e-3)
        assert float(result["t2_ps"]) == pytest.approx(424.0, rel=1e-3)
        model_rows = (out / "fit_model.csv").read_text().splitlines()
        assert len(model_rows) == 722

    def test_fit_on_a_lower_clamp_reports_not_converged(self, tmp_path, emitter, monkeypatch):
        freq = np.linspace(-14.0, 14.0, 701)
        model = mollow_shape(emitter, DriveField(detuning=-1.0, rabi=1.0), freq)
        data = tmp_path / "measured.csv"
        csvio.write_spectrum(data, Spectrum(freq, 3.0 * model + 0.1, 0.0))
        cfg = write_cfg(
            tmp_path,
            "[emitter]\nt1_ps = 390\n\n[fit]\ndetuning_ghz = -1\nrabi2_guess_ghz = 2.6\n"
            "t2_guess_ps = 500\n",
        )
        ends = {(0.0, 424.0): "False", (1.0, 1e-3): "False", (1.0, 780.0): "True"}
        for (omega, t2_ps), converged in ends.items():

            def search(residual_fn, p0):  # converges at (omega, t2_ps)
                p = np.array([omega, t2_ps, *p0[2:]])
                r = residual_fn(p[None])[0]
                return GaussNewtonResult(p, r, np.eye(r.size, 4), float(r @ r), 1, True)

            monkeypatch.setattr(bloch, "gauss_newton", search)
            out = tmp_path / f"out-{omega}-{t2_ps}"
            code = cli.main(["fit", "--config", cfg, "--data", str(data), "--out", str(out)])
            assert code == 0
            assert read_keyvalue(out / "fit_result.txt")["converged"] == converged

    def test_fit_guesses_only_the_nonlinear_parameters(self, tmp_path, emitter, strong, capsys):
        data = tmp_path / "measured.csv"
        csvio.write_spectrum(data, mollow_spectrum(emitter, strong, np.linspace(-9, 9, 181)))
        fit = "[emitter]\nt1_ps = 390\n\n[fit]\nrabi2_guess_ghz = 5\nt2_guess_ps = 380\n"
        for key in ("amplitude_guess", "offset_guess"):
            cfg = write_cfg(tmp_path, fit + f"{key} = 1\n")
            args = ["fit", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "out")]
            assert cli.main(args) == 1
            assert f"unknown key fit.{key}" in capsys.readouterr().err

    def test_fit_rejects_non_finite_data_exits_one(self, tmp_path, emitter, strong, capsys):
        grid = np.linspace(-9.0, 9.0, 181)
        spec = mollow_spectrum(emitter, strong, grid)
        data = tmp_path / "measured.csv"
        csvio.write_spectrum(data, spec)
        rows = data.read_text().splitlines()
        rows[6] = rows[6].split(",")[0] + ",nan"  # line 7 of the file
        data.write_text("\n".join(rows) + "\n")
        cfg = write_cfg(
            tmp_path,
            "[emitter]\nt1_ps = 390\n\n[fit]\nrabi2_guess_ghz = 5.0\nt2_guess_ps = 380\n",
        )
        code = cli.main(
            ["fit", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "measured.csv:7: " in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MOLLOW_CFG + "\n[scan]\nwindow_ghz = 0.5\n")
        assert cli.main(["mollow", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown key scan.window_ghz" in capsys.readouterr().err

    def test_missing_config_exits_three(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.ini")
        assert cli.main(["mollow", "--config", missing, "--out", str(tmp_path)]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_unreadable_data_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        cfg = write_cfg(
            tmp_path,
            "[emitter]\nt1_ps = 390\n\n[fit]\nrabi2_guess_ghz = 5\nt2_guess_ps = 380\n",
        )
        code = cli.main(
            ["fit", "--config", cfg, "--data", str(bad), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_strict_escalates_cutoff_ceiling_to_exit_two(
        self, tmp_path, capsys, monkeypatch
    ):
        # both spectra need a harmonic cutoff of at least 16; cap it at 4
        monkeypatch.setattr(floquet, "CUTOFF_CEILING", 4)
        small_delta = DEGENERATE_CFG + "\n[scan]\nmethod = small_delta\n"
        for command, text in (("spectrum", SPECTRUM_CFG), ("degenerate", small_delta)):
            cfg = write_cfg(tmp_path, text)
            out = tmp_path / command
            relaxed = cli.main([command, "--config", cfg, "--out", str(out)])
            assert relaxed == 0
            meta = (out / "metadata.txt").read_text()
            assert "TruncationWarning" in meta and "n_warnings=0" not in meta
            args = [command, "--config", cfg, "--out", str(out), "--strict"]
            assert cli.main(args) == 2
            assert "harmonic cutoff 4" in capsys.readouterr().err

    def test_subharmonics_strict_lists_every_failed_row(self, tmp_path, monkeypatch):
        # order-5 rows need a harmonic cutoff above 4, so every row hits it
        monkeypatch.setattr(floquet, "CUTOFF_CEILING", 4)
        text = SUBHARMONICS_CFG.replace(
            "alpha_squared = 0\norders = 1\npoints_per_order = 5",
            "alpha_squared = 0.359\norders = 5\npoints_per_order = 6",
        )
        cfg = write_cfg(tmp_path, text)
        relaxed = tmp_path / "relaxed"
        assert cli.main(["subharmonics", "--config", cfg, "--out", str(relaxed)]) == 0
        meta = read_keyvalue(relaxed / "metadata.txt")
        assert meta["n_failures"] == "0"
        assert meta["n_warnings"] == "6"
        assert all("TruncationWarning" in meta[f"warning_{i}"] for i in range(6))
        strict = tmp_path / "strict"
        args = ["subharmonics", "--config", cfg, "--out", str(strict), "--strict"]
        assert cli.main(args) == 0
        meta = read_keyvalue(strict / "metadata.txt")
        assert meta["n_failures"] == "6"
        assert meta["n_warnings"] == "0"
        for i in range(6):
            assert meta[f"failure_{i}"].startswith("delta3=")
            assert "TruncationError" in meta[f"failure_{i}"]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched ceiling reaches pool workers only through fork",
    )
    @pytest.mark.usefixtures("pool_gate_open")
    def test_map_warnings_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        # every row needs a harmonic cutoff above 4, so each warns once
        monkeypatch.setattr(floquet, "CUTOFF_CEILING", 4)
        cfg = write_cfg(tmp_path, MAP_CFG)
        notes = {}
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            args = ["map", "--config", cfg, "--out", str(out), "--workers", str(workers)]
            assert cli.main(args) == 0
            meta = read_keyvalue(out / "metadata.txt")
            notes[workers] = [meta[f"warning_{i}"] for i in range(int(meta["n_warnings"]))]
        assert len(notes[1]) == 5
        assert all("TruncationWarning" in note for note in notes[1])
        assert notes[2] == notes[1]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched ceiling reaches pool workers only through fork",
    )
    @pytest.mark.usefixtures("pool_gate_open")
    def test_map_strict_fails_each_row_for_any_worker_count(self, tmp_path, monkeypatch):
        # every row needs a harmonic cutoff above 4, so under --strict each
        # fails, and no finite row is left for a Delta1 fit
        monkeypatch.setattr(floquet, "CUTOFF_CEILING", 4)
        cfg = write_cfg(tmp_path, MAP_CFG.replace("fit_delta1 = true\n", ""))
        failures = {}
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            args = ["map", "--config", cfg, "--out", str(out), "--workers", str(workers)]
            assert cli.main(args + ["--strict"]) == 0
            meta = read_keyvalue(out / "metadata.txt")
            assert meta["n_warnings"] == "0"
            failures[workers] = [meta[f"failure_{i}"] for i in range(int(meta["n_failures"]))]
        assert len(failures[1]) == 5
        assert all("TruncationError" in line for line in failures[1])
        assert failures[2] == failures[1]

    def test_subharmonic_order_zero_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SUBHARMONICS_CFG.replace("orders = 1", "orders = 0"))
        assert cli.main(["subharmonics", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "subharmonic orders must be positive" in capsys.readouterr().err

    def test_subharmonic_points_per_order_below_one_exits_one(self, tmp_path, capsys):
        # a negative count once reached numpy's linspace and escaped as a traceback
        text = SUBHARMONICS_CFG.replace("points_per_order = 5", "points_per_order = -1")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["subharmonics", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "points_per_order" in err
        assert "Traceback" not in err

    def test_strict_leaves_the_warnings_filters_as_they_were(self, tmp_path, monkeypatch):
        # --strict sets its filter for the run only, also when the run fails
        monkeypatch.setattr(floquet, "CUTOFF_CEILING", 4)
        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        before = list(warnings.filters)
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--strict"]) == 2
        assert warnings.filters == before

    def test_non_finite_etalon_centre_exits_one(self, tmp_path, capsys):
        text = SUBHARMONICS_CFG.replace("fsr_ghz = 9.18", "center_ghz = nan\nfsr_ghz = 9.18")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["subharmonics", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "etalon parameters must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_subharmonics_takes_no_workers(self, tmp_path, capsys, workers):
        # its rows share batched sweeps in one process, so --workers is unknown
        cfg = write_cfg(tmp_path, SUBHARMONICS_CFG)
        out = tmp_path / "out"
        args = ["subharmonics", "--config", cfg, "--out", str(out), f"--workers={workers}"]
        with pytest.raises(SystemExit) as info:
            cli.main(args)
        assert info.value.code == 2
        assert f"unrecognized arguments: --workers={workers}" in capsys.readouterr().err
        assert not (out / "metadata.txt").exists()

    def test_infinite_lifetime_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MOLLOW_CFG.replace("t1_ps = 390", "t1_ps = inf"))
        assert cli.main(["mollow", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "lifetimes must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (
                "spectrum",
                SPECTRUM_CFG.replace("rabi2_weak_ghz = 1.74", "alpha = 0.6"),
                "missing required key drive.rabi2_weak_ghz",
            ),
            (
                "map",
                MAP_CFG.replace("rabi2_weak_ghz = 1.74", "rabi2_weak_ghz = 1.74\nalpha = 0.6"),
                "unknown key drive.alpha",
            ),
        ],
        ids=["spectrum-alpha-only", "map-alpha-and-splitting"],
    )
    def test_alpha_is_not_a_weak_field_key(self, tmp_path, capsys, command, text, message):
        # drive.alpha is the power ratio that only `degenerate` reads
        cfg = write_cfg(tmp_path, text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("subharmonics", SUBHARMONICS_CFG + "prominence_frac = 0.1\n", "scan.prominence_frac"),
            ("degenerate", DEGENERATE_CFG + "\n[scan]\nepsilon_ghz = 0.001\n", "scan.epsilon_ghz"),
            (
                "degenerate",
                DEGENERATE_CFG + "\n[scan]\nmethod = small_delta\nepsilon_ghz = 0.001\n",
                "scan.epsilon_ghz",
            ),
        ],
        ids=["prominence", "epsilon-phase-average", "epsilon-small-delta"],
    )
    def test_dip_and_beat_knobs_are_unknown_keys(self, tmp_path, capsys, command, text, key):
        # the dip is the window minimum and the small_delta beat is gamma / 20
        cfg = write_cfg(tmp_path, text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert f"unknown key {key} for this command" in capsys.readouterr().err

    @staticmethod
    def fresh_python(code):
        """Run ``code`` in a new interpreter that imports this checkout's bifluor."""
        src = os.path.dirname(os.path.dirname(bifluor.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )

    def test_import_leaves_scipy_signal_unloaded(self):
        code = (
            "import sys, bifluor, bifluor.cli; "
            "print('scipy.signal' in sys.modules, 'scipy.integrate' in sys.modules, "
            "any(m.startswith('scipy') for m in sys.modules))"
        )
        assert self.fresh_python(code).stdout.strip() == "False False False"

    def test_spectrum_runs_without_scipy(self, tmp_path):
        # None in sys.modules makes every scipy import fail
        cfg = write_cfg(tmp_path, SPECTRUM_CFG)
        args = ["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]
        code = (
            "import sys; sys.modules['scipy'] = None; "
            f"from bifluor import cli; sys.exit(cli.main({args!r}))"
        )
        self.fresh_python(code)
        assert (tmp_path / "out" / "spectrum.csv").is_file()

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (code,) = re.findall(r"## Library example\n.*?```python\n(.*?)```", readme, re.DOTALL)
        rows = self.fresh_python(code).stdout.splitlines()
        assert [row.split(":")[0] for row in rows] == [f"line {k}" for k in range(1, 10)]

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("spectrum", SPECTRUM_CFG + "tau_max_ns = 40\n", "numerics.tau_max_ns"),
            ("spectrum", SPECTRUM_CFG + "n_phases = 16\n", "numerics.n_phases"),
            (
                "degenerate",
                DEGENERATE_CFG + "n_phases = 16\n\n[scan]\nmethod = small_delta\n",
                "numerics.n_phases",
            ),
            ("subharmonics", SUBHARMONICS_CFG + "tau_factor = 35\n", "scan.tau_factor"),
            pytest.param(
                "degenerate",
                DEGENERATE_CFG + "n_phases = 64\n",
                "numerics.n_phases",
                id="degenerate-phase-average",
            ),
        ],
    )
    def test_time_stepping_keys_are_rejected_as_removed(
        self, tmp_path, capsys, command, text, key
    ):
        cfg = write_cfg(tmp_path, text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"unknown key {key} for this command" in err

    def test_degenerate_at_equal_powers(self, tmp_path):
        text = DEGENERATE_CFG.replace("alpha = 0.25", "alpha = 1")
        text = text.replace("-12", "-15").replace("= 12", "= 15").replace("0.02", "0.05")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["degenerate", "--config", cfg, "--out", str(out)]) == 0
        freq, intensity = csvio.read_spectrum(out / "degenerate.csv")
        assert freq.size == 601 and np.all(np.isfinite(intensity))

    @pytest.mark.parametrize(
        "command, step, message",
        [
            ("map", "delta2_step_ghz = 1e-7", "delta2 would hold 20000001 points"),
            ("map", "delta2_step_ghz = nan", "needs finite min, max and step"),
            ("map", "delta2_step_ghz = 0", "delta2_step_ghz must be positive"),
            ("subharmonics", "delta3_step_ghz = 1e-6", "delta3 would hold 12000001 points"),
            ("map", "delta2_step_ghz = 0.3", "delta2_step_ghz = 0.3 does not divide"),
        ],
        ids=["oversized", "not-finite", "zero-step", "oversized-delta3", "uneven-step"],
    )
    def test_bad_scan_axis_exits_one_before_any_row(
        self, tmp_path, capsys, monkeypatch, command, step, message
    ):
        def no_rows(*args, **kwargs):
            raise AssertionError("a scan started")

        monkeypatch.setattr(cli, "detuning_map", no_rows)
        monkeypatch.setattr(cli, "subharmonic_scan", no_rows)
        if command == "map":
            text = MAP_CFG.replace("delta2_step_ghz = 0.5", step)
        else:
            axis = f"delta3_min_ghz = -6\ndelta3_max_ghz = 6\n{step}"
            text = SUBHARMONICS_CFG.replace("points_per_order = 5", axis)
        cfg = write_cfg(tmp_path, text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    def test_version_and_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        with pytest.raises(SystemExit):
            cli.main(["mollow"])  # --config is required
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("mollow", "--strict"),
            ("fit", "--strict"),
            ("mollow", "--workers=2"),
            ("spectrum", "--workers=2"),
            ("degenerate", "--workers=2"),
            ("fit", "--workers=2"),
            ("subharmonics", "--workers=2"),
        ],
    )
    def test_flags_exist_only_where_they_act(self, capsys, command, flag):
        # --strict needs a harmonic cutoff, --workers rows in a process pool
        data = ["--data", "d.csv"] if command == "fit" else []
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--config", "run.ini", *data, flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["map", "subharmonics"])
    def test_row_scans_take_workers_and_strict(self, command):
        # both take --strict; only map, whose rows run in a pool, takes --workers
        pool = ["--workers", "2"] if command == "map" else []
        args = cli.build_parser().parse_args([command, "--config", "run.ini", *pool, "--strict"])
        assert args.strict is True
        assert getattr(args, "workers", None) == (2 if command == "map" else None)

    def test_one_parser_serves_every_run_without_leaking_flags(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        runs = [
            ("spectrum", SPECTRUM_CFG, ["--strict"]),
            ("spectrum", SPECTRUM_CFG, []),
            ("map", MAP_CFG, ["--workers", "2"]),
            ("mollow", MOLLOW_CFG, []),
        ]
        metas = []
        for i, (command, text, flags) in enumerate(runs):
            out = tmp_path / f"out{i}"
            cfg = write_cfg(tmp_path, text, name=f"run{i}.ini")
            assert cli.main([command, "--config", cfg, "--out", str(out), *flags]) == 0
            metas.append(read_keyvalue(out / "metadata.txt"))
        assert [meta.get("strict") for meta in metas] == ["True", "False", "False", None]
        assert [meta.get("workers") for meta in metas] == [None, None, "2", None]

    # keys each subcommand writes into metadata.txt whose values are numbers
    METADATA_NUMBERS = {
        "mollow": ("n_warnings",),
        "spectrum": ("steady_state_cutoff", "diag.max_resolvent_cutoff", "n_warnings"),
        "map": (
            "workers",
            "n_failures",
            "diag.max_resolvent_cutoff",
            "fit_delta1_ghz",
            "n_warnings",
        ),
        "subharmonics": (
            "n_dips",
            "n_failures",
            "diag.max_resolvent_cutoff",
            "diag.etalon_orders_per_row",
            "diag.max_tail_fraction",
            "n_warnings",
        ),
        "degenerate": (
            "diag.max_resolvent_cutoff",
            "plateau_low_ghz",
            "plateau_high_ghz",
            "n_warnings",
        ),
        "fit": (
            "rabi2_ghz",
            "t2_ps",
            "amplitude",
            "offset",
            "rabi2_std_ghz",
            "t2_std_ps",
            "residual_norm",
            "n_iter",
            "n_warnings",
        ),
    }

    @pytest.mark.parametrize("command", list(METADATA_NUMBERS))
    def test_metadata_values_are_plain(self, tmp_path, emitter, strong, command):
        text = {
            "mollow": MOLLOW_CFG,
            "spectrum": SPECTRUM_CFG,
            "map": MAP_CFG,
            "subharmonics": SUBHARMONICS_CFG,
            "degenerate": DEGENERATE_CFG,
            "fit": "[emitter]\nt1_ps = 390\n\n[fit]\nrabi2_guess_ghz = 5.0\nt2_guess_ps = 380\n",
        }[command]
        out = tmp_path / "out"
        args = [command, "--config", write_cfg(tmp_path, text), "--out", str(out)]
        if command == "fit":
            data = tmp_path / "measured.csv"
            csvio.write_spectrum(data, mollow_spectrum(emitter, strong, np.linspace(-9, 9, 181)))
            args += ["--data", str(data)]
        assert cli.main(args) == 0
        head = (out / "metadata.txt").read_text().split("---config---\n")[0]
        meta = dict(line.partition("=")[::2] for line in head.splitlines())
        assert [line for line in head.splitlines() if "np." in line] == []
        for key in self.METADATA_NUMBERS[command]:
            float(meta[key])
        if command == "fit":
            result = read_keyvalue(out / "fit_result.txt")
            assert {key: meta[key] for key in result} == result
