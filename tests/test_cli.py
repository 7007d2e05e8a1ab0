import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from toruslab.cli import main, read_function_csv, write_function_csv
from toruslab.errors import ValidationError
from toruslab.grid import GridFunction, GridSpec
from toruslab.operators import PdoOperator


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out_dir, command):
    path = Path(out_dir) / f"{command.replace('-', '_')}_report.json"
    return json.loads(path.read_text())


class TestAdmissible:
    def test_diagonal_threshold_printed(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "admissible",
                "--symbol",
                "bessel(-1)",
                "--out",
                str(tmp_path),
                "--set",
                "admissible.p=2",
                "--set",
                "admissible.q=2",
            ],
            capsys,
        )
        assert code == 0
        assert "m* = 0" in out or "m* = -0" in out
        report = load_report(tmp_path, "admissible")
        assert report["payload"]["threshold"] == 0.0

    def test_reports_case(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "admissible",
                "--symbol",
                "bessel(0)",
                "--out",
                str(tmp_path),
                "--set",
                "admissible.p=2",
                "--set",
                "admissible.q=4",
            ],
            capsys,
        )
        assert code == 0
        assert load_report(tmp_path, "admissible")["payload"]["case"] == "a"


class TestSymbolClass:
    def test_bessel_fit(self, tmp_path, capsys):
        code, out, _ = run(
            ["symbol-class", "--symbol", "bessel(-1)", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        payload = load_report(tmp_path, "symbol-class")["payload"]
        assert -1.05 <= payload["fitted"]["m"] <= -0.95


class TestQuantize:
    def test_identity_round_trip(self, tmp_path, capsys):
        spec = GridSpec((32,))
        rng = np.random.default_rng(0)
        f = GridFunction(spec, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        in_path = tmp_path / "input.csv"
        write_function_csv(in_path, f)
        code, out, _ = run(
            [
                "quantize",
                "--symbol",
                "1",
                "--grid",
                "32",
                "--out",
                str(tmp_path),
                "--set",
                f"quantize.input={in_path}",
            ],
            capsys,
        )
        assert code == 0
        back = read_function_csv(tmp_path / "quantized.csv", spec)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_csv_with_too_few_rows_rejected(self, tmp_path):
        spec = GridSpec((8,))
        path = tmp_path / "input.csv"
        write_function_csv(path, GridFunction(spec, np.arange(8.0)))
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:-1]) + "\n")
        with pytest.raises(ValidationError, match="CSV has 7 rows, grid needs 8"):
            read_function_csv(path, spec)

    @pytest.mark.parametrize(
        "rows, reason",
        [(["0,1,0", "0,1,0", "2,1,0", "3,1,0"], "index 0 repeated"),
         (["0,1,0", "1,abc,0", "2,1,0", "3,1,0"], "is not index,real,imag"),
         (["0,1,0", "1", "2,1,0", "3,1,0"], "is not index,real,imag"),
         (["0,1,0", "x,1,0", "2,1,0", "3,1,0"], "is not index,real,imag")],
        ids=["repeated-index", "non-numeric-value", "short-row", "non-integer-index"],
    )
    def test_malformed_csv_rejected(self, tmp_path, capsys, rows, reason):
        path = tmp_path / "input.csv"
        path.write_text("\n".join(["index,real,imag"] + rows) + "\n")
        with pytest.raises(ValidationError, match=reason) as err:
            read_function_csv(path, GridSpec((4,)))
        assert err.value.field == "input"
        code, out, err = run(["quantize", "--symbol", "1", "--grid", "4", "--out", str(tmp_path),
                              "--set", f"quantize.input={path}"], capsys)
        assert code == 1
        assert err.startswith("error: input: ")
        assert len(err.strip().splitlines()) == 1


class TestKernelCommand:
    def test_decay_check(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "kernel",
                "--symbol",
                "bessel(-2)",
                "--grid",
                "256",
                "--out",
                str(tmp_path),
                "--set",
                "kernel.truncations=[64,128,256]",
            ],
            capsys,
        )
        assert code == 0
        payload = load_report(tmp_path, "kernel")["payload"]
        assert 0.5 <= payload["decay"]["stability_ratio"] <= 2.0

    def test_sigma_check_reads_the_synthesized_kernel(self, tmp_path, capsys, monkeypatch):
        # the decay and sigma checks share one evaluation of the symbol on grid x lattice
        values = []
        symbol_rows = PdoOperator.symbol_rows

        def counted(op, flat_rows):
            values.append(len(flat_rows) * op.spec.npoints)
            return symbol_rows(op, flat_rows)

        monkeypatch.setattr(PdoOperator, "symbol_rows", counted)
        code, out, err = run(["kernel", "--symbol", "exotic(-0.625, 0.75, 1)", "--grid", "64",
                              "--out", str(tmp_path), "--set", 'kernel.checks=["decay","sigma"]',
                              "--set", "kernel.samples=4"], capsys)
        assert code == 0, err
        assert sum(values) == 64 * 64
        assert load_report(tmp_path, "kernel")["payload"]["sigma"]["hypothesis_satisfied"]

    @pytest.mark.parametrize(
        "setting, field",
        [("kernel.dump_rows=[64]", "kernel.dump_rows"),
         ("kernel.dump_rows=[-1]", "kernel.dump_rows"),
         ('kernel.dump_rows=["a"]', "kernel.dump_rows"),
         ("kernel.dump_rows=[1.5]", "kernel.dump_rows"),
         ("kernel.dump_rows=3", "kernel.dump_rows"),
         ('kernel.checks=["decay","sigmaa"]', "kernel.checks"),
         ('kernel.checks="decay"', "kernel.checks")],
    )
    def test_bad_dump_rows_and_checks_name_their_field(self, tmp_path, capsys, setting, field):
        # a row off the 64-point grid or not an integer, or a check that does not exist
        code, out, err = run(["kernel", "--symbol", "bessel(-2)", "--grid", "64",
                              "--out", str(tmp_path), "--set", setting], capsys)
        assert code == 1
        assert err.startswith(f"error: {field}: must be ")
        assert len(err.strip().splitlines()) == 1
        assert not list(tmp_path.iterdir())


class TestNormsAndCz:
    def test_norms_of_wave(self, tmp_path, capsys):
        code, out, _ = run(
            ["norms", "--grid", "64", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        payload = load_report(tmp_path, "norms")["payload"]
        assert payload["L2"] == pytest.approx(1.0, abs=1e-12)

    def test_cz_dump(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "cz",
                "--grid",
                "64",
                "--out",
                str(tmp_path),
                "--set",
                "cz.generator=2+cos(2*pi*x1)",
                "--set",
                "cz.level=2.2",
            ],
            capsys,
        )
        assert code == 0
        payload = load_report(tmp_path, "cz")["payload"]
        assert (tmp_path / "cz_good.csv").exists()
        assert (tmp_path / "cz_bad.csv").exists()
        assert payload["omega_measure"] <= 1.0


class TestSweepCommand:
    def test_emits_matrix_and_plot_data(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "sweep",
                "--out",
                str(tmp_path),
                "--seed",
                "3",
                "--set",
                "sweep.m_grid=[-0.25,0.25]",
                "--set",
                "sweep.n_grid=[64,128,256]",
                "--set",
                "sweep.trials=6",
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "sweep_matrix.csv").exists()
        manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
        assert len(manifest["files"]) == 2
        payload = load_report(tmp_path, "sweep")["payload"]
        assert payload["threshold_order"] == 0.0

    def test_config_file_sets_family_params(self, tmp_path, capsys):
        # family_params is a free-form map: keys other than the default "a"
        config = {"sweep": {"family": "exotic", "family_params": {"d": 0.75, "c": 1},
                            "p": 4.0, "m_grid": [-0.5], "n_grid": [8, 16, 32], "trials": 3}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, err = run(["sweep", "--config", str(config_path), "--out", str(tmp_path)],
                             capsys)
        assert code == 0, err
        report = load_report(tmp_path, "sweep")
        assert report["config"]["sweep"]["family_params"] == {"d": 0.75, "c": 1}
        assert report["payload"]["delta"] == 0.75


class TestErrorsAndDeterminism:
    def test_unknown_command(self, capsys):
        code, out, err = run(["frobnicate"], capsys)
        assert code == 1
        assert err.strip().endswith(
            "invalid choice: 'frobnicate' (choose from 'symbol-class', 'quantize', 'kernel', "
            "'norms', 'cz', 'sweep', 'weak11', 'bmo', 'h1l1', 'admissible')")

    @pytest.mark.parametrize("symbol,message", [("2²", "unknown character '²' (at offset 1)"),
                                                ("x²", "unbound parameter 'x²' (at offset 0)")])
    def test_non_decimal_digit_in_a_symbol_exits_1(self, tmp_path, capsys, symbol, message):
        code, out, err = run(["quantize", "--symbol", symbol, "--grid", "16",
                              "--out", str(tmp_path)], capsys)
        assert code == 1
        assert err == f"error: {message}\n"

    def test_invalid_config_field_path(self, tmp_path, capsys):
        code, out, err = run(
            ["norms", "--out", str(tmp_path), "--set", "nonexistent.path=1"], capsys
        )
        assert code == 1
        assert "nonexistent.path" in err

    def test_bad_grid(self, tmp_path, capsys):
        code, out, err = run(["norms", "--grid", "100", "--out", str(tmp_path)], capsys)
        assert code == 1

    def test_guard_violation_exits_2(self, tmp_path, capsys):
        # kernel synthesis at G > 4096 trips the dense guard
        code, out, err = run(
            ["kernel", "--symbol", "bessel(-2)", "--grid", "128,64", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert not (tmp_path / "kernel_report.json").exists()

    def test_class_fit_above_the_guard_exits_2(self, tmp_path, capsys):
        # the default symbol_class on 64^2 asks for 4096 x-samples on a 1025^2
        # lattice box, about 69 GB per complex array
        tracemalloc.start()
        try:
            code, out, err = run(["symbol-class", "--symbol", "exotic(0, 0.75, 1)", "--grid",
                                  "64,64", "--out", str(tmp_path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert err.startswith("numerical failure: class fit needs 4096 x-samples "
                              "(x_resolution=64) on 1050625 lattice cells for shells (8, 512)")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "symbol_class_report.json").exists()
        assert peak < 64 * 2**20  # the shells' lattice points, no evaluation

    def test_refused_class_fit_builds_no_lattice_point(self, tmp_path, capsys):
        # the guard reads the box from the shell range, so the refusal costs
        # no lattice point (43 MiB of them on 64^2 with shells up to 512)
        tracemalloc.start()
        try:
            code, _, err = run(["symbol-class", "--symbol", "exotic(0, 0.75, 1)", "--grid",
                                "64,64", "--out", str(tmp_path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "class fit needs 4096 x-samples" in err
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "command, symbol, setting",
        [
            ("symbol-class", "exotic(0, 0.75, 1)", "symbol_class.max_order=0"),
            ("symbol-class", "exotic(0, 0.75, 1)", "symbol_class.max_order=-1"),
            ("symbol-class", "exotic(0, 0.75, 1)", "symbol_class.x_resolution=0"),
            ("kernel", "bessel(-2)", "kernel.truncations=[0,32,64]"),
            ("kernel", "bessel(-2)", "kernel.truncations=[-8,32,64]"),
            ("weak11", "bessel(-2)", "weak11.trials=abc"),
            pytest.param("kernel", "bessel(-2)", ('kernel.samples="x"', 'kernel.checks=["sigma"]'),
                         id="kernel-bessel(-2)-kernel.samples=x-kernel.checks=sigma"),
            ("sweep", "bessel(-2)", 'sweep.p="four"'),
            ("h1l1", "bessel(-2)", "h1l1.radii=[]"),
            ("weak11", "bessel(-2)", "adjoint=yes"),
            ("bmo", "bessel(-2)", "bmo.truncations=[0]"),
            ("bmo", "bessel(-2)", "bmo.truncations=[-32]"),
            ("bmo", "bessel(-2)", "bmo.truncations=[]"),
            ("bmo", "bessel(-2)", "grid=[4]"),
            ("bmo", "bessel(-2)", "bmo.truncations=[4,8]"),
            ("quantize", "bessel(-2)", 'compose={"s":"abc"}'),
            ("weak11", "bracket(xi)^(-1)", 'class={"m":"x","rho":1,"delta":0}'),
            ("weak11", "bessel(-2)", "weak11.lam_lo=0"),
            ("weak11", "bessel(-2)", "weak11.lam_count=-3"),
            ("weak11", "bessel(-2)", "weak11.lam_count=0"),
            pytest.param("kernel", "bessel(-2)", ("kernel.samples=0", 'kernel.checks=["sigma"]'),
                         id="kernel-bessel(-2)-kernel.samples=0-kernel.checks=sigma"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_unusable_settings_exit_1(self, tmp_path, capsys, command, symbol, setting):
        settings = [setting] if isinstance(setting, str) else list(setting)
        code, out, err = run(
            [command, "--symbol", symbol, "--grid", "64", "--out", str(tmp_path)]
            + [arg for item in settings for arg in ("--set", item)],
            capsys,
        )
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command, setting, field",
        [("h1l1", "h1l1.radii=[]", "h1l1.radii"),
         ("bmo", "bmo.truncations=[0]", "bmo.truncations"),
         ("weak11", "weak11.truncations=[]", "weak11.truncations"),
         ("h1l1", "h1l1.truncations=[48]", "h1l1.truncations"),
         ("bmo", "grid=[4]", "bmo.truncations"),
         ("bmo", "bmo.truncations=[4,8]", "bmo.truncations"),
         # a ball smaller than half the coarsest spacing x sqrt(n) can miss every point
         ("weak11", "grid=[4]", "weak11.truncations"),
         ("weak11", "grid=[8]", "weak11.truncations"),
         ("weak11", "weak11.truncations=[8,64]", "weak11.truncations"),
         ("h1l1", "grid=[4]", "h1l1.radii"),
         ("h1l1", "grid=[8]", "h1l1.radii"),
         ("h1l1", "h1l1.radii=[0.25,0.01]", "h1l1.radii")],
    )
    def test_endpoint_setting_errors_name_the_config_field(self, tmp_path, capsys, command,
                                                            setting, field):
        code, out, err = run(
            [command, "--symbol", "bessel(-2)", "--grid", "32", "--out", str(tmp_path),
             "--set", setting],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: {field}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("truncations",
                             ["[0,32,64]", "[-8,32,64]", "[3,32,64]", "[16,128]", "[]"])
    def test_kernel_truncation_errors_name_the_config_field(self, tmp_path, capsys, truncations):
        code, out, err = run(
            ["kernel", "--symbol", "bessel(-2)", "--grid", "64", "--out", str(tmp_path),
             "--set", f"kernel.truncations={truncations}"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: kernel.truncations: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "setting, field",
        [("symbol_class.max_order=2.5", "max_order"), ("symbol_class.max_order=2.0", "max_order"),
         ("symbol_class.max_order=0", "max_order"), ("symbol_class.x_resolution=0.5", "x_resolution"),
         ("symbol_class.x_resolution=0", "x_resolution"), ("symbol_class.shell_lo=0.5", "shell_lo"),
         ("symbol_class.shell_hi=64", "shell_hi")],
    )
    def test_symbol_class_setting_errors_name_the_config_field(self, tmp_path, capsys, setting,
                                                               field):
        # a type error from the config check, a range error from fit_order
        # or from its dyadic shells
        code, out, err = run(["symbol-class", "--symbol", "bessel(-1)", "--out", str(tmp_path),
                              "--set", setting], capsys)
        assert code == 1
        assert err.startswith(f"error: symbol_class.{field}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["admissible", "symbol-class", "weak11"])
    def test_class_beside_a_family_exits_1(self, tmp_path, capsys, command):
        # a built-in family carries its own class; a config class beside it
        # would contradict it, so neither silently wins
        code, out, err = run(
            [command, "--symbol", "wainger(0.5, 1)", "--grid", "64", "--out", str(tmp_path),
             "--set", 'class={"m": 0, "rho": 1, "delta": 0}'],
            capsys,
        )
        assert code == 1
        assert "wainger(0.5, 1)" in err and "class" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "setting, field",
        [("weak11.trials=abc", "weak11.trials"), ("adjoint=1", "adjoint"),
         ("cz.level=true", "cz.level"), ('sweep.family_params={"a": "x"}', "sweep.family_params.a"),
         ("symbol_class.max_order=abc", "symbol_class.max_order"),
         ("kernel.cutoff=abc", "kernel.cutoff"), ("weak11.truncations=abc", "weak11.truncations"),
         ("compose=5", "compose"), ("norms.input=5", "norms.input"),
         ('compose={"s": "abc"}', "compose.s"), ('class={"m": "x", "rho": 1, "delta": 0}', "class.m"),
         ('class={"m": -1, "rho": 1, "delta": null}', "class.delta"),
         ("weak11.lam_lo=0", "weak11.lam_lo"), ("weak11.lam_hi=-1", "weak11.lam_hi"),
         ("weak11.lam_count=-3", "weak11.lam_count"), ("weak11.lam_count=0", "weak11.lam_count"),
         ("kernel.samples=0", "kernel.samples"),
         # a list of numbers by its default, p_values also "inf"; an integer exponent
         ('norms.p_values=["x"]', "norms.p_values"), ('sweep.m_grid=["a"]', "sweep.m_grid"),
         ('h1l1.radii=["a"]', "h1l1.radii"), ("sweep.n_grid=[64, null]", "sweep.n_grid"),
         ('sweep.family_params={"c":[1]}', "sweep.family_params.c"),
         ("sweep.family_params=5", "sweep.family_params"), ("sweep=5", "sweep"),
         ("kernel.decay_exponent=1.5", "kernel.decay_exponent"),
         ("kernel.decay_exponent=-1", "kernel.decay_exponent")],
    )
    def test_mistyped_setting_names_its_field(self, tmp_path, capsys, setting, field):
        # a field whose default is a number must hold a number, a bool field a bool
        code, out, err = run(["norms", "--out", str(tmp_path), "--set", setting], capsys)
        assert code == 1
        assert err.startswith(f"error: {field}: must be ")
        assert not list(tmp_path.iterdir())

    def test_non_numeric_family_param_exits_1(self, tmp_path, capsys):
        code, out, err = run(["sweep", "--out", str(tmp_path), "--set", "sweep.family=exotic",
                              "--set", 'sweep.family_params={"c":[1]}'], capsys)
        assert code == 1
        assert err.startswith("error: sweep.family_params.c: must be a number")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_family_params_are_kept(self, tmp_path, capsys):
        # exotic reads d and c; the default {"a": 0.5} is left as it is
        code, out, err = run(["sweep", "--grid", "16", "--out", str(tmp_path),
                              "--set", "sweep.family=exotic", "--set", "sweep.n_grid=[16,32,64]",
                              "--set", "sweep.trials=1"], capsys)
        assert code == 0, err
        assert load_report(tmp_path, "sweep")["config"]["sweep"]["family_params"] == {"a": 0.5}

    def test_class_beside_a_raw_expression_is_the_nominal_class(self, tmp_path, capsys):
        code, out, _ = run(
            ["admissible", "--symbol", "bracket(xi)^(-1)", "--out", str(tmp_path),
             "--set", 'class={"m": -1, "rho": 0.5, "delta": 0}', "--set", "admissible.p=4",
             "--set", "admissible.q=4"],
            capsys,
        )
        assert code == 0
        assert load_report(tmp_path, "admissible")["payload"]["rho"] == 0.5

    def test_byte_identical_reports_modulo_timestamp(self, tmp_path, capsys):
        args = [
            "weak11",
            "--symbol",
            "bessel(-2)",
            "--grid",
            "64",
            "--seed",
            "11",
            "--set",
            "weak11.trials=9",
            "--set",
            "weak11.truncations=[64,128]",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)], capsys)[0] == 0
        assert run(args + ["--out", str(out_b)], capsys)[0] == 0
        text_a = (out_a / "weak11_report.json").read_text()
        text_b = (out_b / "weak11_report.json").read_text()
        strip = lambda t: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', t)
        strip2 = lambda t: re.sub(r'"out": "[^"]*"', '"out": null', strip(t))
        assert strip2(text_a) == strip2(text_b)
