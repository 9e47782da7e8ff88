import json
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "starkspec.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


class TestGfun:
    def test_two_row_grid(self):
        res = run_cli("gfun", "--delta", "0.4", "--gamma", "0.5", "--g", "0.4",
                      "--xmin", "-1", "--xmax", "2", "--grid", "2")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "x,E,G_plus,G_minus,reliable_plus,reliable_minus"
        assert len(lines) == 3

    def test_domain_error_exit_code(self):
        res = run_cli("gfun", "--delta", "0.4", "--gamma", "1.0", "--g", "0.3")
        assert res.returncode == 3
        assert "gamma**2 < 1" in res.stderr

    def test_bad_flag_exit_code(self):
        res = run_cli("gfun", "--delts", "0.4")
        assert res.returncode == 2

    def test_pole_row_has_empty_fields(self):
        res = run_cli("gfun", "--delta", "0.4", "--gamma", "0.5", "--g", "0.4",
                      "--xmin", "-1", "--xmax", "2", "--grid", "601")
        rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:]]
        pole_rows = [r for r in rows if abs(float(r[0]) - 0.55) < 1e-9]
        assert len(pole_rows) == 1
        assert pole_rows[0][2] == "" and pole_rows[0][3] == ""
        assert pole_rows[0][4] == "false" and pole_rows[0][5] == "false"

    def test_round_trip_17_digits(self):
        res = run_cli("gfun", "--delta", "0.4", "--gamma", "0.5", "--g", "0.4",
                      "--xmin", "0.8", "--xmax", "1.1", "--grid", "5", "--nterms", "24")
        rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:]]
        import starkspec as ss
        p = ss.validate_params(0.4, 0.5, 0.4)
        for row in rows:
            x = float(row[0])
            value = ss.g_function(p, ss.ParitySector.PLUS, x - p.g * p.g, 24).value
            assert float(row[2]) == value


class TestDeterminism:
    def test_byte_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("gfun", "--delta", "0.4", "--gamma", "0.5", "--g", "0.4",
                "--xmin", "-1", "--xmax", "2", "--grid", "101")
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = (tmp_path / "a.csv.meta.json").read_bytes()
        meta2 = (tmp_path / "b.csv.meta.json").read_bytes()
        assert meta1 == meta2

    def test_spectrum_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ("spectrum", "--delta", "0.4", "--gamma", "0.5",
                "--gmin", "0", "--gmax", "0.3", "--gsteps", "4", "--levels", "5",
                "--nterms", "24")
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"gamma": 0.5, "grid": 2, "g": 0.4,
                                      "xmin": -1.0, "xmax": 2.0}))
        res = run_cli("gfun", "--config", str(config), "--delta", "0.4")
        assert res.returncode == 0
        assert len(res.stdout.strip().split("\n")) == 3  # grid from config
        res2 = run_cli("gfun", "--config", str(config), "--delta", "0.4",
                       "--grid", "4")
        assert len(res2.stdout.strip().split("\n")) == 5  # flag overrides


class TestPoles:
    def test_degenerate_row_at_lift(self):
        res = run_cli("poles", "--delta", "0.4", "--gamma", "0.5",
                      "--g", "0.21387555435198102", "--nmax", "3")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "n,E_pole,x_pole,classification,residual"
        first = lines[1].split(",")
        assert first[3] == "degenerate"
        assert abs(float(first[2]) - 0.55) < 1e-12


class TestOracle:
    def test_free_limit_levels(self):
        res = run_cli("oracle", "--delta", "0.4", "--gamma", "0.5", "--g", "0",
                      "--levels", "7", "--cutoff", "80")
        rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:]]
        energies = [float(r[1]) for r in rows]
        assert energies == pytest.approx([-0.4, 0.1, 0.4, 0.6, 1.1, 1.6, 1.9], abs=1e-12)
        assert all(r[3] == "true" for r in rows)


class TestCompare:
    def test_agreement_exit_zero(self):
        res = run_cli("compare", "--delta", "0.4", "--gamma", "0.5", "--g", "0.4",
                      "--levels", "5", "--tol", "1e-6", "--cutoff", "120",
                      "--nterms", "48")
        assert res.returncode == 0
        assert "max|diff|" in res.stderr

    def test_soft_failure_exit_one(self):
        res = run_cli("compare", "--delta", "0.4", "--gamma", "0.5", "--g", "0.4",
                      "--levels", "5", "--tol", "1e-14", "--cutoff", "120",
                      "--nterms", "48")
        assert res.returncode == 1


class TestSpectrumJson:
    def test_nested_by_g(self):
        res = run_cli("spectrum", "--delta", "0.4", "--gamma", "0.5",
                      "--gmin", "0", "--gmax", "0.2", "--gsteps", "2",
                      "--levels", "4", "--format", "json", "--nterms", "16")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert len(payload) == 2
        assert payload[0]["g"] == 0.0
        assert len(payload[0]["levels"]) == 4
        assert {"level_index", "parity", "energy", "resolved"} <= set(payload[0]["levels"][0])


class TestInvalidCounts:
    """An invalid count exits 2 with one line, from a flag or from --config."""

    @staticmethod
    def assert_usage_error(tmp_path, subcommand, key, value, *rest):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}))
        for source in (("--" + key, str(value)), ("--config", str(config))):
            res = run_cli(subcommand, *source, *rest)
            assert res.returncode == 2
            assert res.stdout == ""
            assert len(res.stderr.strip().splitlines()) == 1
            assert f"--{key}" in res.stderr and "Traceback" not in res.stderr

    def test_spectrum_gsteps_one(self, tmp_path):
        self.assert_usage_error(tmp_path, "spectrum", "gsteps", 1)

    def test_oracle_levels_zero(self, tmp_path):
        self.assert_usage_error(tmp_path, "oracle", "levels", 0)

    def test_compare_levels_zero(self, tmp_path):
        self.assert_usage_error(tmp_path, "compare", "levels", 0)

    def test_oracle_levels_above_basis(self, tmp_path):
        self.assert_usage_error(tmp_path, "oracle", "levels", 23, "--cutoff", "10")


class TestNegativeExponentValue:
    def test_gamma_in_exponent_form(self, tmp_path):
        out = tmp_path / "s.csv"
        res = run_cli("spectrum", "--delta", "0.4", "--gamma", "-1e-05",
                      "--gmin", "0", "--gmax", "0.2", "--gsteps", "2",
                      "--levels", "2", "--out", str(out))
        assert res.returncode == 0
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["params"]["gamma"] == -1e-05
