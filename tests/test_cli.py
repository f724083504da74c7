import csv
import json

import pytest

from dyadicmax.cli import (
    BUDGET_ENV,
    EXIT_CHECK_FAILED,
    EXIT_NO_PROGRESSION,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


class TestCrystalCommand:
    def test_example(self, capsys):
        assert main(["crystal", "--scales", "0,2,3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "measure: 1*2^1" in out
        assert "[0, 2]" in out

    def test_single_scale(self, capsys):
        assert main(["crystal", "--scales", "5"]) == EXIT_OK
        assert "measure: 1*2^5 = 32" in capsys.readouterr().out

    def test_non_increasing_is_usage_error(self, capsys):
        assert main(["crystal", "--scales", "3,1"]) == EXIT_USAGE

    def test_malformed_is_usage_error(self):
        assert main(["crystal", "--scales", "a,b"]) == EXIT_USAGE


class TestVerifyCommand:
    def test_passing_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["verify", "--n", "2", "--set", "0,1,2", "--m", "3",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        d = json.loads(out.read_text())
        assert d["passed"] is True
        assert d["n"] == 2 and d["m"] == 3

    def test_no_progression_exit_code(self):
        rc = main(["verify", "--n", "2", "--set", "1,2,4,8", "--m", "3"])
        assert rc == EXIT_NO_PROGRESSION

    def test_budget_exit_code(self):
        from dyadicmax.cli import EXIT_BUDGET

        rc = main(
            ["verify", "--n", "2", "--set", "0..9", "--m", "10",
             "--budget", "16"]
        )
        assert rc == EXIT_BUDGET

    @pytest.mark.parametrize("budget", ["0", "-5", "abc"])
    def test_bad_budget_flag_is_usage_error(self, budget, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "--n", "2", "--set", "0,1,2", "--m", "3",
                  "--budget", budget])
        assert ei.value.code == EXIT_USAGE
        assert "cell budget must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "abc"])
    def test_bad_budget_env_is_usage_error(self, budget, monkeypatch, capsys):
        monkeypatch.setenv(BUDGET_ENV, budget)
        with pytest.raises(SystemExit) as ei:
            main(["verify", "--n", "2", "--set", "0,1,2", "--m", "3"])
        assert ei.value.code == EXIT_USAGE
        assert BUDGET_ENV in capsys.readouterr().err

    def test_budget_env_is_applied(self, monkeypatch):
        from dyadicmax.cli import EXIT_BUDGET

        monkeypatch.setenv(BUDGET_ENV, "16")
        rc = main(["verify", "--n", "2", "--set", "0..9", "--m", "10"])
        assert rc == EXIT_BUDGET

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "--help"])
        assert ei.value.code == 0


class TestSweepCommand:
    def test_row_count_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--n", "2", "--m", "2..5", "--set", "0..4"]
        assert main(args + ["--csv", str(a)]) == EXIT_OK
        assert main(args + ["--csv", str(b)]) == EXIT_OK

        def payload(path):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            # runtime_ms is wall-clock and excluded from the byte compare
            return [
                {k: v for k, v in r.items() if k != "runtime_ms"} for r in rows
            ]

        assert len(payload(a)) == 4
        assert payload(a) == payload(b)

    def test_series_output(self, tmp_path):
        series = tmp_path / "series.txt"
        assert (
            main(["sweep", "--n", "2", "--m", "2..4", "--series", str(series)])
            == EXIT_OK
        )
        lines = series.read_text().splitlines()
        assert len(lines) == 3
        assert all(float(l.split()[1]) > 0 for l in lines)


class TestCubeCommand:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "cube.csv"
        assert main(["cube", "--n", "2", "--m", "1..4", "--csv", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(float(r["ratio_decimal"]) > 0 for r in rows)
