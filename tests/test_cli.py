import csv
import json

import pytest

from dyadicmax.cli import (
    BUDGET_ENV,
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_NO_PROGRESSION,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from dyadicmax.evaluator import DEFAULT_CELL_BUDGET

# full `dyadicmax crystal` stdout, pinned byte for byte (recorded, not recomputed)
CRYSTAL_STDOUT = {
    "0,2,3": (
        "scales: 0,2,3\n"
        "resolution: 2^0  extent: [0, 2^3]\n"
        "cells (2 of 8): [0, 2]\n"
        "measure: 1*2^1 = 2\n"
    ),
    "5": (
        "scales: 5\n"
        "resolution: 2^5  extent: [0, 2^5]\n"
        "cells (1 of 1): [0]\n"
        "measure: 1*2^5 = 32\n"
    ),
    "-3,-1,0,4": (
        "scales: -3,-1,0,4\n"
        "resolution: 2^-3  extent: [0, 2^4]\n"
        "cells (16 of 128): [0, 2, 16, 18, 32, 34, 48, 50, 64, 66, 80, "
        "82, 96, 98, 112, 114]\n"
        "measure: 1*2^1 = 2\n"
    ),
    "-6,-2,1,2,6": (
        "scales: -6,-2,1,2,6\n"
        "resolution: 2^-6  extent: [0, 2^6]\n"
        "cells (256 of 4096): [0, 2, 4, 6, 8, 10, 12, 14, 32, 34, 36, "
        "38, 40, 42, 44, 46, 64, 66, 68, 70, 72, 74, 76, 78, 96, 98, "
        "100, 102, 104, 106, 108, 110, 512, 514, 516, 518, 520, 522, "
        "524, 526, 544, 546, 548, 550, 552, 554, 556, 558, 576, 578, "
        "580, 582, 584, 586, 588, 590, 608, 610, 612, 614, 616, 618, "
        "620, 622, 1024, 1026, 1028, 1030, 1032, 1034, 1036, 1038, 1056, "
        "1058, 1060, 1062, 1064, 1066, 1068, 1070, 1088, 1090, 1092, "
        "1094, 1096, 1098, 1100, 1102, 1120, 1122, 1124, 1126, 1128, "
        "1130, 1132, 1134, 1536, 1538, 1540, 1542, 1544, 1546, 1548, "
        "1550, 1568, 1570, 1572, 1574, 1576, 1578, 1580, 1582, 1600, "
        "1602, 1604, 1606, 1608, 1610, 1612, 1614, 1632, 1634, 1636, "
        "1638, 1640, 1642, 1644, 1646, 2048, 2050, 2052, 2054, 2056, "
        "2058, 2060, 2062, 2080, 2082, 2084, 2086, 2088, 2090, 2092, "
        "2094, 2112, 2114, 2116, 2118, 2120, 2122, 2124, 2126, 2144, "
        "2146, 2148, 2150, 2152, 2154, 2156, 2158, 2560, 2562, 2564, "
        "2566, 2568, 2570, 2572, 2574, 2592, 2594, 2596, 2598, 2600, "
        "2602, 2604, 2606, 2624, 2626, 2628, 2630, 2632, 2634, 2636, "
        "2638, 2656, 2658, 2660, 2662, 2664, 2666, 2668, 2670, 3072, "
        "3074, 3076, 3078, 3080, 3082, 3084, 3086, 3104, 3106, 3108, "
        "3110, 3112, 3114, 3116, 3118, 3136, 3138, 3140, 3142, 3144, "
        "3146, 3148, 3150, 3168, 3170, 3172, 3174, 3176, 3178, 3180, "
        "3182, 3584, 3586, 3588, 3590, 3592, 3594, 3596, 3598, 3616, "
        "3618, 3620, 3622, 3624, 3626, 3628, 3630, 3648, 3650, 3652, "
        "3654, 3656, 3658, 3660, 3662, 3680, 3682, 3684, 3686, 3688, "
        "3690, 3692, 3694]\n"
        "measure: 1*2^2 = 4\n"
    ),
}


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

    @pytest.mark.parametrize("scales", sorted(CRYSTAL_STDOUT))
    def test_stdout_is_pinned(self, scales, capsys):
        assert main(["crystal", f"--scales={scales}"]) == EXIT_OK
        assert capsys.readouterr().out == CRYSTAL_STDOUT[scales]


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
        monkeypatch.setenv(BUDGET_ENV, "16")
        rc = main(["verify", "--n", "2", "--set", "0..9", "--m", "10"])
        assert rc == EXIT_BUDGET

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "2", "--set", "0,14,28", "--m", "3"],
            ["verify", "--n", "2", "--set", "0,10,20", "--m", "3"],
            ["verify", "--n", "2", "--set", "0,20,40", "--m", "3"],
            ["crystal", "--scales=0,40"],
        ],
    )
    def test_default_budget_refuses_before_building_cells(
        self, argv, monkeypatch, capsys
    ):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        assert main(argv) == EXIT_BUDGET
        assert f"budget is {DEFAULT_CELL_BUDGET}" in capsys.readouterr().err

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
