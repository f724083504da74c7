import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dyadicmax
from dyadicmax.cli import (
    CELL_CHUNK,
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_NO_PROGRESSION,
    EXIT_OK,
    EXIT_USAGE,
    _parse_int_set,
    _parse_range,
    main,
)
from dyadicmax.errors import ParameterError
from dyadicmax.evaluator import DEFAULT_CELL_BUDGET
from dyadicmax.verify import verify_theorem

GOLDEN = Path(__file__).resolve().parent / "golden"

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

    def test_scales_roundtrip(self, capsys):
        # the `scales:` line reprints the parsed list; a malformed entry is
        # a usage error that quotes the text as given
        assert main(["crystal", "--scales=-2,0,3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "scales: -2,0,3"
        assert main(["crystal", "--scales", "1,x"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: malformed scale list: '1,x'\n"

    def test_cell_list_spans_chunks(self, capsys):
        # 2^18 cells, every even one kept: four chunks of the mask
        assert (1 << 18) > 2 * CELL_CHUNK
        assert main(["crystal", "--scales=0,18"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        cells = list(range(0, 1 << 18, 2))
        assert lines[2] == f"cells ({len(cells)} of {1 << 18}): {cells}"


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

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--n", "2", "--m", "2..3"], ["cube", "--n", "2", "--m", "1..2"]],
    )
    def test_out_belongs_to_verify_only(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--out", str(out)])
        assert ei.value.code == EXIT_USAGE
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_set_needs_the_equals_form(self, tmp_path, capsys):
        # argparse reads a value that starts with "-" as an option
        out = tmp_path / "neg.json"
        argv = ["verify", "--n", "2", "--m", "4", "--out", str(out)]
        assert main(argv + ["--set=-3..0"]) == EXIT_OK
        got = json.loads(out.read_text())
        want = json.loads(verify_theorem(2, range(-3, 1), 4).to_json())
        got.pop("runtime_ms"), want.pop("runtime_ms")
        assert got == want
        with pytest.raises(SystemExit) as ei:
            main(argv + ["--set", "-3..0"])
        assert ei.value.code == EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err

    def test_no_progression_exit_code(self):
        rc = main(["verify", "--n", "2", "--set", "1,2,4,8", "--m", "3"])
        assert rc == EXIT_NO_PROGRESSION

    def test_no_progression_message_is_bounded(self, capsys):
        # the message names |A| and its span, not the 200000 members
        argv = ["--n", "2", "--set", "0..199999", "--m"]
        assert main(["verify", *argv, "300000"]) == EXIT_NO_PROGRESSION
        err = capsys.readouterr().err
        assert err == (
            "error: no arithmetic progression of length 300000 in A "
            "(|A| = 200000, 0..199999)\n"
        )
        assert main(["sweep", *argv, "300000..300002"]) == EXIT_NO_PROGRESSION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3 and all(len(line) < 100 for line in lines)

    def test_dimension_is_checked_before_the_progression(self, capsys):
        assert main(["verify", "--n", "1", "--set", "0", "--m", "2"]) == EXIT_USAGE
        assert "dimension must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--set", "0,1000000000", "--m", "2"], EXIT_BUDGET),
            (["--set", "0,1,100000000", "--m", "3"], EXIT_NO_PROGRESSION),
            (["--set", "0..99999", "--m", "2"], EXIT_OK),
        ],
    )
    def test_large_sets_exit_promptly(self, argv, code):
        # the progression search must not try every step up to the span nor
        # every pair of members, and the budget check must not build the
        # cell count of a 2^(2*10^9)-cell grid
        src = Path(dyadicmax.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "dyadicmax.cli", "verify", "--n", "2", *argv],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_budget_env_is_ignored(self, monkeypatch):
        # --budget is the only override; the environment sets no budget
        monkeypatch.setenv("DYADICMAX_CELL_BUDGET", "16")
        rc = main(["verify", "--n", "2", "--set", "0..9", "--m", "10"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "2", "--set", "0,14,28", "--m", "3"],
            ["verify", "--n", "2", "--set", "0,10,20", "--m", "3"],
            ["verify", "--n", "2", "--set", "0,20,40", "--m", "3"],
            ["crystal", "--scales=0,40"],
            # cell counts past int()'s 4300-digit printing limit
            ["crystal", "--scales=0,20000"],
            ["cube", "--n", "2", "--m", "8000"],
            ["verify", "--n", "2", "--set", "0,8000", "--m", "2"],
            # a dimension too large to build any n-tuple of
            ["verify", "--n", "1000000000000", "--set", "0,1", "--m", "2"],
        ],
    )
    def test_default_budget_refuses_before_building_cells(self, argv, capsys):
        assert main(argv) == EXIT_BUDGET
        assert f"budget is {DEFAULT_CELL_BUDGET}" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "--help"])
        assert ei.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "2", "--set", "0,1,2", "--m", "3", "--out"],
        ["verify", "--n", "2", "--set", "0,1,2", "--m", "3", "--csv"],
        ["sweep", "--n", "2", "--m", "2..3", "--series"],
        ["sweep", "--n", "2", "--m", "2..3", "--csv"],
        ["cube", "--n", "2", "--m", "1..3", "--csv"],
    ],
)
def test_unwritable_output_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # the path is checked before the run: no certification starts
    def never(*args, **kwargs):
        raise AssertionError("ran a certification before checking the output path")

    monkeypatch.setattr(dyadicmax.cli, "verify_theorem", never)
    monkeypatch.setattr(dyadicmax.cli, "cube_counterexample", never)
    path = tmp_path / "missing" / "out"
    assert main(argv + [str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["verify", "--n", "2", "--set", "0,1,2", "--m", "3"], "--out", "--csv"),
        (["sweep", "--n", "2", "--m", "2..3"], "--csv", "--series"),
    ],
)
def test_two_outputs_to_one_file_is_usage_error(
    argv, first, second, tmp_path, monkeypatch, capsys
):
    # ./r.out and r.out are one file, which one output would overwrite
    # with the other; that is refused before the run
    def never(*args, **kwargs):
        raise AssertionError("ran a certification before checking the output paths")

    monkeypatch.setattr(dyadicmax.cli, "verify_theorem", never)
    monkeypatch.chdir(tmp_path)
    assert main(argv + [first, "r.out", second, "./r.out"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "same file: ./r.out" in err
    assert not (tmp_path / "r.out").exists()


STOPPED_VERIFY = [
    (["--set", "1,2,4", "--out", "r.json", "--csv", "r.csv"], EXIT_NO_PROGRESSION),
    (["--set", "0,1,2", "--budget", "1", "--out", "r.json", "--csv", "r.csv"], EXIT_BUDGET),
    (["--set", "0,1,2", "--out", "r.json", "--csv", "./r.json"], EXIT_USAGE),
]


@pytest.mark.parametrize("argv, code", STOPPED_VERIFY)
def test_verify_stopped_before_writing_leaves_no_file(argv, code, tmp_path, monkeypatch):
    # the files the writability check creates go again when the run stops
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--n", "2", "--m", "3", *argv]) == code
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, code", STOPPED_VERIFY)
def test_verify_stopped_before_writing_keeps_an_existing_file(
    argv, code, tmp_path, monkeypatch
):
    # an output that existed before the run is left as it was, not truncated
    monkeypatch.chdir(tmp_path)
    Path("r.json").write_text("kept\n")
    assert main(["verify", "--n", "2", "--m", "3", *argv]) == code
    assert os.listdir(tmp_path) == ["r.json"]
    assert Path("r.json").read_text() == "kept\n"


def test_verify_stopped_before_writing_keeps_a_dangling_link(tmp_path, monkeypatch):
    # the check creates the link's target, so the target goes and the link stays
    monkeypatch.chdir(tmp_path)
    Path("r.json").symlink_to("target.json")
    argv = ["verify", "--n", "2", "--set", "1,2,4", "--m", "3", "--out", "r.json"]
    assert main(argv) == EXIT_NO_PROGRESSION
    assert os.listdir(tmp_path) == ["r.json"] and Path("r.json").is_symlink()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--n", "2", "--m", "20..21"], EXIT_BUDGET),
        (["sweep", "--n", "2", "--set", "1,2,4", "--m", "3..4"], EXIT_NO_PROGRESSION),
        (["sweep", "--n", "1", "--m", "2..3"], EXIT_USAGE),
        (["cube", "--n", "0", "--m", "1..2"], EXIT_USAGE),
    ],
)
def test_sweep_or_cube_stopped_before_any_report_leaves_no_file(
    argv, code, tmp_path, monkeypatch
):
    # with no row to write, the CSV and the series are not written at all
    monkeypatch.chdir(tmp_path)
    series = ["--series", "s.txt"] if argv[0] == "sweep" else []
    assert main([*argv, "--csv", "r.csv", *series]) == code
    assert os.listdir(tmp_path) == []


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


CHECK_FLAGS = ("homogeneity_ok", "disjointness_ok", "inclusion_ok")


@pytest.fixture(params=CHECK_FLAGS)
def failing_check(request, monkeypatch):
    """Make one construction check fail on every instance; returns the
    report flag that it sets."""
    mod = dyadicmax.verify
    if request.param == "homogeneity_ok":
        real = mod.check_homogeneity
        monkeypatch.setattr(
            mod, "check_homogeneity",
            lambda inst, i, mask_E: dataclasses.replace(
                real(inst, i, mask_E), passed=False
            ),
        )
    elif request.param == "disjointness_ok":
        real = mod.check_disjointness
        monkeypatch.setattr(
            mod, "check_disjointness",
            lambda inst: dataclasses.replace(real(inst), passed=False),
        )
    else:
        # a family of its first generator alone: the homogeneity fields,
        # of R(i) each, are untouched, but the other Y(i) lose the term of
        # their R(i), and the superlevel set stays nonempty; the index
        # walk, over range(m), stays whole
        real = mod.bounded_tuples
        monkeypatch.setattr(
            mod, "bounded_tuples",
            lambda values, k, bound: real(values, k, bound)[
                : None if isinstance(values, range) else 1
            ],
        )
    return request.param


class TestFailedCheck:
    def test_report_is_not_passed(self, failing_check):
        rep = verify_theorem(2, {0, 1, 2}, 3)
        assert {f: getattr(rep, f) for f in CHECK_FLAGS} == {
            f: f != failing_check for f in CHECK_FLAGS
        }
        assert rep.ratio > 0
        assert rep.passed is False
        assert json.loads(rep.to_json())["passed"] is False

    def test_verify_exits_check_failed(self, failing_check, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["verify", "--n", "2", "--set", "0,1,2", "--m", "3", "--out", str(out)]
        assert main(argv) == EXIT_CHECK_FAILED == 5
        d = json.loads(out.read_text())
        assert d["passed"] is False and d[failing_check] is False
        assert capsys.readouterr().out.endswith(" passed=False\n")

    def test_sweep_exits_check_failed_and_writes_every_row(
        self, failing_check, tmp_path, capsys
    ):
        path = tmp_path / "sweep.csv"
        argv = ["sweep", "--n", "2", "--m", "2..4", "--csv", str(path)]
        assert main(argv) == EXIT_CHECK_FAILED
        with open(path) as fh:
            assert [r["m"] for r in csv.DictReader(fh)] == ["2", "3", "4"]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith(" passed=False") for line in lines)

    def test_worst_exit_code_wins(self, failing_check, capsys):
        # m=2 fails a check (5), m=3 has no progression in the set (3)
        argv = ["sweep", "--n", "2", "--set", "1,2,4,8", "--m", "2..3"]
        assert main(argv) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err.startswith("m=3: no arithmetic progression")


def golden_payloads(name, verdict):
    """The CSV rows (runtime_ms aside), `--series` lines and stdout lines
    that a run over the golden file's configurations must print, derived
    from the golden JSON alone."""
    rows, series, stdout = [], [], []
    for g in json.loads((GOLDEN / name).read_text()):
        E, S = g["measure_E"], g["superlevel"]
        rows.append({
            "n": str(g["n"]),
            "m": str(g["m"]),
            "measure_E_mantissa": str(E["mantissa"]),
            "measure_E_exp": str(E["exponent"]),
            "superlevel_mantissa": str(S["mantissa"]),
            "superlevel_exp": str(S["exponent"]),
            "ratio_decimal": g["ratio_decimal"],
            "index_count": str(g["index_count"]),
            "min_delta": g["min_delta"] or "",
        })
        series.append(f"{g['m']} {g['ratio_decimal']}")
        tail = f" passed={g['passed']}" if verdict else ""
        stdout.append(
            f"m={g['m']} S={S['mantissa']}*2^{S['exponent']} "
            f"ratio={g['ratio_decimal']}{tail}"
        )
    return rows, series, stdout


@pytest.mark.parametrize(
    "name, argv",
    [
        ("sweep_n2.json", ["sweep", "--n", "2", "--m", "2..10"]),
        ("sweep_n3.json", ["sweep", "--n", "3", "--m", "2..6"]),
        ("cube_n2.json", ["cube", "--n", "2", "--m", "1..8"]),
    ],
)
def test_cli_payloads_match_the_goldens(name, argv, tmp_path, capsys):
    sweep = argv[0] == "sweep"
    rows, series, stdout = golden_payloads(name, verdict=sweep)
    csv_path, series_path = tmp_path / "out.csv", tmp_path / "series.txt"
    argv = argv + ["--csv", str(csv_path)]
    if sweep:
        argv += ["--series", str(series_path)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == stdout
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        got = list(reader)
    assert reader.fieldnames == [*rows[0], "runtime_ms"]
    assert [{k: r[k] for k in rows[0]} for r in got] == rows
    if sweep:
        assert series_path.read_text().splitlines() == series


@pytest.mark.parametrize(
    "name, argv, done",
    [
        ("sweep_n2.json", ["sweep", "--n", "2", "--m", "2..6", "--budget", "256"],
         range(2, 6)),
        ("cube_n2.json", ["cube", "--n", "2", "--m", "3..6", "--budget", "1000"],
         range(3, 5)),
    ],
)
def test_budget_stop_keeps_the_finished_rows(name, argv, done, tmp_path, capsys):
    # the first m past the budget exits 4; the CSV and the series still
    # hold the golden rows of every m finished before it
    sweep = argv[0] == "sweep"
    rows, series, stdout = golden_payloads(name, verdict=sweep)
    keep = [int(r["m"]) in done for r in rows]
    csv_path, series_path = tmp_path / "out.csv", tmp_path / "series.txt"
    argv = argv + ["--csv", str(csv_path)]
    if sweep:
        argv += ["--series", str(series_path)]
    assert main(argv) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out.splitlines() == list(compress(stdout, keep))
    assert err.startswith("error: ") and "budget" in err
    with open(csv_path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert [{k: r[k] for k in rows[0]} for r in got] == list(compress(rows, keep))
    if sweep:
        assert series_path.read_text().splitlines() == list(compress(series, keep))


class TestCubeCommand:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "cube.csv"
        assert main(["cube", "--n", "2", "--m", "1..4", "--csv", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(float(r["ratio_decimal"]) > 0 for r in rows)


# range- and list-shaped strings with small bounds; arbitrary text is at
# most 8 characters, so no parsed set exceeds the 10^5 values of 0..99999
_num = st.one_of(
    st.integers(-50, 50).map(str),
    st.sampled_from(["", " ", "-", "+3", " 7", "1_0", "x", "1.5", "..", ","]),
)
_shaped = st.one_of(
    st.tuples(_num, _num).map("..".join),
    st.tuples(_num, _num, _num).map("..".join),
    st.lists(_num, min_size=1, max_size=4).map(",".join),
    st.tuples(_num, _num, _num).map(lambda t: f"{t[0]}..{t[1]},{t[2]}"),
)


class TestRangeParsers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "2", "--m", "5..2"],
            ["cube", "--n", "2", "--m", "3..1"],
            ["verify", "--n", "2", "--set", "3..1", "--m", "2"],
            ["sweep", "--n", "2", "--m", "2..3", "--set", "4..0"],
        ],
    )
    def test_reversed_range_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "lo > hi" in capsys.readouterr().err

    def test_single_point_ranges(self):
        assert _parse_range("4..4", "m range") == range(4, 5)
        assert _parse_int_set("-2..-2") == frozenset({-2})

    @given(st.one_of(st.text(max_size=8), _shaped))
    def test_non_empty_value_or_parameter_error(self, text):
        for parse in (_parse_int_set, lambda t: _parse_range(t, "m range")):
            try:
                value = parse(text)
            except ParameterError:
                continue
            assert len(value) > 0
            assert all(isinstance(v, int) for v in value)


# argv for every command: members and scales in -8..30, m <= 7, n <= 4,
# as lists and `lo..hi` ranges; one time in eight a value is out of its
# usual range, a list unordered, a range reversed, or the text malformed
_junk = st.sampled_from(["", "x", "1.5", "..", ",", "3..", "..3", "1,,2", "0..2,5"])
_OUTPUTS = {"verify": ("--out", "--csv"), "sweep": ("--csv", "--series"), "cube": ("--csv",)}


def _rare(draw):
    return draw(st.integers(0, 7)) == 0


def _int(draw, lo, usual, hi):
    """An int in usual..hi, or one time in eight in lo..hi."""
    return draw(st.integers(lo if _rare(draw) else usual, hi))


def _int_text(draw, lo, usual, hi):
    return draw(_junk) if _rare(draw) else str(_int(draw, lo, usual, hi))


def _ints_text(draw, lo, usual, hi):
    """Distinct ints, increasing, or a range `lo..hi`, or malformed text."""
    if _rare(draw):
        return draw(_junk)
    if draw(st.booleans()):
        v = sorted(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=6, unique=True)))
        return ",".join(map(str, draw(st.permutations(v)) if _rare(draw) else v))
    a, b = sorted(_int(draw, lo, usual, hi) for _ in range(2))
    return f"{b}..{a}" if _rare(draw) else f"{a}..{b}"


@st.composite
def cli_argv(draw):
    """argv of one `crystal`, `verify`, `sweep` or `cube` run, each value
    after `=`, so that a leading "-" is read as a value.  Every run that
    is accepted builds at most 2^20 cells: a theorem or cube grid of at
    most 2^24 cells (the drawn budget) is held as per-axis factors of at
    most 2^12 cells, and a `crystal` mask, which is built, spans at most
    20 scales or more than 30, which the default budget refuses."""
    cmd = draw(st.sampled_from(["crystal", "verify", "sweep", "cube"]))
    if cmd == "crystal":
        scales = _ints_text(draw, -8, -8, 30)
        try:
            values = [int(t) for t in scales.split(",")]
        except ValueError:
            values = [0]
        assume(not 20 < max(values) - min(values) <= 30)
        return [cmd, f"--scales={scales}"]
    budget = draw(st.sampled_from(["0", "-1", "abc"])) if _rare(draw) else str(
        draw(st.integers(1, 1 << 24)))
    argv = [cmd, f"--n={_int_text(draw, -1, 2, 4)}", f"--budget={budget}"]
    if cmd == "verify":
        argv += [f"--set={_ints_text(draw, -8, -8, 30)}", f"--m={_int_text(draw, -1, 2, 7)}"]
    else:
        argv.append(f"--m={_ints_text(draw, -1, 2 if cmd == 'sweep' else 1, 7)}")
    if cmd == "sweep" and draw(st.booleans()):
        argv.append(f"--set={_ints_text(draw, -8, -8, 30)}")
    for flag in draw(st.lists(st.sampled_from(_OUTPUTS[cmd]), unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(['r.out', './r.out', 's.out']))}")
    return argv


@given(argv=cli_argv())
@settings(max_examples=100, deadline=None)
def test_every_run_ends_in_a_documented_exit(argv):
    # returns 0, 2, 3, 4 or 5, or argparse's SystemExit 2, and nothing
    # else escapes; a run that stops with 2, 3 or 4 before it prints a
    # report leaves no new file in its (empty) working directory
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_USAGE, err.getvalue()
            code = EXIT_USAGE
        finally:
            os.chdir(home)
        files = os.listdir(tmp)
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_NO_PROGRESSION, EXIT_BUDGET, EXIT_CHECK_FAILED}
    reported = any(line.startswith(("n=", "m=")) for line in out.getvalue().splitlines())
    if code in {EXIT_USAGE, EXIT_NO_PROGRESSION, EXIT_BUDGET} and not reported:
        assert files == [], (code, err.getvalue())
