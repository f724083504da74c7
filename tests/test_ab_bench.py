"""The verdicts of `scripts/ab_bench.py`'s summary on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def runs(walls):
    # setup_s and peak_rss_mb equal on both sides, so only wall_s differs
    return [{"setup_s": 0.2, "wall_s": w, "peak_rss_mb": 30.0} for w in walls]


def verdicts(base, change):
    """{metric: (gain, worse, unresolved)} as the summary prints them."""
    header, *rows = ab_bench.summary(runs(base), runs(change))
    assert header.split()[-3:] == ["gain", "worse", "unresolved"]
    return {r.split()[0]: tuple(r.split()[-3:]) for r in rows}


TIGHT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


@pytest.mark.parametrize(
    "base, change, want",
    [
        # no move: every verdict no
        (TIGHT, TIGHT, ("no", "no", "no")),
        # lower in every pair, by more than the base IQR
        (TIGHT, [w / 2 for w in TIGHT], ("yes", "no", "no")),
        # the median 40% above the base's, past the 25% bound
        (TIGHT, [w * 1.4 for w in TIGHT], ("no", "yes", "no")),
        # 20% above: inside the bound
        (TIGHT, [w * 1.2 for w in TIGHT], ("no", "no", "no")),
        # a base IQR of about half the median, wider than the bound
        ([5.0, 15.0, 6.0, 14.0, 10.0, 5.0, 15.0, 6.0, 14.0, 10.0], TIGHT,
         ("no", "no", "yes")),
        # as wide, but every change run lies below every base run
        ([20.0, 30.0, 21.0, 29.0, 25.0, 20.0, 30.0, 21.0, 29.0, 25.0], TIGHT,
         ("yes", "no", "no")),
    ],
    ids=["none", "gain", "worse", "inside_the_bound", "unresolved", "wide_but_below"],
)
def test_summary_verdicts(base, change, want, monkeypatch):
    # the cases are sized for a bound of 25% on every metric
    monkeypatch.setattr(ab_bench, "BOUNDS", dict.fromkeys(ab_bench.METRICS, 0.25))
    got = verdicts(base, change)
    assert got["wall_s"] == want
    assert got["setup_s"] == got["peak_rss_mb"] == ("no", "no", "no")


def test_bounds_come_from_the_benchmark():
    # one positive bound per end-to-end metric, read from BENCHMARK.json
    assert set(ab_bench.BOUNDS) == set(ab_bench.METRICS)
    assert all(b > 0 for b in ab_bench.BOUNDS.values())
