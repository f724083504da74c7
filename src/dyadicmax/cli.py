"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 arithmetic hypothesis
unsatisfiable (no progression), 4 cell budget exceeded, 5 a
verification check failed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .crystal import CrystalND, ScaleSet, build_crystal
from .errors import BudgetExceededError, NoProgressionError, ParameterError
from .evaluator import DEFAULT_CELL_BUDGET, GridSpec, rasterize
from .verify import CSV_COLUMNS, cube_counterexample, fraction_decimal, verify_theorem

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_PROGRESSION = 3
EXIT_BUDGET = 4
EXIT_CHECK_FAILED = 5

BUDGET_ENV = "DYADICMAX_CELL_BUDGET"


def _cell_budget(text: str) -> int:
    """Parse a cell budget from --budget or from BUDGET_ENV; argparse runs
    this on the flag's value and on the string default alike."""
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise argparse.ArgumentTypeError(
            f"cell budget must be a positive integer, got {text!r} "
            f"(from --budget or {BUDGET_ENV})"
        )
    return budget


def _parse_int_set(text: str) -> frozenset[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return frozenset(range(int(lo), int(hi) + 1))
        return frozenset(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"malformed integer set: {text!r}") from exc


def _parse_m_range(text: str) -> range:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        v = int(text)
        return range(v, v + 1)
    except ValueError as exc:
        raise ParameterError(f"malformed m range: {text!r}") from exc


def _write_reports_csv(path: str, reports) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for rep in reports:
            w.writerow(rep.csv_row())


def _write_series(path: str, reports) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(f"{rep.m} {fraction_decimal(rep.ratio)}\n")


def cmd_crystal(args) -> int:
    A = ScaleSet.from_text(args.scales)
    c = build_crystal(A)
    grid = GridSpec((A.min,), (A.max,))
    cells = np.flatnonzero(rasterize(CrystalND((c,)), grid).values).tolist()
    mu = c.measure()
    print(f"scales: {A.to_text()}")
    print(f"resolution: 2^{A.min}  extent: [0, 2^{A.max}]")
    print(f"cells ({len(cells)} of {grid.ncells}): {cells}")
    print(f"measure: {mu} = {fraction_decimal(mu.as_fraction())}")
    return EXIT_OK


def _emit(report, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")


def cmd_verify(args) -> int:
    A = _parse_int_set(args.set)
    report = verify_theorem(args.n, A, args.m, budget=args.budget)
    _emit(report, args)
    if args.csv:
        _write_reports_csv(args.csv, [report])
    print(
        f"n={report.n} m={report.m} |E|={report.measure_E} "
        f"S={report.superlevel} ratio={fraction_decimal(report.ratio)} "
        f"indices={report.index_count} min_delta={report.min_delta} "
        f"passed={report.passed}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    ms = _parse_m_range(args.m)
    A = _parse_int_set(args.set) if args.set else frozenset(range(0, ms.stop - 1))
    reports = []
    worst = EXIT_OK
    for m in ms:
        try:
            rep = verify_theorem(args.n, A, m, budget=args.budget)
        except NoProgressionError as exc:
            print(f"m={m}: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_NO_PROGRESSION)
            continue
        reports.append(rep)
        print(
            f"m={m} S={rep.superlevel} ratio={fraction_decimal(rep.ratio)} "
            f"passed={rep.passed}"
        )
        if not rep.passed:
            worst = max(worst, EXIT_CHECK_FAILED)
    if args.csv:
        _write_reports_csv(args.csv, reports)
    if args.series:
        _write_series(args.series, reports)
    return worst


def cmd_cube(args) -> int:
    ms = _parse_m_range(args.m)
    reports = []
    worst = EXIT_OK
    for m in ms:
        rep = cube_counterexample(args.n, m, budget=args.budget)
        reports.append(rep)
        print(f"m={m} S={rep.superlevel} ratio={fraction_decimal(rep.ratio)}")
        if not rep.passed:
            worst = max(worst, EXIT_CHECK_FAILED)
    if args.csv:
        _write_reports_csv(args.csv, reports)
    if getattr(args, "out", None) and len(reports) == 1:
        _emit(reports[0], args)
    return worst


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dyadicmax",
        description="Exact workbench for dyadic rectangle maximal operators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("crystal", help="build a 1D crystal and print its cells")
    pc.add_argument("--scales", required=True, help="comma-separated increasing scales")
    pc.set_defaults(func=cmd_crystal)

    def common(sp):
        sp.add_argument("--budget", type=_cell_budget,
                        default=os.environ.get(BUDGET_ENV) or str(DEFAULT_CELL_BUDGET),
                        help="cell budget for rasterization grids")
        sp.add_argument("--out", help="write a JSON report here")
        sp.add_argument("--csv", help="write a CSV report here")

    pv = sub.add_parser("verify", help="certify one theorem instance")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--set", required=True, help="generating set, e.g. 0,1,2,3 or 0..9")
    pv.add_argument("--m", type=int, required=True, help="progression length")
    common(pv)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="run verify over a range of m")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--set", help="generating set; default 0..(m_hi - 1)")
    ps.add_argument("--m", required=True, help="m range, e.g. 2..8")
    ps.add_argument("--series", help="write 'm ratio' pairs here for plotting")
    common(ps)
    ps.set_defaults(func=cmd_sweep)

    pq = sub.add_parser("cube", help="unit-cube lower bound sweep")
    pq.add_argument("--n", type=int, required=True)
    pq.add_argument("--m", required=True, help="m or m range, e.g. 1..8")
    common(pq)
    pq.set_defaults(func=cmd_cube)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoProgressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRESSION
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
