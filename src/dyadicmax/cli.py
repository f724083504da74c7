"""Command-line front end.

Exit codes: 0 success, 2 usage error (an output file that cannot be
written included), 3 arithmetic hypothesis unsatisfiable (no
progression), 4 cell budget exceeded, 5 a verification check failed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .crystal import ScaleSet, crystal_measure, product_crystal
from .errors import BudgetExceededError, NoProgressionError, ParameterError
from .evaluator import DEFAULT_CELL_BUDGET, GridSpec, rasterize
from .verify import CSV_COLUMNS, cube_counterexample, fraction_decimal, verify_theorem

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_PROGRESSION = 3
EXIT_BUDGET = 4
EXIT_CHECK_FAILED = 5

CELL_CHUNK = 1 << 16  # mask cells per chunk of the `crystal` cell list


def _cell_budget(text: str) -> int:
    """Parse the value of --budget."""
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise argparse.ArgumentTypeError(
            f"cell budget must be a positive integer, got {text!r}"
        )
    return budget


def _parse_range(text: str, what: str) -> range:
    """`lo..hi` with both ends included, or one integer; malformed text
    and a reversed (empty) range are usage errors."""
    lo, sep, hi = text.partition("..")
    try:
        r = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError as exc:
        raise ParameterError(f"malformed {what}: {text!r}") from exc
    if not r:
        raise ParameterError(f"empty {what} (lo > hi): {text!r}")
    return r


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, in the order given."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"malformed {what}: {text!r}") from exc


def _parse_int_set(text: str) -> frozenset[int]:
    if ".." in text:
        return frozenset(_parse_range(text, "integer set"))
    return frozenset(_parse_int_list(text, "integer set"))


def _check_writable(*paths) -> None:
    """Open every given output path for append before the run, so an
    unwritable one fails at once; append truncates no existing file, and
    a file the check creates is removed again, so a run that stops before
    writing leaves none.  Two paths to one file are a usage error."""
    seen, fresh = set(), [os.path.realpath(p) for p in paths if p and not os.path.exists(p)]
    try:
        for path in filter(None, paths):
            with open(path, "a") as fh:
                st = os.fstat(fh.fileno())
            if (st.st_dev, st.st_ino) in seen:
                raise ParameterError(f"two outputs name the same file: {path}")
            seen.add((st.st_dev, st.st_ino))
    finally:
        for path in fresh:
            Path(path).unlink(missing_ok=True)


def _write_reports_csv(path: str, reports) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for rep in reports:
            w.writerow(rep.csv_row())


def _write_cell_list(values: np.ndarray) -> None:
    """Write the indices of the set cells as a Python list literal, one
    chunk of the mask at a time, so memory does not grow with the set."""
    sys.stdout.write("[")
    sep = ""
    for start in range(0, values.size, CELL_CHUNK):
        idx = np.flatnonzero(values[start : start + CELL_CHUNK]) + start
        if idx.size:
            sys.stdout.write(sep + ", ".join(map(str, idx.tolist())))
            sep = ", "
    sys.stdout.write("]\n")


def cmd_crystal(args) -> int:
    A = ScaleSet(_parse_int_list(args.scales, "scale list"))
    c = product_crystal(A)
    grid = GridSpec((A.min,), (A.max,))
    values = rasterize(c, grid).values
    mu = crystal_measure(c)
    print(f"scales: {','.join(map(str, A.scales))}")
    print(f"resolution: 2^{A.min}  extent: [0, 2^{A.max}]")
    sys.stdout.write(f"cells ({int(np.count_nonzero(values))} of {grid.ncells}): ")
    _write_cell_list(values)
    print(f"measure: {mu} = {fraction_decimal(mu.as_fraction())}")
    return EXIT_OK


def cmd_verify(args) -> int:
    A = _parse_int_set(args.set)
    _check_writable(args.out, args.csv)
    report = verify_theorem(args.n, A, args.m, budget=args.budget)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    if args.csv:
        _write_reports_csv(args.csv, [report])
    print(
        f"n={report.n} m={report.m} |E|={report.measure_E} "
        f"S={report.superlevel} ratio={fraction_decimal(report.ratio)} "
        f"indices={report.index_count} min_delta={report.min_delta} "
        f"passed={report.passed}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _run_per_m(ms, run, csv_path, series_path=None, verdict=False) -> int:
    """Run `run(m)` for each m, printing one line per report, then write
    the CSV and series of the reports made, also when a later m raises;
    a run that made no report writes no file.  An m without a
    progression is reported on stderr and skipped; the worst exit code
    wins."""
    _check_writable(csv_path, series_path)
    reports, worst = [], EXIT_OK
    try:
        for m in ms:
            try:
                rep = run(m)
            except NoProgressionError as exc:
                print(f"m={m}: {exc}", file=sys.stderr)
                worst = max(worst, EXIT_NO_PROGRESSION)
                continue
            reports.append(rep)
            tail = f" passed={rep.passed}" if verdict else ""
            print(f"m={m} S={rep.superlevel} ratio={fraction_decimal(rep.ratio)}{tail}")
            if not rep.passed:
                worst = max(worst, EXIT_CHECK_FAILED)
    finally:
        if csv_path and reports:
            _write_reports_csv(csv_path, reports)
        if series_path and reports:
            with open(series_path, "w") as fh:
                fh.writelines(f"{r.m} {fraction_decimal(r.ratio)}\n" for r in reports)
    return worst


def cmd_sweep(args) -> int:
    ms = _parse_range(args.m, "m range")
    A = _parse_int_set(args.set) if args.set else frozenset(range(0, ms.stop - 1))
    return _run_per_m(
        ms, lambda m: verify_theorem(args.n, A, m, budget=args.budget),
        args.csv, args.series, verdict=True,
    )


def cmd_cube(args) -> int:
    return _run_per_m(
        _parse_range(args.m, "m range"),
        lambda m: cube_counterexample(args.n, m, budget=args.budget),
        args.csv,
    )


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
        sp.add_argument("--budget", type=_cell_budget, default=DEFAULT_CELL_BUDGET,
                        help="cell budget for rasterization grids")
        sp.add_argument("--csv", help="write a CSV report here")

    pv = sub.add_parser("verify", help="certify one theorem instance")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--set", required=True, help="generating set, e.g. 0,1,2,3 or 0..9")
    pv.add_argument("--m", type=int, required=True, help="progression length")
    pv.add_argument("--out", help="write a JSON report here")
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
    except (ParameterError, OSError) as exc:
        # the commands open no file but their --out, --csv and --series
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
