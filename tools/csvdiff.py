"""Compare the CSV outputs of two polarbin runs cell by cell.

    python3 tools/csvdiff.py DIR_A DIR_B [--atol X]

Every `*.csv` below DIR_A is paired with the file at the same relative
path below DIR_B. For each file and column the largest absolute deviation
between numeric cells is printed; a column holding text (a sweep row's
status, say) is reported as `equal` or by how many of its cells differ.
The exit code is 1 when a numeric deviation exceeds X (default 0, so any
difference counts), when a text cell differs, or when the two sides
differ in their set of CSV files, a file's header or its row count, or
hold no CSV at all; otherwise it is 0. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys


def csv_files(root: str) -> set[str]:
    """Paths of every CSV below root, relative to it."""
    found = set()
    for directory, _, names in os.walk(root):
        for name in names:
            if name.endswith(".csv"):
                found.add(os.path.relpath(os.path.join(directory, name), root))
    return found


def read_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def cell_deviation(a: str, b: str) -> float | None:
    """|a - b| for two numeric cells (0 when both are NaN), None otherwise."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if math.isnan(x) and math.isnan(y):
        return 0.0
    if x == y:  # equal infinities
        return 0.0
    return abs(x - y)


def compare_file(path_a: str, path_b: str):
    """(problem, [(column, max deviation or None, differing text cells)]).

    problem is a message when headers, row counts or row lengths differ,
    else None. The deviation is None for a column with no numeric cell.
    """
    rows_a, rows_b = read_rows(path_a), read_rows(path_b)
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return "headers differ", []
    if len(rows_a) != len(rows_b):
        return f"row counts differ: {len(rows_a) - 1} against {len(rows_b) - 1}", []
    header = rows_a[0]
    max_dev = [None] * len(header)
    text_diffs = [0] * len(header)
    for line, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        if len(row_a) != len(header) or len(row_b) != len(header):
            return f"line {line} does not have {len(header)} cells", []
        for k, (a, b) in enumerate(zip(row_a, row_b)):
            deviation = cell_deviation(a, b)
            if deviation is None:
                text_diffs[k] += a != b
            else:
                max_dev[k] = max(max_dev[k] or 0.0, deviation)
    return None, list(zip(header, max_dev, text_diffs))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="largest absolute deviation accepted (default 0)")
    args = parser.parse_args(argv)
    for directory in (args.dir_a, args.dir_b):
        if not os.path.isdir(directory):
            parser.error(f"{directory} is not a directory")
    files_a, files_b = csv_files(args.dir_a), csv_files(args.dir_b)
    if not files_a | files_b:
        print("no CSV files to compare")
        return 1
    failed = False
    for only, side in ((files_a - files_b, args.dir_a), (files_b - files_a, args.dir_b)):
        for name in sorted(only):
            print(f"{name}: only under {side}")
            failed = True
    worst = 0.0
    for name in sorted(files_a & files_b):
        problem, columns = compare_file(os.path.join(args.dir_a, name),
                                        os.path.join(args.dir_b, name))
        if problem is not None:
            print(f"{name}: {problem}")
            failed = True
            continue
        for column, deviation, text_diffs in columns:
            shown = []
            if deviation is not None:
                shown.append(f"{deviation:.3e}")
                worst = max(worst, deviation)
                failed = failed or not deviation <= args.atol
            if text_diffs:
                shown.append(f"{text_diffs} text cells differ")
                failed = True
            print(f"{name}  {column}  {', '.join(shown) or 'equal'}")
    print(f"max abs deviation {worst:.3e} (atol {args.atol:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
