"""The per-cell table codec, kept as the oracle for ``pipeline.read_csv``/``write_csv``.

``read_csv`` here splits every row with ``csv.reader`` and casts each column
cell by cell (``_cast``); ``write_csv`` formats every cell in Python and
writes the rows through ``csv.writer``.  The pipeline's codec must return
the same names, dtypes and bits, and write the same bytes.
"""

import csv
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from riskdecode import __version__
from riskdecode.pipeline import _tags

_ROWS_PER_WRITE = 1024


def _cells(values: np.ndarray) -> list:
    """A column's cells, with the formatter chosen once from its dtype."""
    if values.dtype.kind != "f":
        return list(map(str, values.tolist()))
    cells = list(map("{:.6f}".format, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)):
        cells[i] = ""
    return cells


def write_csv(path: Path, table: Mapping[str, Sequence], seed: int,
              inputs: Sequence[Path] = ()) -> Path:
    """Stamped CSV of ``table``'s columns, floats at 6 decimals."""
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(column) for column in table.values()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# riskdecode {__version__} seed={seed} inputs={_tags(inputs)}\n")
        writer = csv.writer(fh)
        writer.writerow(table)
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            writer.writerows(zip(*(_cells(c[start:start + _ROWS_PER_WRITE])
                                   for c in columns)))
    return path


def _cast(column: tuple) -> np.ndarray:
    """One column as int64, else float64, else strings; one parse pass per dtype tried."""
    for parse, dtype in ((int, np.int64), (float, np.float64)):
        try:
            return np.fromiter(map(parse, column), dtype, len(column))
        except (ValueError, OverflowError):
            pass
    return np.array(column, dtype=str)


def read_csv(path: Path) -> dict:
    """Columns of a stamped CSV keyed by header name, skipping the stamp line."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(ln for ln in fh if not ln.startswith("#"))
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {i} has {len(row)} cells, not {len(header)}")
    columns = zip(*rows) if rows else [()] * len(header)
    return {name: _cast(column) for name, column in zip(header, columns)}


def assert_same_columns(got: dict, want: dict) -> None:
    """Same column names in order, same dtypes and the same bytes in every column."""
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name
