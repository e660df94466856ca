"""The row-by-row ratings parse, kept as the oracle for ``pipeline._read_ratings_file``.

``read_ratings_file`` splits every line with ``csv.reader``, parses the four
mapped cells with ``int()`` and checks each row in Python: unknown event,
clip outside the event's slots, rating outside 0..10, participant id outside
64 bits, in that order.  Each row is named by the first line it starts on.
The pipeline's parse must return the same columns, line numbers and reasons.
"""

import csv
from pathlib import Path
from typing import Mapping

import numpy as np

from riskdecode.reconstruction import (RATING_MAX, RATING_MIN, RATINGS_COLUMNS,
                                       load_alignment_table)


def read_ratings_file(path: Path, profile: Mapping[str, str] | None):
    """Accepted rows as ``RATINGS_COLUMNS`` int64 columns, their line numbers,
    and ``(line_number, reason)`` for every rejected row."""
    mapping = {c: c for c in RATINGS_COLUMNS}
    if profile:
        mapping.update(profile)
    # utf-8-sig drops the byte-order mark spreadsheet exports put before line 1
    with open(path, encoding="utf-8-sig") as fh:
        lines = [(i, ln) for i, ln in enumerate(fh, start=1) if not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path} holds no CSV content")
    reader = csv.reader([ln for _, ln in lines])
    header = next(reader)
    missing = [mapping[c] for c in RATINGS_COLUMNS if mapping[c] not in header]
    if missing:
        raise ValueError(f"{path} lacks required columns {missing} "
                         f"(line {lines[0][0]}: {lines[0][1].strip()!r})")
    index = [header.index(mapping[c]) for c in RATINGS_COLUMNS]
    alignment = load_alignment_table()
    known = set(alignment.event_ids())
    accepted, invalid = [], []
    start = reader.line_num  # a quoted cell may span lines, so a row starts where the last ended
    for cells in reader:
        line_no, start = lines[start][0], reader.line_num
        if not cells:
            continue  # blank line
        try:
            pid, eid, clip, rating = (int(cells[i]) for i in index)
            if eid not in known:
                raise ValueError(f"unknown event_id {eid}")
            if not 1 <= clip <= alignment.n_slots(eid):
                raise ValueError(f"clip_index {clip} outside event {eid}'s slots")
            if not RATING_MIN <= rating <= RATING_MAX:
                raise ValueError(f"rating must be an integer in 0..10, got {rating}")
            if not -2**63 <= pid < 2**63:
                raise ValueError(f"participant_id {pid} does not fit in 64 bits")
        except IndexError:  # the first column, in check order, that the row lacks
            lacking = next(mapping[c] for c, i in zip(RATINGS_COLUMNS, index) if i >= len(cells))
            invalid.append((line_no, f"row has {len(cells)} cells, none for column {lacking}"))
        except ValueError as exc:
            invalid.append((line_no, str(exc)))
        else:
            accepted.append((line_no, pid, eid, clip, rating))
    rows = np.array(accepted, dtype=np.int64).reshape(-1, 5)
    return dict(zip(RATINGS_COLUMNS, rows[:, 1:].T)), rows[:, 0], invalid
