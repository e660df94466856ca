"""Stage orchestration and deterministic artifact persistence.

Every stage reads only named upstream files and writes UTF-8 CSV/JSON.
``STAGES`` names the files each stage writes, and ``_WRITER``, built from it,
alone knows an artifact's stage: the errors' "run the X stage first/again" and
the list in ``manifest_outputs.json`` (declared files only) come from it.  Reads
are not declared; each artifact stamps what its stage read.
Only ``read_csv`` and ``write_csv`` know the table format: a stamp line
with the tool version, the seed and the digest of every file the stage
read (JSON artifacts carry it as ``meta.inputs``), then the header and
rows.  Floats are written at 6 decimals; normalization stats and network
weights (float32 values), which later stages read back, are JSON at
``repr``.  No stage reads the feature tables: train rebuilds each matrix
from the catalog for the events and feature names in ``normstats.json``
and copies that group's entry into the network's ``weights_<group>.json``,
from which alone predict and explain rebuild it.
``_event_vector`` reads ``curves.csv`` and ``predictions.csv`` as one catalog-ordered
vector each, which train indexes, calibrate splits into per-event targets, and report
hands to ``compare_models`` with the PCAD/DRF outputs over the same events.
A missing float (NaN) is an empty cell, and cells are quoted as
``csv.writer`` quotes them.  ``read_csv`` returns columns keyed by header
name: int64 if every cell of the column parses as ``int``, else float64 if
every cell parses as ``float``, else strings.  It guesses each column's
kind from the first data row and parses the rows in one ``np.loadtxt`` pass
with those kinds, under the guards of ``_loadtxt``, which ingest shares: a
table with a quote, a blank or ``#`` line, a character beyond printable ASCII,
a line longer than the ``csv`` module's field limit, or a cell that pass
rejects or only warns on (such as an empty cell in a float column, or a
ragged row) is read cell by cell.  Re-running a stage with
unchanged inputs reproduces its outputs byte for byte; no artifact embeds
timestamps or machine state.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
import warnings
from dataclasses import asdict, dataclass, replace
from itertools import chain, combinations
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__, blas
from .calibration import (MODEL_DEFAULTS, MODEL_SERIES, CalibrationJob, calibrate,
                          check_catalog_coverage, compare_models, minmax_rescale)
from .explain import Baseline, explain_jobs, global_importance, mean_head
from .features import (DEFAULT_MANIFESTS, FeatureManifest, NormStats, build_features,
                       zscore_apply, zscore_fit)
from .mlp import MlpConfig, MlpWeights, TrainingDiverged, mlp_predict, mlp_train
from .reconstruction import (RATING_MAX, RATING_MIN, RATINGS_COLUMNS, aggregate_curves,
                             filter_ratings, load_alignment_table, reconstruct_event)
from .risk_models import PairTable
from .scenarios import DT, catalog_trajectory, enumerate_events, event_by_id
from .synthetic import DEFAULT_PARTICIPANTS, planted_truth, synthetic_ratings

log = logging.getLogger(__name__)

# One network per scenario family, except LC which trains per sub-category
# with the two normal lateral speeds pooled.
NETWORK_GROUPS = {
    "MB": ("MB",),
    "HB": ("HB",),
    "SVM": ("SVM",),
    "LC_normal": ("LC_normal_slow", "LC_normal_fast"),
    "LC_fragmented": ("LC_fragmented",),
    "LC_aborted": ("LC_aborted",),
}
_GROUP_OF = {scenario: group for group, labels in NETWORK_GROUPS.items() for scenario in labels}

_ROWS_PER_WRITE = 1024


@dataclass(frozen=True)
class DatasetIndex:
    total_ratings: int
    per_family: dict
    n_participants: int
    invalid_rows: int
    dropped_pairs: int


# ---------------------------------------------------------------------------
# deterministic file IO


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def _tags(inputs: Sequence[Path]) -> str:
    return ",".join(f"{p.name}:{_digest(p)}" for p in inputs) or "-"


def _cells(values: np.ndarray) -> list:
    """A column's cells, with the formatter chosen once from its dtype."""
    if values.dtype.kind != "f":
        return list(map(str, values.tolist()))
    cells = list(map("{:.6f}".format, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)):
        cells[i] = ""
    return cells


def _field(cell: str, lone: bool) -> str:
    """``cell`` as ``csv.writer`` writes it: quoted, inner quotes doubled, when it
    holds a comma, a quote or a line break, or when it is the only cell of its row
    and empty."""
    if (lone and not cell) or any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _column(values: np.ndarray, lone: bool) -> tuple:
    """One block of a column as a ``%`` conversion and the values it converts:
    integers and bools go to ``str``, finite floats to 6 decimals, and any
    other column (strings, floats with NaN) is formatted by ``_cells``."""
    kind = values.dtype.kind
    if kind in "iub" or (kind == "f" and not np.isnan(values).any()):
        return ("%.6f" if kind == "f" else "%s"), values.tolist()
    cells = _cells(values)
    if lone or any(ch in "".join(cells) for ch in ',"\r\n'):
        cells = [_field(cell, lone) for cell in cells]
    return "%s", cells


def write_csv(path: Path, table: Mapping[str, Sequence], seed: int,
              inputs: Sequence[Path] = ()) -> Path:
    """Stamped CSV of ``table``'s columns, floats at 6 decimals.

    Rows end in ``\\r\\n`` and cells are quoted as ``csv.writer`` quotes them;
    each block of rows is formatted by one ``%`` over a repeated row format."""
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(column) for column in table.values()]
    n_rows = len(columns[0])
    for name, column in zip(table, columns):
        if len(column) != n_rows:
            raise ValueError(f"{path}: column {name!r} has {len(column)} rows, "
                             f"not the {n_rows} of column {next(iter(table))!r}")
    lone = len(columns) == 1
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# riskdecode {__version__} seed={seed} inputs={_tags(inputs)}\n")
        fh.write(",".join(_field(str(name), lone) for name in table) + "\r\n")
        for start in range(0, n_rows, _ROWS_PER_WRITE):  # bounds the formatted cells held
            specs, blocks = zip(*(_column(c[start:start + _ROWS_PER_WRITE], lone)
                                  for c in columns))
            rows = (",".join(specs) + "\r\n") * len(blocks[0])
            fh.write(rows % tuple(chain.from_iterable(zip(*blocks))))
    return path


def _jsonify(obj, precise: bool):
    if isinstance(obj, (float, np.floating)):
        return float(obj) if precise else round(float(obj), 6)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if precise and obj.dtype.kind == "f":
            return obj.tolist()  # already the Python floats the per-element path returns
        return _jsonify(obj.tolist(), precise)
    if isinstance(obj, dict):
        return {k: _jsonify(v, precise) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, precise) for v in obj]
    return obj


def write_json(path: Path, payload: dict, seed: int, inputs: Sequence[Path] = (),
               precise: bool = False) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {"meta": {"tool": "riskdecode", "version": __version__,
                     "seed": seed, "inputs": _tags(inputs)}}
    body.update(_jsonify(payload, precise))
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _cast(column: tuple) -> np.ndarray:
    """One column as int64, else float64, else strings; one parse pass per dtype tried."""
    for parse, dtype in ((int, np.int64), (float, np.float64)):
        try:
            return np.fromiter(map(parse, column), dtype, len(column))
        except (ValueError, OverflowError):
            pass
    return np.array(column, dtype=str)


# the characters a body may hold for the column pass.  On this set loadtxt's int and float
# parsers agree with int() and float(); beyond it, they read \x1c..\x1f as white space and
# many letters as digits, where int() and float() raise.  A quote means what csv.reader
# makes of it.
_COLUMN_PASS_CHARS = bytes(c for c in range(32, 127) if chr(c) != '"') + b"\r\n"


def _has_long_line(body: bytes, limit: int) -> bool:
    """Whether a line of ``body`` holds more than ``limit`` bytes before its ``\\n``;
    a few ``rfind`` calls per ``limit`` bytes, no copy."""
    start = 0  # a line start, every line before it no longer than limit
    while len(body) - start > limit:
        end = body.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return True
        start = end + 1
    return False


def _loadtxt(body: bytes, dtype: np.dtype, usecols: Sequence[int] | None = None):
    """``body``'s rows as a structured ``dtype`` array from one ``np.loadtxt`` pass, or
    None where it may read them otherwise than ``csv.reader`` and ``int()``/``float()``:
    an empty body, a character beyond ``_COLUMN_PASS_CHARS``, a line that starts with
    ``#``, a line longer than ``csv.reader``'s field limit, a cell loadtxt rejects or
    warns on, a short row, or a blank line."""
    # csv.reader drops a "#" line; the search for any "#" is the fast one
    if (not body or body.translate(None, _COLUMN_PASS_CHARS)
            or b"#" in body and (body.startswith(b"#") or b"\n#" in body)
            or _has_long_line(body, csv.field_size_limit())):
        return None
    try:
        with warnings.catch_warnings():
            # numpy releases that read the int cell "2.5" as 2 warn that they do; int() raises
            warnings.simplefilter("error", DeprecationWarning)
            data = np.loadtxt(io.BytesIO(body), dtype=dtype, delimiter=",", comments=None,
                              usecols=usecols, ndmin=1)
    except (ValueError, DeprecationWarning):  # a cell off its column's kind, a ragged row
        return None
    # loadtxt raises on a lone \r inside a line, so lines end at \n; it skips a blank one
    return data if len(data) == body.count(b"\n") + (not body.endswith(b"\n")) else None


# a line and its end as io.StringIO(newline="") splits them: at \r\n, \r or \n
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
_LINE_END = re.compile(rb"\r\n?|\n")


def _decode(path: Path, raw: bytes) -> str:
    """``raw`` as UTF-8 text, or one ValueError that names ``path`` and the line (ended at
    ``\\r\\n``, ``\\r`` or ``\\n``) of the first byte that is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + len(_LINE_END.findall(raw, 0, exc.start))
        raise ValueError(f"{path} line {line} holds the byte {raw[exc.start]:#04x}, "
                         f"which is not UTF-8 ({exc.reason})") from None


def _not_csv(path: Path, line: int, exc: csv.Error) -> ValueError:
    """One line for a ``csv.Error``, such as a cell beyond the csv module's field limit."""
    return ValueError(f"{path} line {line} is not readable as CSV ({exc})")


def read_csv(path: Path) -> dict:
    """Columns of a stamped CSV keyed by header name, skipping the stamp line.

    One ``_loadtxt`` pass with the kinds of the first data row; a table it must not or
    cannot take (a quote, a blank or ``#`` line, a character beyond printable ASCII, a
    cell off its column's kind, a ragged row) is read cell by cell."""
    raw = Path(path).read_bytes()
    text = _decode(path, raw)
    end = number = 0  # where the last line split off ends, and its line number

    def uncommented():
        """The lines of ``io.StringIO(text, newline="")`` without the "#" lines, split
        off one at a time."""
        nonlocal end, number
        for number, line in enumerate(_LINE.finditer(text), start=1):
            end = line.end()
            if not line[0].startswith("#"):
                yield line[0]

    try:
        rows = csv.reader(uncommented())
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path} holds no header row")
        start = end
        first = next(rows, None)
        if first is not None and len(first) == len(header):
            kinds = [(f"f{i}", object if d.kind == "U" else d)  # strings parse as objects
                     for i, d in enumerate(_cast((cell,)).dtype for cell in first)]
            data = _loadtxt(raw[len(text[:start].encode()):], np.dtype(kinds))  # rows as bytes
            if data is not None:
                return {name: data[f].astype(str) if data.dtype[f] == object else data[f].copy()
                        for name, f in zip(header, data.dtype.names)}
        header, *rows = csv.reader(uncommented())
    except csv.Error as exc:
        raise _not_csv(path, number, exc) from None
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {i} has {len(row)} cells, not {len(header)}")
    columns = zip(*rows) if rows else [()] * len(header)
    return {name: _cast(column) for name, column in zip(header, columns)}


def _stack(names: Sequence[str], blocks: list) -> dict:
    """One table from blocks that each hold one array per column, in ``names`` order."""
    if not blocks:
        return dict.fromkeys(names, ())
    return {name: np.concatenate(parts) for name, parts in zip(names, zip(*blocks))}


def require(out: Path, name: str) -> Path:
    path = out / name
    if not path.exists():
        raise FileNotFoundError(
            f"{name} is missing under {out}; run the {_WRITER[name]} stage first")
    return path


def _again(path: Path) -> str:
    """The remedy for an artifact at fault: rerun the stage that writes it."""
    return f"run the {_WRITER[path.name]} stage again"


def _fault(path: Path, what: str, exc: Exception) -> ValueError:
    """One line for an artifact that does not hold ``what`` as its stage writes it."""
    fault = f"no {exc} key" if isinstance(exc, KeyError) else exc
    return ValueError(f"{path} holds no usable {what} ({fault}); {_again(path)}")


def _row(table: Mapping[str, np.ndarray], i: int) -> str:
    """Data row ``i`` (from 0) of an event table, named by its event and time."""
    t = f", t {table['t'][i]}" if "t" in table else ""
    return f"data row {i + 1} (event {table['event_id'][i]}{t})"


def _read_event_table(path: Path, numbers: Sequence[str], others: Sequence[str] = (),
                      ints: Sequence[str] = ("event_id",)) -> dict:
    """``read_csv`` of an artifact, checked to hold the columns ``ints`` with an integer
    in every cell, the columns ``numbers`` with a number in every cell, and the columns
    ``others``; a fault names the stage to rerun."""
    try:
        table = read_csv(path)
    except ValueError as exc:
        raise ValueError(f"{exc}; {_again(path)}") from None
    missing = [c for c in (*ints, *numbers, *others) if c not in table]
    if missing:
        raise ValueError(f"{path} lacks the {missing[0]} column; {_again(path)}")
    for name in ints:
        if table[name].dtype != np.int64:
            raise ValueError(f"{path} column {name} holds non-integer cells; {_again(path)}")
    for name in numbers:
        if table[name].dtype.kind not in "if":  # a cell no float, such as an empty one
            cells = table[name].tolist()
            row = next(i for i, c in enumerate(cells) if _cast((c,)).dtype.kind == "U")
            raise ValueError(f"{path} {_row(table, row)} holds {cells[row]!r} in column {name}, "
                             f"not a number; {_again(path)}")
    return table


def _event_vector(path: Path, table: Mapping[str, np.ndarray],
                  needed: Sequence[int] = ()) -> tuple:
    """The ``event_id`` and ``mean`` columns of the event table read from ``path``, checked
    as one catalog-ordered vector: at least one row; rows run event by event in rising id
    order; each event, and each of ``needed``, is a catalog event held at its frame count;
    ``np.rint(t / DT)`` is each row's frame index; every mean lies in
    ``RATING_MIN..RATING_MAX``.  A fault names the file and the row or event."""
    ids, mean = table["event_id"], table["mean"]
    if not ids.size:
        raise ValueError(f"{path} holds a header and no data rows; {_again(path)}")
    back = np.flatnonzero(ids[1:] < ids[:-1]) + 1
    if back.size:
        raise ValueError(f"{path} {_row(table, back[0])} follows a row of event "
                         f"{ids[back[0] - 1]}: rows must run event by event in rising id "
                         f"order; {_again(path)}")
    events, starts, counts = np.unique(ids, return_index=True, return_counts=True)
    held = dict(zip(events.tolist(), counts.tolist()))
    n_frames = {s.event_id: s.n_frames for s in enumerate_events()}
    for eid in sorted({*held, *needed}):
        if eid not in n_frames:
            raise ValueError(f"{path} holds rows of event {eid}, which is not a catalog event; "
                             f"{_again(path)}")
        if held.get(eid, 0) != n_frames[eid]:
            raise ValueError(f"{path} lacks event {eid} at its {n_frames[eid]} frames "
                             f"(it holds {held.get(eid, 0)} rows of it); {_again(path)}")
    frame = np.arange(ids.size) - np.repeat(starts, counts)
    late = np.flatnonzero(np.rint(table["t"] / DT) != frame)
    if late.size:
        k = frame[late[0]]
        raise ValueError(f"{path} {_row(table, late[0])} is out of time order: its event's "
                         f"frame {k} lies at t {k * DT:g}; {_again(path)}")
    off_scale = np.flatnonzero(~((mean >= RATING_MIN) & (mean <= RATING_MAX)))  # NaN too
    if off_scale.size:
        raise ValueError(f"{path} {_row(table, off_scale[0])} holds mean {mean[off_scale[0]]}, "
                         f"outside {RATING_MIN:g}..{RATING_MAX:g}; {_again(path)}")
    return ids, mean


def _read_curves(out: Path) -> tuple:
    """``curves.csv``'s path, its columns, then its ``_event_vector``."""
    path = require(out, "curves.csv")
    curves = _read_event_table(path, ("t", "mean"), ("p25", "p75"))
    return path, curves, *_event_vector(path, curves)


# ---------------------------------------------------------------------------
# catalog helpers


def _events(selector: str | None) -> list:
    """The catalog events whose family, scenario or network group is ``selector``
    (every event when it is None), in catalog order."""
    specs = enumerate_events()
    if selector is None:
        return specs
    chosen = [s for s in specs if selector in (s.family, s.scenario, _GROUP_OF[s.scenario])]
    if not chosen:
        raise ValueError(f"scenario selector {selector!r} matches no events")
    return chosen


def _group_manifest(group: str, overrides=None) -> FeatureManifest:
    family = _events(group)[0].family
    if overrides and group in overrides:
        return FeatureManifest(family, tuple(overrides[group]))
    return DEFAULT_MANIFESTS[family]


# ---------------------------------------------------------------------------
# generate


def run_generate(out: Path, seed: int = 0, scenario: str | None = None) -> Path:
    out = Path(out)
    events = []
    for spec in _events(scenario):
        events.append({
            "event_id": spec.event_id,
            "scenario": spec.scenario,
            "family": spec.family,
            "initial_distance": spec.initial_distance,
            "duration": spec.duration,
            "cruise_speed": spec.cruise_speed,
            "braking_intensity": spec.braking_intensity,
            "acc_category": spec.acc_category,
            "anchors": spec.timeline_anchors,
            "n_frames": spec.n_frames,
        })
    write_json(out / "events.json", {"events": events}, seed)
    return out / "events.json"


# ---------------------------------------------------------------------------
# synthetic ratings + ingest


def write_synthetic_ratings(out: Path, seed: int = 0,
                            n_participants: int = DEFAULT_PARTICIPANTS) -> Path:
    """Materialize the offline rehearsal ratings file."""
    ratings = synthetic_ratings(planted_truth(), n_participants=n_participants, seed=seed)
    return write_csv(Path(out) / "ratings.csv", ratings, seed)


def _rating_fault(pid: int, eid: int, clip: int, rating: int, slot_counts: Sequence[int]):
    """Why a row of parsed cells is rejected, the first failing check in order, or None."""
    n_slots = int(slot_counts[eid]) if 0 <= eid < len(slot_counts) else 0
    if not n_slots:
        return f"unknown event_id {eid}"
    if not 1 <= clip <= n_slots:
        return f"clip_index {clip} outside event {eid}'s slots"
    if not RATING_MIN <= rating <= RATING_MAX:
        return f"rating must be an integer in {RATING_MIN:g}..{RATING_MAX:g}, got {rating}"
    if not -2**63 <= pid < 2**63:
        return f"participant_id {pid} does not fit in 64 bits"
    return None


def _ratings_by_column(body: bytes, body_from: int, index: Sequence[int]):
    """``_read_ratings_file``'s result from one ``_loadtxt`` pass and array checks, or
    None for a body that pass must not or cannot take.  ``body`` holds the lines after
    line ``body_from`` and ``index`` the mapped columns' positions in them."""
    values = _loadtxt(body, np.dtype([(c, np.int64) for c in RATINGS_COLUMNS]), index)
    if values is None:
        return None
    eid, clip, rating = (values[c] for c in RATINGS_COLUMNS[1:])
    slot_counts = load_alignment_table().slot_counts
    n_slots = np.zeros_like(eid)
    known = (eid >= 0) & (eid < slot_counts.size)
    n_slots[known] = slot_counts[eid[known]]
    ok = (clip >= 1) & (clip <= n_slots) & (rating >= RATING_MIN) & (rating <= RATING_MAX)
    line_no = np.arange(body_from + 1, body_from + 1 + len(values))
    invalid = [(int(line_no[i]), _rating_fault(*values[i].tolist(), slot_counts))
               for i in np.flatnonzero(~ok).tolist()]
    return {c: values[c][ok] for c in RATINGS_COLUMNS}, line_no[ok], invalid


def _ratings_by_row(reader, line_no: list, index: Sequence[int], mapping: Mapping[str, str]):
    """``_read_ratings_file``'s result from ``csv.reader`` and ``int()`` row by row, from
    the row after the header; ``line_no[k]`` is the file line number of the reader's line k."""
    slot_counts = load_alignment_table().slot_counts.tolist()  # a list indexes faster by int
    accepted, invalid = [], []
    start = reader.line_num  # a quoted cell may span lines, so a row starts where the last ended
    for cells in reader:
        row_no, start = line_no[start], reader.line_num
        if not cells:
            continue  # blank line
        try:
            row = [int(cells[i]) for i in index]
        except IndexError:  # the first column, in check order, that the row lacks
            lacking = next(mapping[c] for c, i in zip(RATINGS_COLUMNS, index) if i >= len(cells))
            fault = f"row has {len(cells)} cells, none for column {lacking}"
        except ValueError as exc:
            fault = str(exc)
        else:
            fault = _rating_fault(*row, slot_counts)
        if fault:
            invalid.append((row_no, fault))
        else:
            accepted.append((row_no, *row))
    rows = np.array(accepted, dtype=np.int64).reshape(-1, 5)
    return dict(zip(RATINGS_COLUMNS, rows[:, 1:].T)), rows[:, 0], invalid


def _column_map(path: Path, profile: Mapping[str, str] | None) -> dict:
    """The file column of each of ``RATINGS_COLUMNS`` under ``profile``; a profile that maps
    two of them onto one file column is refused with one line that names ``path``."""
    mapping = {c: c for c in RATINGS_COLUMNS}
    mapping.update(profile or {})
    for a, b in combinations(RATINGS_COLUMNS, 2):  # one file column read as two
        if mapping[a] == mapping[b]:
            raise ValueError(f"{path}: the profile maps {a} and {b} onto one file column, "
                             f"{mapping[a]!r}")
    return mapping


def _read_ratings_file(path: Path, profile: Mapping[str, str] | None):
    """Accepted rows as ``RATINGS_COLUMNS`` int64 columns, their line numbers,
    and ``(line_number, reason)`` for every rejected row.

    ``csv.reader`` reads the header from lines split off one at a time.  One ``_loadtxt``
    pass parses the four mapped columns below it and array masks check them.  A body
    that pass must not or cannot take (a quote, a ``#`` or blank line, a character
    beyond printable ASCII, a cell loadtxt rejects or only warns on, a short row) is
    read row by row with ``csv.reader`` and ``int()``, to the same result."""
    mapping = _column_map(path, profile)
    # as utf-8-sig in text mode reads it: without the byte-order mark spreadsheet exports
    # put before line 1, and with lines that end at \r\n, \r or \n read as \n. The
    # readers below split lines at \r\n and \n alike, so only a lone \r, or a line end
    # that a quoted cell may hold, needs the text rewritten
    text = _decode(path, Path(path).read_bytes()).removeprefix("\ufeff")
    if '"' in text or text.count("\r") != text.count("\r\n"):
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    line_no = []  # the file line number of each line csv.reader reads, "#" lines skipped
    head = []  # the lines split off up to the header's last

    def uncommented(lines):
        line_no.clear()
        for number, line in enumerate(lines, start=1):
            if not line.startswith("#"):
                line_no.append(number)
                yield line

    def split_off():
        for line in _LINE.finditer(text):
            head.append(line[0])
            yield line[0]

    try:
        header = next(csv.reader(uncommented(split_off())), None)
    except csv.Error as exc:
        raise _not_csv(path, line_no[-1], exc) from None
    if header is None:
        raise ValueError(f"{path} holds no CSV content")
    missing = [mapping[c] for c in RATINGS_COLUMNS if mapping[c] not in header]
    if missing:
        raise ValueError(f"{path} lacks required columns {missing} "
                         f"(line {line_no[0]}: {head[line_no[0] - 1].strip()!r})")
    index = [header.index(mapping[c]) for c in RATINGS_COLUMNS]
    # csv.reader has read up to the header's last line, so the body starts there
    by_column = _ratings_by_column(text[sum(map(len, head)):].encode(), line_no[-1], index)
    if by_column is not None:
        return by_column
    reader = csv.reader(uncommented(io.StringIO(text)))  # splits lines as fast as any
    next(reader)  # the header, read again
    try:
        return _ratings_by_row(reader, line_no, index, mapping)
    except csv.Error as exc:
        raise _not_csv(path, line_no[-1], exc) from None


def _pair_matrices(table: Mapping[str, np.ndarray]):
    """Each event's complete (participant, event) pairs as one participants × slots matrix.

    A pair is complete if it rates clips 1..n_slots once each.  Returns
    ``{event_id: (participant ids, ratings)}`` by event, then participant, and
    ``(row, reason)`` for every row of ``table`` in an incomplete pair.
    """
    order = np.lexsort((table["clip_index"], table["participant_id"], table["event_id"]))
    pid, eid, clip, rating = (np.asarray(table[c])[order] for c in RATINGS_COLUMNS)
    starts_pair = np.ones(order.size, dtype=bool)
    starts_pair[1:] = (eid[1:] != eid[:-1]) | (pid[1:] != pid[:-1])
    pair = np.cumsum(starts_pair) - 1
    first = np.flatnonzero(starts_pair)
    slot_counts = load_alignment_table().slot_counts
    n_slots = slot_counts[eid[first]]
    width = int(n_slots.max(initial=0)) + 2  # the outer bins take clips outside 1..n_slots
    counts = np.bincount(pair * width + np.clip(clip, 0, width - 1),
                         minlength=first.size * width).reshape(first.size, width)
    slot = np.arange(width)
    faulty = (counts != ((slot >= 1) & (slot <= n_slots[:, None]))).any(axis=1)
    bounds, rejects = np.append(first, order.size), []
    for p in np.flatnonzero(faulty).tolist():
        problems = [f"clip {c} {'missing' if counts[p, c] == 0 else 'repeated'}"
                    for c in range(1, n_slots[p] + 1) if counts[p, c] != 1]
        reason = (f"participant {pid[first[p]]} event {eid[first[p]]} dropped: "
                  f"{', '.join(problems)}")
        rejects += [(row, reason) for row in order[bounds[p]:bounds[p + 1]].tolist()]

    complete = ~faulty[pair]
    matrices = {}
    for event in np.unique(eid[complete]).tolist():
        rows = complete & (eid == event)
        n = slot_counts[event]
        matrices[event] = (pid[rows][::n], rating[rows].reshape(-1, n))
    return matrices, rejects


def run_ingest(out: Path, ratings_path: Path, seed: int = 0,
               profile: Mapping[str, str] | None = None) -> DatasetIndex:
    out = Path(out)
    ratings_path = Path(ratings_path)
    if not ratings_path.exists():
        raise FileNotFoundError(f"ratings file {ratings_path} does not exist")

    accepted, lines, invalid = _read_ratings_file(ratings_path, profile)
    matrices, incomplete = _pair_matrices(accepted)
    invalid = sorted(invalid + [(int(lines[row]), reason) for row, reason in incomplete])
    for line_no, reason in invalid[:20]:
        log.warning("ratings line %d rejected: %s", line_no, reason)
    if not matrices:
        raise ValueError(f"{ratings_path} holds no valid rating rows")

    blocks = []
    for eid, (pids, ratings) in matrices.items():
        kept = filter_ratings(ratings, eid)
        n_slots = ratings.shape[1]
        blocks.append((np.repeat(pids[kept], n_slots), np.full(kept.size * n_slots, eid),
                       np.tile(np.arange(1, n_slots + 1), kept.size), ratings[kept].ravel()))
    valid = _stack(RATINGS_COLUMNS, blocks)

    total = int(valid["rating"].size)
    per_family: dict = {}
    for eid, count in zip(*np.unique(valid["event_id"], return_counts=True)):
        family = event_by_id(int(eid)).family
        per_family[family] = per_family.get(family, 0) + int(count)
    index = DatasetIndex(
        total_ratings=total,
        per_family=per_family,
        n_participants=int(np.unique(valid["participant_id"]).size),
        invalid_rows=len(invalid),
        dropped_pairs=accepted["rating"].size - len(incomplete) - total,
    )
    write_csv(out / "ratings_valid.csv", valid, seed, [ratings_path])
    write_json(out / "dataset_index.json", {
        **asdict(index),
        "invalid_detail": [{"line": n, "reason": msg} for n, msg in invalid[:50]],
    }, seed, [ratings_path])
    return index


# ---------------------------------------------------------------------------
# reconstruct


def run_reconstruct(out: Path, seed: int = 0, method: str = "pchip") -> Path:
    out = Path(out)
    ratings = require(out, "ratings_valid.csv")
    try:  # read as ingest reads a ratings file; a row ingest would drop is refused
        accepted, lines, rejected = _read_ratings_file(ratings, None)
    except ValueError as exc:
        raise ValueError(f"{exc}; {_again(ratings)}") from None
    matrices, incomplete = _pair_matrices(accepted)
    # a rejected row breaks its pair too, and is named by its own line
    faults = rejected or [(int(lines[row]), reason) for row, reason in incomplete]
    if faults:
        line, reason = min(faults)
        raise ValueError(f"{ratings} line {line}: {reason}; {_again(ratings)}")
    if not matrices:
        raise ValueError(f"{ratings} holds no rating rows; {_again(ratings)}")
    blocks = []
    for eid, (_, sequences) in matrices.items():
        agg = aggregate_curves(reconstruct_event(eid, sequences, method))
        blocks.append((np.full(agg.t.size, eid), agg.t, agg.mean, agg.p25, agg.p75, agg.std,
                       np.full(agg.t.size, agg.n_participants)))
    return write_csv(out / "curves.csv",
                     _stack(("event_id", "t", "mean", "p25", "p75", "std", "n_participants"),
                            blocks),
                     seed, [ratings])


# ---------------------------------------------------------------------------
# features


def _group_matrix(event_ids: Sequence[int], manifest: FeatureManifest):
    """Event ids, frame times and the raw matrix of ``event_ids``' catalog frames."""
    blocks = [build_features(catalog_trajectory(eid), manifest) for eid in event_ids]
    sizes = [len(b) for b in blocks]
    return (np.repeat(np.asarray(event_ids, dtype=np.int64), sizes),
            np.concatenate([np.arange(n) * DT for n in sizes]), np.vstack(blocks))


def run_features(out: Path, seed: int = 0,
                 manifests: Mapping[str, Sequence[str]] | None = None) -> dict:
    out = Path(out)
    events_json = require(out, "events.json")
    try:
        ids = [e["event_id"] for e in json.loads(events_json.read_text(encoding="utf-8"))["events"]]
        listed = set(ids)
    except (KeyError, TypeError, ValueError) as exc:
        raise _fault(events_json, "event list", exc) from None
    if not listed:
        raise ValueError(f"{events_json} lists no events; {_again(events_json)}")
    known = {s.event_id for s in enumerate_events()}
    # JSON's true and 2.0 would pass as the ids 1 and 2
    foreign = [e for e in ids if type(e) is not int or e not in known]
    if foreign:
        raise ValueError(f"{events_json} lists ids that are not catalog events: {foreign}; "
                         f"{_again(events_json)}")

    norm_meta, paths = {}, {}
    for group in NETWORK_GROUPS:
        event_ids = [s.event_id for s in _events(group) if s.event_id in listed]
        if not event_ids:
            # a matrix left by an earlier, wider run would outlive its normstats
            (out / f"features_{group}.csv").unlink(missing_ok=True)
            continue
        manifest = _group_manifest(group, manifests)
        eids, times, matrix = _group_matrix(event_ids, manifest)
        stats = zscore_fit(matrix, manifest.names)
        table = {"event_id": eids, "t": times, **dict(zip(manifest.names, matrix.T))}
        paths[group] = write_csv(out / f"features_{group}.csv", table, seed, [events_json])
        norm_meta[group] = {"event_ids": event_ids, "names": list(stats.names),
                            "mean": stats.mean, "std": stats.std}
    write_json(out / "normstats.json", {"groups": norm_meta}, seed, [events_json],
               precise=True)
    return paths


def _inputs(entry: Mapping, group: str) -> tuple:
    """The event ids, ``FeatureManifest`` and ``NormStats`` of a ``normstats.json``
    group entry, its events checked to be distinct catalog events of the group."""
    event_ids = entry["event_ids"]
    known = {s.event_id for s in _events(group)}
    foreign = [e for e in event_ids if e not in known]
    if foreign:
        raise ValueError(f"event ids {foreign} are not {group} catalog events")
    repeated = sorted({e for e in event_ids if event_ids.count(e) > 1})
    if repeated:
        raise ValueError(f"event ids {repeated} are listed more than once")
    stats = NormStats(tuple(entry["names"]), np.array(entry["mean"], dtype=float),
                      np.array(entry["std"], dtype=float))
    return event_ids, _group_manifest(group, {group: stats.names}), stats


def _load_normstats(path: Path, group: str) -> tuple:
    """``_inputs`` of ``group``'s entry in ``normstats.json`` at ``path``."""
    try:
        groups = json.loads(path.read_text(encoding="utf-8"))["groups"]
        if group in groups and "event_ids" in groups[group]:  # earlier versions wrote none
            return _inputs(groups[group], group)
    except (KeyError, TypeError, ValueError) as exc:
        raise _fault(path, f"inputs for group {group}", exc) from None
    fault = f"{path.name} under {path.parent} lists no events for group {group}"
    if group in groups:  # a features rerun over the same events.json lists them
        raise ValueError(f"{fault}; run the features stage with its events listed")
    raise ValueError(f"{fault}; train the groups it lists ({', '.join(map(str, groups))}) "
                     f"with train --scenario, or run the generate and features stages "
                     f"over the events of {group}")


def _load_features(event_ids: Sequence[int], manifest: FeatureManifest, stats: NormStats):
    """``_group_matrix`` of one network's inputs, then its matrix z-scored."""
    eids, times, matrix = _group_matrix(event_ids, manifest)
    return eids, times, matrix, zscore_apply(matrix, stats)


def _float32(values, name: str) -> np.ndarray:
    """``values`` as float32, each of them a float32 value as ``train`` writes it."""
    wide = np.array(values, dtype=float)
    with np.errstate(over="ignore"):  # a float32 overflow is inexact, and refused below
        narrow = wide.astype(np.float32)
    if not np.array_equal(narrow, wide, equal_nan=True):
        raise ValueError(f"{name} holds values that are not float32, as earlier versions "
                         f"wrote them")
    return narrow


def _network(out: Path, group: str) -> tuple:
    """One group's network from its ``weights_<group>.json`` alone: the file's path,
    the float32 weights, the feature names, then ``_load_features`` of the inputs it
    was trained on."""
    path = require(out, f"weights_{group}.json")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        weights = MlpWeights(*(_float32(payload["weights"][k], k)
                               for k in ("w1", "b1", "w2", "b2")))
        event_ids, manifest, stats = _inputs(payload["normstats"], group)
        if len(stats.names) != weights.input_dim:
            raise ValueError(f"{len(stats.names)} feature names for the "
                             f"{weights.input_dim} rows of w1")
    except (KeyError, TypeError, ValueError) as exc:
        raise _fault(path, f"inputs for group {group}", exc) from None
    return path, weights, stats.names, *_load_features(event_ids, manifest, stats)


# ---------------------------------------------------------------------------
# train / predict


@blas.one_thread()
def run_train(out: Path, seed: int = 0, scenario: str | None = None,
              epochs: int | None = None,
              learning_rate: float | None = None) -> dict:
    out = Path(out)
    curves_path, _, curve_ids, truth = _read_curves(out)
    normstats_path = require(out, "normstats.json")
    read_paths = [normstats_path, curves_path]

    chosen = {_GROUP_OF[s.scenario] for s in _events(scenario)}
    # a narrowed run leaves the other networks, which predict reads too, in place
    kept = {g: out / f"weights_{g}.json" for g in NETWORK_GROUPS if g not in chosen}
    kept = {g: path for g, path in kept.items() if path.exists()}
    stored = {}
    for g, path in kept.items():
        try:
            stored[g] = json.loads(path.read_text(encoding="utf-8"))["report"]
        except (KeyError, TypeError, ValueError) as exc:
            raise _fault(path, f"training report for group {g}", exc) from None
    summary, log_blocks = {}, []
    for group in (g for g in NETWORK_GROUPS if g in chosen):
        event_ids, manifest, stats = _load_normstats(normstats_path, group)
        eids, times, _, x = _load_features(event_ids, manifest, stats)
        lacking = [eid for eid in event_ids if eid not in curve_ids]
        if lacking:
            raise ValueError(f"{curves_path} lacks event {lacking[0]} needed by {group}; "
                             f"{_again(curves_path)}")
        # each matrix row's curve row: its event's first row, then its frame
        y = truth[np.searchsorted(curve_ids, eids) + np.rint(times / DT).astype(np.int64)]

        config = MlpConfig(input_dim=x.shape[1],
                           seed=seed + sorted(NETWORK_GROUPS).index(group))
        if epochs is not None:
            config = replace(config, epochs=epochs)
        if learning_rate is not None:
            config = replace(config, learning_rate=learning_rate)
        try:
            weights, report = mlp_train(x, y, config)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"group {group}: {exc}; lower the learning rate "
                                   f"(was {config.learning_rate})") from None
        summary[group] = {"final_train_rmse": report.final_train_rmse,
                          "final_val_rmse": report.final_val_rmse,
                          "val_nll": report.val_nll,
                          "val_nll_constant": report.val_nll_constant,
                          "input_dim": x.shape[1], "n_rows": x.shape[0]}
        n_epochs = report.train_rmse.size
        log_blocks.append((np.full(n_epochs, group), np.arange(1, n_epochs + 1),
                           report.train_rmse, report.val_rmse))
        write_json(out / f"weights_{group}.json", {
            "group": group,
            "config": asdict(config),
            "weights": {"w1": weights.w1, "b1": weights.b1,
                        "w2": weights.w2, "b2": weights.b2},
            "normstats": {"event_ids": event_ids, "names": list(stats.names),
                          "mean": stats.mean, "std": stats.std},
            "report": summary[group],
        }, seed, read_paths, precise=True)

    write_csv(out / "training_log.csv",
              _stack(("group", "epoch", "train_rmse", "val_rmse"), log_blocks),
              seed, read_paths)
    write_json(out / "train_summary.json", {"groups": {**summary, **stored}}, seed,
               read_paths + list(kept.values()))
    return summary


@blas.one_thread()
def run_predict(out: Path, seed: int = 0) -> Path:
    out = Path(out)
    blocks, input_paths = [], []
    for group in sorted(NETWORK_GROUPS):
        weights_path, weights, _, eids, times, _, x = _network(out, group)
        input_paths.append(weights_path)
        pred = mlp_predict(weights, x)
        blocks.append((np.full(eids.size, group), eids, times, pred.mean, pred.variance))
    table = _stack(("group", "event_id", "t", "mean", "variance"), blocks)
    order = np.lexsort((table["group"], table["t"], table["event_id"]))
    return write_csv(out / "predictions.csv", {k: v[order] for k, v in table.items()},
                     seed, input_paths)


# ---------------------------------------------------------------------------
# calibrate


def run_calibrate(out: Path, seed: int = 0, draws: int = 500,
                  bounds: Mapping[str, Mapping[str, tuple]] | None = None) -> dict:
    out = Path(out)
    curves_path, _, curve_ids, truth = _read_curves(out)
    events, starts = np.unique(curve_ids, return_index=True)
    targets = dict(zip(events.tolist(), np.split(truth, starts[1:])))
    try:
        check_catalog_coverage(targets)
    except ValueError as exc:
        raise _fault(curves_path, "calibration targets", exc) from None

    results = {}
    for offset, model in enumerate(MODEL_DEFAULTS):
        job = CalibrationJob(model, targets, draws=draws, seed=seed + offset,
                             bounds=(bounds or {}).get(model))
        res = calibrate(job)
        results[model] = res
        params = {k: getattr(res.best_params, k) for k in job.resolved_bounds()}
        write_json(out / f"calibration_{model.lower()}.json", {
            "model": model, "draws": draws, "seed": job.seed,
            "best_rmse": res.best_rmse, "best_draw": res.best_draw,
            "default_rmse": res.trace[0]["rmse"], "best_params": params,
        }, seed, [curves_path])
        write_csv(out / f"trace_{model.lower()}.csv",
                  {c: [row[c] for row in res.trace] for c in ("draw", *params, "rmse")},
                  seed, [curves_path])
    return results


# ---------------------------------------------------------------------------
# explain


def run_explain(out: Path, seed: int = 0, events: Sequence[int] | None = None,
                n_permutations: int = 200) -> Path:
    out = Path(out)
    chosen = set(events) if events else None
    jobs, records, input_paths = [], [], []
    for group in sorted(NETWORK_GROUPS):
        if chosen is not None and chosen.isdisjoint(s.event_id for s in _events(group)):
            continue  # the selection names none of this network's events
        weights_path, weights, names, eids, times, matrix, x = _network(out, group)
        input_paths.append(weights_path)
        targets = [e for e in np.unique(eids).tolist() if chosen is None or e in chosen]
        if chosen is None:
            targets = targets[:1]  # default: one representative event per network
        model = mean_head(weights)
        baseline = Baseline.from_training(x)
        for eid in targets:
            sel = eids == eid
            jobs.append((model, x[sel], baseline))
            records.append((group, names, eid, times[sel], matrix[sel]))

    # every network's frames under one scheduler
    results = explain_jobs(jobs, n_permutations=n_permutations, seed=seed)
    shap_blocks, by_group = [], {}  # by_group: each network's names and attributions
    for (group, names, eid, t, raw), result in zip(records, results):
        n, d = raw.shape
        err = np.full((n, d), np.nan) if result.std_errors is None else result.std_errors
        shap_blocks.append((np.full(n * d, eid), np.repeat(t, d), np.tile(names, n),
                            result.attributions.ravel(), raw.ravel(), err.ravel()))
        by_group.setdefault(group, (names, []))[1].append(result.attributions)
    globals_blocks = []
    for group, (names, collected) in by_group.items():
        ranked, scores = zip(*global_importance(np.vstack(collected), names))
        globals_blocks.append((np.full(len(ranked), group), ranked, scores,
                               np.arange(1, len(ranked) + 1)))

    shap_path = write_csv(out / "shap.csv",
                          _stack(("event_id", "t", "feature", "phi", "feature_value",
                                  "std_err"), shap_blocks),
                          seed, input_paths)
    write_csv(out / "globals.csv",
              _stack(("scenario", "feature", "mean_abs_phi", "rank"), globals_blocks),
              seed, input_paths)
    return shap_path


# ---------------------------------------------------------------------------
# report


def _model_curves(calibrations: Mapping[str, Path], event_ids: Sequence[int]) -> dict:
    """Rescaled PCAD/DRF outputs under their calibrated parameters, each one vector of the
    frames of ``event_ids`` in their order."""
    table = PairTable([catalog_trajectory(eid) for eid in event_ids])
    outputs = {}
    for model, path in calibrations.items():
        try:  # parameters whose output is not finite, or constant, are at fault too
            params = replace(MODEL_DEFAULTS[model](),
                             **json.loads(path.read_text(encoding="utf-8"))["best_params"])
            outputs[model] = minmax_rescale(MODEL_SERIES[model](table, params))
        except (KeyError, TypeError, ValueError) as exc:
            raise _fault(path, f"{model} parameters", exc) from None
    return outputs


def run_report(out: Path, seed: int = 0) -> dict:
    """The report tables and the manifest, written once every input has been read, so a
    faulty input leaves the report of an earlier run whole."""
    out = Path(out)
    curves_path, curves, truth_ids, truth = _read_curves(out)
    predictions_path = require(out, "predictions.csv")
    shap_path = require(out, "shap.csv")
    globals_path = require(out, "globals.csv")
    calibrations = {model: require(out, f"calibration_{model.lower()}.json")
                    for model in MODEL_DEFAULTS}

    events = np.unique(truth_ids).tolist()
    predictions = _read_event_table(predictions_path, ("t", "mean"))
    predicted_ids, predicted_mean = _event_vector(predictions_path, predictions, events)
    mlp = predicted_mean[np.isin(predicted_ids, events)]
    report = compare_models(events, truth, {**_model_curves(calibrations, events), "MLP": mlp})
    model_inputs = [curves_path, predictions_path, *calibrations.values()]
    global_table = _read_event_table(globals_path, (), ints=())

    shap = _read_event_table(shap_path, ("t", "phi"), ("feature",))
    frames = np.rint(shap["t"] / DT)
    # each row's event: its first row in predictions.csv and its frame count, 0 if it has none
    first = np.searchsorted(predicted_ids, shap["event_id"])
    held = np.searchsorted(predicted_ids, shap["event_id"], side="right") - first
    inside = (frames >= 0) & (frames < held)
    outside = np.flatnonzero(~inside & (held > 0))
    if outside.size:
        raise ValueError(f"{shap_path} {_row(shap, outside[0])} lies outside the event's "
                         f"predicted frames; {_again(shap_path)}")
    predicted = np.full(frames.size, np.nan)  # empty cell where no prediction exists
    predicted[inside] = predicted_mean[first[inside] + frames[inside].astype(np.int64)]

    write_csv(out / "report_curves.csv",
              {c: curves[c] for c in ("event_id", "t", "mean", "p25", "p75")},
              seed, [curves_path])
    comparison_rows = [(*key, *stats) for key, stats in sorted(report.scenario_stats.items())]
    write_csv(out / "report_comparison.csv",
              dict(zip(("scenario", "model", "median", "q1", "q3"), zip(*comparison_rows))),
              seed, model_inputs)
    histogram_blocks = [(np.full(bin_lo.size, model), bin_lo, counts)
                        for model, (bin_lo, counts) in sorted(report.histograms.items())]
    write_csv(out / "report_histogram.csv",
              _stack(("model", "bin_lo", "count"), histogram_blocks),
              seed, model_inputs)
    write_csv(out / "report_globals.csv", global_table, seed, [globals_path])
    write_csv(out / "report_heatmap.csv",
              {**{c: shap[c] for c in ("event_id", "t", "feature", "phi")},
               "predicted": predicted},
              seed, [shap_path, predictions_path])

    artifacts = sorted(name for name in _WRITER
                       if name != "manifest_outputs.json" and (out / name).is_file())
    write_json(out / "manifest_outputs.json", {
        "artifacts": [{"path": name, "sha256": _digest(out / name)} for name in artifacts],
    }, seed)
    return {"comparison": report, "artifacts": len(artifacts)}


# ---------------------------------------------------------------------------
# the stage table


def _ingest_source(out: Path, seed: int = 0, dataset: Path | None = None,
                   participants: int = DEFAULT_PARTICIPANTS,
                   profile: Mapping[str, str] | None = None) -> DatasetIndex:
    """Ingest ``dataset``, or rehearsal ratings from ``participants`` raters when it is None."""
    if dataset is None:
        _column_map(Path(out) / "ratings.csv", profile)  # before ratings.csv is rewritten
        dataset = write_synthetic_ratings(out, seed, participants)
    return run_ingest(out, dataset, seed, profile)


# The stage commands in run order: each one's function, the options it takes
# by keyword, named as ``--config`` names them, and the files it writes under
# ``--out`` (ingest writes ratings.csv only when it synthesizes the ratings).
# Every stage also takes ``seed``; an option left out keeps its default in the
# function.  Reads are not declared: every artifact stamps the files its stage
# read, and a table of them would be a second copy that nothing reads.
STAGES = {
    "generate": (run_generate, ("scenario",), ("events.json",)),
    "ingest": (_ingest_source, ("dataset", "participants", "profile"),
               ("ratings.csv", "ratings_valid.csv", "dataset_index.json")),
    "reconstruct": (run_reconstruct, ("method",), ("curves.csv",)),
    "features": (run_features, ("manifests",),
                 (*[f"features_{g}.csv" for g in NETWORK_GROUPS], "normstats.json")),
    "train": (run_train, ("scenario", "epochs", "learning_rate"),
              (*[f"weights_{g}.json" for g in NETWORK_GROUPS], "training_log.csv",
               "train_summary.json")),
    "predict": (run_predict, (), ("predictions.csv",)),
    "calibrate": (run_calibrate, ("draws", "bounds"), ("calibration_pcad.json",
                  "calibration_drf.json", "trace_pcad.csv", "trace_drf.csv")),
    "explain": (run_explain, ("events", "n_permutations"), ("shap.csv", "globals.csv")),
    "report": (run_report, (), ("report_curves.csv", "report_comparison.csv",
               "report_histogram.csv", "report_globals.csv", "report_heatmap.csv",
               "manifest_outputs.json")),
}
OPTIONS = frozenset(name for _, names, _ in STAGES.values() for name in names)
_WRITER = {name: stage for stage, (_, _, writes) in STAGES.items() for name in writes}


def run_stage(stage: str, out: Path, options: Mapping):
    """Run one stage with ``seed`` and the options of ``options`` that it takes."""
    run, names, _ = STAGES[stage]
    return run(out, **{k: options[k] for k in ("seed", *names) if k in options})


def run_all(out: Path, seed: int = 0, **options) -> dict:
    """Run every stage in order with ``options`` (see ``STAGES``); results keyed by stage.

    Rehearsal ratings are synthesized when no ``dataset`` ratings path is given.
    """
    known = OPTIONS - {"scenario"}  # a narrowed train leaves predict without networks
    unknown = sorted(set(options) - known)
    if unknown:
        raise TypeError(f"run_all takes no options {unknown}; it takes {sorted(known)}")
    return {stage: run_stage(stage, out, {**options, "seed": seed}) for stage in STAGES}
