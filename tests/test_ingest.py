"""Ingest's ratings parse: the column pass and the row loop read every file as the oracle does."""

import json
import warnings

import ingest_oracles
import numpy as np
import pytest

from riskdecode import pipeline
from riskdecode.pipeline import run_ingest, write_synthetic_ratings
from riskdecode.reconstruction import RATINGS_COLUMNS, load_alignment_table

EVENTS = (1, 28, 55, 105)  # one event of each family; 55 has six clips, the others five
PROFILE = {"participant_id": "rater", "rating": "score"}
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _row(rows, rng):
    """A random data row that is a list of cells (not a raw line)."""
    lists = [r for r in rows if isinstance(r, list)]
    return lists[rng.integers(len(lists))]


def _set(column, value):
    """Set a random row's cell of ``column`` (in ``RATINGS_COLUMNS`` order) to ``value``,
    or to ``value(row, pos, rng)``."""
    def edit(rows, pos, rng):
        row = _row(rows, rng)
        row[pos[column]] = value(row, pos, rng) if callable(value) else value
    return edit


def _decorate(fmt):
    """Rewrite a random mapped cell of plain ASCII digits as ``fmt`` of it."""
    def edit(rows, pos, rng):
        cells = [(r, p) for r in rows if isinstance(r, list) for p in pos
                 if p < len(r) and r[p].isascii() and r[p].isdigit()]
        row, p = cells[rng.integers(len(cells))]
        row[p] = fmt(row[p]) if callable(fmt) else fmt.format(row[p])
    return edit


def _append(values):
    """Append a copy of a random row with its event, clip and rating set to ``values``."""
    def edit(rows, pos, rng):
        row = list(_row(rows, rng))
        for column, value in zip((1, 2, 3), values):
            row[pos[column]] = value
        rows.append(row)
    return edit


def _append_each(column, values):
    """Append, for each of ``values``, a copy of a random row with that value in ``column``."""
    def edit(rows, pos, rng):
        for value in values:
            row = list(_row(rows, rng))
            row[pos[column]] = value
            rows.append(row)
    return edit


def _insert(line):
    def edit(rows, pos, rng):
        rows.insert(rng.integers(len(rows)), line)  # never last: a last empty line is no blank line
    return edit


def _extend(*cells):
    def edit(rows, pos, rng):
        _row(rows, rng).extend(cells)
    return edit


def _shorten(rows, pos, rng):
    del _row(rows, rng)[2:]


def _rename_raters(rows, pos, rng):
    ids = {"1": str(2**63 - 1), "2": str(-(2**63 - 1)), "3": str(-2**63)}
    for row in rows:
        row[pos[0]] = ids.get(row[pos[0]], row[pos[0]])


def _quote(rows, pos, rng):
    row = _row(rows, rng)
    p = rng.integers(len(row))
    row[p] = f'"{row[p]}\n"' if rng.random() < 0.5 else f'"{row[p]}"'


def _one_past_the_last_clip(row, pos, rng):
    return str(load_alignment_table().n_slots(int(row[pos[1]])) + 1)


# name: (whether the file must go through the row loop, edit of the data rows), applied
# in this order. The mask checks and the white space that int() and loadtxt both strip
# stay on the column pass; what csv.reader or int() reads otherwise than loadtxt does not.
ROW_DEFECTS = {
    "ids_at_64_bits": (False, _rename_raters),
    "clip_n+1": (False, _set(2, _one_past_the_last_clip)),
    "clip_0": (False, _set(2, "0")),
    "rating_11": (False, _set(3, "11")),
    "rating_-1": (False, _set(3, "-1")),
    "unknown_events": (False, _append_each(1, ("0", "106", "999", "-7", "4000000000"))),
    "clip_and_rating": (False, _append(("1", "0", "11"))),
    "event_and_clip": (False, _append(("999", "0", "11"))),
    "duplicate": (False, lambda rows, pos, rng: rows.append(list(_row(rows, rng)))),
    "missing": (False, lambda rows, pos, rng: rows.pop(rng.integers(len(rows)))),
    "plus_sign": (False, _decorate("+{}")),
    "padded": (False, _decorate(" {} ")),
    "tab_and_form_feed": (True, _decorate("\t\x0c{}")),
    "leading_zeros": (False, _decorate("00{}")),
    "long_row": (False, _extend("9", "x")),
    "rating_5.5": (True, _set(3, "5.5")),
    "underscore": (True, _decorate("{}_000")),
    "arabic_digit": (True, _decorate(lambda cell: cell.translate(ARABIC_INDIC))),
    "ids_past_64_bits": (True, _append_each(0, ("99999999999999999999", str(2**63),
                                                "-99999999999999999999"))),
    "unit_separator": (True, _decorate("\x1f{}")),
    "nul": (True, _decorate("{}\x00")),
    "non_ascii_cell": (True, _extend("ø")),
    "hash_cell": (False, _extend("note#1")),
    "short_row": (True, _shorten),
    "blank_line": (True, _insert("")),
    "whitespace_line": (True, _insert("  ")),
    "hash_line": (True, _insert("# a note")),
    "quoted_cell": (True, _quote),
}
FILE_DEFECTS = ("bom", "stamp", "crlf", "cr", "no_final_newline", "renamed", "reordered",
                "extra_columns")


def _write_messy(path, seed, defects):
    """A ratings file for five agreeing raters over ``EVENTS`` with ``defects``; returns
    the profile it needs."""
    rng = np.random.default_rng(seed)
    names = [PROFILE.get(c, c) if "renamed" in defects else c for c in RATINGS_COLUMNS]
    header = names + (["session", "note"] if "extra_columns" in defects else [])
    if "reordered" in defects:
        header = rng.permutation(header).tolist()
    pos = [header.index(n) for n in names]
    rows = []
    if "header_only" not in defects:
        table = load_alignment_table()
        for eid in EVENTS:
            base = rng.permutation(table.n_slots(eid)) + 2
            for pid in range(1, 6):
                for clip, value in enumerate(base + pid % 3 - 1, start=1):
                    row = ["s1" if n == "session" else "ok" for n in header]
                    for p, cell in zip(pos, (pid, eid, clip, value)):
                        row[p] = str(cell)
                    rows.append(row)
        row = list(_row(rows, rng))  # one reject in every file, so that line numbers show
        row[pos[3]] = "12"
        rows.insert(rng.integers(len(rows)), row)
    for name, (_, edit) in ROW_DEFECTS.items():
        if name in defects:
            edit(rows, pos, rng)
    lines = [",".join(header)] + [r if isinstance(r, str) else ",".join(r) for r in rows]
    if "stamp" in defects:
        lines[:0] = ["# riskdecode 0 seed=1 inputs=none"] * int(rng.integers(1, 3))
    text = "\n".join(lines) + ("" if "no_final_newline" in defects else "\n")
    text = text.replace("\n", "\r\n" if "crlf" in defects else "\r" if "cr" in defects else "\n")
    path.write_bytes(("\ufeff" if "bom" in defects else "").encode() + text.encode())
    return PROFILE if "renamed" in defects else None


def _ingest(path, out, profile):
    """The two ingest artifacts' bytes, or the error that stopped ingest."""
    try:
        run_ingest(out, path, seed=3, profile=profile)
    except ValueError as exc:
        return str(exc)
    return {name: (out / name).read_bytes() for name in ("ratings_valid.csv", "dataset_index.json")}


def _cases():
    names = [*ROW_DEFECTS, *FILE_DEFECTS]
    columnar = [n for n in names if not ROW_DEFECTS.get(n, (False,))[0]]
    rng = np.random.default_rng(20)
    combos = [tuple(rng.choice(pool, size=rng.integers(2, 7), replace=False).tolist())
              for pool in [names] * 30 + [columnar] * 15]
    cases = [(name,) for name in names] + combos + [("header_only",), ("header_only", "renamed")]
    return [pytest.param(seed, defects, id="+".join(defects)) for seed, defects in enumerate(cases)]


@pytest.mark.parametrize("seed,defects", _cases())
def test_both_parses_ingest_as_the_oracle(seed, defects, tmp_path, monkeypatch):
    path = tmp_path / "ratings.csv"
    profile = _write_messy(path, seed, defects)
    by_row, rows_read = pipeline._ratings_by_row, []
    monkeypatch.setattr(pipeline, "_ratings_by_row",
                        lambda *args: rows_read.append(1) or by_row(*args))
    got = _ingest(path, tmp_path / "new", profile)
    monkeypatch.setattr(pipeline, "_read_ratings_file", ingest_oracles.read_ratings_file)
    assert got == _ingest(path, tmp_path / "oracle", profile)
    falls_back = "header_only" in defects or any(ROW_DEFECTS[d][0] for d in defects
                                                 if d in ROW_DEFECTS)
    assert bool(rows_read) == falls_back
    if "header_only" in defects:
        assert got == f"{path} holds no valid rating rows"


@pytest.mark.parametrize("variant", ["as_written", "lf_and_bom", "cr"])
def test_clean_files_take_the_column_pass(variant, tmp_path, monkeypatch):
    ratings = write_synthetic_ratings(tmp_path, seed=4, n_participants=3)  # rows end at \r\n
    raw = ratings.read_bytes()
    if variant == "lf_and_bom":
        ratings.write_bytes(b"\xef\xbb\xbf" + raw.replace(b"\r\n", b"\n"))
    elif variant == "cr":
        ratings.write_bytes(raw.replace(b"\r\n", b"\r").replace(b"\n", b"\r"))
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_read_ratings_file", ingest_oracles.read_ratings_file)
        want = _ingest(ratings, tmp_path / "oracle", None)

    def row_loop(*args):
        raise AssertionError("a clean ratings file went through the row loop")

    monkeypatch.setattr(pipeline, "_ratings_by_row", row_loop)
    assert _ingest(ratings, tmp_path / "new", None) == want


@pytest.mark.parametrize("profile,pair,column", [
    ({"rating": "clip_index"}, ("clip_index", "rating"), "clip_index"),
    ({"participant_id": "rater", "event_id": "rater"}, ("participant_id", "event_id"), "rater"),
], ids=["rating_read_from_clip_index", "two_columns_renamed_alike"])
def test_a_profile_that_reads_one_file_column_twice_is_refused(profile, pair, column,
                                                               tmp_path):
    # clip indices read as ratings once ingested 6,588 "ratings" from a seed-7 file of
    # 5,958, without a word
    ratings = write_synthetic_ratings(tmp_path, seed=4, n_participants=3)
    with pytest.raises(ValueError) as caught:
        run_ingest(tmp_path / "run", ratings, profile=profile)
    assert str(caught.value) == (f"{ratings}: the profile maps {pair[0]} and {pair[1]} "
                                 f"onto one file column, {column!r}")
    assert not (tmp_path / "run").exists()
    # ingest --synthetic refuses the profile before it rewrites the ratings.csv in --out
    before = ratings.read_bytes()
    with pytest.raises(ValueError) as caught:
        pipeline.run_stage("ingest", tmp_path, {"seed": 5, "profile": profile})
    assert str(caught.value) == (f"{ratings}: the profile maps {pair[0]} and {pair[1]} "
                                 f"onto one file column, {column!r}")
    assert ratings.read_bytes() == before


def test_a_reject_after_a_multi_line_cell_names_its_own_line(tmp_path):
    lines = ['"7\n",1,1,3', "6,1,99,3", "7,1,1,11"]  # one row on lines 2-3, then lines 4, 5
    lines += [f"{pid},1,{clip},{2 + clip + pid % 3}" for pid in range(1, 6) for clip in range(1, 6)]
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("participant_id,event_id,clip_index,rating\n" + "\n".join(lines) + "\n")
    run_ingest(tmp_path, ratings)
    index = json.loads((tmp_path / "dataset_index.json").read_text())
    assert [(d["line"], d["reason"].partition(":")[0]) for d in index["invalid_detail"]] == [
        (2, "participant 7 event 1 dropped"), (4, "clip_index 99 outside event 1's slots"),
        (5, "rating must be an integer in 0..10, got 11")]


def test_a_loadtxt_that_reads_floats_as_ints_falls_back(tmp_path, monkeypatch):
    """numpy releases whose loadtxt read the int64 cell "5.5" as 5 warned with a
    DeprecationWarning instead of raising; such a file must still reach the row loop."""
    path = tmp_path / "ratings.csv"
    _write_messy(path, 0, ("rating_5.5",))
    want = _ingest(path, tmp_path / "oracle", None)  # the oracle never calls loadtxt

    def loadtxt_via_float(lines, dtype, usecols, **kwargs):
        cells = [line.decode().rstrip("\r\n").split(",") for line in lines]
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.array([tuple(int(float(row[i])) for i in usecols) for row in cells], dtype)

    monkeypatch.setattr(pipeline.np, "loadtxt", loadtxt_via_float)
    by_row, rows_read = pipeline._ratings_by_row, []
    monkeypatch.setattr(pipeline, "_ratings_by_row",
                        lambda *args: rows_read.append(1) or by_row(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # as outside a test run
        got = _ingest(path, tmp_path / "new", None)
    assert rows_read and got == want



@pytest.mark.parametrize("at,line", [(0, "#n,e,9,1,1,3"), (7, "#n,e,9,1,1,3"),
                                     (7, '"n,e",9,1,1,3,4')])
def test_a_line_loadtxt_would_misread_is_read_as_csv(at, line, tmp_path):
    """A "#" line below the header is no row, and a quoted "," splits no cell, even where
    loadtxt would find integers in the mapped columns."""
    rows = [f"n,e,{pid},1,{clip},{2 + clip + pid % 3}" for pid in range(1, 6) for clip in range(1, 6)]
    rows.insert(at, line)  # either reading leaves one incomplete pair
    path = tmp_path / "ratings.csv"
    path.write_text("note,extra,participant_id,event_id,clip_index,rating\n" + "\n".join(rows) + "\n")
    got = _ingest(path, tmp_path / "new", None)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "_read_ratings_file", ingest_oracles.read_ratings_file)
        assert got == _ingest(path, tmp_path / "oracle", None)


@pytest.mark.parametrize("quoted", [False, True], ids=["column_pass", "row_loop"])
def test_line_ends_do_not_change_what_is_read(quoted, tmp_path):
    """One ratings body with lines that end at \\n, \\r\\n, \\r or a mix of them: the
    same accepted rows, line numbers and rejects, as the oracle reads them."""
    rows = [f"{pid},1,{clip},{2 + clip + pid % 3}" for pid in range(1, 6) for clip in range(1, 6)]
    rows[7] = "2,1,3,12"  # rejected: a rating beyond 10
    if quoted:  # a rejected cell that holds a line end, on lines 5-6, takes the row loop
        rows[3] = '1,1,4,"x\n"'
    lines = "\n".join(["participant_id,event_id,clip_index,rating", *rows, ""]).split("\n")
    results = {}
    for name, ends in {"lf": ["\n"], "crlf": ["\r\n"], "cr": ["\r"],
                       "lf_and_crlf": ["\n", "\r\n"], "mixed": ["\r\n", "\r", "\n"]}.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes("".join(line + ends[i % len(ends)]
                                 for i, line in enumerate(lines[:-1])).encode())
        columns, line_no, invalid = pipeline._read_ratings_file(path, None)
        want = ingest_oracles.read_ratings_file(path, None)
        results[name] = [c.tolist() for c in (*columns.values(), line_no)], invalid
        assert results[name] == (
            [c.tolist() for c in (*want[0].values(), want[1])], want[2]), name
    assert all(result == results["lf"] for result in results.values())
    assert [line for line, _ in results["lf"][1]] == ([5, 10] if quoted else [9])


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_a_ratings_file_that_is_not_utf8_names_its_line(ending, tmp_path):
    """A Latin-1 export: one error names the file and the line of the first byte that is
    not UTF-8, counted in the file's bytes with lines ending at \\r\\n, \\r or \\n."""
    path = tmp_path / "ratings.csv"
    _write_messy(path, 0, ())
    lines = path.read_text().split("\n")
    lines[2] = "ÿ" + lines[2]  # data row 2, on line 3
    path.write_bytes(ending.join(lines).encode("latin-1"))
    assert _ingest(path, tmp_path / "new", None) == (
        f"{path} line 3 holds the byte 0xff, which is not UTF-8 (invalid start byte)")


@pytest.mark.parametrize("line,column", [(1, "note"), (4, "note"), (4, "rating")])
def test_a_cell_beyond_the_csv_field_limit_names_its_line(line, column, tmp_path):
    """A cell csv.reader refuses, in the header, in a column ingest does not read, or in
    one that overflows int64, stops ingest with one error that names its line."""
    rows = [["note", *RATINGS_COLUMNS]]
    rows += [["n", str(pid), "1", str(clip), "5"] for pid in range(1, 4) for clip in range(1, 6)]
    rows[line - 1][rows[0].index(column)] = "7" * 200_000
    path = tmp_path / "ratings.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert _ingest(path, tmp_path / "new", None) == (
        f"{path} line {line} is not readable as CSV (field larger than field limit (131072))")
