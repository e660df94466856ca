"""Stamped CSV tables: what write_csv writes, read_csv returns bit for bit."""

import csv
import json
import warnings

import numpy as np
import pytest
import table_oracles as oracle

from riskdecode import pipeline
from riskdecode.pipeline import read_csv, write_csv, write_json
from riskdecode.scenarios import DT


def _table():
    rng = np.random.default_rng(5)
    n = 301
    values = rng.uniform(-10.0, 10.0, size=n)
    values[:40] = rng.normal(scale=1e-7, size=40)  # features that vary at 1e-7
    values[40:44] = (-0.0, 0.0, 1e-7, -4e-7)
    return {"event_id": np.repeat([3, 71], [150, n - 150]),
            "t": np.arange(n) * DT,
            "value": values,
            "group": np.full(n, "LC_normal")}


def _write_repr(path, table):
    """``table`` as text with every float at ``repr``, quoted by ``csv.writer``: text
    another tool may write, whose floats ``read_csv`` must read back bit for bit."""
    columns = ([repr(v) if isinstance(v, float) else str(v) for v in np.asarray(c).tolist()]
               for c in table.values())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# hand-written\n")
        writer = csv.writer(fh)
        writer.writerow(table)
        writer.writerows(zip(*columns))
    return path


@pytest.mark.parametrize("repr_text", [True, False])
def test_table_round_trip(tmp_path, repr_text):
    table = _table()
    if repr_text:
        path = _write_repr(tmp_path / "table.csv", table)
    else:
        path = write_csv(tmp_path / "table.csv", table, seed=4)
        assert path.read_text().startswith("# riskdecode ")
    back = read_csv(path)
    assert list(back) == list(table)
    assert back["event_id"].dtype == np.int64
    assert back["event_id"].tobytes() == table["event_id"].tobytes()
    assert back["group"].tolist() == table["group"].tolist()
    for name in ("t", "value"):
        written = table[name]
        if not repr_text:
            written = np.array([float(f"{v:.6f}") for v in written])
        assert back[name].dtype == np.float64
        assert back[name].tobytes() == written.tobytes(), name
    assert np.signbit(back["value"][40])  # -0.0 keeps its sign either way
    if not repr_text:  # what was read writes back to the same bytes
        again = write_csv(tmp_path / "again.csv", back, seed=4)
        assert again.read_bytes() == path.read_bytes()


def test_missing_float_is_an_empty_cell(tmp_path):
    path = write_csv(tmp_path / "gaps.csv", {"phi": [1.0, 2.0], "std_err": [0.25, np.nan]},
                     seed=0)
    assert path.read_text().splitlines()[1:] == ["phi,std_err", "1.000000,0.250000",
                                                 "2.000000,"]
    # a column with empty cells is not wholly numeric, so it reads back as strings
    assert read_csv(path)["std_err"].tolist() == ["0.250000", ""]


def test_header_only_table(tmp_path):
    path = write_csv(tmp_path / "empty.csv", dict.fromkeys(("event_id", "phi"), ()), seed=0)
    back = read_csv(path)
    assert list(back) == ["event_id", "phi"]
    assert all(column.size == 0 for column in back.values())


def test_ragged_row_is_named(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# stamp\nevent_id,t,phi\n1,0.0,0.5\n1,0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="data row 2 has 2 cells, not 3"):
        read_csv(path)


@pytest.mark.parametrize("row", [1, 3])
def test_a_cell_beyond_the_csv_field_limit_names_its_line(row, tmp_path):
    # csv.reader reads data row 1 to learn the kinds; row 3 is in the column pass's body
    lines = ["# stamp", "event_id,t,name", *(f"{i},0.{i},a" for i in range(1, 6))]
    lines[1 + row] = f"{row},0.5,{'x' * 200_000}"
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"long\.csv line {2 + row} is not readable as CSV "
                                         r"\(field larger than field limit \(131072\)\)$"):
        read_csv(path)


def test_columns_of_unequal_length_are_an_error(tmp_path):
    with pytest.raises(ValueError, match=r"short\.csv: column 'b' has 1 rows, "
                                         r"not the 3 of column 'a'"):
        write_csv(tmp_path / "short.csv", {"a": [1, 2, 3], "b": [0.5]}, 0)
    assert not (tmp_path / "short.csv").exists()


LIMIT = 2 ** 63 - 1
TABLES = {
    "int64_limits": {"n": np.array([LIMIT, -LIMIT, 0, 7]), "x": [0.5, 1.0, 2.0, 3.0]},
    "signed_zero_and_1e-7": {"event_id": [1, 1, 2, 2],
                             "value": [-0.0, 1e-7, -4e-7, 0.0]},
    "empty_cells_mid_column": {"phi": [0.5, 1.0, 2.0, 3.0],
                               "std_err": [0.25, np.nan, np.nan, 0.5]},
    "empty_cells_first": {"phi": [0.5, 1.0, 2.0], "std_err": [np.nan, 0.25, np.nan]},
    "comma_and_quote_cells": {"scenario": ["HB", "a,b", 'say "hi"', '"'],
                              "line": ["x\ny", "x\r\ny", "", "plain"],
                              "rank": [1, 2, 3, 4]},
    "one_column_empty_string": {"name": ["", "MB", ""]},
    "one_column_nan": {"std_err": [0.5, np.nan]},
    "header_only": dict.fromkeys(("event_id", "phi"), ()),
    "bools": {"kept": np.array([True, False]), "t": [0.0, 0.1]},
    "quoted_header": {"a,b": [1], 'say "x"': ["z"]},
    # cells outside the byte path's domain: each block that holds one is written by %
    "inf_cell": {"x": [0.5, np.inf, -np.inf], "n": [1, 2, 3]},
    "huge_float": {"x": [0.5, 1e300, -(2.0 ** 52 / 1e6)], "n": [1, 2, 3]},
    "float32_and_uint8": {"x": np.float32([0.1, -2.7, 1e-7, 3e5]), "n": np.uint8([0, 1, 7, 255])},
    "non_ascii_string": {"name": ["Ä b", "z"], "x": [0.5, -1.0]},
    "one_block_falls_back": {"event_id": np.arange(2500),
                             "x": np.where(np.arange(2500) == 1500, np.inf,
                                           np.linspace(-3.0, 3.0, 2500))},
}


@pytest.mark.parametrize("repr_text", [True, False])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_codec_matches_per_cell_oracle(tmp_path, name, repr_text):
    table = {k: np.asarray(v) for k, v in TABLES[name].items()}
    if repr_text:  # the table's floats at full precision read as the oracle reads them
        path = _write_repr(tmp_path / "repr.csv", table)
        oracle.assert_same_columns(read_csv(path), oracle.read_csv(path))
        return
    path = write_csv(tmp_path / "new.csv", table, seed=3)
    want = oracle.write_csv(tmp_path / "old.csv", table, seed=3)
    assert path.read_bytes() == want.read_bytes()
    back = read_csv(path)
    oracle.assert_same_columns(back, oracle.read_csv(path))
    again = write_csv(tmp_path / "again.csv", back, seed=3)
    assert again.read_bytes() == oracle.write_csv(tmp_path / "again_old.csv", back,
                                                  seed=3).read_bytes()


def _exactness_table():
    """Floats from 1e-9 to 4e9 of both signs, with the cells where a product by 1e6 rounds
    near a half-integer, and integers up to the int64 limits."""
    rng = np.random.default_rng(11)
    x = 10.0 ** rng.uniform(-9.0, np.log10(4e9), 200_000) * rng.choice([-1.0, 1.0], 200_000)
    odd = 2.0 * rng.integers(0, 2 ** 40, 4_000) + 1.0
    halves = (rng.integers(0, 4 * 10 ** 15, 4_000) + 0.5) / 1e6  # near k + 5e-7
    edge = 2.0 ** 52 / 1e6  # the magnitude guard
    special = np.concatenate([
        odd / 128.0 % 4e9, odd / 2.0 ** 20 % 4e9, [0.0, -0.0, 5e-7, -5e-7, 1.5e-6],
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 2.0 * edge, np.nan]])
    x = np.concatenate([x, special * rng.choice([-1.0, 1.0], special.size)])
    n = rng.integers(-10 ** 6, 10 ** 6, x.size)
    n[[5, 50_000, 150_000]] = LIMIT, -LIMIT - 1, 2 ** 52
    n[[7, 9]] = 2 ** 52 - 1, -(2 ** 52 - 1)
    return {"n": n, "x": x, "y": x[::-1]}


def test_write_csv_writes_every_float_as_the_per_cell_oracle(tmp_path, monkeypatch):
    table = _exactness_table()
    fallbacks = []
    block_bytes = pipeline._block_bytes
    monkeypatch.setattr(pipeline, "_block_bytes",
                        lambda block: fallbacks.append(block_bytes(block) is None)
                        or block_bytes(block))
    path = write_csv(tmp_path / "new.csv", table, seed=2)
    assert path.read_bytes() == oracle.write_csv(tmp_path / "old.csv", table, 2).read_bytes()
    # only the blocks holding an integer at 2**52 or beyond, or a float of magnitude
    # 2**52 / 1e6 or beyond, were written by the % path
    big = (np.abs(table["n"].astype(float)) >= 2.0 ** 52)
    for column in ("x", "y"):
        big |= np.abs(table[column]) * 1e6 >= 2.0 ** 52
    rows = np.arange(big.size) // pipeline._ROWS_PER_WRITE
    assert np.flatnonzero(fallbacks).tolist() == np.unique(rows[big]).tolist()
    assert 0 < sum(fallbacks) < len(fallbacks) / 10


# hand-made tables around the one-pass parse: what it accepts, and what it hands to
# the per-cell reader (quotes, a "#" row, a cell off its column's kind)
TEXTS = {
    "lf_rows": "# s\nid,x\n1,0.5\n2,1.5\n",
    "cr_rows": "# s\rid,x\r1,0.5\r2,1.5\r",
    "no_stamp": "id,x\r\n1,2\r\n",
    "no_final_line_end": "# s\r\nid,x\r\n1,2\r\n3,4",
    "padded_cells": "# s\r\nid,s\r\n 7 , a \r\n+8,b\t\r\n",
    "late_float": "# s\r\nid\r\n1\r\n2.5\r\n",
    "int64_overflow": "# s\r\nid\r\n1\r\n9223372036854775808\r\n",
    "underscores": "# s\r\nid,x\r\n1_000,2.5\r\n2,1_0.5\r\n",
    "special_floats": "# s\r\nx\r\nnan\r\n-inf\r\n1e500\r\n-nan\r\n",
    "late_empty_cell": "# s\r\nid,err\r\n1,0.5\r\n2,\r\n",
    "first_empty_cell": "# s\r\nid,err\r\n1,\r\n2,0.5\r\n",
    "comment_row": "# s\r\nid,x\r\n1,2\r\n# note\r\n3,4\r\n",
    "comment_row_of_strings": "# s\r\nname\r\na\r\n# note\r\nb\r\n",
    "quoted_number": '# s\r\nid,x\r\n"1",2\r\n3,4\r\n',
    "whitespace_cell": "# s\r\nname\r\na\r\n  \r\nb\r\n",
    "only_delimiters": "# s\r\na,b\r\n,\r\n,\r\n",
    "non_ascii": "# s\r\nname,x\r\nÄ b,1\r\nz,١\r\n",
    # later cells loadtxt reads as numbers where int() and float() raise: a letter it
    # reads as the digits 462, and the separators \x1c..\x1f, which it reads as white space
    "late_letter_digit": "# s\nid,x\n1,2.5\nǾ,3.5\n",
    "late_unit_separator": "# s\nid,x\n1,2.5\n\x1f4,3.5\n",
    "late_file_separator_int": "# s\r\nid,x\r\n1,0.5\r\n\x1c3,1.5\r\n",
    "late_file_separator_float": "# s\r\nid,x\r\n1,0.5\r\n2,\x1c3\r\n",
    "late_record_separator_int": "# s\r\nid,x\r\n1,0.5\r\n3\x1e,1.5\r\n",
    "late_record_separator_float": "# s\r\nid,x\r\n1,0.5\r\n2,3\x1e\r\n",
    "comment_row_above_header": "# s\r\n# note\r\nid\r\n1\r\n2\r\n",
    # 17-digit floats, a signed zero, a tiny normal and a subnormal: parsed bit for bit
    "repr_floats": ("# s\r\nid,x\r\n1,0.30000000000000004\r\n2,-0.0\r\n"
                    "3,1e-300\r\n4,5e-324\r\n5,2.2250738585072014e-309\r\n"
                    "6,-1.2345678901234567e-07\r\n7,1.7976931348623157e+308\r\n"),
}


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_hand_made_tables_read_as_per_cell_oracle(tmp_path, name):
    path = tmp_path / "hand.csv"
    path.write_bytes(TEXTS[name].encode("utf-8"))
    oracle.assert_same_columns(read_csv(path), oracle.read_csv(path))


@pytest.mark.parametrize("text", ["# s\r\nid,x\r\n1,2\r\n\r\n3,4\r\n",
                                  "# s\r\nid,x\r\n1,2\r\n\r\n",
                                  "# s\nid,x\n1,2\n\n",
                                  "# s\r\nid,x\r\n1,2\r\r\n",
                                  "# s\r\nid,x\r\n1,2,3\r\n",
                                  "# s\r\nid,x\r\n1,2\r\n3\r\n",
                                  "# s\nid,x\n1,2\n\r3,4\n",
                                  "# s\rid,x\r1,2\r\r3,4\r",
                                  "# s\r\n\r\nid\r\n1\r\n2\r\n"])  # a blank line above the header
def test_blank_and_ragged_rows_fail_as_per_cell_oracle(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError, match="data row") as want:
        oracle.read_csv(path)
    with pytest.raises(ValueError) as got:
        read_csv(path)
    assert str(got.value) == str(want.value)


# name: an edit of one cell.  Cells loadtxt reads otherwise than int() and float() (a
# letter it reads as digits, \x1c..\x1f), quotes, which csv.reader reads otherwise than a
# split at ",", and cells that move a column off the kind of its first row
CELL_DEFECTS = {
    "letter_digit": lambda cell: "Ǿ",
    "unit_separator": "\x1f{}".format,
    "file_separator": "\x1c{}".format,
    "record_separator": "{}\x1e".format,
    "quote": '"{}"'.format,
    "quoted_comma": '"{},1"'.format,
    "float": "{}.5".format,
    "empty": lambda cell: "",
    "underscore": "1_{}".format,
    "nan": lambda cell: "nan",
    "inf": lambda cell: "-inf",
    "overflow": lambda cell: "1e500",
}
LINE_DEFECTS = {"hash_line": "# note", "blank_line": "", "space_line": "  "}
LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


def _write_contract_table(path, seed, defects, end):
    """A stamped table of one to three of an int, a float and a string column, in a
    random order, carrying ``defects``, each in a random row; a third of the cell
    defects go to the first data row."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    columns = rng.permutation(3)[:rng.integers(1, 4)].tolist()
    cells = [(str(rng.integers(-50, 50)), f"{rng.normal():.6f}", str(rng.choice(["HB", "a b"])))
             for _ in range(n)]
    rows = [[row[c] for c in columns] for row in cells]
    for name in defects:
        if name in CELL_DEFECTS:
            row = 0 if rng.random() < 1 / 3 else int(rng.integers(1, n))
            col = int(rng.integers(len(columns)))
            rows[row][col] = CELL_DEFECTS[name](rows[row][col])
    lines = ["# s", ",".join(["id", "x", "name"][c] for c in columns)]
    lines += [",".join(row) for row in rows]
    for name in defects:
        if name in LINE_DEFECTS:  # anywhere below the stamp, above the header too
            lines.insert(int(rng.integers(1, len(lines) + 1)), LINE_DEFECTS[name])
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    path.write_bytes(text.encode("utf-8"))


def _contract_cases():
    rng = np.random.default_rng(21)
    names = [*CELL_DEFECTS, *LINE_DEFECTS]
    cases = [((), end) for end in LINE_ENDS] + [((name,), "crlf") for name in names]
    cases += [(tuple(rng.choice(names, size=rng.integers(1, 4), replace=False).tolist()),
               str(rng.choice(list(LINE_ENDS)))) for _ in range(45)]
    return [pytest.param(seed, defects, end, id="+".join((*defects, end)))
            for seed, (defects, end) in enumerate(cases)]


def _columns(read, path):
    """``read(path)`` as (name, dtype, bytes) per column, or the error it raised."""
    try:
        return [(name, column.dtype.str, column.tobytes()) for name, column in read(path).items()]
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize("seed,defects,end", _contract_cases())
def test_read_csv_reads_random_tables_as_the_oracle(seed, defects, end, tmp_path):
    path = tmp_path / "table.csv"
    _write_contract_table(path, seed, defects, LINE_ENDS[end])
    assert _columns(read_csv, path) == _columns(oracle.read_csv, path)


def test_a_loadtxt_that_reads_floats_as_ints_falls_back(tmp_path, monkeypatch):
    """numpy releases whose loadtxt read the int64 cell "2.5" as 2 warned with a
    DeprecationWarning instead of raising; the column must still read as floats."""
    path = tmp_path / "hand.csv"
    path.write_bytes(TEXTS["late_float"].encode("utf-8"))

    def loadtxt_via_float(lines, dtype, **kwargs):
        cells = [line.decode().rstrip("\r\n") for line in lines]
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.array([(int(float(cell)),) for cell in cells], dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # as outside a test run
        got = read_csv(path)
    assert got["id"].dtype == np.float64 and got["id"].tolist() == [1.0, 2.5]


def test_precise_json_arrays_keep_their_per_element_form(tmp_path):
    payload = {"w": np.array([[0.1, -0.0], [1e-7, 2.0 / 3.0]]), "mask": np.array([True, False]),
               "n": np.array([3, 4]), "x": np.float64(0.1234567891)}
    text = write_json(tmp_path / "w.json", payload, 0, precise=True).read_text()
    body = json.loads(text)
    assert body["w"] == [[0.1, -0.0], [1e-7, 2.0 / 3.0]] and "-0.0" in text
    assert body["mask"] == [1, 0] and body["n"] == [3, 4] and body["x"] == 0.1234567891
    rounded = json.loads(write_json(tmp_path / "r.json", payload, 0).read_text())
    assert rounded["w"] == [[0.1, -0.0], [0.0, 0.666667]] and rounded["x"] == 0.123457
