"""Stamped CSV tables: what write_csv writes, read_csv returns bit for bit."""

import numpy as np
import pytest

from riskdecode.pipeline import read_csv, write_csv
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


@pytest.mark.parametrize("precise", [True, False])
def test_table_round_trip(tmp_path, precise):
    table = _table()
    path = write_csv(tmp_path / "table.csv", table, seed=4, precise=precise)
    assert path.read_text().startswith("# riskdecode ")
    back = read_csv(path)
    assert list(back) == list(table)
    assert back["event_id"].dtype == np.int64
    assert back["event_id"].tobytes() == table["event_id"].tobytes()
    assert back["group"].tolist() == table["group"].tolist()
    for name in ("t", "value"):
        written = table[name]
        if not precise:
            written = np.array([float(f"{v:.6f}") for v in written])
        assert back[name].dtype == np.float64
        assert back[name].tobytes() == written.tobytes(), name
    assert np.signbit(back["value"][40])  # -0.0 keeps its sign in both modes
    # what was read writes back to the same bytes (report stages pass columns through)
    again = write_csv(tmp_path / "again.csv", back, seed=4, precise=precise)
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
