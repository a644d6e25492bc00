"""Panel containers, CSV schemas, and calendar-aware transforms."""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from panelmetrics import data, fixture, fmols, gmm, unitroot
from panelmetrics.data import (
    ModelSpec,
    PanelDataset,
    PanelWarning,
    VariableSeries,
    _drop_runs,
    contiguous_run,
    first_difference,
    lag_values,
    longest_runs,
    natural_log,
    pad_runs,
    read_panel_csv,
    regression_sample,
    write_panel_csv,
)


def make_dataset(values_by_name, entities=("A", "B"), periods=(2000, 2001, 2002)):
    ds = PanelDataset(entities=entities, periods=periods)
    for name, values in values_by_name.items():
        ds.add(
            VariableSeries(
                name=name,
                entities=entities,
                periods=periods,
                values=np.asarray(values, dtype=float),
            )
        )
    return ds


class TestCsvRoundTrip:
    @pytest.mark.parametrize("schema", ["wide", "long"])
    def test_round_trip_preserves_values_and_missing(self, tmp_path, schema):
        ds = make_dataset(
            {
                "y": [[1.0, np.nan, 3.0], [4.5, 5.5, np.nan]],
                "x": [[0.1, 0.2, 0.3], [np.nan, 0.5, 0.6]],
            }
        )
        path = tmp_path / f"panel_{schema}.csv"
        write_panel_csv(ds, path, schema=schema)
        back = read_panel_csv(path, schema=schema)
        assert back.entities == ds.entities
        assert back.periods == ds.periods
        for name in ds.variables:
            np.testing.assert_array_equal(back[name].values, ds[name].values)

    def test_missing_tokens_read_as_nan(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("entity,year,y\nA,2000,1.0\nA,2001,\nB,2000,NA\nB,2001,2.0\n")
        ds = read_panel_csv(path)
        assert np.isnan(ds["y"].values[0, 1])
        assert np.isnan(ds["y"].values[1, 0])
        assert np.isnan(ds["y"].values).sum() == 2

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("entity,year,y\nA,2000,1.0\nA,2000,2.0\n")
        with pytest.raises(ValueError, match="duplicate entity-year"):
            read_panel_csv(path)

    def test_long_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "entity,year,variable,value\nA,2000,y,1.0\nA,2000,y,2.0\n"
        )
        with pytest.raises(ValueError, match="duplicate cell"):
            read_panel_csv(path, schema="long")

    @pytest.mark.parametrize("token", ["abc", "inf", "nan"])
    def test_bad_numeric_rejected(self, tmp_path, token):
        path = tmp_path / "p.csv"
        path.write_text(f"entity,year,y\nA,2000,{token}\n")
        with pytest.raises(ValueError):
            read_panel_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_panel_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("entity,year,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_panel_csv(path)

    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown schema"):
            read_panel_csv(tmp_path / "p.csv", schema="tall")

    def test_write_fixture_reproduces_shipped_csv(self, tmp_path):
        path = tmp_path / "fixture.csv"
        fixture.write_fixture(path)
        with open(fixture.fixture_path(), "rb") as fh:
            assert path.read_bytes() == fh.read()


# (schema, file text, message); {path} stands for the file read
MALFORMED = [
    ("wide", "entity,year,y\nA,2000,1.0,5\n", "{path}: row 2 has 4 fields, expected 3"),
    ("wide", "entity,year,y\nA,2000,1.0\nB,2000\n", "{path}: row 3 has 2 fields, expected 3"),
    ("wide", "entity,year,y\nA,20x0,1.0\n", "unparseable year '20x0' at {path}:2"),
    ("wide", "entity,year,y\nA,,1.0\n", "unparseable year '' at {path}:2"),
    ("wide", "entity,year,y,x\nA,2000,1.0,abc\n",
     "unparseable numeric value 'abc' at {path}:2 column x"),
    ("wide", "entity,year,y\nA,2000,na\n", "unparseable numeric value 'na' at {path}:2 column y"),
    ("wide", "entity,year,y\nA,2000,inf\n", "non-finite numeric value 'inf' at {path}:2 column y"),
    ("wide", "entity,year,y\nA,2000,1\nA,2001,NaN\n",
     "non-finite numeric value 'NaN' at {path}:3 column y"),
    ("wide", "entity,year,y\nA,2000,1.0\nB,2000,1.0\nA, 2000,\n",
     "{path}: duplicate entity-year ('A', 2000)"),
    ("wide", "entity,yr,y\nA,2000,1.0\n", "{path}: wide header must be entity,year,<variables>"),
    ("wide", "entity,year\nA,2000\n", "{path}: wide header must be entity,year,<variables>"),
    ("wide", "entity,year,y,x,y\nA,2000,1,2,3\n", "{path}: duplicate variable columns"),
    ("wide", "entity,year,y\nA,2000,1.0\nA,2000,x\nB,2001\n",
     "{path}: duplicate entity-year ('A', 2000)"),
    ("wide", "entity,year,y\nA,2000,nan\nB,2000,1,2\n",
     "non-finite numeric value 'nan' at {path}:2 column y"),
    ("wide", "entity,year,y,x\nA,2000,1,2\nB,2000,3,x\nB,y2k,4,5\n",
     "unparseable numeric value 'x' at {path}:3 column x"),
    ("long", "entity,year,variable,value\nA,2000,y\n", "{path}: row 2 has 3 fields, expected 4"),
    ("long", "entity,year,variable,value\nA,2000.0,y,1\n",
     "unparseable year '2000.0' at {path}:2"),
    ("long", "entity,year,variable,value\nA,2000,y,1\nA,2000,x,1..2\n",
     "unparseable numeric value '1..2' at {path}:3"),
    ("long", "entity,year,variable,value\nA,2000,y,-inf\n",
     "non-finite numeric value '-inf' at {path}:2"),
    ("long", "entity,year,variable,value\nA,2000,y,1\nA,2000,x,2\nA,+2000,y,NA\n",
     "{path}: duplicate cell ('A', 2000, 'y')"),
    ("long", "entity,year,value,variable\nA,2000,1,y\n",
     "{path}: long header must be entity,year,variable,value"),
    ("long", "entity,year,y\nA,2000,1\n", "{path}: long header must be entity,year,variable,value"),
    ("long", "entity,year,variable,value\nA,2000,y,1\nA,2000,y,abc\nB,2000,y\n",
     "{path}: duplicate cell ('A', 2000, 'y')"),
    ("long", "entity,year,variable,value\nA,2000,y,abc\nA,twenty,y,1\n",
     "unparseable numeric value 'abc' at {path}:2"),
    # lines, not records: blank lines and quoted fields spanning lines count
    ("wide", "entity,year,y\n\nA,2000,abc\n", "unparseable numeric value 'abc' at {path}:3 column y"),
    ("wide", "entity,year,y\nA,2000,1\n\n\nB,2000\n", "{path}: row 5 has 2 fields, expected 3"),
    ("wide", 'entity,year,y\n"A\nB",2000,1\nC,2000,inf\n',
     "non-finite numeric value 'inf' at {path}:4 column y"),
    ("long", 'entity,year,variable,value\nA,2000,y,1\n"B\n\nC",20x0,y,1\n',
     "unparseable year '20x0' at {path}:3"),
    ("long", '\nentity,year,variable,value\nA,2000,"y\nz",1\nA,2000,y,abc\n',
     "unparseable numeric value 'abc' at {path}:5"),
]


@pytest.mark.parametrize("schema,text,message", MALFORMED)
def test_malformed_file_message(tmp_path, schema, text, message):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_panel_csv(path, schema=schema)
    assert str(err.value) == message.format(path=path)


def test_year_beyond_int64_is_unparseable(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("entity,year,y\nA,2000,1\nA,99999999999999999999,2\n")
    with pytest.raises(ValueError) as err:
        read_panel_csv(path)
    assert str(err.value) == f"unparseable year '99999999999999999999' at {path}:3"


def reference_read(path, schema):
    """Per-cell CSV reader: each token parsed on its own into a dict keyed by
    cell, then copied into the grids one cell at a time.  Returns the
    dataset's labels and grids, or the ValueError message."""
    records, end = [], 0  # (line the record starts on, fields)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            start, end = end + 1, reader.line_num
            if row:
                records.append((start, row))
    header = records[0][1]
    wide = schema == "wide"
    cells, seen, names = {}, set(), list(header[2:]) if wide else []
    for lineno, row in records[1:]:
        if len(row) != len(header):
            return f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}"
        try:
            year = int(row[1])
        except ValueError:
            return f"unparseable year {row[1]!r} at {path}:{lineno}"
        key = (row[0], year) if wide else (row[0], year, row[2])
        if key in seen:
            return f"{path}: duplicate {'entity-year' if wide else 'cell'} {key!r}"
        seen.add(key)
        columns = zip(names, row[2:]) if wide else [(row[2], row[3])]
        for name, token in columns:
            where = f"{path}:{lineno} column {name}" if wide else f"{path}:{lineno}"
            value = math.nan
            if token not in ("", "NA"):
                try:
                    value = float(token)
                except ValueError:
                    return f"unparseable numeric value {token!r} at {where}"
                if not math.isfinite(value):
                    return f"non-finite numeric value {token!r} at {where}"
            cells[(row[0], year, name)] = value
            if name not in names:
                names.append(name)
    entities = sorted({e for e, _, _ in cells})
    periods = sorted({y for _, y, _ in cells})
    grids = {name: np.full((len(entities), len(periods)), np.nan) for name in names}
    for (entity, year, name), value in cells.items():
        grids[name][entities.index(entity), periods.index(year)] = value
    return tuple(entities), tuple(periods), grids


VALUE_TOKENS = (" 1.5", "+2", "1e-3", "-0.0", "NA", "", "0.1", "7")
FAULTS = ("abc", "nan", "inf", "1,5", "20x1", "short", "duplicate")
FAULT_KINDS = ("fields", "unparseable year", "unparseable numeric", "non-finite", "duplicate")


def random_panel_rows(rng, schema):
    """Header and shuffled rows of a random gappy panel with varied tokens."""
    labels = ["A,1", 'B "q"', " C", "D", "e", "F,,", "G\nh"]
    entities = rng.choice(labels, rng.integers(1, 6), replace=False)
    years = rng.choice(np.arange(1990, 2010), rng.integers(1, 8), replace=False)
    names = list(rng.choice(["y", "x", "z w", "v"], rng.integers(1, 5), replace=False))
    rows = []
    for entity in entities:
        for year in years:
            if rows and rng.random() < 0.3:
                continue  # an absent entity-year
            tokens = [
                rng.choice(VALUE_TOKENS) if rng.random() < 0.5
                else repr(float(rng.normal() * 10.0 ** rng.integers(-3, 4)))
                for _ in names
            ]
            year_token = rng.choice([str(year), f" {year}", f"+{year}"], p=[0.8, 0.1, 0.1])
            if schema == "wide":
                rows.append([str(entity), year_token, *tokens])
            else:
                rows.extend([str(entity), year_token, n, t] for n, t in zip(names, tokens))
    header = ["entity", "year", *(names if schema == "wide" else ["variable", "value"])]
    return header, [rows[i] for i in rng.permutation(len(rows))]


def add_fault(rng, rows):
    """Copy of rows with one fault of a random kind at a random row."""
    rows = [list(r) for r in rows]
    at = int(rng.integers(len(rows)))
    fault = rng.choice(FAULTS)
    if fault == "short":
        rows[at].pop()
    elif fault == "duplicate":
        rows.insert(at + 1, list(rows[int(rng.integers(at + 1))]))
    elif fault == "20x1":
        rows[at][1] = fault
    else:
        rows[at][int(rng.integers(2, len(rows[at])))] = fault
    return rows


@pytest.mark.parametrize("schema", ["wide", "long"])
def test_reader_matches_per_cell_reference(tmp_path, schema):
    rng = np.random.default_rng(20240611)
    path = tmp_path / "p.csv"
    outcomes = set()
    for trial in range(120):
        header, rows = random_panel_rows(rng, schema)
        for _ in range(trial % 3):
            rows = add_fault(rng, rows)
        lines = [header, *rows]
        for _ in range(trial % 4):  # blank lines, so records and lines part
            lines.insert(int(rng.integers(len(lines) + 1)), [])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(lines)
        want = reference_read(path, schema)
        if isinstance(want, str):
            outcomes.add(next(k for k in FAULT_KINDS if k in want.replace(str(path), "")))
            with pytest.raises(ValueError) as err:
                read_panel_csv(path, schema=schema)
            assert str(err.value) == want
            continue
        outcomes.add("ok")
        got = read_panel_csv(path, schema=schema)
        entities, periods, grids = want
        assert got.entities == entities
        assert got.periods == periods
        assert all(type(p) is int for p in got.periods)
        assert list(got.variables) == list(grids)
        for name, grid in grids.items():
            assert got[name].values.tobytes() == grid.tobytes(), name
    assert outcomes == {"ok", *FAULT_KINDS}


@pytest.mark.parametrize("chunk", [2, 3])
@pytest.mark.parametrize("schema", ["wide", "long"])
def test_chunked_reader_matches_per_cell_reference(tmp_path, monkeypatch, schema, chunk):
    # the random panels' faults and duplicates then fall in later chunks and across them
    monkeypatch.setattr(data, "INGEST_CHUNK", chunk)
    test_reader_matches_per_cell_reference(tmp_path, schema)


class TestChunkedIngest:
    """read_panel_csv parses INGEST_CHUNK records at a time; chunk edges must not show."""

    @pytest.mark.parametrize("schema", ["wide", "long"])
    def test_chunks_read_as_one(self, tmp_path, monkeypatch, schema):
        path = tmp_path / "p.csv"
        write_panel_csv(fixture.synthetic_panel(), path, schema=schema)
        monkeypatch.setattr(data, "INGEST_CHUNK", 10**9)
        whole = read_panel_csv(path, schema=schema)
        for chunk in (2, 3):
            monkeypatch.setattr(data, "INGEST_CHUNK", chunk)
            got = read_panel_csv(path, schema=schema)
            assert (got.entities, got.periods) == (whole.entities, whole.periods)
            assert list(got.variables) == list(whole.variables)
            for name, series in whole.variables.items():
                assert got[name].values.tobytes() == series.values.tobytes(), name

    @pytest.mark.parametrize("schema,text,message", [
        ("wide", "entity,year,y\nA,2000,1\nB,2000,2\nA,2000,3\n",
         "{path}: duplicate entity-year ('A', 2000)"),
        ("long", "entity,year,variable,value\nA,2000,y,1\nA,2000,x,2\nA,2000,y,3\n",
         "{path}: duplicate cell ('A', 2000, 'y')"),
    ])
    def test_duplicate_split_across_chunks_refused(self, tmp_path, monkeypatch, schema, text,
                                                   message):
        monkeypatch.setattr(data, "INGEST_CHUNK", 2)
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_panel_csv(path, schema=schema)
        assert str(err.value) == message.format(path=path)

    # a fault on line 9, the fifth record, after a blank line, a record over lines 3-4 and
    # another blank line: in the third chunk of two records, the second of three
    PREFIX = 'entity,year,y,x\n\n"A\nB",2000,1,2\nC,2000,1,2\n\nD,2000,1,2\nE,2000,1,2\n'

    @pytest.mark.parametrize("chunk", [2, 3])
    @pytest.mark.parametrize("row,message", [
        ("F,20x0,1,2", "unparseable year '20x0' at {path}:9"),
        ("F,2000,1,abc", "unparseable numeric value 'abc' at {path}:9 column x"),
        ("F,2000,1", "{path}: row 9 has 3 fields, expected 4"),
    ])
    def test_fault_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch, chunk, row,
                                                   message):
        monkeypatch.setattr(data, "INGEST_CHUNK", chunk)
        path = tmp_path / "p.csv"
        path.write_text(self.PREFIX + row + "\nG,2000,1,2\n")
        with pytest.raises(ValueError) as err:
            read_panel_csv(path)
        assert str(err.value) == message.format(path=path)

    def test_long_variable_first_seen_in_a_later_chunk_keeps_its_place(self, tmp_path,
                                                                       monkeypatch):
        monkeypatch.setattr(data, "INGEST_CHUNK", 2)
        path = tmp_path / "p.csv"
        path.write_text("entity,year,variable,value\nB,2001,z,1\nB,2000,z,2\n"
                        "A,2000,b,3\nB,2000,z2,4\nA,2001,a,5\n")
        got = read_panel_csv(path, schema="long")
        assert list(got.variables) == ["z", "b", "z2", "a"]
        assert (got.entities, got.periods) == (("A", "B"), (2000, 2001))
        np.testing.assert_array_equal(got["a"].values, [[np.nan, 5.0], [np.nan, np.nan]])
        np.testing.assert_array_equal(got["z"].values, [[np.nan, np.nan], [2.0, 1.0]])


def test_ingest_peak_memory_is_bounded(tmp_path):
    # 600 entities x 30 years x 6 variables, 2.2 MB as written: parsed as one string
    # table the read peaked at 17.3 MiB under tracemalloc; a chunk at a time, 5.9 MiB
    bound_mib = 10.0
    rng = np.random.default_rng(31)
    entities, periods = tuple(f"E{i:03d}" for i in range(600)), tuple(range(1991, 2021))
    ds = PanelDataset(entities=entities, periods=periods)
    for j in range(6):
        values = rng.standard_normal((600, 30))
        values[rng.random(values.shape) < 0.05] = np.nan
        ds.add(VariableSeries(name=f"v{j}", entities=entities, periods=periods, values=values))
    path = tmp_path / "p.csv"
    write_panel_csv(ds, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = read_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert back["v5"].values.tobytes() == ds["v5"].values.tobytes()
    assert peak < bound_mib * 2**20, f"read_panel_csv peaked at {peak / 2**20:.1f} MiB"


class TestTransforms:
    def test_natural_log_flags_nonpositive(self):
        ds = make_dataset({"x": [[1.0, 0.0, np.e], [-2.0, 4.0, np.nan]]})
        with pytest.warns(PanelWarning, match="2 non-positive"):
            logged = natural_log(ds["x"])
        assert logged.name == "ln_x"
        assert logged.values[0, 0] == 0.0
        assert np.isnan(logged.values[0, 1])
        assert np.isnan(logged.values[1, 0])
        assert logged.values[0, 2] == pytest.approx(1.0)

    def test_lag_is_calendar_not_positional(self):
        # 2002 is absent: the 2003 lag must be missing, not the 2001 value
        ds = PanelDataset(entities=("A",), periods=(2000, 2001, 2003))
        ds.add(
            VariableSeries(
                name="x",
                entities=("A",),
                periods=(2000, 2001, 2003),
                values=np.array([[1.0, 2.0, 3.0]]),
            )
        )
        x = ds["x"]
        lagged = lag_values(x.values, x.periods, 1)
        assert np.isnan(lagged[0, 0])
        assert lagged[0, 1] == 1.0
        assert np.isnan(lagged[0, 2])
        # k=2 reaches across the missing 2002: 2003 takes the 2001 value
        lagged2 = lag_values(x.values, x.periods, 2)
        assert np.isnan(lagged2[0, :2]).all()
        assert lagged2[0, 2] == 2.0

    def test_lag_values_over_many_lags_stacks_each_lag(self):
        # one call over lags 1-4 on a gappy calendar equals a per-cell calendar lookup
        periods = (2000, 2001, 2003, 2004, 2007)
        values = np.arange(10.0).reshape(2, 5)
        stacked = data.lag_values(values, periods, np.arange(1, 5))
        assert stacked.shape == (2, 5, 4)
        for k in range(1, 5):
            want = [[values[i, periods.index(t - k)] if t - k in periods else np.nan
                     for t in periods] for i in range(2)]
            assert np.array_equal(stacked[..., k - 1], want, equal_nan=True)
            assert np.array_equal(lag_values(values, periods, k), want, equal_nan=True)
        assert stacked[0, 4, 2] == values[0, 3] and np.isnan(stacked[0, 4, 0])  # 2007 - 3, 2007 - 1

    def test_lag_zero_is_identity(self):
        # a lag-0 regressor is the grid itself, row for row
        ds = make_dataset({"y": [[1.0, 3.0, 2.0], [5.0, 4.0, 6.0]],
                           "x": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]})
        sample = regression_sample(ds, ModelSpec(label="1", dependent="y", regressors=(("x", 0),)))
        assert sample.columns == ("x",)
        assert np.array_equal(sample.X[:, 0], ds["x"].values.ravel())

    def test_first_difference_respects_gaps(self):
        ds = PanelDataset(entities=("A",), periods=(2000, 2001, 2003))
        ds.add(
            VariableSeries(
                name="x",
                entities=("A",),
                periods=(2000, 2001, 2003),
                values=np.array([[1.0, 4.0, 9.0]]),
            )
        )
        diff = first_difference(ds["x"])
        assert diff.name == "d_x"
        assert np.isnan(diff.values[0, 0])
        assert diff.values[0, 1] == 3.0
        assert np.isnan(diff.values[0, 2])


class TestModelSpec:
    def test_column_names_lead_with_lagged_dependent(self):
        spec = ModelSpec(
            label="1",
            dependent="y",
            regressors=(("x", 1), ("z", 0)),
            lagged_dependent=True,
        )
        assert spec.column_names() == ("y_lag1", "x_lag1", "z")

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ModelSpec(label="1", dependent="y", regressors=(("x", -1),))


class TestRegressionSample:
    def test_listwise_alignment(self):
        ds = make_dataset(
            {
                "y": [[1.0, 2.0, 3.0], [4.0, np.nan, 6.0]],
                "x": [[0.5, 1.5, np.nan], [2.5, 3.5, 4.5]],
            }
        )
        spec = ModelSpec(label="1", dependent="y", regressors=(("x", 1),))
        sample = regression_sample(ds, spec)
        # usable rows need y(t) and x(t-1): A 2001 and 2002, B 2002 only
        # (B's missing y at 2001 kills that row, not the 2002 one)
        assert sample.n_obs == 3
        assert sample.entities == ("A", "B")
        np.testing.assert_array_equal(sample.periods, [2001, 2002, 2002])
        np.testing.assert_allclose(sample.y, [2.0, 3.0, 6.0])
        np.testing.assert_allclose(sample.X[:, 0], [0.5, 1.5, 3.5])

    def test_balanced_panel_row_count(self):
        # 74 entities x 9 years, lagged dependent and lag-1 regressor: the
        # first year feeds lags only, leaving 74 x 8 = 592 usable rows
        rng = np.random.default_rng(7)
        entities = tuple(f"C{i:02d}" for i in range(74))
        periods = tuple(range(2013, 2022))
        ds = PanelDataset(entities=entities, periods=periods)
        for name in ("y", "x"):
            ds.add(
                VariableSeries(
                    name=name,
                    entities=entities,
                    periods=periods,
                    values=rng.standard_normal((74, 9)),
                )
            )
        spec = ModelSpec(
            label="1", dependent="y", regressors=(("x", 1),), lagged_dependent=True
        )
        sample = regression_sample(ds, spec)
        assert sample.n_obs == 74 * 8
        assert sample.periods_included == 8
        assert sample.n_entities == 74

    def test_empty_entities_dropped(self):
        ds = make_dataset(
            {
                "y": [[1.0, 2.0, 3.0], [np.nan, np.nan, np.nan]],
                "x": [[0.5, 1.5, 2.5], [1.0, 2.0, 3.0]],
            }
        )
        spec = ModelSpec(label="1", dependent="y", regressors=(("x", 0),))
        sample = regression_sample(ds, spec)
        assert sample.entities == ("A",)

    def test_missing_variable_raises_keyerror(self):
        ds = make_dataset({"y": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]})
        spec = ModelSpec(label="1", dependent="y", regressors=(("ghost", 0),))
        with pytest.raises(KeyError, match="ghost"):
            regression_sample(ds, spec)

    def test_no_usable_rows_raises(self):
        ds = make_dataset(
            {
                "y": [[np.nan, np.nan, np.nan], [np.nan, np.nan, np.nan]],
                "x": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
            }
        )
        spec = ModelSpec(label="1", dependent="y", regressors=(("x", 0),))
        with pytest.raises(ValueError, match="no usable observations"):
            regression_sample(ds, spec)


def longest_finite_run(values, periods):
    """One entity's longest unbroken stretch of finite values."""
    rows = np.flatnonzero(np.isfinite(values))
    ids = np.zeros(rows.size, dtype=int)
    starts, lengths = contiguous_run(ids, np.asarray(periods)[rows])
    (s,), (n,), _ = longest_runs(("A",), ids, starts, lengths, values[rows])
    return values[rows][s : s + n]


def kept_longest_runs(labels, entity_ids, starts, lengths, values, min_len, what, reasons):
    """longest_runs, then _drop_runs: (keep, starts, lengths)."""
    starts, lengths, constant = longest_runs(labels, entity_ids, starts, lengths, values)
    return _drop_runs(labels, lengths, constant, min_len, what, reasons), starts, lengths


def runs_reference(labels, entity_ids, years, values, min_len, what, reasons):
    """Entity by entity: the longest calendar run (earliest on ties), dropped when
    shorter than min_len, else when any column of values is constant over it (a run
    of length 0 counts as constant).  Returns (keep, starts, lengths, warning texts)."""
    starts, lengths, short, constant = [], [], [], []
    for e in range(len(labels)):
        best = (0, 0)
        rows = np.flatnonzero(entity_ids == e).tolist()
        for i, row in enumerate(rows):
            if i == 0 or years[row] != years[rows[i - 1]] + 1:
                start = row
            if row - start + 1 > best[1]:
                best = (start, row - start + 1)
        run = values[best[0] : best[0] + best[1]]
        starts.append(best[0])
        lengths.append(best[1])
        short.append(best[1] < min_len)
        constant.append(not short[-1] and (best[1] == 0 or bool(np.all(run == run[0], axis=0).any())))
    texts = []
    for drop, why in zip((short, constant), reasons):
        names = [str(label) for label, d in zip(labels, drop) if d]
        if names:
            texts.append(f"{what}: dropped {len(names)} entity(ies) {why}: "
                         + ", ".join(names[:8]) + ("..." if len(names) > 8 else ""))
    keep = ~np.array(short, dtype=bool) & ~np.array(constant, dtype=bool)
    return keep, np.array(starts), np.array(lengths), texts


class TestContiguousRun:
    def test_runs_break_at_entity_and_year_gaps(self):
        # entity 1 starts the year after entity 0 ends; entity 3 has no rows
        ids = np.array([0, 0, 0, 0, 1, 1, 2])
        years = np.array([2000, 2001, 2003, 2004, 2005, 2006, 2001])
        starts, lengths = contiguous_run(ids, years)
        np.testing.assert_array_equal(starts, [0, 2, 4, 6])
        np.testing.assert_array_equal(lengths, [2, 2, 2, 1])
        with pytest.warns(PanelWarning) as caught:
            keep, best, length = kept_longest_runs(tuple("ABCD"), ids, starts, lengths, years, 2, "t", ("short", "flat"))
        np.testing.assert_array_equal(keep, [True, True, False, False])
        np.testing.assert_array_equal(best, [0, 4, 6, 0])
        np.testing.assert_array_equal(length, [2, 2, 1, 0])
        assert [str(w.message) for w in caught] == ["t: dropped 2 entity(ies) short: C, D"]

    def test_picks_longest_consecutive_stretch(self):
        periods = (2000, 2001, 2002, 2004, 2005, 2006, 2007)
        values = np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0, 7.0])
        run = longest_finite_run(values, periods)
        np.testing.assert_allclose(run, [4.0, 5.0, 6.0, 7.0])

    @pytest.mark.parametrize("columns", [None, 2])
    def test_pad_runs_round_trip(self, columns):
        starts = np.array([0, 3, 5, 9, 12])
        lengths = np.array([3, 2, 4, 3, 2])
        shape = (14,) if columns is None else (14, columns)
        values = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)  # no zero among them
        blocks, inside = pad_runs(values, starts, lengths)
        assert blocks.shape == (5, 4) + shape[1:] and inside.shape == (5, 4)
        np.testing.assert_array_equal(inside.sum(axis=1), lengths)
        assert not blocks[~inside].any() and blocks[inside].all()
        rows = np.concatenate([np.arange(a, a + n) for a, n in zip(starts, lengths)])
        np.testing.assert_array_equal(blocks[inside], values[rows])

    @pytest.mark.parametrize("columns", [None, 2])
    @pytest.mark.parametrize("starts, lengths, view", [
        ([2, 5, 8, 11], [3, 3, 3, 3], True),  # one length, end to end
        ([2, 5, 9, 12], [3, 3, 3, 3], False),  # one length, a gap before the third run
        ([2, 5, 8, 11], [3, 3, 2, 3], False),  # ragged
    ], ids=["end_to_end", "gap", "ragged"])
    def test_pad_runs_views_only_what_needs_no_padding(self, columns, starts, lengths, view):
        starts, lengths = np.array(starts), np.array(lengths)
        shape = (15,) if columns is None else (15, columns)
        values = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        blocks, inside = pad_runs(values, starts, lengths)
        assert np.shares_memory(blocks, values) == view
        assert blocks.shape == (4, 3) + shape[1:] and not blocks[~inside].any()
        rows = np.concatenate([np.arange(a, a + n) for a, n in zip(starts, lengths)])
        np.testing.assert_array_equal(blocks[inside], values[rows])

    def test_constant_runs_per_column(self):
        # A: column 0 constant; B: column 1, equal to A's last row across the
        # entity break; C: neither; D: both; E: no rows; F: column 0 over its
        # longest run only, after a gap
        ids = np.array([0, 0, 1, 1, 2, 2, 3, 3, 5, 5, 5, 5, 5])
        years = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 3, 4, 5])
        values = np.array([[1, 5], [1, 6], [2, 6], [3, 6], [3, 7], [4, 8], [4, 8], [4, 8],
                           [7, 1], [8, 2], [9, 3], [9, 4], [9, 5]], dtype=float)
        starts, lengths = contiguous_run(ids, years)
        for column, want in ((np.s_[:], [0, 0, 1, 0, 0, 0]), (0, [0, 1, 1, 0, 0, 0]), (1, [1, 0, 1, 0, 0, 1])):
            with pytest.warns(PanelWarning) as caught:
                keep, best, length = kept_longest_runs(tuple("ABCDEF"), ids, starts, lengths, values[:, column],
                                                       0, "t", ("short", "flat"))
            np.testing.assert_array_equal(keep, np.array(want, dtype=bool))
            np.testing.assert_array_equal(best, [0, 2, 4, 6, 0, 10])
            np.testing.assert_array_equal(length, [2, 2, 2, 2, 0, 3])
            flat = [label for label, k in zip("ABCDEF", want) if not k]
            assert [str(w.message) for w in caught] == [
                f"t: dropped {len(flat)} entity(ies) flat: {', '.join(flat)}"
            ]
        assert unitroot.longest_runs is data.longest_runs
        assert fmols.longest_runs is data.longest_runs
        assert unitroot._drop_runs is data._drop_runs
        assert fmols._drop_runs is data._drop_runs
        assert gmm.warn_dropped is data.warn_dropped

    @pytest.mark.parametrize("columns", [0, 1, 3])
    def test_matches_per_entity_reference(self, columns):
        rng = np.random.default_rng(40 + columns)
        for _ in range(150):
            n, T = int(rng.integers(1, 25)), int(rng.integers(1, 14))
            observed = rng.random((n, T)) < rng.uniform(0.2, 1.0)
            observed[rng.random(n) < 0.15] = False  # entities with no rows
            ent, col = np.nonzero(observed)
            years = 1990 + col
            # few distinct values, so constant runs and equal neighbours are common
            shape = (ent.size,) if columns == 0 else (ent.size, columns)
            values = rng.integers(0, 2, shape).astype(float)
            labels = tuple(f"E{i}" for i in range(n))
            min_len = int(rng.integers(0, 5))
            reasons = (f"below {min_len} rows", "constant")
            want = runs_reference(labels, ent, years, values, min_len, "t(v)", reasons)
            starts, lengths = contiguous_run(ent, years)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = kept_longest_runs(labels, ent, starts, lengths, values, min_len, "t(v)", reasons)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
            assert [str(w.message) for w in caught] == want[3]
            assert all(w.category is PanelWarning for w in caught)

    def test_calendar_gap_breaks_run(self):
        # 2002 -> 2004 jump splits an otherwise finite stretch
        periods = (2000, 2001, 2002, 2004, 2005)
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        run = longest_finite_run(values, periods)
        np.testing.assert_allclose(run, [1.0, 2.0, 3.0])

    def test_tie_goes_to_earliest(self):
        periods = (2000, 2001, 2003, 2004)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(longest_finite_run(values, periods), [1.0, 2.0])

    def test_all_missing_gives_empty(self):
        run = longest_finite_run(np.array([np.nan, np.nan]), (2000, 2001))
        assert run.size == 0


class TestDatasetGuards:
    def test_misaligned_series_rejected(self):
        ds = make_dataset({"y": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]})
        other = VariableSeries(
            name="z",
            entities=("A", "C"),
            periods=(2000, 2001, 2002),
            values=np.zeros((2, 3)),
        )
        with pytest.raises(ValueError, match="not aligned"):
            ds.add(other)
