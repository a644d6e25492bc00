"""Panel dataset container, CSV ingest, and calendar-aware transforms.

A panel is a rectangular entity-by-period grid per variable, with NaN marking
missing cells.  Periods are calendar years, and every lag or difference is a
calendar shift: an entity observed in 2013 and 2015 has no 2014 value, so a
one-period lag at 2015 is missing rather than the 2013 value.

CSV ingest reads the wide and the long schema into one cell table of
(entity, year, variable, value); the schemas differ only in the header and
in where a value's variable is named.  Records are parsed INGEST_CHUNK at a
time into numbers, so ingest holds a chunk's strings, not the file's, and
its memory grows with the panel's cells rather than with the text; after the
last chunk one vectorized pass checks the cells and fills every grid.
Writing makes its tokens INGEST_CHUNK records at a time too.

Stacked rows split into calendar runs (`contiguous_run`).  The unit-root
tests and FMOLS then use one rule for which run each entity contributes
(`longest_runs`, its longest) and which entities drop out (`_drop_runs`: too
short, then constant over that run), and zero-pad the runs (`pad_runs`).
Every stage names the entities it drops through `warn_dropped`.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

# Tokens accepted as missing on ingest.  Case sensitive by design: "na" or
# "NaN" in a numeric column is a malformed value, not a missing one.
MISSING_TOKENS = ("", "NA")
# read_panel_csv parses, and write_panel_csv formats, this many records at a
# time, so each holds a chunk's strings, never the whole file's.
INGEST_CHUNK = 1024


class PanelWarning(UserWarning):
    """Non-fatal data or estimation condition worth surfacing."""


@dataclass(frozen=True)
class VariableSeries:
    """One variable observed on an entity-by-period grid.

    Parameters
    ----------
    name : str
        Variable name.
    entities : tuple of str
        Row labels, shared with the owning dataset.
    periods : tuple of int
        Column labels (calendar years), strictly increasing.
    values : ndarray
        Float array of shape (n_entities, n_periods); NaN is missing.
    """

    name: str
    entities: tuple
    periods: tuple
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.entities), len(self.periods)):
            raise ValueError(
                f"series {self.name!r}: values shape {vals.shape} does not match "
                f"{len(self.entities)} entities x {len(self.periods)} periods"
            )
        if any(b <= a for a, b in zip(self.periods, self.periods[1:])):
            raise ValueError(f"series {self.name!r}: periods must be strictly increasing")
        object.__setattr__(self, "values", vals)


@dataclass
class PanelDataset:
    """A collection of aligned variable series on one entity-period grid."""

    entities: tuple
    periods: tuple
    variables: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entities = tuple(self.entities)
        self.periods = tuple(self.periods)
        if len(set(self.entities)) != len(self.entities):
            raise ValueError("duplicate entity labels")
        for series in self.variables.values():
            self._check_aligned(series)

    def _check_aligned(self, series: VariableSeries):
        if series.entities != self.entities or series.periods != self.periods:
            raise ValueError(f"series {series.name!r} is not aligned with the dataset grid")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def add(self, series: VariableSeries):
        """Add a series aligned with this grid, replacing any same-named one."""
        self._check_aligned(series)
        self.variables[series.name] = series

    def __getitem__(self, name: str) -> VariableSeries:
        try:
            return self.variables[name]
        except KeyError:
            raise KeyError(f"dataset has no variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.variables


@dataclass(frozen=True)
class ModelSpec:
    """One estimating equation.

    regressors are (variable, lag) pairs; lag counts calendar periods back.
    lagged_dependent adds the dependent at lag 1 as the leading regressor.
    Every estimator fits entity effects, so there is no intercept choice.
    """

    label: str
    dependent: str
    regressors: tuple
    lagged_dependent: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "regressors", tuple((str(v), int(k)) for v, k in self.regressors)
        )
        for _, k in self.regressors:
            if k < 0:
                raise ValueError("regressor lags must be nonnegative")

    def column_names(self) -> tuple:
        """Design column names in estimation order, lagged dependent first."""
        names = []
        if self.lagged_dependent:
            names.append(f"{self.dependent}_lag1")
        for var, k in self.regressors:
            names.append(f"{var}_lag{k}" if k else var)
        return tuple(names)


@dataclass(frozen=True)
class RegressionSample:
    """Listwise-complete stacked rows for one equation.

    Rows are sorted by entity then period.  X never carries an intercept
    column; estimators add whatever deterministic terms they need.
    """

    entities: tuple
    entity_ids: np.ndarray
    periods: np.ndarray
    y: np.ndarray
    X: np.ndarray
    columns: tuple
    spec: ModelSpec

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def periods_included(self) -> int:
        return len(np.unique(self.periods))


def read_panel_csv(path, schema: str = "wide") -> PanelDataset:
    """Read a panel from a CSV file in the wide or long schema.

    Wide has header ``entity,year,<var1>,<var2>,...`` and one row per
    entity-year; long has header ``entity,year,variable,value`` and one row
    per cell, its variables in order of first appearance.  Records are read
    INGEST_CHUNK at a time, and each chunk's strings become numbers (years,
    entity and variable codes, a missing mask, values) before the next chunk
    is read, so at most two chunks of strings are held, not the file's.
    Raises ValueError on an empty file, a bad header, a duplicate cell, or a
    malformed field, naming the line where the first faulty record starts
    (and the wide column); blank lines and each line of a quoted multi-line
    field count.  A record the csv module cannot read, such as one with a
    field over its size limit, is a faulty record too: ValueError names the
    line the reader stopped on.
    """
    if schema not in ("wide", "long"):
        raise ValueError(f"unknown schema {schema!r}")
    with open(path, newline="") as fh:
        records = filter(None, _readable(csv.reader(fh), path))
        header = next(records, None)  # if unreadable, the first faulty record
        if header is None:
            raise ValueError(f"{path}: empty file")
        # The schemas differ only in the header and in what names a value's
        # variable: the header above its column (wide) or its row (long).
        if schema == "wide":
            if len(header) < 3 or header[:2] != ["entity", "year"]:
                raise ValueError(f"{path}: wide header must be entity,year,<variables>")
            if len(set(header[2:])) != len(header) - 2:
                raise ValueError(f"{path}: duplicate variable columns")
            first, what = 2, "entity-year"
            where = [f" column {name}" for name in header[2:]]
            name_code = {name: i for i, name in enumerate(header[2:])}
        else:
            if header != ["entity", "year", "variable", "value"]:
                raise ValueError(f"{path}: long header must be entity,year,variable,value")
            first, what, where, name_code = 3, "cell", [""], {}
        entity_code = {}  # with name_code, each label's code in order of first appearance
        years, e, v, observed, values = [], [], [], [], []
        # each step in bulk; any failure (an unreadable record too, or no record, which
        # leaves nothing to concatenate) rescans the rows in file order for the first fault
        try:
            while chunk := list(itertools.islice(records, INGEST_CHUNK)):
                if set(map(len, chunk)) != {len(header)}:
                    raise ValueError
                table = np.array(chunk, dtype=object)
                years.append(np.fromiter(map(int, table[:, 1]), int, len(chunk)))
                tokens = table[:, first:]
                observed.append(~np.isin(tokens, MISSING_TOKENS))
                values.append(np.fromiter(map(float, tokens[observed[-1]]), float))
                e.append(_codes(table[:, 0].tolist(), entity_code))
                if schema == "long":
                    v.append(_codes(table[:, 2].tolist(), name_code))
            years, e, observed, values = map(np.concatenate, (years, e, observed, values))
            entities = np.array(list(entity_code), dtype=object)
            order = np.argsort(entities)  # sorts the distinct labels only
            entities, e = entities[order], np.argsort(order)[e]
            periods, p = np.unique(years, return_inverse=True)
            names = np.array(list(name_code), dtype=object)
            v = np.concatenate(v)[:, None] if schema == "long" else np.arange(names.size)
            # the cell table: each token's flat index in one (variable, entity, period) grid
            cells = (v * entities.size + e[:, None]) * periods.size + p[:, None]
            if not np.isfinite(values).all() or np.unique(cells, return_counts=True)[1].max() > 1:
                raise ValueError
        except (ValueError, OverflowError):
            _raise_first_fault(path, first, what, where)
    grids = np.full((names.size, entities.size, periods.size), np.nan)
    grids.reshape(-1)[cells[observed]] = values
    entities, periods = tuple(entities.tolist()), tuple(periods.tolist())
    dataset = PanelDataset(entities=entities, periods=periods)
    for name, grid in zip(names.tolist(), grids):
        dataset.add(VariableSeries(name=name, entities=entities, periods=periods, values=grid))
    return dataset


def _readable(reader, path):
    """The records of a csv reader, a record it cannot read raising ValueError that
    names path and the line the reader stopped on, not csv.Error."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"unreadable record at {path}:{reader.line_num}: {exc}") from None


def _codes(labels: list, code: dict) -> np.ndarray:
    """Each label's code: its index among the labels in code, the ones seen so far in
    order of first appearance, to which labels new here are added."""
    return np.fromiter((code.setdefault(label, len(code)) for label in labels), int, len(labels))


def _first_seen(values: np.ndarray) -> tuple:
    """Distinct values in order of first appearance, and each value's index in them."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse].reshape(values.shape)


def _raise_first_fault(path, first: int, what: str, where: list):
    """Raise the error of the CSV's first faulty record in file order.

    The file is read again to name the line each record starts on: blank
    lines and quoted fields that span lines make that differ from the
    record's position.  Each record is checked as it is read, so a record
    the csv module cannot read raises only when every record before it is
    sound.  The header is the first record; a file with none after it has
    no data rows.  A record's key is its entity, year and any columns
    before first, where its values start; where[j] locates value j in
    messages.
    """
    header, seen, end = None, set(), 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in _readable(reader, path):
            lineno, end = end + 1, reader.line_num  # the line the record starts on
            if not row:
                continue
            if header is None:
                header = row
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, "
                                 f"expected {len(header)}")
            try:
                key = (row[0], int(np.int64(int(row[1]))), *row[2:first])  # periods are int64
            except (ValueError, OverflowError):
                raise ValueError(f"unparseable year {row[1]!r} at {path}:{lineno}") from None
            if key in seen:
                raise ValueError(f"{path}: duplicate {what} {key!r}")
            seen.add(key)
            for token, column in zip(row[first:], where):
                try:
                    finite = token in MISSING_TOKENS or math.isfinite(float(token))
                except ValueError:
                    raise ValueError(
                        f"unparseable numeric value {token!r} at {path}:{lineno}{column}"
                    ) from None
                if not finite:
                    raise ValueError(
                        f"non-finite numeric value {token!r} at {path}:{lineno}{column}"
                    )
    if not seen:
        raise ValueError(f"{path}: no data rows")


def write_panel_csv(dataset: PanelDataset, path, schema: str = "wide"):
    """Write a panel to CSV so that reading it back reproduces the dataset.

    Both schemas write one token matrix, a row per (entity, year) and a
    column per variable: wide row by row, long one row per token.  The
    tokens (`repr` of each float, empty for missing) are made INGEST_CHUNK
    rows at a time, so the writer holds a chunk's strings, not the file's.
    """
    if schema not in ("wide", "long"):
        raise ValueError(f"unknown schema {schema!r}")
    names = list(dataset.variables)
    shape = (dataset.n_entities * dataset.n_periods, len(names))
    values = np.reshape([s.values for s in dataset.variables.values()], shape[::-1]).T
    keys = itertools.product(dataset.entities, dataset.periods)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity", "year", *names] if schema == "wide"
                        else ["entity", "year", "variable", "value"])
        for at in range(0, values.shape[0], INGEST_CHUNK):
            chunk = values[at : at + INGEST_CHUNK]
            flat = chunk.ravel()
            tokens = np.array(list(map(repr, flat.tolist())), dtype=object)
            tokens[np.isnan(flat)] = ""
            rows = zip(itertools.islice(keys, len(chunk)), tokens.reshape(chunk.shape).tolist())
            if schema == "wide":
                writer.writerows([*key, *row] for key, row in rows)
            else:
                writer.writerows([*key, *cell] for key, row in rows for cell in zip(names, row))


def natural_log(series: VariableSeries) -> VariableSeries:
    """Elementwise natural log; non-positive cells become missing.

    A warning reports how many finite cells were lost, since a silent drop
    would change sample sizes downstream with no trace.
    """
    values = series.values
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(values > 0, np.log(np.where(values > 0, values, 1.0)), np.nan)
    dropped = int((np.isfinite(values) & ~(values > 0)).sum())
    if dropped:
        warnings.warn(
            f"natural_log({series.name}): {dropped} non-positive cell(s) set to missing",
            PanelWarning,
            stacklevel=2,
        )
    return replace(series, name=f"ln_{series.name}", values=out)


def lag_values(values: np.ndarray, periods, k) -> np.ndarray:
    """The (entities, periods) grid `values` lagged k periods on the calendar `periods`.

    The value at year t is the value at year t-k; if the grid has no t-k
    column the cell is missing, so gaps never alias to the wrong year.  An
    array of lags k gives one grid per lag, along a trailing axis.
    """
    periods = np.asarray(periods)
    want = np.subtract.outer(periods, k)  # year t - k for each period t (and lag)
    src = np.minimum(np.searchsorted(periods, want), periods.size - 1)
    return np.where(periods[src] == want, values[:, src], np.nan)


def first_difference(series: VariableSeries) -> VariableSeries:
    """Calendar first difference, s(t) - s(t-1); missing on both sides of gaps."""
    out = series.values - lag_values(series.values, series.periods, 1)
    return replace(series, name=f"d_{series.name}", values=out)


def regression_sample(dataset: PanelDataset, spec: ModelSpec) -> RegressionSample:
    """Stack listwise-complete rows for an equation.

    A row (entity, year) survives when the dependent and every design column
    (lagged dependent and each lagged regressor, all calendar shifts) are
    observed.  Entities contributing no rows are dropped from the sample.
    """
    if spec.dependent not in dataset:
        raise KeyError(f"dependent variable {spec.dependent!r} not in dataset")
    for var, _ in spec.regressors:
        if var not in dataset:
            raise KeyError(f"regressor variable {var!r} not in dataset")

    dep = dataset[spec.dependent]
    lags = [(dep, 1)] if spec.lagged_dependent else []
    lags += [(dataset[var], k) for var, k in spec.regressors]
    # a lag-0 regressor reads its grid itself; ModelSpec refuses negative lags
    design_cols = [s.values if k == 0 else lag_values(s.values, s.periods, k) for s, k in lags]

    y_grid = dep.values
    keep = np.isfinite(y_grid)
    for col in design_cols:
        keep &= np.isfinite(col)

    ent_rows, per_cols = np.nonzero(keep)
    if ent_rows.size == 0:
        raise ValueError(f"equation {spec.label!r}: no usable observations")

    # np.nonzero walks the grid row-major: rows come out by entity, then period
    retained, entity_ids = np.unique(ent_rows, return_inverse=True)
    entities = tuple(dataset.entities[i] for i in retained)
    periods = np.asarray(dataset.periods, dtype=int)[per_cols]
    y = y_grid[ent_rows, per_cols]
    X = np.column_stack([col[ent_rows, per_cols] for col in design_cols]) if design_cols else np.empty((y.size, 0))
    return RegressionSample(
        entities=entities,
        entity_ids=entity_ids,
        periods=periods,
        y=y,
        X=X,
        columns=spec.column_names(),
        spec=spec,
    )


def contiguous_run(entity_ids: np.ndarray, years: np.ndarray) -> tuple:
    """Start and length of every unbroken calendar run in stacked rows.

    Rows must be sorted by entity then year.  A run breaks where the entity
    changes or the year does not advance by exactly one, so a calendar gap
    ends a run even when the rows on both sides are adjacent.  Returns
    (starts, lengths), integer arrays in row order.
    """
    entity_ids = np.asarray(entity_ids)
    years = np.asarray(years)
    n = years.shape[0]
    breaks = np.ones(n, dtype=bool)
    breaks[1:] = (entity_ids[1:] != entity_ids[:-1]) | (years[1:] != years[:-1] + 1)
    starts = np.flatnonzero(breaks)
    return starts, np.diff(np.append(starts, n))


def longest_runs(labels, entity_ids: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                 values: np.ndarray) -> tuple:
    """Each entity's longest run from contiguous_run output, earliest on ties, and
    whether it is constant.

    labels name the entities, indexed by the stacked rows' entity_ids; values
    holds the rows, one or more columns.  Returns (starts, lengths, constant) of
    shape (len(labels),): constant marks a run over which any column of values
    is constant, and an entity with no rows gets length 0 and counts as constant.
    """
    owner = np.asarray(entity_ids)[starts]
    order = np.lexsort((starts, -lengths, owner))
    first = np.ones(order.size, dtype=bool)
    first[1:] = owner[order[1:]] != owner[order[:-1]]
    pick = order[first]
    best_start = np.zeros(len(labels), dtype=int)
    best_len = np.zeros(len(labels), dtype=int)
    best_start[owner[pick]] = starts[pick]
    best_len[owner[pick]] = lengths[pick]
    changed = values[1:] != values[:-1]
    # changes[i] counts each column's value changes over rows 0..i
    changes = np.cumsum(np.concatenate([np.zeros((1,) + changed.shape[1:], bool), changed]), axis=0)
    constant = changes[best_start + np.maximum(best_len, 1) - 1] == changes[best_start]
    if constant.ndim > 1:
        constant = constant.any(axis=1)
    return best_start, best_len, constant


def _drop_runs(labels, lengths, constant, min_len: int, what: str, reasons) -> np.ndarray:
    """Which entities keep their longest run (longest_runs): drops one shorter than min_len,
    then a constant one; reasons words the two drops, each warned once through warn_dropped."""
    short = lengths < min_len
    labels = np.asarray(labels, dtype=object)
    for drop, why in zip((short, constant & ~short), reasons):
        warn_dropped(what, labels[drop], why)
    return ~short & ~constant


def warn_dropped(what: str, dropped, why: str):
    """Warn, naming at most eight, that the entities dropped were dropped for why."""
    if len(dropped):
        warnings.warn(
            f"{what}: dropped {len(dropped)} entity(ies) {why}: "
            f"{', '.join(map(str, dropped[:8]))}" + ("..." if len(dropped) > 8 else ""),
            PanelWarning,
            stacklevel=2,
        )


def pad_runs(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """(blocks, inside): block i holds rows starts[i] .. starts[i] + lengths[i] - 1 of values
    (1-D, or 2-D keeping its columns), zero-padded at the end to the longest run; inside
    marks the real rows, so blocks[inside] gives them back in run order.  When the runs
    all have one length and each starts where the one before ends, nothing is padded and
    blocks is a reshaped view of values, not a copy, so callers must not write into it."""
    n = lengths.max(initial=0)
    inside = np.arange(n) < lengths[:, None]
    if inside.all() and starts.size and np.all(np.diff(starts) == n):
        rows = values[starts[0] : starts[0] + starts.size * n]
        return rows.reshape(starts.size, n, *values.shape[1:]), inside
    blocks = values.take(starts[:, None] + np.arange(n), axis=0, mode="clip")
    blocks[~inside] = 0
    return blocks, inside
