"""Panel dataset container, CSV ingest, and calendar-aware transforms.

A panel is a rectangular entity-by-period grid per variable, with NaN marking
missing cells.  Periods are calendar years, and every lag or difference is a
calendar shift: an entity observed in 2013 and 2015 has no 2014 value, so a
one-period lag at 2015 is missing rather than the 2013 value.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

# Tokens accepted as missing on ingest.  Case sensitive by design: "na" or
# "NaN" in a numeric column is a malformed value, not a missing one.
MISSING_TOKENS = ("", "NA")


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

    @property
    def n_missing(self) -> int:
        return int(np.isnan(self.values).sum())


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

    def missing_counts(self) -> dict:
        """Missing-cell count per variable."""
        return {name: s.n_missing for name, s in self.variables.items()}


@dataclass(frozen=True)
class ModelSpec:
    """One estimating equation.

    regressors are (variable, lag) pairs; lag counts calendar periods back.
    lagged_dependent adds the dependent at lag 1 as the leading regressor.
    intercept is "individual" (entity effects) or "common" (single constant).
    """

    label: str
    dependent: str
    regressors: tuple
    lagged_dependent: bool = False
    intercept: str = "individual"

    def __post_init__(self):
        object.__setattr__(
            self, "regressors", tuple((str(v), int(k)) for v, k in self.regressors)
        )
        if self.intercept not in ("common", "individual"):
            raise ValueError(f"intercept must be 'common' or 'individual', got {self.intercept!r}")
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


def _parse_value(token: str, where: str) -> float:
    if token in MISSING_TOKENS:
        return math.nan
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"unparseable numeric value {token!r} at {where}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric value {token!r} at {where}")
    return value


def _parse_year(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"unparseable year {token!r} at {where}") from None


def read_panel_csv(path, schema: str = "wide") -> PanelDataset:
    """Read a panel from CSV.

    Parameters
    ----------
    path : str or Path
        File to read.
    schema : {"wide", "long"}
        Wide has header ``entity,year,<var1>,<var2>,...`` with one row per
        entity-year.  Long has header ``entity,year,variable,value`` with one
        row per cell.

    Returns
    -------
    PanelDataset

    Raises
    ------
    ValueError
        Empty file, duplicate cells, or malformed numeric/year fields.
    """
    if schema not in ("wide", "long"):
        raise ValueError(f"unknown schema {schema!r}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")

    if schema == "wide":
        if len(header) < 3 or header[0] != "entity" or header[1] != "year":
            raise ValueError(f"{path}: wide header must be entity,year,<variables>")
        var_names = header[2:]
        if len(set(var_names)) != len(var_names):
            raise ValueError(f"{path}: duplicate variable columns")
        cells = {}  # (entity, year) -> list of values
        for lineno, row in enumerate(body, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
            entity = row[0]
            year = _parse_year(row[1], f"{path}:{lineno}")
            key = (entity, year)
            if key in cells:
                raise ValueError(f"{path}: duplicate entity-year ({entity!r}, {year})")
            cells[key] = [
                _parse_value(tok, f"{path}:{lineno} column {name}")
                for tok, name in zip(row[2:], var_names)
            ]
        entities = tuple(sorted({e for e, _ in cells}))
        periods = tuple(sorted({y for _, y in cells}))
        e_idx = {e: i for i, e in enumerate(entities)}
        p_idx = {y: j for j, y in enumerate(periods)}
        grids = {name: np.full((len(entities), len(periods)), np.nan) for name in var_names}
        for (entity, year), values in cells.items():
            for name, value in zip(var_names, values):
                grids[name][e_idx[entity], p_idx[year]] = value
    else:
        if header != ["entity", "year", "variable", "value"]:
            raise ValueError(f"{path}: long header must be entity,year,variable,value")
        triples = {}  # (entity, year, variable) -> value
        for lineno, row in enumerate(body, start=2):
            if len(row) != 4:
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected 4")
            entity, variable = row[0], row[2]
            year = _parse_year(row[1], f"{path}:{lineno}")
            key = (entity, year, variable)
            if key in triples:
                raise ValueError(
                    f"{path}: duplicate cell ({entity!r}, {year}, {variable!r})"
                )
            triples[key] = _parse_value(row[3], f"{path}:{lineno}")
        entities = tuple(sorted({e for e, _, _ in triples}))
        periods = tuple(sorted({y for _, y, _ in triples}))
        var_names = []
        for _, _, v in triples:  # first-appearance order
            if v not in var_names:
                var_names.append(v)
        e_idx = {e: i for i, e in enumerate(entities)}
        p_idx = {y: j for j, y in enumerate(periods)}
        grids = {name: np.full((len(entities), len(periods)), np.nan) for name in var_names}
        for (entity, year, variable), value in triples.items():
            grids[variable][e_idx[entity], p_idx[year]] = value

    dataset = PanelDataset(entities=entities, periods=periods)
    for name in var_names:
        dataset.add(VariableSeries(name=name, entities=entities, periods=periods, values=grids[name]))
    return dataset


def write_panel_csv(dataset: PanelDataset, path, schema: str = "wide"):
    """Write a panel to CSV so that reading it back reproduces the dataset."""
    if schema not in ("wide", "long"):
        raise ValueError(f"unknown schema {schema!r}")
    names = list(dataset.variables)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if schema == "wide":
            writer.writerow(["entity", "year"] + names)
            for i, entity in enumerate(dataset.entities):
                for j, year in enumerate(dataset.periods):
                    row = [entity, year]
                    for name in names:
                        v = dataset.variables[name].values[i, j]
                        row.append("" if math.isnan(v) else repr(float(v)))
                    writer.writerow(row)
        else:
            writer.writerow(["entity", "year", "variable", "value"])
            for i, entity in enumerate(dataset.entities):
                for j, year in enumerate(dataset.periods):
                    for name in names:
                        v = dataset.variables[name].values[i, j]
                        writer.writerow([entity, year, name, "" if math.isnan(v) else repr(float(v))])


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


def lag(series: VariableSeries, k: int = 1) -> VariableSeries:
    """Calendar lag by k periods.

    The value at year t is the series value at year t-k; if the grid has no
    t-k column the cell is missing, so gaps never alias to the wrong year.
    """
    if k < 0:
        raise ValueError("lag must be nonnegative")
    if k == 0:
        return series
    periods = np.asarray(series.periods)
    src = np.minimum(np.searchsorted(periods, periods - k), periods.size - 1)
    found = periods[src] == periods - k
    out = np.full_like(series.values, np.nan)
    out[:, found] = series.values[:, src[found]]
    return replace(series, name=f"{series.name}_lag{k}", values=out)


def first_difference(series: VariableSeries) -> VariableSeries:
    """Calendar first difference, s(t) - s(t-1); missing on both sides of gaps."""
    lagged = lag(series, 1)
    out = series.values - lagged.values
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
    design_cols = []
    if spec.lagged_dependent:
        design_cols.append(lag(dep, 1).values)
    for var, k in spec.regressors:
        design_cols.append(lag(dataset[var], k).values)

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


def longest_runs(entity_ids: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                 n_entities: int) -> tuple:
    """Each entity's longest run from contiguous_run output; earliest on ties.

    entity_ids are the stacked rows' entity indices in range(n_entities).
    Returns (starts, lengths) of shape (n_entities,); an entity with no rows
    gets length 0.
    """
    owner = np.asarray(entity_ids)[starts]
    order = np.lexsort((starts, -lengths, owner))
    first = np.ones(order.size, dtype=bool)
    first[1:] = owner[order[1:]] != owner[order[:-1]]
    pick = order[first]
    best_start = np.zeros(n_entities, dtype=int)
    best_len = np.zeros(n_entities, dtype=int)
    best_start[owner[pick]] = starts[pick]
    best_len[owner[pick]] = lengths[pick]
    return best_start, best_len


def blocks_by_length(starts: np.ndarray, lengths: np.ndarray):
    """Yield (length, positions, rows) per distinct block length, shortest first:
    rows[i] holds the row indices of block positions[i], so values[rows] stacks them."""
    for length in np.unique(lengths):
        idx = np.flatnonzero(lengths == length)
        yield length, idx, starts[idx, None] + np.arange(length)
