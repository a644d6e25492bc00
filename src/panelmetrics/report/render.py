"""Table artifacts and their markdown/CSV/JSON renderers.

Display cells are fixed at six decimal places; JSON artifacts carry the
full-precision values alongside the display grid so no precision is lost
to formatting.  Significance stars follow the caption convention used on
the estimation tables: ** for p > 0.05, * for p < 0.05, with the exact
0.05 boundary assigned to ** (insignificant).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..effects import Estimates

STAR_NOTE = "** p > 0.05, * p < 0.05 (p = 0.05 counts as **)"


@dataclass(frozen=True)
class TableArtifact:
    """One rendered-table payload: display grid plus full-precision values."""

    name: str
    title: str
    columns: tuple
    rows: tuple  # tuples of display strings
    values: dict = field(default_factory=dict)
    notes: tuple = ()


def format_number(value) -> str:
    """Fixed-point display string; NA for missing/undefined."""
    if value is None:
        return "NA"
    value = float(value)
    if not math.isfinite(value):
        return "NA"
    return f"{value:.6f}"


def significance_star(p) -> str:
    """Caption convention: * when p < 0.05, ** otherwise; no star without p."""
    if p is None:
        return ""
    p = float(p)
    if not math.isfinite(p):
        return ""
    return "*" if p < 0.05 else "**"


def _starred(p) -> str:
    star = significance_star(p)
    return f"{format_number(p)}{star}" if star else "NA"


def _jsonable(obj):
    """Plain-data copy safe for strict JSON: NaN/inf become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def build_descriptive_table(stats) -> TableArtifact:
    """Summary-statistics grid: one column per variable."""
    columns = ("statistic",) + tuple(s.variable for s in stats)
    layout = (
        ("Mean", "mean"),
        ("Median", "median"),
        ("Maximum", "maximum"),
        ("Minimum", "minimum"),
        ("Std. Dev.", "std_dev"),
        ("Skewness", "skewness"),
        ("Kurtosis", "kurtosis"),
        ("Jarque-Bera", "jarque_bera"),
        ("Probability", "jb_probability"),
        ("Sum", "total"),
        ("Sum Sq. Dev.", "sum_sq_dev"),
    )
    rows = [
        (label,) + tuple(format_number(getattr(s, attr)) for s in stats)
        for label, attr in layout
    ]
    rows.append(("Observations",) + tuple(str(s.n) for s in stats))
    values = {
        s.variable: {attr: getattr(s, attr) for _, attr in layout} | {"n": s.n}
        for s in stats
    }
    return TableArtifact(
        name="descriptive",
        title="Descriptive statistics",
        columns=columns,
        rows=tuple(rows),
        values=_jsonable(values),
    )


def build_correlation_table(names, matrix, n_used) -> TableArtifact:
    """Pearson correlation grid on the shared listwise sample."""
    columns = ("variable",) + tuple(names)
    rows = tuple(
        (name,) + tuple(format_number(matrix[i, j]) for j in range(len(names)))
        for i, name in enumerate(names)
    )
    values = {
        "n_used": n_used,
        "entries": {
            a: {b: matrix[i, j] for j, b in enumerate(names)} for i, a in enumerate(names)
        },
    }
    notes = ("All variables restricted to the rows where every one is observed.",
             f"Shared sample size: {n_used}.")
    return TableArtifact(
        name="correlation",
        title="Pearson correlation matrix",
        columns=columns,
        rows=rows,
        values=_jsonable(values),
        notes=notes,
    )


def build_unitroot_table(battery) -> TableArtifact:
    """Unit-root battery grid: rows are variables, columns test x order."""
    columns = ("variable",) + tuple(
        f"{test} ({order})" for test in battery.tests for order in battery.orders
    )
    rows, values = [], {}
    for variable in battery.variables:
        cells, vvals = [variable], {}
        for test in battery.tests:
            tvals = {}
            for order in battery.orders:
                cell = battery.cell(variable, order, test)
                if cell.error is not None:
                    cells.append(f"error: {cell.error}")
                    tvals[order] = {"error": cell.error}
                else:
                    r = cell.result
                    cells.append(f"{format_number(r.statistic)} ({format_number(r.p_value)})")
                    tvals[order] = {
                        "statistic": r.statistic,
                        "p_value": r.p_value,
                        "lags": r.lags,
                        "bandwidth": r.bandwidth,
                        "n_obs": r.n_obs,
                        "n_entities": r.n_entities,
                    }
            vvals[test] = tvals
        rows.append(tuple(cells))
        values[variable] = vvals
    return TableArtifact(
        name="unitroot",
        title="Panel unit-root battery (levels and first differences)",
        columns=columns,
        rows=tuple(rows),
        values=_jsonable(values),
        notes=("Cells show statistic (p-value); p-values are in the parentheses.",),
    )


def build_hausman_table(entries) -> TableArtifact:
    """Fixed-vs-random contrast rows.

    entries: (label, variable, fixed coefficient, random coefficient,
    HausmanResult) per slope column of each static equation.
    """
    columns = ("equation", "variable", "fixed", "random", "p value")
    rows, values = [], {}
    for label, variable, fe_coef, re_coef, hz in entries:
        rows.append(
            (
                label,
                variable,
                format_number(fe_coef),
                format_number(re_coef),
                format_number(hz.p_value),
            )
        )
        values.setdefault(label, {"statistic": hz.statistic, "df": hz.df, "p_value": hz.p_value, "variables": {}})
        values[label]["variables"][variable] = {"fixed": fe_coef, "random": re_coef}
    return TableArtifact(
        name="hausman",
        title="Hausman test: fixed against random effects",
        columns=columns,
        rows=tuple(rows),
        values=_jsonable(values),
        notes=("Small p-values reject the random-effects specification.",),
    )


def _estimate_grid(results, labels, extra_rows, name, title, notes):
    """Shared coefficient/p grid for the estimation tables.

    One column per equation; per design column a coefficient row and a
    starred p-value row; extra_rows appends (label, per-result formatter)
    summary lines, and the periods, cross-section and observation counts
    close every grid.  The JSON values hold each result's `Estimates` fields
    but method and cov, then the fit and J summaries it has.
    """
    variables = []
    for res in results:
        for col in res.columns:
            if col not in variables:
                variables.append(col)
    columns = ("row",) + tuple(labels)
    rows = []
    for var in variables:
        coef_cells, p_cells = [], []
        for res in results:
            if var in res.columns:
                i = res.columns.index(var)
                coef_cells.append(format_number(res.coefficients[i]))
                p_cells.append(_starred(res.p_values[i]))
            else:
                coef_cells.append("")
                p_cells.append("")
        rows.append((var,) + tuple(coef_cells))
        rows.append((f"{var} (p)",) + tuple(p_cells))
    for label, getter in extra_rows:
        rows.append((label,) + tuple(getter(res) for res in results))
    for label, attr in (("Periods included", "periods_included"),
                        ("Cross-sections included", "n_entities"), ("Total panel observations", "n_obs")):
        rows.append((label,) + tuple(str(getattr(res, attr)) for res in results))
    shared = [f.name for f in fields(Estimates) if f.name not in ("method", "cov")]
    values = {}
    for label, res in zip(labels, results):
        values[label] = {name: getattr(res, name) for name in shared}
        for attr in ("r_squared", "adj_r_squared", "j_stat", "j_df", "j_p", "instrument_count"):
            if hasattr(res, attr):
                values[label][attr] = getattr(res, attr)
    return TableArtifact(
        name=name,
        title=title,
        columns=columns,
        rows=tuple(rows),
        values=_jsonable(values),
        notes=notes,
    )


def build_gmm_table(results, labels) -> TableArtifact:
    """Dynamic panel GMM grid with J diagnostics."""
    extra = (
        ("J statistic", lambda r: format_number(r.j_stat)),
        ("J probability", lambda r: format_number(r.j_p)),
        ("Instruments", lambda r: str(r.instrument_count)),
    )
    return _estimate_grid(
        results,
        labels,
        extra,
        name="gmm",
        title="Dynamic panel GMM estimates (two-step differences)",
        notes=(STAR_NOTE,),
    )


def build_fmols_table(results, labels) -> TableArtifact:
    """Pooled fully modified OLS grid with fit summaries."""
    extra = (
        ("R squared", lambda r: format_number(r.r_squared)),
        ("Adjusted R squared", lambda r: format_number(r.adj_r_squared)),
    )
    return _estimate_grid(
        results,
        labels,
        extra,
        name="fmols",
        title="Panel fully modified OLS estimates",
        notes=(STAR_NOTE,),
    )


def build_comparison_table(specs, gmm_results, fmols_results) -> TableArtifact:
    """Side-by-side significance of the two dynamic estimators.

    One row per regressor (the lagged dependent is a control, not a
    determinant, so it is excluded): coefficient and parenthesized starred
    p-value under each method, plus whether the two agree on significance
    at 5 percent.
    """
    columns = (
        "equation",
        "variable",
        "gmm coefficient",
        "gmm p value",
        "fmols coefficient",
        "fmols p value",
        "agreement",
    )
    rows, values = [], {}
    for spec, gm, fm in zip(specs, gmm_results, fmols_results):
        label = spec.label
        skip = {spec.column_names()[0]} if spec.lagged_dependent else set()
        for col in gm.columns:
            if col not in fm.columns or col in skip:
                continue
            gi, fi = gm.columns.index(col), fm.columns.index(col)
            g_p, f_p = float(gm.p_values[gi]), float(fm.p_values[fi])
            agree = significance_star(g_p) == significance_star(f_p)
            rows.append(
                (
                    label,
                    col,
                    format_number(gm.coefficients[gi]),
                    f"({_starred(g_p)})",
                    format_number(fm.coefficients[fi]),
                    f"({_starred(f_p)})",
                    "consistent" if agree else "differs",
                )
            )
            values.setdefault(label, {})[col] = {
                "gmm": {"coefficient": gm.coefficients[gi], "p_value": g_p},
                "fmols": {"coefficient": fm.coefficients[fi], "p_value": f_p},
                "consistent": agree,
            }
    return TableArtifact(
        name="comparison",
        title="GMM and FMOLS significance comparison",
        columns=columns,
        rows=tuple(rows),
        values=_jsonable(values),
        notes=(STAR_NOTE,),
    )


def _escape_md(cell: str) -> str:
    return cell.replace("|", "\\|")


def to_markdown(table: TableArtifact) -> str:
    lines = [f"# {table.title}", ""]
    lines.append("| " + " | ".join(_escape_md(c) for c in table.columns) + " |")
    lines.append("| " + " | ".join("---" for _ in table.columns) + " |")
    for row in table.rows:
        lines.append("| " + " | ".join(_escape_md(str(c)) for c in row) + " |")
    for note in table.notes:
        lines.extend(["", f"Note: {note}"])
    return "\n".join(lines) + "\n"


def to_csv(table: TableArtifact) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow(row)
    return buf.getvalue()


def to_json(table: TableArtifact) -> str:
    payload = {
        "name": table.name,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "values": table.values,
        "notes": list(table.notes),
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


_RENDERERS = {"md": to_markdown, "csv": to_csv, "json": to_json}


def render_table(table: TableArtifact, format: str = "md") -> str:
    """Render one artifact to markdown, CSV, or JSON text."""
    try:
        renderer = _RENDERERS[format]
    except KeyError:
        raise ValueError(f"unknown format {format!r}; expected one of {sorted(_RENDERERS)}")
    return renderer(table)
