"""Stage-ordered pipeline from a validated config to a table bundle.

Stages run in a fixed order (describe, correlation, unitroot, hausman,
gmm, fmols, comparison) over a dataset assembled by ingest + transform.
Every requested stage either contributes its table or an explicit error
record; one failing stage never stops the independent ones.  The manifest
is byte-stable across identical runs: per-stage wall times go to a
separate timings sidecar precisely so the manifest can be compared.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .. import __version__
from ..data import (
    PanelDataset,
    PanelWarning,
    VariableSeries,
    natural_log,
    read_panel_csv,
    regression_sample,
    write_panel_csv,
)
from ..descriptives import correlation_matrix, describe_table
from ..effects import fixed_effects, hausman, random_effects
from ..fmols import fmols_panel
from ..gmm import build_instruments, differenced_sample, gmm_estimate
from ..unitroot import run_battery
from .config import STAGES, PipelineConfig
from .fetch import FetchDescriptor, fetch_indicators
from .render import (
    build_comparison_table,
    build_correlation_table,
    build_descriptive_table,
    build_fmols_table,
    build_gmm_table,
    build_hausman_table,
    build_unitroot_table,
    render_table,
)

MANIFEST_NAME = "manifest.json"
TIMINGS_NAME = "timings.json"


class PipelineIOError(RuntimeError):
    """Unreadable input, failed download, or unwritable output location."""


class IngestError(RuntimeError):
    """Source data does not match the configured variables."""


@dataclass
class ReportBundle:
    """Everything one run produced: tables, errors, manifest, timings."""

    tables: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    out_dir: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def _resolve(path: str, base_dir: str | None) -> str:
    if base_dir is None or os.path.isabs(path):
        return path
    return os.path.join(base_dir, path)


def _ingest_file(config: PipelineConfig, base_dir) -> PanelDataset:
    path = _resolve(config.data.path, base_dir)
    try:
        dataset = read_panel_csv(path, schema=config.data.schema)
    except OSError as exc:
        raise PipelineIOError(f"cannot read data file {path}: {exc}") from None
    except ValueError as exc:
        raise IngestError(f"data file {path} is not a valid panel CSV: {exc}") from None
    missing = [v.source for v in config.variables if v.source not in dataset.variables]
    if missing:
        raise IngestError(
            f"data file {path} lacks configured source columns {missing}; "
            f"available: {sorted(dataset.variables)}"
        )
    return dataset


def fetch_configured(config: PipelineConfig, base_dir=None) -> list:
    """One FetchOutcome per configured variable, cached under base_dir."""
    data = config.data
    descriptors = [
        FetchDescriptor(provider=data.provider, code=v.source, years=data.years)
        for v in config.variables
    ]
    return fetch_indicators(descriptors, data.base_url, _resolve(data.cache_dir, base_dir))


def _ingest_fetch(config: PipelineConfig, base_dir) -> PanelDataset:
    """Download per-indicator files and merge them on the (entity, year) grid."""
    data = config.data
    outcomes = fetch_configured(config, base_dir)
    bad = [o for o in outcomes if not o.ok]
    if bad:
        details = "; ".join(f"{o.descriptor.code}: {o.error}" for o in bad)
        raise PipelineIOError(f"indicator download failed: {details}")

    per_code = {o.descriptor.code: o.dataset for o in outcomes}
    start, end = (int(p) for p in data.years.split(":"))
    years = tuple(range(start, end + 1))
    entities = sorted(set().union(*(set(d.entities) for d in per_code.values())))

    merged = PanelDataset(entities=tuple(entities), periods=years)
    for variable in config.variables:
        code = variable.source
        source = per_code[code]
        fetched = np.asarray(source.periods, dtype=int)
        inside = (fetched >= start) & (fetched <= end)  # other years are skipped
        grid = np.full((len(entities), len(years)), np.nan)
        rows = np.searchsorted(entities, source.entities)
        grid[rows[:, None], fetched[inside] - start] = source[code].values[:, inside]
        unmatched = sorted(set(entities) - set(source.entities))
        if unmatched:
            warnings.warn(
                f"indicator {code!r}: no rows for entities {unmatched}",
                PanelWarning,
                stacklevel=2,
            )
        merged.add(
            VariableSeries(
                name=variable.source, entities=tuple(entities), periods=years, values=grid
            )
        )
    return merged


def ingest_dataset(config: PipelineConfig, base_dir=None) -> PanelDataset:
    """Assemble the raw panel per the config's data source."""
    if config.data.kind == "file":
        return _ingest_file(config, base_dir)
    return _ingest_fetch(config, base_dir)


def transform_dataset(config: PipelineConfig, dataset: PanelDataset) -> PanelDataset:
    """A new dataset: the input's series, sources renamed to configured names
    and log series added where flagged.  The input is left unchanged."""
    out = PanelDataset(
        entities=dataset.entities, periods=dataset.periods, variables=dict(dataset.variables)
    )
    for variable in config.variables:
        series = dataset[variable.source]
        if variable.name != variable.source:
            series = replace(series, name=variable.name)
            out.add(series)
        if variable.log:
            out.add(natural_log(series))
    return out


def _stage_describe(config, dataset):
    return build_descriptive_table(describe_table(dataset, config.analysis_series()))


def _stage_correlation(config, dataset):
    names, matrix, n_used = correlation_matrix(dataset, config.analysis_series())
    return build_correlation_table(names, matrix, n_used)


def _stage_unitroot(config, dataset):
    names = config.tests.variables or config.analysis_series()
    battery = run_battery(
        dataset,
        names,
        det=config.tests.det,
        lags=config.tests.lags,
        bandwidth=config.tests.bandwidth,
    )
    return build_unitroot_table(battery)


def _stage_hausman(config, dataset):
    entries = []
    for spec in config.models:
        sample = regression_sample(dataset, replace(spec, lagged_dependent=False))
        fe = fixed_effects(sample)
        re = random_effects(sample)
        hz = hausman(fe, re)
        for column in hz.columns:
            entries.append((spec.label, column, fe.coef(column), re.coef(column), hz))
    return build_hausman_table(entries)


def _stage_gmm(config, dataset, store):
    results = []
    for spec in config.models:
        sample = differenced_sample(dataset, spec)
        # no name for the instruments: it would keep them alive while the next model's are built
        results.append(gmm_estimate(build_instruments(
            dataset, sample, max_depth=config.tests.gmm_depth,
            collapse=config.tests.gmm_collapse)))
    store["gmm"] = results
    return build_gmm_table(results, [spec.label for spec in config.models])


def _stage_fmols(config, dataset, store):
    results = [
        fmols_panel(dataset, spec, bandwidth=config.tests.bandwidth) for spec in config.models
    ]
    store["fmols"] = results
    return build_fmols_table(results, [spec.label for spec in config.models])


def _stage_comparison(config, store):
    if "gmm" not in store or "fmols" not in store:
        missing = [k for k in ("gmm", "fmols") if k not in store]
        raise RuntimeError(f"comparison requires successful {missing} stage(s)")
    return build_comparison_table(config.models, store["gmm"], store["fmols"])


def _output_dir(config: PipelineConfig, base_dir) -> str:
    """The configured output directory, created if missing."""
    out_dir = _resolve(config.output.directory, base_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise PipelineIOError(f"cannot create output directory {out_dir}: {exc}") from None
    return out_dir


def _unlink(path: str):
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise PipelineIOError(f"cannot replace {path}: {exc}") from None


def _write_text(path: str, text: str):
    _unlink(path)  # a new file: ext4 makes rewriting an old one wait for its blocks
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise PipelineIOError(f"cannot write {path}: {exc}") from None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pipeline(config: PipelineConfig, base_dir=None, write: bool = True) -> ReportBundle:
    """Execute the configured stages and (optionally) write the bundle.

    Returns a ReportBundle whose errors map any failed stage to its
    diagnostic.  Raises PipelineIOError when the data source or the
    output directory is unusable, and IngestError when the source data
    does not match the configured variables; analysis-stage failures are
    recorded, not raised.
    """
    bundle = ReportBundle()
    captured = []
    with warnings.catch_warnings(record=True) as wrec:
        warnings.simplefilter("always")

        t0 = time.perf_counter()
        dataset = transform_dataset(config, ingest_dataset(config, base_dir))
        bundle.timings["ingest"] = time.perf_counter() - t0

        store = {}
        runners = {
            "describe": lambda: _stage_describe(config, dataset),
            "correlation": lambda: _stage_correlation(config, dataset),
            "unitroot": lambda: _stage_unitroot(config, dataset),
            "hausman": lambda: _stage_hausman(config, dataset),
            "gmm": lambda: _stage_gmm(config, dataset, store),
            "fmols": lambda: _stage_fmols(config, dataset, store),
            "comparison": lambda: _stage_comparison(config, store),
        }
        for stage in STAGES:
            if stage not in config.stages:
                continue
            t0 = time.perf_counter()
            try:
                bundle.tables[stage] = runners[stage]()
            except Exception as exc:  # noqa: BLE001 - isolation is the contract
                bundle.errors[stage] = f"{type(exc).__name__}: {exc}"
            bundle.timings[stage] = time.perf_counter() - t0
        captured = wrec

    seen, warning_records = set(), []
    for w in captured:
        key = (w.category.__name__, str(w.message))
        if key not in seen:
            seen.add(key)
            warning_records.append({"category": key[0], "message": key[1]})

    manifest = {
        "config_digest": config.digest(),
        "seed": config.seed,
        "version": __version__,
        "stages": [s for s in STAGES if s in config.stages],
        "warnings": warning_records,
        "errors": dict(sorted(bundle.errors.items())),
        "artifacts": {},
        "timings_file": TIMINGS_NAME,
    }

    if write:
        out_dir = bundle.out_dir = _output_dir(config, base_dir)
        # No manifest while artifacts are replaced: a failed write leaves none.
        _unlink(os.path.join(out_dir, MANIFEST_NAME))
        for stage in STAGES:
            if stage not in bundle.tables:
                continue
            table = bundle.tables[stage]
            entry = {}
            for fmt in config.output.formats:
                text = render_table(table, fmt)
                filename = f"{stage}.{fmt}"
                _write_text(os.path.join(out_dir, filename), text)
                entry[fmt] = {"path": filename, "sha256": _sha256(text)}
            manifest["artifacts"][stage] = entry
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write_text(os.path.join(out_dir, MANIFEST_NAME), manifest_text)
        timings_text = json.dumps(bundle.timings, indent=2, sort_keys=True) + "\n"
        _write_text(os.path.join(out_dir, TIMINGS_NAME), timings_text)

    bundle.manifest = manifest
    return bundle


def write_ingested(config: PipelineConfig, base_dir=None) -> str:
    """Ingest + transform only; write the merged panel for inspection.

    Returns the written CSV path (long schema, inside the output
    directory).
    """
    dataset = transform_dataset(config, ingest_dataset(config, base_dir))
    path = os.path.join(_output_dir(config, base_dir), "panel.csv")
    write_panel_csv(dataset, path, schema="long")
    return path
