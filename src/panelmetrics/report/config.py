"""Pipeline configuration: YAML schema, strict validation, canonical digest.

The config is a single YAML document, versioned through config_version so
stale files fail loudly instead of being reinterpreted; the one accepted
version, CONFIG_VERSION, is not stored but hashed by digest().  Validation is
strict: unknown keys anywhere are errors, and every model reference must
resolve to a defined (possibly log-transformed) series.  No computation
reads the seed: it is recorded in the manifest and the digest only, and
stays required because config_version 1 files carry it.
The digest is read from the dataclasses, so no second list of fields exists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import yaml

from ..data import ModelSpec
from ..unitroot import DET_TERMS

CONFIG_VERSION = 1

STAGES = ("describe", "correlation", "unitroot", "hausman", "gmm", "fmols", "comparison")
FORMATS = ("md", "csv", "json")


class ConfigError(ValueError):
    """Invalid configuration document."""


@dataclass(frozen=True)
class VariableDef:
    """One data variable: a source column or indicator code, optionally logged."""

    name: str
    source: str
    log: bool = False

    @property
    def series_name(self) -> str:
        """Name of the series this variable contributes to the analysis."""
        return f"ln_{self.name}" if self.log else self.name


@dataclass(frozen=True)
class DataSource:
    """Where the panel comes from: a CSV file or an indicator API."""

    kind: str  # "file" | "fetch"
    path: str | None = None
    schema: str = "wide"
    base_url: str | None = None
    provider: str | None = None
    years: str | None = None
    cache_dir: str = ".indicator-cache"


@dataclass(frozen=True)
class TestOptions:
    """Shared options for the unit-root battery and the estimators."""

    det: str = "c"
    lags: int | None = None  # None = automatic rule
    bandwidth: int | None = None  # None = automatic rule
    gmm_depth: int | None = None  # None = all available lags
    gmm_collapse: bool = False
    variables: tuple = ()  # unit-root subset; empty = all analysis series


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "out"
    formats: tuple = FORMATS


@dataclass(frozen=True)
class PipelineConfig:
    """Validated pipeline configuration.

    digest() hashes the canonical plain-data form of the analysis
    (defaults filled in, key order fixed), which the manifest records so
    identical runs are recognizable.
    """

    seed: int
    data: DataSource
    variables: tuple
    models: tuple  # ModelSpec entries
    tests: TestOptions
    stages: tuple
    output: OutputOptions

    def analysis_series(self) -> tuple:
        """Series names the analysis stages run on, in variable order."""
        return tuple(v.series_name for v in self.variables)

    def digest(self) -> str:
        """Digest of the analytical content (everything but the output block).

        Where artifacts land does not change what was computed, so two runs
        of the same analysis into different directories share a digest.
        Fields go under their file names: config_version, data.source, {var, lag}.
        """
        plain = asdict(self)
        del plain["output"]
        plain["config_version"] = CONFIG_VERSION
        plain["data"]["source"] = plain["data"].pop("kind")
        for model in plain["models"]:
            model["regressors"] = [{"var": v, "lag": k} for v, k in model["regressors"]]
        return hashlib.sha256(json.dumps(plain, sort_keys=True).encode("utf-8")).hexdigest()

    def with_overrides(self, out_dir=None, formats=None, stages=None):
        """Copy with CLI-level overrides applied."""
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=str(out_dir)))
        if formats is not None:
            fmts = _canonical_subset(formats, FORMATS, "formats")
            cfg = replace(cfg, output=replace(cfg.output, formats=fmts))
        if stages is not None:
            cfg = replace(cfg, stages=_canonical_subset(stages, STAGES, "stages"))
        return cfg


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(mapping: dict, allowed, where: str):
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(f"{where}: unknown keys {extra}")


def _get_str(mapping: dict, key: str, where: str, default=None, required=False) -> str | None:
    if key not in mapping:
        if required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = mapping[key]
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}.{key}: expected a nonempty string")
    return value


def _get_bool(mapping: dict, key: str, where: str, default=False) -> bool:
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected true/false")
    return value


def _get_count(mapping: dict, key: str, where: str, minimum=0):
    """Integer >= minimum, or the sentinel strings 'auto'/'all' mapped to None."""
    value = mapping.get(key)
    if value is None or value in ("auto", "all"):
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, 'auto', or 'all'")
    if value < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}")
    return value


def _strings(values, what) -> tuple:
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
        raise ConfigError(f"{what}: expected a list of strings")
    return tuple(values)


def _canonical_subset(values, universe, what) -> tuple:
    values = _strings([values] if isinstance(values, str) else values, what)
    if not values:
        raise ConfigError(f"{what}: expected a nonempty list of strings")
    bad = sorted(set(values) - set(universe))
    if bad:
        raise ConfigError(f"{what}: unknown entries {bad}; allowed {list(universe)}")
    return tuple(u for u in universe if u in set(values))


def _validate_data(raw) -> DataSource:
    raw = _require_mapping(raw, "data")
    kind = _get_str(raw, "source", "data", default="file")
    if kind == "file":
        _reject_unknown(raw, ("source", "path", "schema"), "data")
        path = _get_str(raw, "path", "data", required=True)
        schema = _get_str(raw, "schema", "data", default="wide")
        if schema not in ("wide", "long"):
            raise ConfigError(f"data.schema: expected 'wide' or 'long', got {schema!r}")
        return DataSource(kind="file", path=path, schema=schema)
    if kind == "fetch":
        _reject_unknown(raw, ("source", "base_url", "provider", "years", "cache_dir"), "data")
        base_url = _get_str(raw, "base_url", "data", required=True)
        provider = _get_str(raw, "provider", "data", required=True)
        years = _get_str(raw, "years", "data", required=True)
        parts = years.split(":")
        if len(parts) != 2 or not all(p.isdigit() and len(p) == 4 for p in parts):
            raise ConfigError(f"data.years: expected 'YYYY:YYYY', got {years!r}")
        if int(parts[0]) > int(parts[1]):
            raise ConfigError(f"data.years: range start after end in {years!r}")
        cache_dir = _get_str(raw, "cache_dir", "data", default=".indicator-cache")
        return DataSource(
            kind="fetch", base_url=base_url, provider=provider, years=years, cache_dir=cache_dir
        )
    raise ConfigError(f"data.source: expected 'file' or 'fetch', got {kind!r}")


def _validate_variables(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("variables: expected a nonempty list")
    out, defined_by = [], {}  # series name -> index of the variable defining it
    for i, item in enumerate(raw):
        where = f"variables[{i}]"
        item = _require_mapping(item, where)
        _reject_unknown(item, ("name", "source", "log"), where)
        name = _get_str(item, "name", where, required=True)
        source = _get_str(item, "source", where, default=name)
        log = _get_bool(item, "log", where)
        for series in (name, f"ln_{name}") if log else (name,):
            if series in defined_by:
                raise ConfigError(
                    f"{where}: duplicate variable series {series!r}, "
                    f"also defined by variables[{defined_by[series]}]"
                )
            defined_by[series] = i
        out.append(VariableDef(name=name, source=source, log=log))
    return tuple(out)


def _validate_models(raw, available) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("models: expected a nonempty list")
    out, labels = [], set()
    for i, item in enumerate(raw):
        where = f"models[{i}]"
        item = _require_mapping(item, where)
        _reject_unknown(item, ("label", "dependent", "regressors", "lagged_dependent"), where)
        label = str(item.get("label", i + 1))
        if label in labels:
            raise ConfigError(f"{where}: duplicate model label {label!r}")
        labels.add(label)
        dependent = _get_str(item, "dependent", where, required=True)
        if dependent not in available:
            raise ConfigError(f"{where}.dependent: {dependent!r} is not a defined series")
        regs_raw = item.get("regressors")
        if not isinstance(regs_raw, list) or not regs_raw:
            raise ConfigError(f"{where}.regressors: expected a nonempty list")
        regressors = []
        for j, reg in enumerate(regs_raw):
            rwhere = f"{where}.regressors[{j}]"
            reg = _require_mapping(reg, rwhere)
            _reject_unknown(reg, ("var", "lag"), rwhere)
            var = _get_str(reg, "var", rwhere, required=True)
            if var not in available:
                raise ConfigError(f"{rwhere}: {var!r} is not a defined series")
            lag = reg.get("lag", 0)
            if isinstance(lag, bool) or not isinstance(lag, int) or lag < 0:
                raise ConfigError(f"{rwhere}.lag: expected an integer >= 0")
            regressors.append((var, lag))
        out.append(ModelSpec(
            label=label,
            dependent=dependent,
            regressors=tuple(regressors),
            lagged_dependent=_get_bool(item, "lagged_dependent", where),
        ))
    return tuple(out)


def _validate_tests(raw, available) -> TestOptions:
    if raw is None:
        return TestOptions()
    raw = _require_mapping(raw, "tests")
    _reject_unknown(
        raw, ("det", "lags", "bandwidth", "gmm_depth", "gmm_collapse", "variables"), "tests"
    )
    det = _get_str(raw, "det", "tests", default="c")
    if det not in DET_TERMS:
        raise ConfigError(f"tests.det: expected one of {list(DET_TERMS)}, got {det!r}")
    variables = raw.get("variables")  # null or [] mean all series
    variables = () if variables is None else _strings(variables, "tests.variables")
    bad = sorted(set(variables) - set(available))
    if bad:
        raise ConfigError(f"tests.variables: {bad} are not defined series")
    return TestOptions(
        det=det,
        lags=_get_count(raw, "lags", "tests"),
        bandwidth=_get_count(raw, "bandwidth", "tests"),
        gmm_depth=_get_count(raw, "gmm_depth", "tests", minimum=1),
        gmm_collapse=_get_bool(raw, "gmm_collapse", "tests"),
        variables=variables,
    )


def _validate_output(raw) -> OutputOptions:
    if raw is None:
        return OutputOptions()
    raw = _require_mapping(raw, "output")
    _reject_unknown(raw, ("directory", "formats"), "output")
    directory = _get_str(raw, "directory", "output", default="out")
    formats = raw.get("formats")
    if formats is None:
        return OutputOptions(directory=directory)
    return OutputOptions(directory=directory, formats=_canonical_subset(formats, FORMATS, "output.formats"))


def validate_config(document) -> PipelineConfig:
    """Validate a parsed YAML document into a PipelineConfig.

    Raises ConfigError on the first problem found; nothing is computed
    from a config that fails validation.
    """
    document = _require_mapping(document, "config")
    _reject_unknown(
        document,
        ("config_version", "seed", "data", "variables", "models", "tests", "stages", "output"),
        "config",
    )
    version = document.get("config_version")
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config_version: expected {CONFIG_VERSION}, got {version!r} "
            "(the schema is versioned; update the file, not the reader)"
        )
    seed = document.get("seed")
    if seed is None:
        raise ConfigError("seed: required (config_version 1 carries it)")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ConfigError("seed: expected an unsigned 64-bit integer")

    data = _validate_data(document.get("data"))
    variables = _validate_variables(document.get("variables"))
    available = {v.series_name for v in variables} | {v.name for v in variables}
    models = _validate_models(document.get("models"), available)
    tests = _validate_tests(document.get("tests"), available)
    stages = (
        _canonical_subset(document["stages"], STAGES, "stages")
        if "stages" in document
        else STAGES
    )
    output = _validate_output(document.get("output"))

    return PipelineConfig(
        seed=seed,
        data=data,
        variables=variables,
        models=models,
        tests=tests,
        stages=stages,
        output=output,
    )


def load_config(path) -> PipelineConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    return validate_config(document)
