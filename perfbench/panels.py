"""Deterministic benchmark panels and the workload configs that analyse them.

The generating law is the one behind the package's bundled 74 x 9 fixture
(partial adjustment of log prosperity towards an entity attractor, AR(1)
regressor disturbances around entity levels and trends), generalised to any
entity count and year span.  Its constants are copied here rather than
imported so that the benchmark's inputs do not move when the package's
fixture module is refactored; ``selfcheck.py`` confirms that at 74 entities x
2013-2021 and the fixture seed every cell the fixture does not blank is
bit-identical to ``panelmetrics.fixture.synthetic_panel()``.

Missing cells are drawn after every draw of the law, so a gap rate or
ragged edges never change the values of the cells that remain.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

FIXTURE_SEED = 733812
RAW_VARIABLES = (
    "prosperity",
    "oda_per_capita",
    "innovation",
    "rule_of_law",
    "aid_infrastructure",
    "aid_education",
)
# name -> (level, entity spread, trend per year, AR sigma)
_X_PARAMS = {
    "oda_per_capita": (2.5, 1.5, -0.010, 0.30),
    "innovation": (2.8, 0.6, 0.015, 0.08),
    "rule_of_law": (-0.4, 0.5, 0.002, 0.05),
    "aid_infrastructure": (16.5, 1.8, 0.000, 0.50),
    "aid_education": (16.0, 1.7, 0.000, 0.50),
}
_LOADINGS = {
    "oda_per_capita": 0.004,
    "innovation": 0.010,
    "rule_of_law": 0.008,
    "aid_infrastructure": 0.002,
    "aid_education": 0.002,
}
_X_AR = 0.6
_Y_RHO = 0.93
_Y_SIGMA = 0.003
_LEVEL_MEAN = 3.9
_LEVEL_SD = 0.14
_GAP_MEAN = 0.30
_GAP_SD = 0.05


def entity_names(n_entities: int) -> tuple:
    width = max(2, len(str(n_entities)))
    return tuple(f"C{i + 1:0{width}d}" for i in range(n_entities))


def generate_panel(n_entities: int, years: tuple, seed: int,
                   gap_rate: float = 0.0, ragged: int = 0) -> dict:
    """Raw indicator grids, name -> (n_entities, len(years)) array, NaN missing.

    gap_rate blanks each (variable, entity, year) cell independently with
    that probability; ragged blanks up to that many leading and trailing
    years of every variable of an entity, the two widths drawn uniformly
    and independently per entity.
    """
    rng = np.random.default_rng(seed)
    N, T = n_entities, len(years)

    logs = {}
    for name, (level, spread, trend, sigma) in _X_PARAMS.items():
        ent_level = level + spread * rng.standard_normal(N)
        shock = np.zeros((N, T + 2))
        for t in range(1, T + 2):
            shock[:, t] = _X_AR * shock[:, t - 1] + sigma * rng.standard_normal(N)
        steps = np.arange(0, T + 1, dtype=float)
        # columns run from one presample year to the last year
        logs[name] = ent_level[:, None] + trend * steps[None, :] + shock[:, 1:]

    mu = _LEVEL_MEAN + _LEVEL_SD * rng.standard_normal(N)
    gap = _GAP_MEAN + _GAP_SD * rng.standard_normal(N)
    grand = {name: logs[name].mean() for name in _LOADINGS}
    entity_mean = {name: logs[name].mean(axis=1) for name in _LOADINGS}
    attractor = mu + sum(
        _LOADINGS[name] * (entity_mean[name] - grand[name]) for name in _LOADINGS
    ) / (1 - _Y_RHO)
    const = (1 - _Y_RHO) * mu - sum(_LOADINGS[name] * grand[name] for name in _LOADINGS)

    w = np.zeros((N, T + 1))
    w[:, 0] = attractor - gap
    for t in range(1, T + 1):
        lagged = sum(_LOADINGS[name] * logs[name][:, t - 1] for name in _LOADINGS)
        w[:, t] = const + _Y_RHO * w[:, t - 1] + lagged + _Y_SIGMA * rng.standard_normal(N)

    grids = {"prosperity": np.exp(w[:, 1:])}
    for name in _X_PARAMS:
        grids[name] = np.exp(logs[name][:, 1:])

    if gap_rate > 0:
        holes = rng.random((len(RAW_VARIABLES), N, T)) < gap_rate
        for k, name in enumerate(RAW_VARIABLES):
            grids[name][holes[k]] = np.nan
    if ragged > 0:
        late = rng.integers(0, ragged + 1, N)
        early = rng.integers(0, ragged + 1, N)
        col = np.arange(T)
        outside = (col[None, :] < late[:, None]) | (col[None, :] >= T - early[:, None])
        for name in RAW_VARIABLES:
            grids[name][outside] = np.nan
    return {name: grids[name] for name in RAW_VARIABLES}


def write_wide_csv(path: str, entities: tuple, years: tuple, grids: dict):
    """Wide CSV as the package reads it; entity-years with no value are omitted."""
    names = list(grids)
    stacked = np.stack([grids[n] for n in names], axis=-1)  # (N, T, V)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["entity", "year"] + names) + "\n")
        for i, entity in enumerate(entities):
            for j, year in enumerate(years):
                cells = stacked[i, j]
                if np.isnan(cells).all():
                    continue
                tokens = ["" if np.isnan(v) else repr(float(v)) for v in cells]
                fh.write(f"{entity},{year}," + ",".join(tokens) + "\n")


@dataclass(frozen=True)
class Workload:
    name: str
    n_entities: int
    years: tuple
    gap_rate: float = 0.0
    ragged: int = 0
    tests: tuple = ()  # extra (key, value) pairs of the config's tests block
    fetch: bool = False
    # generated workloads analyse one of this many panels, chosen by seed,
    # so that every run can be checked against a stored reference
    panel_pool: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-fetch-74x9", 74, tuple(range(2013, 2022)), fetch=True),
        Workload("balanced-500x20", 500, tuple(range(2002, 2022)), panel_pool=8),
        Workload(
            "gappy-600x30",
            600,
            tuple(range(1991, 2021)),
            gap_rate=0.05,
            ragged=7,
            tests=(("gmm_depth", 3), ("gmm_collapse", True)),
            panel_pool=8,
        ),
    )
}

PER_PAGE = 50  # stub page cap: 666 records per indicator -> 14 pages
PROVIDER = "bench"


def panel_index(workload: Workload, seed: int) -> int:
    return seed % workload.panel_pool


def panel_seed(workload: Workload, seed: int) -> int:
    """Generator seed of the panel a run analyses; distinct per workload."""
    return zlib.crc32(workload.name.encode("utf-8")) + panel_index(workload, seed)


def config_document(workload: Workload, data_path: str, out_dir: str,
                    base_url: str = "http://127.0.0.1:1", cache_dir: str = "cache") -> dict:
    """The paper's analysis (6 logged variables, 5 dynamic models, 7 stages)."""
    if workload.fetch:
        data = {
            "source": "fetch",
            "base_url": base_url,
            "provider": PROVIDER,
            "years": f"{workload.years[0]}:{workload.years[-1]}",
            "cache_dir": cache_dir,
        }
    else:
        data = {"source": "file", "path": data_path, "schema": "wide"}
    regressors = RAW_VARIABLES[1:]
    return {
        "config_version": 1,
        "seed": 20260816,
        "data": data,
        "variables": [{"name": name, "log": True} for name in RAW_VARIABLES],
        "models": [
            {
                "label": str(i + 1),
                "dependent": "ln_prosperity",
                "regressors": [{"var": f"ln_{var}", "lag": 1}],
                "lagged_dependent": True,
            }
            for i, var in enumerate(regressors)
        ],
        "tests": {"det": "c", **dict(workload.tests)},
        "output": {"directory": out_dir, "formats": ["md", "csv", "json"]},
    }


def shipped_fixture_csv(root: str) -> str:
    return os.path.join(root, "src", "panelmetrics", "assets", "synthetic_panel.csv")


def prepare_inputs(workload: Workload, seed: int, work: str) -> str | None:
    """Write the workload's panel CSV under work; returns its path (None for fetch)."""
    if workload.fetch:
        return None
    path = os.path.join(work, f"panel-{panel_index(workload, seed)}.csv")
    if not os.path.exists(path):
        grids = generate_panel(
            workload.n_entities,
            workload.years,
            panel_seed(workload, seed),
            gap_rate=workload.gap_rate,
            ragged=workload.ragged,
        )
        tmp = path + ".part"
        write_wide_csv(tmp, entity_names(workload.n_entities), workload.years, grids)
        os.replace(tmp, path)
    return path
