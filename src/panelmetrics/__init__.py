"""Panel data econometrics: transforms, diagnostics, and estimators.

Submodules
----------
data
    Dataset container, CSV schemas, calendar lags and differences.
descriptives
    Summary moments, Jarque-Bera, Pearson correlations.
unitroot
    ADF, Phillips-Perron, pooled-t, mean-t, Fisher combinations, battery.
effects
    Pooled, fixed-effects, random-effects regressions and Hausman test.
fmols
    Pooled fully modified OLS for cointegrated panels.
gmm
    First-difference GMM for dynamic panels.
report
    Config-driven pipeline, table rendering, indicator fetching, CLI.
"""

__version__ = "0.1.0"

from .data import (
    ModelSpec,
    PanelDataset,
    PanelWarning,
    RegressionSample,
    VariableSeries,
    first_difference,
    lag,
    natural_log,
    read_panel_csv,
    regression_sample,
    write_panel_csv,
)
from .descriptives import (
    DescriptiveStats,
    correlation_matrix,
    describe,
    describe_table,
    jarque_bera,
    pearson,
)
from .effects import (
    EffectsResult,
    HausmanResult,
    fixed_effects,
    hausman,
    pooled_ols,
    random_effects,
)
from .fmols import FmolsResult, fmols_panel
from .gmm import (
    GmmResult,
    InstrumentMatrix,
    build_instruments,
    differenced_sample,
    gmm_estimate,
)
from .unitroot import (
    BatteryResult,
    UnitRootResult,
    adf_test,
    default_lags,
    fisher_adf,
    fisher_combine,
    fisher_pp,
    ips_test,
    llc_test,
    long_run_covariances,
    neweywest_bandwidth,
    pp_test,
    run_battery,
)

__all__ = [name for name in dir() if not name.startswith("_")]
