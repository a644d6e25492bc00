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

Each public name is imported from the module that defines it, e.g.
``from panelmetrics.gmm import gmm_estimate``; the package re-exports nothing.
"""

__version__ = "0.1.0"
