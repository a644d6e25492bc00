"""Regenerate the finite-sample moment table for the panel t-bar test.

For each deterministic case, series length T, and augmentation lag p, this
simulates the Dickey-Fuller t-statistic under a driftless random walk and
records its mean and variance.  The t-bar standardization consumes exactly
these moments, so they are simulated through the package's own stacked
Dickey-Fuller regression, `unitroot._df_regression`, imported from this
checkout's src/; it is the kernel behind unitroot.adf_test and the panel
tests (a test pins the tau here to adf_test at 1e-10 on shared draws).
The lag cap per length is `unitroot._ips_lag_cap`, the same rule the t-bar
test applies when it reads the table, so the table holds exactly the lags
the test asks for; its IPS_MAX_LAG is carried over from the current table.

Usage: python tools/gen_ips_moments.py [--reps 200000] [--out src/panelmetrics/_ipsmoments.py]

Writes a generated module and prints the p=0 column for eyeballing against
published tables (roughly E[t] -1.50 at T=10 drifting to -1.53 at T=100 for
the intercept case).
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from panelmetrics.unitroot import IPS_MAX_LAG, _df_regression, _ips_lag_cap as p_max  # noqa: E402

T_GRID = (8, 9, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80, 100)
MASTER_SEED = 20260816
CHUNK = 20_000


def simulate_tau(T: int, p: int, det: str, reps: int, seed) -> np.ndarray:
    """DF t-statistics for `reps` driftless random walks, fitted a chunk at a time."""
    rng = np.random.default_rng(seed)
    chunks = [min(CHUNK, reps - done) for done in range(0, reps, CHUNK)]
    walks = (rng.standard_normal((b, T)).cumsum(axis=1) for b in chunks)
    return np.concatenate([_df_regression(y, det, p)[0] for y in walks])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=200_000)
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "src/panelmetrics/_ipsmoments.py"),
    )
    args = ap.parse_args(argv)

    ss = np.random.SeedSequence(MASTER_SEED)
    cells = [
        (det, T, p)
        for det in ("c", "ct")
        for T in T_GRID
        for p in range(p_max(T, det) + 1)
    ]
    seeds = ss.spawn(len(cells))

    moments = {"c": {}, "ct": {}}
    t0 = time.time()
    for (det, T, p), seed in zip(cells, seeds):
        taus = simulate_tau(T, p, det, args.reps, seed)
        moments[det][(T, p)] = (float(taus.mean()), float(taus.var(ddof=1)))
        print(
            f"{det:2s} T={T:3d} p={p}  E={moments[det][(T, p)][0]:+.4f} "
            f"V={moments[det][(T, p)][1]:.4f}  [{time.time() - t0:6.1f}s]",
            flush=True,
        )

    lines = [
        '"""Simulated mean/variance of the Dickey-Fuller t under the unit-root null.',
        "",
        "Generated by tools/gen_ips_moments.py; do not edit by hand.",
        f"Replications per cell: {args.reps}; master seed {MASTER_SEED}.",
        '"""',
        "",
        f"IPS_T_GRID = {T_GRID!r}",
        f"IPS_MAX_LAG = {IPS_MAX_LAG}",
        "",
        "# det -> (T, p) -> (mean, variance)",
        "IPS_MOMENTS = {",
    ]
    for det in ("c", "ct"):
        lines.append(f"    {det!r}: {{")
        for (T, p), (m, v) in sorted(moments[det].items()):
            lines.append(f"        ({T}, {p}): ({m:.6f}, {v:.6f}),")
        lines.append("    },")
    lines.append("}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")

    print("\np=0 intercept column for cross-checking:")
    for T in T_GRID:
        m, v = moments["c"][(T, 0)]
        print(f"  T={T:3d}  E={m:+.4f}  V={v:.4f}")


if __name__ == "__main__":
    sys.exit(main())
