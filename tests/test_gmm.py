"""Tests for first-difference dynamic panel GMM."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from panelmetrics import gmm
from panelmetrics.data import (
    ModelSpec,
    PanelDataset,
    PanelWarning,
    RegressionSample,
    VariableSeries,
    regression_sample,
)
from panelmetrics.effects import _wald, fixed_effects
from panelmetrics.gmm import (
    build_instruments,
    differenced_sample,
    _h_blocks,
    gmm_estimate,
)

AR_SPEC = ModelSpec(label="ar", dependent="y", regressors=(), lagged_dependent=True)


def build_panel(name_vals, start=1):
    """Dataset from a dict of entity-by-period value matrices."""
    mats = {k: np.atleast_2d(np.asarray(v, dtype=float)) for k, v in name_vals.items()}
    n, width = next(iter(mats.values())).shape
    entities = tuple(f"E{i}" for i in range(n))
    periods = tuple(range(start, start + width))
    ds = PanelDataset(entities=entities, periods=periods)
    for name, values in mats.items():
        ds.add(VariableSeries(name=name, entities=entities, periods=periods, values=values))
    return ds


def ar_panel(rng, n, width, rho, effect_scale=0.3):
    """Stationary AR(1) panel with entity effects, returning (y, eps)."""
    c = effect_scale * rng.standard_normal(n)
    eps = rng.standard_normal((n, width))
    y = np.empty((n, width))
    y[:, 0] = c / (1 - rho) + rng.standard_normal(n) / np.sqrt(1 - rho**2)
    for t in range(1, width):
        y[:, t] = c + rho * y[:, t - 1] + eps[:, t]
    return y, eps


def dense_z(instruments):
    """The instruments' (rows, instruments) matrix, every cell written out."""
    rows, d = instruments.dense.shape
    n_levels = instruments.n_instruments - d
    levels = np.zeros(rows * n_levels)
    levels[instruments.cells] = instruments.levels
    return np.hstack([levels.reshape(rows, n_levels), instruments.dense])


def with_z(instruments, columns, Z):
    """instruments with the matrix Z under the labels columns, each nonzero a level cell."""
    cells = np.flatnonzero(Z)
    return replace(instruments, columns=tuple(columns), cells=cells, levels=Z.reshape(-1)[cells],
                   dense=Z[:, :0])


def entity_rows(rows):
    """(entity, row slice) of each entity in stacked entity-sorted rows."""
    bounds = np.searchsorted(rows.entity_ids, np.arange(len(rows.entities) + 1))
    return [(e, slice(a, b)) for e, a, b in zip(rows.entities, bounds[:-1], bounds[1:])]


class TestDifferencedSample:
    def test_hand_rows(self):
        # y = 1, 2, 4, 7: differenced rows usable at t = 3 and 4
        s = differenced_sample(build_panel({"y": [1.0, 2.0, 4.0, 7.0]}), AR_SPEC)
        assert isinstance(s, RegressionSample)
        assert s.entities == ("E0",)
        np.testing.assert_array_equal(s.entity_ids, [0, 0])
        assert list(s.periods) == [3, 4]
        np.testing.assert_array_equal(s.y, [2.0, 3.0])
        np.testing.assert_array_equal(s.X.ravel(), [1.0, 2.0])
        assert s.n_obs == 2
        assert s.periods_included == 2

    def test_two_periods_is_error(self):
        with pytest.raises(ValueError, match="no differenceable"):
            with pytest.warns(UserWarning, match="dropped 1 entity"):
                differenced_sample(build_panel({"y": [1.0, 2.0]}), AR_SPEC)

    def test_entity_without_consecutive_rows_dropped(self):
        y = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, np.nan, 4.0, 5.0]])
        with pytest.warns(UserWarning, match="dropped 1 entity") as caught:
            s = differenced_sample(build_panel({"y": y}), AR_SPEC)
        assert [str(w.message) for w in caught] == [
            "gmm: dropped 1 entity(ies) with no differenceable rows: E1"
        ]
        assert s.entities == ("E0",)
        np.testing.assert_array_equal(s.entity_ids, [0, 0, 0])

    def test_dropped_entity_names_stop_after_eight(self):
        y = np.tile([1.0, 2.0, np.nan, 4.0, 5.0], (12, 1))
        y[5] = [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.warns(PanelWarning) as caught:
            s = differenced_sample(build_panel({"y": y}), AR_SPEC)
        assert [str(w.message) for w in caught] == [
            "gmm: dropped 11 entity(ies) with no differenceable rows: "
            "E0, E1, E2, E3, E4, E6, E7, E8..."
        ]
        assert s.entities == ("E5",)


def per_cell_instruments(ds, spec, max_depth, collapse):
    """Reference instrument matrix, one cell at a time: the level at source
    year s instruments equation year t when 2 <= t - s <= max_depth + 1 and
    s is a panel year.  Returns (columns, dropped_columns, blocks), one
    (entity, years, Z_i) block per entity."""
    sample = differenced_sample(ds, spec)
    dep = ds[spec.dependent]
    years = sorted({int(t) for t in sample.periods})
    pairs = [(t, s) for t in years for s in range(dep.periods[0], t - 1)
             if max_depth is None or t - s <= max_depth + 1]
    keys = sorted({t - s for t, s in pairs}) if collapse else pairs
    columns = [f"lev[t-{d}]" if collapse else f"lev[{d[0]},{d[1]}]" for d in keys]
    columns += [f"d_{name}" for name in sample.columns[1:]]
    blocks = []
    for entity, r in entity_rows(sample):
        yrs, dX = sample.periods[r], sample.X[r]
        Z = np.zeros((yrs.shape[0], len(columns)))
        for r, t in enumerate(yrs):
            for t_pair, s in pairs:
                if t_pair != t or s not in dep.periods:
                    continue
                v = dep.values[dep.entities.index(entity), dep.periods.index(s)]
                if np.isfinite(v):
                    Z[r, keys.index(t - s if collapse else (t, s))] = v
        Z[:, len(keys):] = dX[:, 1:]
        blocks.append((entity, yrs, Z))
    keep = np.any([np.any(Z != 0.0, axis=0) for _, _, Z in blocks], axis=0)
    dropped = tuple(c for c, k in zip(columns, keep) if not k)
    kept = tuple(c for c, k in zip(columns, keep) if k)
    return kept, dropped, [(e, yrs, Z[:, keep]) for e, yrs, Z in blocks]


class TestBuildInstruments:
    def test_t4_uncollapsed_layout(self):
        # t = 3 instruments {y1}; t = 4 instruments {y1, y2}: 3 columns
        ds = build_panel({"y": [1.0, 2.0, 4.0, 7.0]})
        Z = build_instruments(ds, differenced_sample(ds, AR_SPEC))
        assert Z.columns == ("lev[3,1]", "lev[4,1]", "lev[4,2]")
        np.testing.assert_array_equal(dense_z(Z), [[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]])
        np.testing.assert_array_equal(Z.sample.periods, [3, 4])

    def test_t4_collapsed_layout(self):
        # one column per lag distance (2 and 3)
        ds = build_panel({"y": [1.0, 2.0, 4.0, 7.0]})
        Z = build_instruments(ds, differenced_sample(ds, AR_SPEC), collapse=True)
        assert Z.columns == ("lev[t-2]", "lev[t-3]")
        np.testing.assert_array_equal(dense_z(Z), [[1.0, 0.0], [2.0, 1.0]])

    @pytest.mark.parametrize("width", [5, 6, 8])
    def test_balanced_count_formula(self, width):
        rng = np.random.default_rng(width)
        ds = build_panel({"y": rng.standard_normal((3, width))})
        Z = build_instruments(ds, differenced_sample(ds, AR_SPEC))
        assert Z.n_instruments == (width - 2) * (width - 1) // 2

    def test_exogenous_regressors_instrument_themselves(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec(
            label="dyn", dependent="y", regressors=(("x", 1),), lagged_dependent=True
        )
        y = rng.standard_normal((2, 5))
        x = rng.standard_normal((2, 5))
        ds = build_panel({"y": y, "x": x})
        s = differenced_sample(ds, spec)
        Z = build_instruments(ds, s)
        assert Z.columns[-1] == "d_x_lag1"
        first = s.entity_ids == 0
        hand = np.array([x[0, t - 2] - x[0, t - 3] for t in s.periods[first]])
        np.testing.assert_array_equal(Z.dense[first, -1], hand)

    def test_all_zero_columns_dropped(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((4, 5)) + 2.0
        y[:, 0] = np.nan  # any instrument sourced from period 1 is empty
        ds = build_panel({"y": y})
        s = differenced_sample(ds, AR_SPEC)
        with pytest.warns(UserWarning, match="all-zero instrument column"):
            Z = build_instruments(ds, s)
        assert Z.dropped_columns == ("lev[4,1]", "lev[5,1]")
        assert "lev[4,1]" not in Z.columns
        assert dense_z(Z).shape == (8, 3)

    def test_matches_per_cell_rule_on_random_panels(self):
        # grid years missing, NaN and zero levels, entities with no
        # differenceable rows, every depth and both layouts
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(60):
            n, T = int(rng.integers(1, 6)), int(rng.integers(3, 11))
            span = np.arange(1990, 1990 + T + int(rng.integers(0, 4)))
            periods = tuple(int(y) for y in np.union1d(span[:1], rng.choice(span, T - 1)))
            y = rng.standard_normal((n, len(periods)))
            y[rng.random(y.shape) < 0.15] = np.nan
            y[rng.random(y.shape) < 0.05] = 0.0
            ds = PanelDataset(entities=tuple(f"E{i}" for i in range(n)), periods=periods)
            for name, vals in (("y", y), ("x", rng.standard_normal(y.shape))):
                ds.add(VariableSeries(name=name, entities=ds.entities, periods=periods,
                                      values=vals))
            spec = ModelSpec(label="r", dependent="y", regressors=(("x", 0),) * (n % 2),
                             lagged_dependent=True)
            for depth in (None, 1, 2, 3):
                for collapse in (False, True):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            Z = build_instruments(ds, differenced_sample(ds, spec),
                                                  max_depth=depth, collapse=collapse)
                        except ValueError:
                            continue
                        columns, dropped, blocks = per_cell_instruments(ds, spec, depth, collapse)
                    assert Z.columns == columns
                    assert Z.dropped_columns == dropped
                    assert any("all-zero" in str(w.message) for w in caught) == bool(dropped)
                    assert np.all(np.diff(Z.cells) > 0)  # ascending, each cell once
                    Z_dense = dense_z(Z)
                    assert Z_dense.shape[0] == sum(yrs.shape[0] for _, yrs, _ in blocks)
                    assert len(entity_rows(Z.sample)) == len(blocks)
                    for (e, r), (e_ref, yrs_ref, want) in zip(entity_rows(Z.sample), blocks):
                        assert e == e_ref
                        np.testing.assert_array_equal(Z.sample.periods[r], yrs_ref)
                        np.testing.assert_array_equal(Z_dense[r], want)
                    checked += 1
        assert checked > 200

    def test_requires_dynamic_spec(self):
        static = ModelSpec(label="s", dependent="y", regressors=(("x", 0),))
        ds = build_panel({"y": np.ones((2, 4)), "x": np.ones((2, 4))})
        s = differenced_sample(ds, static)
        with pytest.raises(ValueError, match="lagged-dependent"):
            build_instruments(ds, s)

    def test_rejects_bad_depth(self):
        ds = build_panel({"y": [1.0, 2.0, 4.0, 7.0]})
        s = differenced_sample(ds, AR_SPEC)
        with pytest.raises(ValueError, match="max_depth"):
            build_instruments(ds, s, max_depth=0)

    def test_carries_its_sample(self):
        ds = build_panel({"y": [1.0, 2.0, 4.0, 7.0]})
        s = differenced_sample(ds, AR_SPEC)
        assert build_instruments(ds, s).sample is s


def per_entity_gmm(instruments):
    """Both GMM steps summed entity by entity in entity order, each entity's
    weighting block its own contiguous matrix: (one-step coefficients,
    two-step coefficients, SEs, J)."""
    s = instruments.sample
    Z, dy, dX, years = dense_z(instruments), s.y, s.X, s.periods
    rows = [r for _, r in entity_rows(s)]
    L, k = Z.shape[1], dX.shape[1]
    S_zx, s_zy, A1 = np.zeros((L, k)), np.zeros(L), np.zeros((L, L))
    for r in rows:
        H = 2.0 * np.eye(r.stop - r.start)
        a = np.flatnonzero(np.diff(years[r]) == 1) + 1
        H[a, a - 1] = H[a - 1, a] = -1.0
        S_zx += Z[r].T @ dX[r]
        s_zy += Z[r].T @ dy[r]
        A1 += Z[r].T @ H @ Z[r]

    def solve(W):
        M = S_zx.T @ W @ S_zx
        return np.linalg.solve(M, S_zx.T @ W @ s_zy), M

    def moments(beta):
        return [Z[r].T @ (dy[r] - dX[r] @ beta) for r in rows]

    beta1, _ = solve(np.linalg.inv(A1))
    B = np.zeros((L, L))
    for g in moments(beta1):
        B += np.outer(g, g)
    W2 = np.linalg.inv(B)
    beta, M = solve(W2)
    m = sum(moments(beta), np.zeros(L))
    return beta1, beta, _wald(beta, np.linalg.inv(M))[0], float(m @ W2 @ m)


class TestGmmEstimate:
    def test_h_blocks_link_only_calendar_neighbours(self):
        years = np.array([2001, 2002, 2004, 2005, 2006, 2003, 2004])
        H = _h_blocks(years, np.array([0, 5, 7]))
        expected = 2.0 * np.eye(5)
        for a, b in ((0, 1), (2, 3), (3, 4)):
            expected[a, b] = expected[b, a] = -1.0
        np.testing.assert_array_equal(H[0], expected)
        np.testing.assert_array_equal(H[1, :2, :2], [[2.0, -1.0], [-1.0, 2.0]])
        assert not H[1, 2:].any() and not H[1, :, 2:].any()
        # against the pairwise definition on random gappy year sets
        rng = np.random.default_rng(7)
        for _ in range(20):
            sets = [np.flatnonzero(rng.random(12) < 0.6) + 1990 for _ in range(int(rng.integers(1, 9)))]
            sets = [y for y in sets if y.size] or [np.array([1995])]
            bounds = np.cumsum([0] + [y.size for y in sets])
            H = _h_blocks(np.concatenate(sets), bounds)
            assert H.shape == (len(sets),) + (max(y.size for y in sets),) * 2
            for block, years in zip(H, sets):
                ref = np.zeros(block.shape)
                ref[: years.size, : years.size] = 2.0 * np.eye(years.size)
                for a in range(years.size):
                    for b in range(a + 1, years.size):
                        if abs(years[a] - years[b]) == 1:
                            ref[a, b] = ref[b, a] = -1.0
                np.testing.assert_array_equal(block, ref)

    def hand_panel(self):
        y = np.array(
            [[1.0, 2.0, 4.0, 7.0], [3.0, 1.0, 2.0, 6.0], [2.0, 5.0, 3.0, 4.0]]
        )
        ds = build_panel({"y": y})
        s = differenced_sample(ds, AR_SPEC)
        Z = build_instruments(ds, s)
        return y, s, Z

    def hand_formula(self, y):
        """Independent matrix-algebra evaluation of both GMM steps."""
        H = np.array([[2.0, -1.0], [-1.0, 2.0]])
        S_zx = np.zeros((3, 1))
        s_zy = np.zeros(3)
        A1 = np.zeros((3, 3))
        entity_blocks = []
        for i in range(3):
            Zi = np.array([[y[i, 0], 0.0, 0.0], [0.0, y[i, 0], y[i, 1]]])
            dyi = np.array([y[i, 2] - y[i, 1], y[i, 3] - y[i, 2]])
            dXi = np.array([[y[i, 1] - y[i, 0]], [y[i, 2] - y[i, 1]]])
            entity_blocks.append((Zi, dyi, dXi))
            S_zx += Zi.T @ dXi
            s_zy += Zi.T @ dyi
            A1 += Zi.T @ H @ Zi
        W1 = np.linalg.inv(A1)
        b1 = np.linalg.solve(S_zx.T @ W1 @ S_zx, S_zx.T @ W1 @ s_zy)
        B = np.zeros((3, 3))
        for Zi, dyi, dXi in entity_blocks:
            g = Zi.T @ (dyi - dXi @ b1)
            B += np.outer(g, g)
        W2 = np.linalg.inv(B)
        b2 = np.linalg.solve(S_zx.T @ W2 @ S_zx, S_zx.T @ W2 @ s_zy)
        m = sum(Zi.T @ (dyi - dXi @ b2) for Zi, dyi, dXi in entity_blocks)
        return b1, b2, float(m @ W2 @ m)

    def test_h_blocks_built_once_per_entity_group(self, monkeypatch):
        rng = np.random.default_rng(12)
        y, _ = ar_panel(rng, 150, 8, 0.5)
        y[4, 3] = np.nan  # E4 and E9 keep three differenced rows each, in
        y[9, 4] = np.nan  # different years, and the balanced rest keep six
        ds = build_panel({"y": y})
        s = differenced_sample(ds, AR_SPEC)
        Z = build_instruments(ds, s)
        built = []

        def counted(years, bounds):
            built.append(bounds.tolist())
            return _h_blocks(years, bounds)

        monkeypatch.setattr(gmm, "_h_blocks", counted)
        gmm_estimate(Z)
        starts = [r.start for _, r in entity_rows(s)] + [s.n_obs]
        assert gmm.H_GROUP == 64
        assert built == [starts[0:65], starts[64:129], starts[128:]]

    DYN_SPEC = ModelSpec(label="dyn", dependent="y", regressors=(("x", 1),),
                         lagged_dependent=True)

    @staticmethod
    def dynamic_panel(gap_share, collapse, spec=DYN_SPEC, depth=3):
        """150 x 12 panel of y and x, more entities than one group, with a share of
        cells missing, and its differenced sample and instruments (collapsed ones
        `depth` lags deep)."""
        rng = np.random.default_rng(31)
        y, _ = ar_panel(rng, 150, 12, 0.5)
        x = rng.standard_normal(y.shape)
        for v in (y, x):
            v[rng.random(v.shape) < gap_share] = np.nan
        ds = build_panel({"y": y, "x": x})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PanelWarning)
            s = differenced_sample(ds, spec)
            Z = build_instruments(ds, s, max_depth=depth if collapse else None,
                                  collapse=collapse)
        return s, Z

    @pytest.mark.parametrize("collapse", [False, True])
    def test_equals_per_entity_loop_on_gappy_panel(self, collapse):
        # gaps and ragged edges: entities are zero-padded to their group's longest, and
        # the padded products round differently from the loop's own-length ones
        s, Z = self.dynamic_panel(0.15, collapse)
        assert len({tuple(s.periods[r]) for _, r in entity_rows(s)}) > 50
        res = gmm_estimate(Z)
        beta1, beta, se, J = per_entity_gmm(Z)
        np.testing.assert_allclose(res.one_step_coefficients, beta1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.coefficients, beta, rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.std_errors, se, rtol=1e-12, atol=0)
        assert res.j_stat == pytest.approx(J, rel=1e-12, abs=0)

    @pytest.mark.parametrize("collapse, spec, depth, L", [
        (False, DYN_SPEC, 3, 56),
        (True, DYN_SPEC, 3, 4),
        (True, AR_SPEC, 1, 1),  # every summed term has shape (1,), (1, 1) or (1, 1, 1)
    ], ids=["uncollapsed", "collapsed", "one_instrument"])
    def test_equals_per_entity_loop_on_balanced_panel(self, collapse, spec, depth, L):
        # no entity is padded, so every product and every sum is the loop's, bit for bit
        s, Z = self.dynamic_panel(0.0, collapse, spec, depth)
        assert (Z.n_instruments, s.X.shape[1]) == (L, 2 if spec is self.DYN_SPEC else 1)
        res = gmm_estimate(Z)
        beta1, beta, se, J = per_entity_gmm(Z)
        np.testing.assert_array_equal(res.one_step_coefficients, beta1)
        np.testing.assert_array_equal(res.coefficients, beta)
        np.testing.assert_array_equal(res.std_errors, se)
        assert res.j_stat == J

    @pytest.mark.parametrize("gap_share, collapse, depth, case", [
        (0.15, True, 3, None),
        (0.15, False, None, None),
        (0.15, False, 2, None),
        (0.0, True, 3, None),
        (0.0, False, None, None),
        (0.15, False, None, "dropped_column"),
        (0.15, True, 3, "appended_column"),
    ], ids=["gappy_collapsed", "gappy_uncollapsed", "gappy_depth_capped", "balanced_collapsed",
            "balanced_uncollapsed", "dropped_column", "appended_column"])
    def test_groups_laid_out_as_pad_runs_of_the_dense_matrix(self, gap_share, collapse, depth, case,
                                                             monkeypatch):
        # a group's level cells and its dense columns are each placed through pad_runs'
        # mask: the same matrix held as dense columns only estimates bit for bit the same,
        # with 64 entities a group or 7, each group laid out in all three passes
        rng = np.random.default_rng(31)
        y, _ = ar_panel(rng, 150, 12, 0.5)
        x = rng.standard_normal(y.shape)
        for v in (y, x):
            v[rng.random(v.shape) < gap_share] = np.nan
        if case == "dropped_column":
            y[:, 0] = np.nan  # no level from the first year, so its columns are all zero
        ds = build_panel({"y": y, "x": x})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PanelWarning)
            Z = build_instruments(ds, differenced_sample(ds, self.DYN_SPEC), max_depth=depth,
                                  collapse=collapse)
        assert bool(Z.dropped_columns) == (case == "dropped_column")
        assert any("all-zero" in str(w.message) for w in caught) == (case == "dropped_column")
        if case == "appended_column":
            z = rng.standard_normal(Z.sample.n_obs)
            z[::7] = 0.0
            Z = replace(Z, columns=Z.columns + ("z",), dense=np.column_stack([Z.dense, z]))
        as_dense = replace(Z, cells=Z.cells[:0], levels=Z.levels[:0], dense=dense_z(Z))
        beta1, beta, se, J = per_entity_gmm(Z)
        rtol = 0 if gap_share == 0.0 else 1e-12  # no entity padded: the loop's sums exactly
        for h_group in (64, 7):
            monkeypatch.setattr(gmm, "H_GROUP", h_group)
            res, want = gmm_estimate(Z), gmm_estimate(as_dense)
            for got, exact in zip(
                (res.one_step_coefficients, res.coefficients, res.std_errors, res.j_stat),
                (want.one_step_coefficients, want.coefficients, want.std_errors, want.j_stat),
            ):
                assert np.asarray(got).tobytes() == np.asarray(exact).tobytes()
            np.testing.assert_allclose(res.one_step_coefficients, beta1, rtol=rtol, atol=0)
            np.testing.assert_allclose(res.coefficients, beta, rtol=rtol, atol=0)
            np.testing.assert_allclose(res.std_errors, se, rtol=rtol, atol=0)
            assert res.j_stat == pytest.approx(J, rel=rtol, abs=0)

    def test_stacked_and_entity_by_entity_products_agree(self, monkeypatch):
        # A1 summed from a group's stacked products or one product at a time
        s, Z = self.dynamic_panel(0.15, True)
        results = []
        for cells in (0, 1 << 40):
            monkeypatch.setattr(gmm, "STACK_CELLS", cells)
            results.append(gmm_estimate(Z))
        one_at_a_time, stacked = results
        np.testing.assert_array_equal(one_at_a_time.one_step_coefficients,
                                      stacked.one_step_coefficients)
        np.testing.assert_array_equal(one_at_a_time.coefficients, stacked.coefficients)
        np.testing.assert_array_equal(one_at_a_time.std_errors, stacked.std_errors)
        assert one_at_a_time.j_stat == stacked.j_stat

    def test_matches_hand_matrix_algebra(self):
        y, s, Z = self.hand_panel()
        b1, b2, J = self.hand_formula(y)
        res = gmm_estimate(Z)
        assert abs(res.one_step_coefficients - b1).max() < 1e-10
        assert abs(res.coefficients - b2).max() < 1e-10
        assert abs(res.j_stat - J) < 1e-10

    def test_exactly_identified_is_iv(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((4, 5)) + 3.0
        ds = build_panel({"y": y})
        s = differenced_sample(ds, AR_SPEC)
        Z = build_instruments(ds, s, max_depth=1, collapse=True)
        assert Z.n_instruments == 1
        res = gmm_estimate(Z)
        num = sum(dense_z(Z)[r].T @ s.y[r] for _, r in entity_rows(s))
        den = sum(dense_z(Z)[r].T @ s.X[r] for _, r in entity_rows(s))
        assert abs(res.coefficients[0] - num[0] / den[0, 0]) < 1e-12
        assert abs(res.j_stat) < 1e-8
        assert res.j_df == 0
        assert res.j_p is None

    def test_column_reorder_invariance(self):
        _, s, Z = self.hand_panel()
        perm = [2, 0, 1]
        Zp = with_z(Z, [Z.columns[j] for j in perm], dense_z(Z)[:, perm])
        base = gmm_estimate(Z)
        permuted = gmm_estimate(Zp)
        assert abs(base.coefficients - permuted.coefficients).max() < 1e-8
        assert abs(base.j_stat - permuted.j_stat) < 1e-8

    def test_dependent_scaling(self):
        # scaling y by c rescales exogenous coefficients by c and leaves
        # the autoregressive coefficient unchanged
        rng = np.random.default_rng(7)
        n, width = 30, 6
        x = rng.standard_normal((n, width))
        c = rng.standard_normal(n)
        y = np.empty((n, width))
        y[:, 0] = rng.standard_normal(n)
        for t in range(1, width):
            y[:, t] = c + 0.5 * y[:, t - 1] + 0.4 * x[:, t - 1] + 0.3 * rng.standard_normal(n)
        spec = ModelSpec(
            label="dyn", dependent="y", regressors=(("x", 1),), lagged_dependent=True
        )
        results = []
        for scale in (1.0, 3.0):
            ds = build_panel({"y": scale * y, "x": x})
            s = differenced_sample(ds, spec)
            Z = build_instruments(ds, s)
            results.append(gmm_estimate(Z))
        base, scaled = results
        assert abs(base.coef("y_lag1") - scaled.coef("y_lag1")) < 1e-8
        assert abs(3.0 * base.coef("x_lag1") - scaled.coef("x_lag1")) < 1e-8

    def test_bias_beats_within_estimator(self):
        # difference GMM stays near rho = 0.8 while the within estimator
        # carries the usual short-panel downward bias
        rng = np.random.default_rng(92)
        gmm_bias, within_bias = [], []
        for _ in range(100):
            y, _ = ar_panel(rng, 100, 8, 0.8)
            ds = build_panel({"y": y})
            s = differenced_sample(ds, AR_SPEC)
            Z = build_instruments(ds, s, max_depth=2, collapse=True)
            gmm_bias.append(gmm_estimate(Z).coef("y_lag1") - 0.8)
            within_bias.append(
                fixed_effects(regression_sample(ds, AR_SPEC)).coef("y_lag1") - 0.8
            )
        assert abs(np.mean(gmm_bias)) <= 0.03
        assert np.mean(within_bias) < -0.05

    def test_underidentified_is_error(self):
        _, s, Z = self.hand_panel()
        empty = with_z(Z, (), dense_z(Z)[:, :0])
        with pytest.raises(ValueError, match="underidentified"):
            gmm_estimate(empty)

    def test_rejects_misaligned_blocks(self):
        _, _, Z = self.hand_panel()
        with pytest.raises(ValueError, match="not aligned"):
            gmm_estimate(with_z(Z, Z.columns, dense_z(Z)[:-1]))

    def test_more_instruments_than_entities_refused_for_two_step(self):
        # 20 entities, 20 years, x at lag 1: 171 level columns plus d_x_lag1.  B has rank
        # at most 20, and its inverse used to give two-step SEs of 0.0 and J = 290.9
        rng = np.random.default_rng(20)
        y, _ = ar_panel(rng, 20, 20, 0.5)
        ds = build_panel({"y": y, "x": rng.standard_normal((20, 20))})
        spec = ModelSpec(label="dyn", dependent="y", regressors=(("x", 1),),
                         lagged_dependent=True)
        s = differenced_sample(ds, spec)
        Z = build_instruments(ds, s)
        with pytest.raises(ValueError, match=r"^gmm\(dyn\): 172 instruments outnumber 20 entities; "
                                             r"the two-step weighting is singular$"):
            gmm_estimate(Z)

    def test_collinear_design_named(self):
        # x a copy of y: d_x_lag1 repeats d_y_lag1, so the one-step solve would be singular
        y = np.cumsum(np.random.default_rng(3).standard_normal((30, 8)), axis=1)
        ds = build_panel({"y": y, "x": y.copy()})
        spec = ModelSpec(label="dup", dependent="y", regressors=(("x", 1),),
                         lagged_dependent=True)
        s = differenced_sample(ds, spec)
        Z = build_instruments(ds, s, collapse=True)
        with pytest.raises(ValueError, match=r"^gmm\(dup\): collinear design, dependent "
                                             r"column\(s\): x_lag1$"):
            gmm_estimate(Z)

    def test_singular_one_step_weighting_named(self):
        # an all-zero instrument column leaves a zero row and column in A1
        s, Z = self.dynamic_panel(0.0, True)
        zero = replace(Z, columns=Z.columns + ("zero",),
                       dense=np.column_stack([Z.dense, np.zeros(s.n_obs)]))
        assert (zero.n_instruments, s.n_entities) == (5, 150)
        with pytest.raises(ValueError, match=r"^gmm\(dyn\): singular one-step weighting "
                                             r"\(5 instruments, 150 entities\)$"):
            gmm_estimate(zero)

    def test_singular_two_step_weighting_named(self):
        # y halves each year, exactly in binary: the one-step fit (coefficient exactly
        # 0.5) leaves no residual, so with 3 collapsed instruments over 4 entities the
        # two-step weighting B is zero
        ds = build_panel({"y": [[17.0, 9.0, 5.0, 3.0, 2.0], [-29.0, -13.0, -5.0, -1.0, 1.0],
                                [62.0, 30.0, 14.0, 6.0, 2.0], [8.5, 4.5, 2.5, 1.5, 1.0]]}, start=2000)
        spec = ModelSpec(label="dyn", dependent="y", regressors=(), lagged_dependent=True)
        s = differenced_sample(ds, spec)
        Z = build_instruments(ds, s, collapse=True)
        assert (Z.n_instruments, s.n_entities) == (3, 4)
        with pytest.raises(ValueError, match=r"^gmm\(dyn\): singular two-step weighting "
                                             r"\(3 instruments, 4 entities\)$"):
            gmm_estimate(Z)

    def test_as_many_instruments_as_entities_is_silent(self):
        _, s, Z = self.hand_panel()
        assert Z.n_instruments == s.n_entities == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gmm_estimate(Z)

    def test_result_bookkeeping(self):
        _, s, Z = self.hand_panel()
        res = gmm_estimate(Z)
        assert res.method == "gmm"
        assert res.columns == ("y_lag1",)
        assert res.instrument_count == 3
        assert res.j_df == 2
        assert 0.0 <= res.j_p <= 1.0
        assert res.n_obs == 6
        assert res.n_entities == 3
        assert res.periods_included == 2
        assert np.all(res.std_errors >= 0.0)
        np.testing.assert_allclose(
            res.p_values, 2.0 * stats.norm.sf(np.abs(res.t_stats)), rtol=1e-12
        )


def balanced_500x20():
    """500 entities x 20 years of y and x, x at lag 1, every lag: the GMM shape of the
    balanced benchmark, 9000 differenced rows and 172 instruments.  The dataset and its
    differenced sample."""
    rng = np.random.default_rng(32)
    x = rng.standard_normal((500, 20))
    y = np.empty(x.shape)
    y[:, 0] = rng.standard_normal(500)
    for t in range(1, 20):
        y[:, t] = 0.5 * y[:, t - 1] + 0.3 * x[:, t - 1] + rng.standard_normal(500)
    ds = build_panel({"y": y, "x": x})
    return ds, differenced_sample(ds, TestGmmEstimate.DYN_SPEC)


def test_equals_per_entity_loop_at_benchmark_shape():
    # N = 500 and L = 172: B is one einsum pass over all 500 moment vectors, which must
    # add them as the per-entity outer-product loop does, bit for bit
    ds, s = balanced_500x20()
    Z = build_instruments(ds, s)
    assert (Z.n_instruments, s.n_entities) == (172, 500)
    res = gmm_estimate(Z)
    beta1, beta, se, J = per_entity_gmm(Z)
    np.testing.assert_array_equal(res.one_step_coefficients, beta1)
    np.testing.assert_array_equal(res.coefficients, beta)
    np.testing.assert_array_equal(res.std_errors, se)
    assert res.j_stat == J


def test_peak_memory_is_bounded():
    # the benchmark's shape, 6.1% of the instrument matrix nonzero.  Held as one dense
    # (rows, instruments) array, which alone takes 11.8 MiB, the two calls peaked at
    # 13.4 MiB under tracemalloc; kept as cells, written into each entity group's padded
    # slots (from pad_runs' mask) as a pass reads the group, they peak at 5.1 MiB
    bound_mib = 8.0
    ds, s = balanced_500x20()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        Z = build_instruments(ds, s)
        res = gmm_estimate(Z)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (Z.n_instruments, s.n_obs) == (172, 9000)
    assert np.all(np.isfinite(res.std_errors))
    assert peak < bound_mib * 2**20, f"gmm peaked at {peak / 2**20:.1f} MiB"


class TestJStatistic:
    def test_consistency_with_result(self):
        rng = np.random.default_rng(15)
        y, _ = ar_panel(rng, 20, 6, 0.5)
        ds = build_panel({"y": y})
        s = differenced_sample(ds, AR_SPEC)
        Z = build_instruments(ds, s)
        res = gmm_estimate(Z)
        # J is the criterion at the reported coefficients under the stored weighting
        m = sum(
            dense_z(Z)[r].T @ (s.y[r] - s.X[r] @ res.coefficients) for _, r in entity_rows(s)
        )
        assert abs(float(m @ res.weighting @ m) - res.j_stat) < 1e-10
        assert res.j_df == Z.n_instruments - len(res.columns)
        assert abs(stats.chi2.sf(res.j_stat, res.j_df) - res.j_p) < 1e-12

    def test_valid_instruments_uniform_p(self):
        # under valid moments the J p-values are approximately uniform
        rng = np.random.default_rng(100)
        pvals = []
        for _ in range(200):
            y, _ = ar_panel(rng, 80, 7, 0.5)
            ds = build_panel({"y": y})
            s = differenced_sample(ds, AR_SPEC)
            Z = build_instruments(ds, s, collapse=True)
            pvals.append(gmm_estimate(Z).j_p)
        p = np.sort(pvals)
        grid = np.arange(1, p.size + 1) / p.size
        ks = max(np.max(np.abs(grid - p)), np.max(np.abs(grid - 1.0 / p.size - p)))
        assert ks < 0.12

    def test_invalid_instrument_power(self):
        # a column correlated 0.4 with the differenced error is detected
        rng = np.random.default_rng(100)
        noise_scale = np.sqrt(2.0) * np.sqrt(1.0 / 0.16 - 1.0)
        rejections = 0
        for _ in range(200):
            y, eps = ar_panel(rng, 80, 7, 0.5)
            ds = build_panel({"y": y})
            s = differenced_sample(ds, AR_SPEC)
            Z = build_instruments(ds, s, collapse=True)
            i = np.array([int(e[1:]) for e in s.entities])[s.entity_ids]
            diff_err = eps[i, s.periods - 1] - eps[i, s.periods - 2]
            bad = diff_err + noise_scale * rng.standard_normal(diff_err.size)
            contaminated = replace(
                Z, columns=Z.columns + ("z_bad",), dense=np.column_stack([Z.dense, bad])
            )
            rejections += gmm_estimate(contaminated).j_p < 0.05
        assert rejections > 100
