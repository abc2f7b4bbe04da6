import os

import numpy as np
import pytest

from fixtures import (
    MODELS,
    PANEL_STATS,
    PRICE_STATS,
    SeriesStats,
    build_dataset,
    build_panel,
    default_config,
    matched_series,
)
from cointegra.panel import ingest_panel, summarize
from cointegra.pipeline import parse_config

DATA_ROOT = os.path.join(os.path.dirname(__file__), "..", "data", "sixstate")


def target_rows(naics, state):
    rows = dict(PANEL_STATS[(naics, state)])
    rows["price"] = PRICE_STATS[naics]
    return rows


class TestMatchedSeries:
    def test_exact_statistics(self):
        stats = SeriesStats(60, 100.0, 15.0, 70.0, 140.0)
        values = matched_series(stats, seed=7)
        assert values.size == 60
        assert np.mean(values) == pytest.approx(100.0, abs=1e-9)
        assert np.std(values, ddof=1) == pytest.approx(15.0, abs=1e-9)
        assert values.min() == 70.0
        assert values.max() == 140.0

    def test_all_points_inside_bounds(self):
        stats = SeriesStats(72, 10.0, 3.0, 2.0, 25.0)
        values = matched_series(stats, seed=1)
        assert np.all(values >= 2.0)
        assert np.all(values <= 25.0)

    def test_infeasible_variance_rejected(self):
        # Bounds this tight cannot carry the requested spread.
        with pytest.raises(ValueError):
            matched_series(SeriesStats(60, 100.0, 50.0, 99.0, 101.0), seed=0)

    def test_degenerate_rows_rejected(self):
        with pytest.raises(ValueError):
            matched_series(SeriesStats(60, 100.0, 0.0, 100.0, 100.0), seed=0)
        with pytest.raises(ValueError):
            matched_series(SeriesStats(60, 5.0, 1.0, 6.0, 10.0), seed=0)

    def test_deterministic(self):
        stats = SeriesStats(60, 100.0, 15.0, 70.0, 140.0)
        assert np.array_equal(matched_series(stats, 3), matched_series(stats, 3))


class TestGeneratedPanels:
    def test_every_row_reproduced_at_3_decimals(self):
        for naics, state in MODELS:
            stats = summarize(build_panel(state, naics))
            for variable, target in target_rows(naics, state).items():
                got = stats[variable]
                assert got["n"] == target.n
                assert round(got["mean"], 3) == round(target.mean, 3)
                assert round(got["sd"], 3) == round(target.sd, 3)
                assert round(got["min"], 3) == round(target.minimum, 3)
                assert round(got["max"], 3) == round(target.maximum, 3)

    def test_model_count_split(self):
        per_naics = {}
        for naics, _state in MODELS:
            per_naics[naics] = per_naics.get(naics, 0) + 1
        assert per_naics == {113: 5, 321: 6, 322: 5}


class TestCommittedDataset:
    def test_panels_match_generator(self):
        for naics, state in MODELS:
            path = os.path.join(DATA_ROOT, "panels", f"{state}_{naics}.csv")
            committed = ingest_panel(path)
            generated = build_panel(state, naics)
            assert np.array_equal(committed.levels, generated.levels), (state, naics)

    def test_config_parses_with_16_models(self):
        path = os.path.join(DATA_ROOT, "config.json")
        assert os.path.exists(path)
        config = parse_config(default_config(), base_dir=DATA_ROOT)
        assert len(config.models) == 16
        assert config.defaults.holdout_start is not None

    def test_aux_files_present(self):
        aux = os.path.join(DATA_ROOT, "aux")
        names = sorted(os.listdir(aux))
        assert "national_total.csv" in names
        assert sum(n.startswith("state_total_") for n in names) == 6
        assert sum(n.startswith("national_industry_") for n in names) == 3


class TestBuildDataset:
    def test_writes_complete_tree(self, tmp_path):
        build_dataset(str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["aux", "config.json", "panels"]
        assert len(os.listdir(tmp_path / "panels")) == 16
        assert len(os.listdir(tmp_path / "aux")) == 10
        panel = ingest_panel(str(tmp_path / "panels" / "OR_113.csv"))
        assert panel.state == "OR"
        assert len(panel) == 72
