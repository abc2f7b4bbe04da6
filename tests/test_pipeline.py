import contextlib
import copy
import dataclasses
import json
import re
import os
import shutil
import signal
import threading
import time
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

from cointegra import diagnostics, linalg, pipeline, unitroot
from cointegra.errors import (
    ConfigInvalid,
    DataDirMissing,
    DuplicateQuarter,
    IndexBaseMissing,
    MalformedValue,
    MissingColumn,
    NonPositiveInput,
    NumericalFailure,
    WorkerFailed,
)
from fixtures import default_config
from cointegra.panel import VARIABLES, PanelDataset, ingest_panel, location_quotient
from cointegra.pipeline import (
    LM_LAGS,
    _path_template,
    adf_lines,
    emit_plot_data,
    fmt3,
    fmt6,
    load_aux_series,
    load_config,
    load_panel,
    lq_records_for_panel,
    parse_config,
    resolve_model,
    run_pipeline,
)
from cointegra.quarters import QuarterDate
from cointegra.vecm import fit_vecm

DATA_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "data", "sixstate")
)


def minimal_config(**overrides):
    obj = {
        "dataDir": DATA_ROOT,
        "outDir": "out",
        "models": [{"state": "AL", "naics": 113}],
    }
    obj.update(overrides)
    return obj


def small_run_config(tmp_path, models=None, horizon=4):
    obj = {
        "dataDir": DATA_ROOT,
        "outDir": str(tmp_path / "out"),
        "models": models
        or [
            {"state": "AL", "naics": 113, "k": 1, "r": 1},
            {"state": "ME", "naics": 113, "k": 1, "r": 0, "case": "none"},
        ],
        "defaults": {"maxLag": 2, "horizon": horizon, "holdoutStart": "2017Q1"},
        "seed": 11,
    }
    return parse_config(obj)


class TestParseConfig:
    def test_minimal_valid(self):
        config = parse_config(minimal_config())
        assert config.models[0].state == "AL"
        assert config.defaults.max_lag == 4
        assert config.defaults.horizon == 20
        assert config.defaults.johansen_case == "restrictedConstant"
        assert config.defaults.lq_threshold == 1.0
        assert config.defaults.holdout_start is None
        assert config.seed == 0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(extra=1))

    def test_unknown_defaults_key(self):
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(defaults={"maxlag": 4}))

    def test_unknown_model_key(self):
        cfg = minimal_config()
        cfg["models"][0]["lag"] = 2
        with pytest.raises(ConfigInvalid):
            parse_config(cfg)

    def test_empty_models(self):
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(models=[]))

    def test_unsupported_state_and_naics(self):
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(models=[{"state": "TX", "naics": 113}]))
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(models=[{"state": "AL", "naics": 999}]))

    def test_duplicate_models(self):
        models = [{"state": "AL", "naics": 113}, {"state": "AL", "naics": 113}]
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(models=models))

    def test_bad_spec_fields(self):
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(models=[{"state": "AL", "naics": 113, "k": 0}]))
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(models=[{"state": "AL", "naics": 113, "r": -1}]))

    def test_trend_case_not_estimable(self):
        cfg = minimal_config(defaults={"johansenCase": "rtrend"})
        with pytest.raises(ConfigInvalid):
            parse_config(cfg)

    def test_case_aliases_accepted(self):
        cfg = minimal_config(defaults={"johansenCase": "rconst"})
        assert parse_config(cfg).defaults.johansen_case == "restrictedConstant"

    def test_holdout_parsed(self):
        cfg = minimal_config(defaults={"holdoutStart": "2016Q1"})
        assert parse_config(cfg).defaults.holdout_start == QuarterDate(2016, 1)
        with pytest.raises(ConfigInvalid):
            parse_config(minimal_config(defaults={"holdoutStart": "sometime"}))

    def test_relative_paths_resolved_against_base(self):
        cfg = minimal_config(dataDir="data", outDir="out")
        config = parse_config(cfg, base_dir="/somewhere")
        assert config.data_dir == os.path.normpath("/somewhere/data")
        assert config.out_dir == os.path.normpath("/somewhere/out")

    def test_hash_tracks_content(self):
        a = parse_config(minimal_config(seed=1))
        b = parse_config(minimal_config(seed=1))
        c = parse_config(minimal_config(seed=2))
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_load_config_applies_overrides_before_hashing(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config()))
        base = load_config(str(path))
        overridden = load_config(str(path), seed=9)
        assert overridden.seed == 9
        assert overridden.config_hash != base.config_hash

    @pytest.mark.parametrize("field", ["k", "r"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_spec_field_rejected(self, field, flag):
        # JSON true/false decode to bool, an int subclass: k=True once parsed as k=1.
        with pytest.raises(ConfigInvalid, match=f"{field} must be"):
            parse_config(minimal_config(models=[{"state": "AL", "naics": 113, field: flag}]))

    def test_float_naics_rejected(self):
        # 113.0 == 113 passed the membership test and read AL_113.0.csv.
        with pytest.raises(ConfigInvalid, match="unsupported naics 113.0"):
            parse_config(minimal_config(models=[{"state": "AL", "naics": 113.0}]))

    @pytest.mark.parametrize("key", ["maxLag", "horizon"])
    def test_boolean_default_rejected(self, key):
        with pytest.raises(ConfigInvalid, match=f"{key} must be"):
            parse_config(minimal_config(defaults={key: True}))

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), 10**400, True],
        ids=["nan", "inf", "-inf", "huge-int", "true"],
    )
    def test_lq_threshold_must_be_a_finite_number(self, value):
        # A NaN threshold compares false with every mean LQ and flagged every pair.
        with pytest.raises(ConfigInvalid, match="lqThreshold"):
            parse_config(minimal_config(defaults={"lqThreshold": value}))

    def test_lq_threshold_accepts_int_and_float(self):
        for value in (2, 0.5):
            config = parse_config(minimal_config(defaults={"lqThreshold": value}))
            assert config.defaults.lq_threshold == float(value)

    @pytest.mark.parametrize("value", [2016, [2016, 1], {"year": 2016}, True])
    def test_holdout_start_must_be_a_string(self, value):
        # QuarterDate.parse once called .strip() on it: an AttributeError traceback.
        with pytest.raises(ConfigInvalid, match="bad holdoutStart: quarter label must be a string"):
            parse_config(minimal_config(defaults={"holdoutStart": value}))

    @pytest.mark.parametrize("value", [None, False, 1])
    def test_johansen_case_must_be_a_string(self, value):
        # A null johansenCase once read as str(None) == "none": no deterministic terms.
        with pytest.raises(ConfigInvalid, match="unknown deterministic case"):
            parse_config(minimal_config(defaults={"johansenCase": value}))

    @pytest.mark.parametrize("key", ["dataDir", "outDir"])
    @pytest.mark.parametrize("value", [5, None, ["x"], {"path": "x"}])
    def test_paths_must_be_strings(self, key, value):
        # os.path.join once raised TypeError on them: a traceback.
        with pytest.raises(ConfigInvalid, match=f"{key} must be a string"):
            parse_config(minimal_config(**{key: value}))


class TestFormatting:
    def test_fmt6(self):
        assert fmt6(1234567.0) == "1.23457e+06"
        assert fmt6(0.0352871234) == "0.0352871"
        assert fmt6(150755.5) == "150756"

    def test_fmt3(self):
        assert fmt3(4770.7224) == "4770.722"
        assert fmt3(5852) == "5852.000"


class TestPlotData:
    def make_panel(self, values, start=QuarterDate(2010, 1)):
        levels = np.repeat(np.asarray(values, dtype=float)[:, None], len(VARIABLES), axis=1)
        return PanelDataset("AL", 113, start, levels)

    @staticmethod
    def plot_rows(panel, base):
        """plot.csv rows of ``panel`` with a one-quarter forecast of 8s."""
        rows = np.concatenate((panel.levels, np.full((1, 5), 8.0)))
        text = emit_plot_data(panel, rows, _path_template(panel, 1), base)
        return [line.split(",") for line in text.splitlines()]

    def test_self_normalization(self):
        panel = self.make_panel([2.0, 4.0, 6.0])
        rows = self.plot_rows(panel, QuarterDate(2010, 1))
        history = [r for r in rows if r[5] == "0" and r[3] == "output"]
        assert [r[4] for r in history] == ["1", "2", "3"]
        forecast_rows = [r for r in rows if r[5] == "1" and r[3] == "output"]
        assert forecast_rows == [["AL", "113", "2010Q4", "output", "4", "1"]]

    def test_base_after_series_start(self):
        panel = self.make_panel([2.0, 4.0, 6.0])
        rows = self.plot_rows(panel, QuarterDate(2010, 2))
        history = [r for r in rows if r[5] == "0" and r[3] == "output"]
        assert [r[4] for r in history] == ["0.5", "1", "1.5"]

    def test_missing_index_base(self):
        panel = self.make_panel([2.0, 4.0, 6.0])
        with pytest.raises(IndexBaseMissing):
            self.plot_rows(panel, QuarterDate(2009, 4))
        with pytest.raises(IndexBaseMissing):
            self.plot_rows(panel, QuarterDate(2010, 4))


class TestAuxLoading:
    def test_loads_all_kinds(self):
        aux = load_aux_series(DATA_ROOT, ["ME", "AL", "ME"], [322, 113])
        # Keyed by file name, in the order the files are read.
        assert list(aux) == [
            "national_total.csv",
            "state_total_AL.csv",
            "state_total_ME.csv",
            "national_industry_113.csv",
            "national_industry_322.csv",
        ]
        assert (2001, 1) in aux["national_total.csv"]

    def test_lq_records_missing_quarter(self):
        aux = load_aux_series(DATA_ROOT, ["AL"], [113])
        del aux["national_total.csv"][(2013, 2)]
        panel = ingest_panel(os.path.join(DATA_ROOT, "panels", "AL_113.csv"))
        with pytest.raises(MissingColumn):
            lq_records_for_panel(panel, aux)

    def test_lq_records_equal_the_scalar_formula(self):
        aux = load_aux_series(DATA_ROOT, ["ME"], [322])
        panel = ingest_panel(os.path.join(DATA_ROOT, "panels", "ME_322.csv"))
        expected = [
            location_quotient(
                float(panel.levels[i, VARIABLES.index("employment")]),
                aux["state_total_ME.csv"][(q.year, q.quarter)],
                aux["national_industry_322.csv"][(q.year, q.quarter)],
                aux["national_total.csv"][(q.year, q.quarter)],
            )
            for i, q in enumerate(map(panel.start.advanced, range(len(panel))))
        ]
        assert lq_records_for_panel(panel, aux).tolist() == expected

    def test_first_bad_quarter_decides_the_error(self):
        panel = ingest_panel(os.path.join(DATA_ROOT, "panels", "AL_113.csv"))
        aux = load_aux_series(DATA_ROOT, ["AL"], [113])
        aux["state_total_AL.csv"][(2003, 1)] = -5.0
        del aux["national_total.csv"][(2013, 2)]
        with pytest.raises(NonPositiveInput, match=r"-5\.0"):
            lq_records_for_panel(panel, aux)
        aux["state_total_AL.csv"][(2003, 1)] = 5.0
        aux["national_industry_113.csv"][(2014, 1)] = 0.0
        with pytest.raises(MissingColumn, match=r"missing 2013Q2 in national_total\.csv$"):
            lq_records_for_panel(panel, aux)

    @pytest.mark.parametrize(
        "name", ["state_total_AL.csv", "national_industry_113.csv", "national_total.csv"]
    )
    def test_missing_quarter_names_the_file(self, name):
        panel = ingest_panel(os.path.join(DATA_ROOT, "panels", "AL_113.csv"))
        aux = load_aux_series(DATA_ROOT, ["AL"], [113])
        del aux[name][(2010, 3)]
        message = f"^screening series missing 2010Q3 in {re.escape(name)}$"
        with pytest.raises(MissingColumn, match=message):
            lq_records_for_panel(panel, aux)

    def test_aux_rows_blank_lines_and_repeats(self, tmp_path):
        aux_dir = tmp_path / "aux"
        aux_dir.mkdir()
        for name in ("national_total", "state_total_AL", "national_industry_113"):
            (aux_dir / f"{name}.csv").write_text("year,quarter,value\n2001,1,5\n")
        path = aux_dir / "national_total.csv"

        def load(rows):
            # Blank lines are skipped and not counted as rows.
            path.write_text("year,quarter,value,extra\n\n" + "\n\n".join(rows) + "\n")
            return load_aux_series(str(tmp_path), ["AL"], [113])["national_total.csv"]

        # Quarter 7 in row 1 is a malformed cell, named before the short row 3.
        with pytest.raises(MalformedValue) as err:
            load(["2001,1,5,x", "2001,7,6", "2001,1,8", "2001,2"])
        assert (err.value.row, err.value.column) == (1, "quarter")
        with pytest.raises(MalformedValue) as err:
            load(["2001,1,5,x", "2001,1,8", "2001,2"])
        assert (err.value.row, err.value.column) == (2, "value")
        # A repeated quarter is an error, as it is in a panel; the earliest is named.
        message = f"^quarter 2001Q1 duplicated in {re.escape(str(path))}$"
        with pytest.raises(DuplicateQuarter, match=message):
            load(["2001,2,4", "2001,2,6", "2001,1,5,x", "2001,1,8"])
        assert load(["2001,1,5,x", "2001,2,8"]) == {(2001, 1): 5.0, (2001, 2): 8.0}


class TestRunPipeline:
    def test_missing_data_dir(self, tmp_path):
        config = parse_config(
            {
                "dataDir": str(tmp_path / "nope"),
                "outDir": str(tmp_path / "out"),
                "models": [{"state": "AL", "naics": 113}],
            }
        )
        with pytest.raises(DataDirMissing):
            run_pipeline(config)

    def test_small_run_shape(self, tmp_path):
        config = small_run_config(tmp_path)
        manifest = run_pipeline(config)
        assert not manifest.failed
        assert [m["state"] for m in manifest.models] == ["AL", "ME"]
        assert all(m["status"] == "ok" for m in manifest.models)
        out = config.out_dir
        on_disk = sorted(f for f in os.listdir(out) if f != "manifest.json")
        assert on_disk == manifest["files"]
        with open(os.path.join(out, "backtest.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "state,naics,variable,rmse,mape"
        assert len(lines) == 1 + 2 * 5

    def test_manifest_spec_fields(self, tmp_path):
        config = small_run_config(tmp_path)
        manifest = run_pipeline(config)
        al = next(m for m in manifest.models if m["state"] == "AL")
        assert (al["k"], al["r"], al["case"]) == (1, 1, "rconst")
        me = next(m for m in manifest.models if m["state"] == "ME")
        assert (me["k"], me["r"], me["case"]) == (1, 0, "none")

    def test_manifest_environment(self, tmp_path):
        import cointegra
        from cointegra.linalg import LAPACK, blas_threads

        config = small_run_config(tmp_path)
        manifest = run_pipeline(config)
        with open(os.path.join(config.out_dir, "manifest.json")) as fh:
            on_disk = json.load(fh)
        assert set(on_disk) == {
            "configHash", "environment", "files", "models", "plotBase", "timings"
        }
        # numpy's OpenBLAS runs LAPACK, pinned to one thread; numpy.linalg
        # only where numpy's library is not found.
        if LAPACK == "numpy.linalg":
            blas = blas_threads()
            assert set(blas) == {"numpy"}
        else:
            assert re.fullmatch(r"libscipy_openblas64_-\w+\.so: OpenBLAS \S+ .*USE64BITINT.*", LAPACK)
            blas = {"numpy": 1}
        assert on_disk["environment"] == manifest["environment"] == {
            "blasThreads": blas,
            "cointegra": cointegra.__version__,
            "lapack": LAPACK,
            "numpy": np.__version__,
        }

    def test_manifest_times_every_stage(self, tmp_path):
        config = small_run_config(tmp_path)
        manifest = run_pipeline(config)
        stages = [
            "ingest", "lq", "summary", "adf", "lags", "johansen",
            "fit", "lm", "normality", "forecast", "irf", "backtest",
        ]
        per_stage = manifest["timings"]["perStage"]
        assert {model: list(times) for model, times in per_stage.items()} == {
            "AL_113": stages,
            "ME_113": stages,
        }
        seconds = [s for times in per_stage.values() for s in times.values()]
        assert all(s >= 0.0 and s == round(s, 6) for s in seconds)
        assert 0.0 <= manifest["timings"]["writeSeconds"] < manifest["timings"]["totalSeconds"] + 1e-3
        with open(os.path.join(config.out_dir, "manifest.json")) as fh:
            assert json.load(fh)["timings"] == manifest["timings"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_returns_the_manifest_it_wrote(self, tmp_path, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        config = small_run_config(tmp_path)
        manifest = run_pipeline(config)
        with open(os.path.join(config.out_dir, "manifest.json")) as fh:
            assert json.load(fh) == manifest
        assert len(manifest["timings"]["workers"]) == cpus

    def test_determinism_byte_identical(self, tmp_path):
        config_a = small_run_config(tmp_path / "a")
        config_b = small_run_config(tmp_path / "b")
        run_pipeline(config_a)
        run_pipeline(config_b)
        names = sorted(os.listdir(config_a.out_dir))
        assert names == sorted(os.listdir(config_b.out_dir))
        for name in names:
            if name == "manifest.json":
                continue
            with open(os.path.join(config_a.out_dir, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(config_b.out_dir, name), "rb") as fh:
                second = fh.read()
            assert first == second, name

    # The plot-base and ingest-failure tests run on 1, 2 and 3 CPUs: each
    # process reads its own models' panels, and the panel that sets the
    # plot base or fails falls in a forked worker's share at least once.
    def test_failure_recorded_and_run_continues(self, tmp_path, monkeypatch):
        # ME runs in worker 1 on 2 and 3 CPUs.
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            tmp = tmp_path / str(cpus)
            data = _copy_data(tmp, {})
            os.remove(data / "panels" / "ME_113.csv")
            config = parse_config(
                {
                    "dataDir": str(data),
                    "outDir": str(tmp / "out"),
                    "models": [
                        {"state": "AL", "naics": 113, "k": 1, "r": 1},
                        {"state": "ME", "naics": 113, "k": 1, "r": 1},
                    ],
                    "defaults": {"maxLag": 2},
                }
            )
            manifest = run_pipeline(config)
            assert manifest.failed
            by_state = {m["state"]: m for m in manifest.models}
            assert by_state["AL"]["status"] == "ok"
            assert by_state["ME"]["status"] == "error"
            path = data / "panels" / "ME_113.csv"
            me = by_state["ME"]
            assert (me["stage"], me["errorType"], me["message"]) == (
                "ingest",
                "InputFileMissing",
                f"InputFileMissing: no such file: {path}",
            )
            assert list(manifest["timings"]["perStage"]["ME_113"]) == ["ingest"]
            with open(tmp / "out" / "summary.csv") as fh:
                body = fh.read()
            assert "AL" in body and "ME" not in body

    def test_year_out_of_range_fails_its_model_alone(self, tmp_path, monkeypatch):
        # ME 113's years moved up by 10^19: its ingest fails, and the plot
        # base, whose index travels to the workers as 8 bytes, stays the
        # other panels'. ME runs in the caller on 1 and 2 CPUs, in worker 2
        # on 3.
        with open(os.path.join(DATA_ROOT, "config.json")) as fh:
            obj = json.load(fh)
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            tmp = tmp_path / str(cpus)
            data = _copy_data(tmp, {})
            path = data / "panels" / "ME_113.csv"
            header, *rows = path.read_text().splitlines(keepends=True)
            year, rest = zip(*(row.split(",", 1) for row in rows))
            path.write_text(header + "".join(
                f"{int(y) + 10**19},{r}" for y, r in zip(year, rest)
            ))
            obj.update(dataDir=str(data), outDir=str(tmp / "out"))
            manifest = run_pipeline(parse_config(obj))
            assert manifest["plotBase"] == "2004Q1"
            failed = [m for m in manifest.models if m["status"] != "ok"]
            assert [(m["state"], m["naics"], m["stage"], m["errorType"]) for m in failed] == [
                ("ME", 113, "ingest", "MalformedValue")
            ]
            assert failed[0]["message"] == (
                "MalformedValue: malformed value at row 0, column 'year'"
            )
            assert len(manifest.models) == 16

    def test_plot_rows_normalized_at_shared_base(self, tmp_path):
        config = small_run_config(tmp_path)
        run_pipeline(config)
        with open(os.path.join(config.out_dir, "plot.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        base_rows = [r for r in rows if ",2001Q1," in r and r.startswith("AL")]
        assert base_rows and all(r.split(",")[4] == "1" for r in base_rows)

    def test_model_without_plot_base_fails_alone(self, tmp_path, monkeypatch):
        # ME 113 ends (2009Q2) before AR 113 starts (2010Q3), the latest
        # start and so the plot base: only ME 113 fails, after its other
        # reports are built. AR runs in worker 1 on 2 and 3 CPUs, ME in
        # worker 2 on 3.
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            tmp = tmp_path / str(cpus)
            data = _copy_data(tmp, {"ME_113": slice(None, 34), "AR_113": slice(-34, None)})
            config = parse_config(
                {
                    "dataDir": str(data),
                    "outDir": str(tmp / "out"),
                    "models": [
                        {"state": "AL", "naics": 113},
                        {"state": "AR", "naics": 113},
                        {"state": "ME", "naics": 113},
                    ],
                    "defaults": {"maxLag": 1, "horizon": 8},
                }
            )
            manifest = run_pipeline(config)
            assert manifest.failed and manifest["plotBase"] == "2010Q3"
            by_state = {m["state"]: m for m in manifest.models}
            assert by_state["ME"] == {
                "state": "ME",
                "naics": 113,
                "status": "error",
                "message": "IndexBaseMissing: ME/113 lacks 2010Q3",
                "stage": "plot",
                "errorType": "IndexBaseMissing",
                "k": 1,
                "r": 5,
                "case": "rconst",
            }
            assert by_state["AL"]["status"] == by_state["AR"]["status"] == "ok"

            def models_in(report):
                with open(tmp / "out" / report) as fh:
                    return Counter(line.split(",")[0] for line in fh.read().splitlines()[1:])

            assert models_in("forecast.csv") == {
                "AL": 5 * 80, "AR": 5 * (34 + 8), "ME": 5 * (34 + 8)
            }
            assert models_in("irf.csv").keys() == {"AL", "AR", "ME"}
            assert models_in("plot.csv") == {"AL": 5 * 80, "AR": 5 * (34 + 8)}
            with open(tmp / "out" / "plot.csv") as fh:
                first_ar = next(line for line in fh if line.startswith("AR,"))
            assert first_ar == "AR,113,2010Q3,output,1,0\n"

    def test_failure_after_ingest_leaves_other_plot_rows(self, tmp_path, monkeypatch):
        # AR 113 starts in 2003Q1, so it sets the plot base. With k = 20 its
        # sample is too short and it fails in johansen; AL's and ME's plot
        # rows stay. AR runs in worker 1 on 2 and 3 CPUs.
        def plot_rows(data, ar_model, out):
            config = parse_config(
                {
                    "dataDir": str(data),
                    "outDir": str(out),
                    "models": [
                        {"state": "AL", "naics": 113}, ar_model, {"state": "ME", "naics": 113}
                    ],
                    "defaults": {"maxLag": 2, "horizon": 4},
                }
            )
            manifest = run_pipeline(config)
            with open(out / "plot.csv") as fh:
                rows = [line for line in fh if not line.startswith("AR,")]
            return manifest, rows

        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            tmp = tmp_path / str(cpus)
            data = _copy_data(tmp, {"AR_113": slice(8, None)})
            ran, ran_rows = plot_rows(data, {"state": "AR", "naics": 113}, tmp / "ran")
            failed, failed_rows = plot_rows(
                data, {"state": "AR", "naics": 113, "k": 20}, tmp / "failed"
            )
            assert not ran.failed
            ar = next(m for m in failed.models if m["state"] == "AR")
            assert (ar["status"], ar["stage"], ar["errorType"]) == (
                "error", "johansen", "SampleTooShort"
            )
            assert ran["plotBase"] == failed["plotBase"] == "2003Q1"
            assert failed_rows == ran_rows
            assert "ME,113,2001Q1,output,0.666485,0\n" in failed_rows
            assert {line[:3] for line in failed_rows[1:]} == {"AL,", "ME,"}

    def test_manifest_names_the_plot_base(self, tmp_path, monkeypatch):
        with open(os.path.join(DATA_ROOT, "config.json")) as fh:
            obj = json.load(fh)
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            tmp = tmp_path / str(cpus)
            obj["outDir"] = str(tmp / "bundled")
            manifest = run_pipeline(parse_config(obj, base_dir=DATA_ROOT))
            # MS 322, OR 321, WI 321 and WI 322 start last, in 2004Q1.
            with open(tmp / "bundled" / "manifest.json") as fh:
                assert json.load(fh)["plotBase"] == manifest["plotBase"] == "2004Q1"

            # ME 113 cut to start in 2005Q2 sets the base; every series reads
            # 1 there. ME runs in worker 1 on 2 and 3 CPUs.
            data = _copy_data(tmp, {"ME_113": slice(17, None)})
            config = small_run_config(tmp)
            config = dataclasses.replace(config, data_dir=str(data))
            assert run_pipeline(config)["plotBase"] == "2005Q2"
            with open(os.path.join(config.out_dir, "plot.csv")) as fh:
                at_base = [line.split(",") for line in fh if ",2005Q2," in line]
            assert len(at_base) == 2 * len(VARIABLES)
            assert all(row[4] == "1" for row in at_base)

            # No panel read, no base.
            for name in ("AL_113", "ME_113"):
                os.remove(data / "panels" / f"{name}.csv")
            manifest = run_pipeline(config)
            assert manifest["plotBase"] is None and manifest["files"] == []
            with open(os.path.join(config.out_dir, "manifest.json")) as fh:
                assert json.load(fh)["plotBase"] is None

    def test_manifest_gives_each_criterions_lag(self, tmp_path):
        with open(os.path.join(DATA_ROOT, "config.json")) as fh:
            obj = json.load(fh)
        obj["outDir"] = str(tmp_path / "bundled")
        manifest = run_pipeline(parse_config(obj, base_dir=DATA_ROOT))
        with open(tmp_path / "bundled" / "manifest.json") as fh:
            assert json.load(fh)["models"] == manifest.models
        with open(tmp_path / "bundled" / "lags.csv") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        unset_k = {(m["state"], m["naics"]) for m in obj["models"] if "k" not in m}
        assert len(manifest.models) == 16
        for entry in manifest.models:
            choice = entry["lagChoice"]
            assert list(choice) == ["aic", "hq", "sc", "fpe", "lr"]
            if (entry["state"], entry["naics"]) in unset_k:
                assert choice["aic"] == entry["k"]
            # The same lags as lags.csv: its flags, and its HQ and SC minima.
            own = [r for r in rows if (r[0], int(r[1])) == (entry["state"], entry["naics"])]
            for name in ("aic", "fpe", "lr"):
                assert [int(r[2]) for r in own if name in r[10].split("+")] == [choice[name]]
            for name, column in (("hq", 6), ("sc", 7)):
                assert int(min(own, key=lambda r: float(r[column]))[2]) == choice[name]

    def test_rerun_removes_reports_it_does_not_write(self, tmp_path):
        with open(os.path.join(DATA_ROOT, "config.json")) as fh:
            obj = json.load(fh)
        obj["outDir"] = str(tmp_path)
        run_pipeline(parse_config(copy.deepcopy(obj), base_dir=DATA_ROOT))
        assert os.path.exists(tmp_path / "backtest.csv")

        del obj["defaults"]["holdoutStart"]
        run_pipeline(parse_config(obj, base_dir=DATA_ROOT))
        assert not os.path.exists(tmp_path / "backtest.csv")
        with open(tmp_path / "manifest.json") as fh:
            files = json.load(fh)["files"]
        assert len(files) == 11 and "backtest.csv" not in files
        assert sorted(os.listdir(tmp_path)) == sorted(files + ["manifest.json"])

    def test_model_failing_in_backtest_keeps_its_spec(self, tmp_path):
        # AL 113 ends in 2009Q2, before the holdout starts: its backtest
        # fails after k, r and case were chosen and its other rows written.
        import shutil

        data = tmp_path / "data"
        shutil.copytree(DATA_ROOT, data)
        path = data / "panels" / "AL_113.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(rows[:34]))
        config = parse_config(
            {
                "dataDir": str(data),
                "outDir": str(tmp_path / "out"),
                "models": [{"state": "AL", "naics": 113}, {"state": "ME", "naics": 113}],
                "defaults": {"maxLag": 2, "horizon": 4, "holdoutStart": "2012Q1"},
            }
        )
        manifest = run_pipeline(config)
        by_state = {m["state"]: m for m in manifest.models}
        al = by_state["AL"]
        assert al["status"] == "error"
        assert al["message"].startswith("HoldoutOutOfRange: ")
        assert (al["stage"], al["errorType"]) == ("backtest", "HoldoutOutOfRange")
        assert by_state["ME"]["status"] == "ok"

        with open(tmp_path / "out" / "johansen.csv") as fh:
            written = {
                (row[2], row[3], row[9])
                for row in (line.split(",") for line in fh.read().splitlines()[1:])
                if row[0] == "AL"
            }
        assert written == {(str(al["k"]), al["case"], str(al["r"]))}
        with open(tmp_path / "out" / "backtest.csv") as fh:
            assert {line.split(",")[0] for line in fh.read().splitlines()[1:]} == {"ME"}


class TestDefaultConfigObject:
    def test_round_trip_through_validation(self):
        obj = copy.deepcopy(default_config())
        config = parse_config(obj, base_dir=DATA_ROOT)
        assert len(config.models) == 16
        naics_counts = {}
        for model in config.models:
            naics_counts[model.naics] = naics_counts.get(model.naics, 0) + 1
        assert naics_counts == {113: 5, 321: 6, 322: 5}


class TestOneFactorizationPerModel:
    def test_adf_and_lm_factor_one_stack_each(self, monkeypatch):
        config = load_config(os.path.join(DATA_ROOT, "config.json"))
        model = config.models[0]
        panel = load_panel(config.data_dir, model.state, model.naics)
        fit = fit_vecm(panel.levels, *resolve_model(panel.levels, model, config.defaults))

        calls = Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        names = ("qr_r", "ols", "lstsq")
        originals = {name: getattr(linalg, name) for name in names if hasattr(linalg, name)}
        for module in (linalg, unitroot, diagnostics):
            for name, func in originals.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, func))
        adf_lines(panel)
        assert calls == Counter(qr_r=1)
        diagnostics.lm_autocorrelation(fit, LM_LAGS)
        assert calls == Counter(qr_r=2)


def _copy_data(tmp_path, keep):
    """A copy of the bundled data under ``tmp_path`` in which each panel
    named in ``keep`` holds only the data rows its slice selects."""
    data = tmp_path / "data"
    shutil.copytree(DATA_ROOT, data)
    for name, rows_kept in keep.items():
        path = data / "panels" / f"{name}.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(rows[rows_kept]))
    return data


def _bundle(out_dir) -> dict[str, bytes]:
    """Every file in ``out_dir``, by name."""
    bundle = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            bundle[name] = fh.read()
    return bundle


@contextlib.contextmanager
def _leaves_no_process_or_fd():
    """Check that the block leaves no child process and no open fd behind."""
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if fds is not None:
        assert sorted(os.listdir("/proc/self/fd")) == sorted(fds)


class TestStreamedBundle:
    def test_run_holds_one_model_of_text_not_the_bundle(self, tmp_path):
        with open(os.path.join(DATA_ROOT, "config.json")) as fh:
            obj = json.load(fh)
        obj["outDir"] = str(tmp_path)
        obj["defaults"]["horizon"] = 200
        config = parse_config(obj, base_dir=DATA_ROOT)
        run_pipeline(config)  # warm: lazily built caches are not the run's text
        tracemalloc.start()
        try:
            run_pipeline(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        irf_size = os.path.getsize(tmp_path / "irf.csv")
        assert irf_size > 2_000_000
        assert peak < irf_size

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, OSError])
    @pytest.mark.parametrize("where", ["first model", "second model", "plot rows"])
    def test_interrupted_run_leaves_the_previous_bundle(self, tmp_path, monkeypatch, where, exc):
        # On two CPUs the first model, AL 113, runs in the calling process
        # and the second, ME 113, in a forked worker, which sends the
        # exception back to be raised here.
        _cpus(monkeypatch, 2)
        config = small_run_config(tmp_path)
        run_pipeline(config)
        before = _bundle(config.out_dir)
        assert len(before) == 13

        if where.endswith("model"):
            state = "AL" if where == "first model" else "ME"
            run_model = pipeline._run_model

            def interrupted(out, *args):
                if out.model.state == state:
                    raise exc()
                return run_model(out, *args)

            monkeypatch.setattr(pipeline, "_run_model", interrupted)
        elif exc is KeyboardInterrupt:

            def interrupted(*args):
                raise exc()

            monkeypatch.setattr(pipeline, "emit_plot_data", interrupted)
        else:
            # An OSError from emit_plot_data is one model's failure; one from
            # writing plot.csv's temp file ends the run.
            def failing_open(path, *args, **kwargs):
                if os.path.basename(path).startswith(".plot.csv."):
                    raise exc(28, "No space left on device")
                return open(path, *args, **kwargs)

            monkeypatch.setattr(pipeline, "open", failing_open, raising=False)
        with _leaves_no_process_or_fd():
            with pytest.raises(exc):
                run_pipeline(config)
        assert _bundle(config.out_dir) == before

    def test_temp_files_of_dead_runs_are_removed(self, tmp_path):
        # A run killed outright leaves its temp files. The next run into the
        # directory removes its own temp names, and no other file.
        config = small_run_config(tmp_path)
        run_pipeline(config)
        before = _bundle(config.out_dir)
        left = {
            ".irf.csv.tmp": False,
            ".manifest.json.tmp": False,
            ".lq.csv.backup.tmp": True,
            ".irf.csv.12345.tmp": True,  # an earlier version's name, with a pid
        }
        for name in left:
            (tmp_path / "out" / name).write_text("stale\n")

        run_pipeline(config)
        after = _bundle(config.out_dir)
        assert {name: name in after for name in left} == left
        assert len(before) == 13
        assert {n: b for n, b in after.items() if n.endswith(".csv")} == {
            n: b for n, b in before.items() if n.endswith(".csv")
        }

    def test_temp_file_of_a_report_the_run_does_not_write_is_removed(self, tmp_path):
        config = small_run_config(tmp_path)
        config = dataclasses.replace(
            config, defaults=dataclasses.replace(config.defaults, holdout_start=None)
        )
        os.makedirs(config.out_dir)
        (tmp_path / "out" / ".backtest.csv.tmp").write_text("stale\n")
        run_pipeline(config)
        assert sorted(_bundle(config.out_dir)) == sorted(
            [*(name for name in pipeline.REPORT_HEADERS if name != "backtest.csv"), "manifest.json"]
        )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the runs are forked")
    def test_runs_into_one_directory_never_mix_a_bundle(self, tmp_path, monkeypatch):
        # Run A pauses after renaming forecast.csv, its 9th report, into
        # place; run B, at another horizon, starts meanwhile. B waits for A's
        # lock and then writes its whole bundle over A's.
        _cpus(monkeypatch, 2)
        config_a = small_run_config(tmp_path, horizon=4)
        config_b = small_run_config(tmp_path, horizon=5)
        expected = {}
        for name, config in (("a", config_a), ("b", config_b)):
            out = str(tmp_path / name)
            run_pipeline(dataclasses.replace(config, out_dir=out))
            expected[name] = _bundle(out)
        assert expected["a"]["irf.csv"] != expected["b"]["irf.csv"]

        with _leaves_no_process_or_fd():
            with _run_paused_after(config_a, "forecast.csv"):
                run_b = _fork(lambda: run_pipeline(config_b))
                # Without the lock, B ends during A's pause.
                code = _exit_code(run_b, seconds=1.0)
            assert (_exit_code(run_b) if code is None else code) == 0
        bundle = _bundle(config_b.out_dir)
        assert sorted(bundle) == sorted(expected["b"])
        for name, data in bundle.items():
            if name == "manifest.json":
                manifest = json.loads(data)
                assert manifest["configHash"] == config_b.config_hash
                assert manifest["models"] == json.loads(expected["b"][name])["models"]
            else:
                assert data == expected["b"][name], name

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the holding run is forked")
    def test_run_interrupted_while_it_waits_leaves_the_holders_files(self, tmp_path, monkeypatch):
        import fcntl

        _cpus(monkeypatch, 2)
        config = small_run_config(tmp_path)
        run_pipeline(config)
        before = _bundle(config.out_dir)

        def flock(fd, operation):
            # The interrupt arrives while this run waits for the lock.
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            fcntl.flock(fd, operation)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        with _leaves_no_process_or_fd():
            with _run_paused_after(config, "forecast.csv"):
                holding = _bundle(config.out_dir)
                assert ".irf.csv.tmp" in holding and ".manifest.json.tmp" in holding
                monkeypatch.setattr(
                    pipeline, "fcntl", types.SimpleNamespace(LOCK_EX=fcntl.LOCK_EX, flock=flock)
                )
                handler = signal.signal(signal.SIGALRM, interrupt)
                try:
                    with pytest.raises(KeyboardInterrupt):
                        run_pipeline(config)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    signal.signal(signal.SIGALRM, handler)
                assert _bundle(config.out_dir) == holding
        after = _bundle(config.out_dir)
        assert sorted(after) == sorted(before)
        assert {n: b for n, b in after.items() if n.endswith(".csv")} == {
            n: b for n, b in before.items() if n.endswith(".csv")
        }


def _fork(run) -> int:
    """The pid of a forked process that calls ``run()`` and exits with 0,
    or with 1 if it raises."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            run()
            status = 0
        finally:
            os._exit(status)
    return pid


def _exit_code(pid: int, seconds: float | None = None) -> int | None:
    """The exit code of the forked process ``pid`` once it ends, or None if
    it still runs after ``seconds``."""
    deadline = None if seconds is None else time.monotonic() + seconds
    while True:
        ended, status = os.waitpid(pid, 0 if deadline is None else os.WNOHANG)
        if ended:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            return None
        time.sleep(0.01)


@contextlib.contextmanager
def _run_paused_after(config, report: str):
    """Run ``config`` in a forked process that pauses, holding its output
    directory's lock, right after renaming ``report`` into place. The block
    runs during the pause; on leaving it the run goes on and is reaped."""
    paused_r, paused_w = os.pipe()
    go_r, go_w = os.pipe()

    def paused_run():
        replace = os.replace

        def paused_replace(src, dst):
            replace(src, dst)
            if os.path.basename(dst) == report:
                os.write(paused_w, b"p")
                os.read(go_r, 1)

        os.replace = paused_replace  # in the forked process only
        run_pipeline(config)

    pid = _fork(paused_run)
    os.close(paused_w)
    os.close(go_r)
    try:
        assert os.read(paused_r, 1) == b"p"
        yield
    finally:
        # A byte, not the end of the pipe: a process forked in the block
        # holds go_w open too.
        os.write(go_w, b"g")
        os.close(go_w)
        os.close(paused_r)
        assert _exit_code(pid) == 0


def _cpus(monkeypatch, count: int) -> None:
    """Make the run see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
class TestWorkers:
    """Model i in report order runs in worker i mod W, W being the usable
    CPUs capped at the models; worker 0 is the calling process."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_manifest_lists_each_worker(self, tmp_path, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        config = small_run_config(tmp_path)
        manifest = run_pipeline(config)
        workers = manifest["timings"]["workers"]
        expected = [["AL_113", "ME_113"]] if cpus == 1 else [["AL_113"], ["ME_113"]]
        assert [w["models"] for w in workers] == expected
        assert all(set(w) == {"models", "cpuSeconds", "peakRssMb"} for w in workers)
        assert all(w["cpuSeconds"] >= 0.0 and w["peakRssMb"] > 0.0 for w in workers)
        with open(os.path.join(config.out_dir, "manifest.json")) as fh:
            assert json.load(fh)["timings"]["workers"] == workers

    @pytest.mark.parametrize("why", ["no fork", "no affinity", "a second thread"])
    def test_one_worker(self, tmp_path, monkeypatch, why):
        _cpus(monkeypatch, 2)
        if why == "no fork":
            monkeypatch.delattr(os, "fork")
        elif why == "no affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if why == "a second thread":
            thread.start()
        try:
            manifest = run_pipeline(small_run_config(tmp_path))
        finally:
            release.set()
            if thread.is_alive():
                thread.join(10)
        assert not thread.is_alive()
        assert [w["models"] for w in manifest["timings"]["workers"]] == [["AL_113", "ME_113"]]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failure_in_a_worker_is_recorded_as_in_the_caller(self, tmp_path, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        real_irf = pipeline.irf

        def failing_irf(fit, horizon):
            if fit.spec.r == 0:  # ME 113's fit; AL 113's has r = 1
                raise NumericalFailure("irf diverged")
            return real_irf(fit, horizon)

        monkeypatch.setattr(pipeline, "irf", failing_irf)
        config = small_run_config(tmp_path)
        manifest = run_pipeline(config)
        assert [m for m in manifest.models if m["status"] != "ok"] == [
            {
                "state": "ME", "naics": 113, "status": "error", "k": 1, "r": 0, "case": "none",
                "message": "NumericalFailure: irf diverged", "stage": "irf",
                "errorType": "NumericalFailure",
            }
        ]
        assert list(manifest["timings"]["perStage"]["ME_113"])[-1] == "irf"
        with open(os.path.join(config.out_dir, "irf.csv")) as fh:
            assert {line[:6] for line in fh.read().splitlines()[1:]} == {"AL,113"}

    def test_killed_worker_ends_the_run_as_worker_failed(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        config = small_run_config(tmp_path)
        run_pipeline(config)
        before = _bundle(config.out_dir)
        caller = os.getpid()
        run_model = pipeline._run_model

        def killed(out, *args):
            if out.model.state == "ME" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_model(out, *args)

        monkeypatch.setattr(pipeline, "_run_model", killed)
        with _leaves_no_process_or_fd():
            with pytest.raises(WorkerFailed) as info:
                run_pipeline(config)
        assert str(info.value) == (
            "the worker running ME/113 ended (killed by signal 9) before sending its results"
        )
        assert _bundle(config.out_dir) == before

    def test_threaded_caller_runs_every_model_itself(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        config = small_run_config(tmp_path)
        run_pipeline(config)
        before = _bundle(config.out_dir)
        ran = []
        run_model = pipeline._run_model

        def interrupted(out, *args):
            ran.append((out.model.state, os.getpid()))
            if out.model.state == "ME":
                raise KeyboardInterrupt
            return run_model(out, *args)

        monkeypatch.setattr(pipeline, "_run_model", interrupted)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with _leaves_no_process_or_fd():
                with pytest.raises(KeyboardInterrupt):
                    run_pipeline(config)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert ran == [("AL", os.getpid()), ("ME", os.getpid())]
        assert _bundle(config.out_dir) == before

    @pytest.mark.parametrize("how", ["killed", "interrupted"])
    def test_failure_in_a_workers_ingest_ends_the_run(self, tmp_path, monkeypatch, how):
        # ME 113's panel is read in the forked worker, which is killed or
        # interrupted while it reads.
        _cpus(monkeypatch, 2)
        config = small_run_config(tmp_path)
        run_pipeline(config)
        before = _bundle(config.out_dir)
        caller = os.getpid()
        load_panel = pipeline.load_panel

        def failing(data_dir, state, naics):
            if state == "ME" and os.getpid() != caller:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise KeyboardInterrupt
            return load_panel(data_dir, state, naics)

        monkeypatch.setattr(pipeline, "load_panel", failing)
        with _leaves_no_process_or_fd():
            with pytest.raises(WorkerFailed if how == "killed" else KeyboardInterrupt) as info:
                run_pipeline(config)
        if how == "killed":
            assert str(info.value) == (
                "the worker running ME/113 ended (killed by signal 9) before sending its results"
            )
        assert _bundle(config.out_dir) == before

    @pytest.mark.skipif(
        not hasattr(pipeline.fcntl, "F_SETPIPE_SZ"), reason="pipes keep the system's size"
    )
    def test_workers_run_ahead_of_the_caller(self, tmp_path, monkeypatch):
        # At horizon 200 ME 113's rows overflow a 64 KiB pipe. The caller
        # holds its own first model, AL 113, until the worker has sent them
        # all and ended.
        _cpus(monkeypatch, 2)
        config = small_run_config(tmp_path, horizon=200)
        run_pipeline(config)
        expected = _bundle(config.out_dir)
        me_rows = sum(
            len(line)
            for name, data in expected.items()
            for line in data.splitlines(keepends=True)
            if line.startswith(b"ME,")
        )
        assert me_rows > 2 * 65536
        done = tmp_path / "worker done"
        caller = os.getpid()
        serve, run_model = pipeline._serve, pipeline._run_model

        def serve_then_mark(*args):
            serve(*args)
            done.touch()

        def held(out, *args):
            if os.getpid() == caller and out.model.state == "AL":
                deadline = time.monotonic() + 10.0
                while not done.exists():
                    assert time.monotonic() < deadline, "the worker waits for the caller"
                    time.sleep(0.01)
            return run_model(out, *args)

        monkeypatch.setattr(pipeline, "_serve", serve_then_mark)
        monkeypatch.setattr(pipeline, "_run_model", held)
        with _leaves_no_process_or_fd():
            run_pipeline(config)
        bundle = _bundle(config.out_dir)
        assert sorted(bundle) == sorted(expected)
        for name, data in bundle.items():
            if name != "manifest.json":
                assert data == expected[name], name

    def test_no_worker_outlives_a_killed_caller(self, tmp_path, monkeypatch):
        # The caller is killed outright once its worker has sent the starts
        # of its panels and waits for plot.csv's base. The worker leaves,
        # and with it its hold on the output directory's lock, so the next
        # run into the directory does not wait.
        _cpus(monkeypatch, 2)
        config = small_run_config(tmp_path)
        noted = tmp_path / "worker pid"
        receive, load_panel = pipeline._receive, pipeline.load_panel

        def noting(data_dir, state, naics):
            if state == "ME":  # in the worker
                noted.write_text(str(os.getpid()))
            return load_panel(data_dir, state, naics)

        def killed(*args):
            receive(*args)
            os.kill(os.getpid(), signal.SIGKILL)

        with _leaves_no_process_or_fd():
            with monkeypatch.context() as patched:
                patched.setattr(pipeline, "load_panel", noting)
                patched.setattr(pipeline, "_receive", killed)
                assert _exit_code(_fork(lambda: run_pipeline(config))) == -signal.SIGKILL
            worker = int(noted.read_text())
            next_run = _fork(lambda: run_pipeline(config))
            code = _exit_code(next_run, seconds=10.0)
            if code is None:  # it waits for the lock the worker holds
                for pid in (worker, next_run):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                _exit_code(next_run)
            assert code == 0
        # Ended: reaped, or a zombie left for init to reap.
        if os.path.isdir("/proc/self"):
            with contextlib.suppress(FileNotFoundError), open(f"/proc/{worker}/stat") as fh:
                assert fh.read().rsplit(")", 1)[1].split()[0] == "Z"
