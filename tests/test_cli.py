import json
import os
import shutil

import pytest

from cointegra.cli import main
from fixtures import PANEL_STATS

DATA_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "data", "sixstate")
)
CONFIG = os.path.join(DATA_ROOT, "config.json")


def run_cli(*argv):
    return main(list(argv))


def stage_args(command, state="AL", naics=113, *extra):
    return [command, "--config", CONFIG, "--state", state, "--naics", str(naics), *extra]


class TestStageCommands:
    def test_ingest_reports_span(self, capsys):
        assert run_cli(*stage_args("ingest", "OR", 113)) == 0
        out = capsys.readouterr().out
        assert out == "ok OR 113 72 quarters 2001Q1..2018Q4\n"

    def test_summarize_matches_published_table(self, capsys):
        assert run_cli(*stage_args("summarize", "AL", 113)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "state,naics,variable,n,mean,sd,min,max"
        assert len(lines) == 6
        employment = next(l for l in lines if ",employment," in l)
        stats = PANEL_STATS[(113, "AL")]["employment"]
        assert employment == (
            f"AL,113,employment,{stats.n},{stats.mean:.3f},{stats.sd:.3f},"
            f"{stats.minimum:.3f},{stats.maximum:.3f}"
        )

    def test_lq_rows_and_flag(self, capsys):
        assert run_cli(*stage_args("lq", "MS", 322)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "state,naics,quarter,lq"
        assert lines[1].startswith("MS,322,2004Q1,")
        assert len(lines) == 1 + 60 + 1
        assert lines[-1].startswith("# mean_lq=")
        assert lines[-1].endswith("significant=1")

    def test_adf_row_per_variable(self, capsys):
        assert run_cli(*stage_args("adf", "AL", 113, "--lag", "2")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        for line in lines[1:]:
            assert line.split(",")[-1] in {"0", "1"}

    def test_lags_marks_chosen(self, capsys):
        assert run_cli(*stage_args("lags", "AL", 113, "--max-lag", "3")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert [line.split(",")[2] for line in lines[1:]] == ["0", "1", "2", "3"]
        flags = "".join(line.split(",")[-1] for line in lines[1:])
        for name in ("aic", "fpe", "lr"):
            assert name in flags

    def test_johansen_full_ladder(self, capsys):
        assert run_cli(*stage_args("johansen", "AL", 113, "--k", "2")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[:5] == ["AL", "113", "2", "rconst", "0"]
        assert first[-1].isdigit()

    def test_fit_prints_spec_then_parameters(self, capsys):
        assert run_cli(*stage_args("fit", "AL", 113, "--k", "2", "--r", "1")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# AL 113 k=2 r=1 case=rconst t_eff=")
        assert lines[1] == "component,row,col,value"
        assert any(l.startswith("beta,const,1,") for l in lines)
        assert any(l.startswith("gamma1,output,") for l in lines)
        assert not any(l.startswith("gamma2,") for l in lines)

    def test_diagnose_has_lm_and_joint_rows(self, capsys):
        args = stage_args("diagnose", "AL", 113, "--k", "1", "--r", "1")
        assert run_cli(*args) == 0
        out = capsys.readouterr().out
        lm_block, normality_block = out.split("\n\n")
        assert len(lm_block.splitlines()) == 5
        assert any(l.split(",")[2] == "ALL" for l in normality_block.splitlines())

    def test_forecast_flat_without_error_correction(self, capsys):
        args = stage_args(
            "forecast", "AL", 113, "--k", "1", "--r", "0", "--case", "none",
            "--horizon", "4",
        )
        assert run_cli(*args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 4 * 5
        by_var = {}
        for line in lines[1:]:
            state, naics, quarter, name, value, flag = line.split(",")
            assert flag == "1"
            by_var.setdefault(name, set()).add(value)
        assert all(len(values) == 1 for values in by_var.values())
        quarters = [line.split(",")[2] for line in lines[1::5]]
        assert quarters == ["2019Q1", "2019Q2", "2019Q3", "2019Q4"]

    def test_backtest_with_explicit_holdout(self, capsys):
        args = stage_args(
            "backtest", "AL", 113, "--k", "1", "--r", "1", "--holdout", "2017Q1"
        )
        assert run_cli(*args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "state,naics,variable,rmse,mape"

    def test_backtest_requires_some_holdout(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "dataDir": DATA_ROOT,
                    "outDir": str(tmp_path / "out"),
                    "models": [{"state": "AL", "naics": 113}],
                }
            )
        )
        args = [
            "backtest", "--config", str(config),
            "--state", "AL", "--naics", "113", "--k", "1", "--r", "1",
        ]
        assert run_cli(*args) == 2
        assert "holdout" in capsys.readouterr().err


def override_config(tmp_path):
    """The bundled config with AL/113 fixed at k=2, r=1, unrestricted constant."""
    with open(CONFIG) as fh:
        obj = json.load(fh)
    obj["dataDir"] = DATA_ROOT
    obj["outDir"] = str(tmp_path / "out")
    obj["models"][0].update(k=2, r=1, case="unrestrictedConstant")
    path = tmp_path / "override.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestStageBundleParity:
    """Each stage command prints exactly that model's rows of the run bundle."""

    @pytest.mark.parametrize("which", ["bundled", "override"])
    def test_stage_stdout_equals_bundle_rows(self, which, tmp_path, capsys):
        config = CONFIG if which == "bundled" else override_config(tmp_path)
        out = tmp_path / "reports"
        assert run_cli("run", "--config", config, "--out", str(out)) == 0
        capsys.readouterr()
        bundle = {}
        for name in os.listdir(out):
            if name.endswith(".csv"):
                bundle[name] = (out / name).read_text().splitlines(keepends=True)

        def rows(report, state, naics, keep=lambda line: True):
            prefix = f"{state},{naics},"
            lines = bundle[report]
            return lines[0] + "".join(
                l for l in lines[1:] if l.startswith(prefix) and keep(l)
            )

        with open(config) as fh:
            models = json.load(fh)["models"]
        assert len(models) == 16
        for m in models:
            state, naics = m["state"], m["naics"]

            def stage(command):
                argv = [command, "--config", config, "--state", state, "--naics", str(naics)]
                assert run_cli(*argv) == 0
                return capsys.readouterr().out

            for command, report in [
                ("summarize", "summary.csv"), ("adf", "adf.csv"), ("lags", "lags.csv"),
                ("johansen", "johansen.csv"), ("backtest", "backtest.csv"),
            ]:
                assert stage(command) == rows(report, state, naics), (command, state, naics)
            lq = stage("lq").splitlines(keepends=True)
            assert lq[-1].startswith("# mean_lq=")
            assert "".join(lq[:-1]) == rows("lq.csv", state, naics)
            assert stage("diagnose") == (
                rows("lm.csv", state, naics) + "\n" + rows("normality.csv", state, naics)
            )
            assert stage("forecast") == rows(
                "forecast.csv", state, naics, keep=lambda l: l.endswith(",1\n")
            )


class TestConfiguredModel:
    """Stage commands fit the config's own k, r and case for the model."""

    def test_fit_uses_configured_spec(self, tmp_path, capsys):
        config = override_config(tmp_path)
        args = ["fit", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 0
        assert capsys.readouterr().out.startswith("# AL 113 k=2 r=1 case=uconst ")

    def test_flag_overrides_one_field(self, tmp_path, capsys):
        config = override_config(tmp_path)
        args = ["fit", "--config", config, "--state", "AL", "--naics", "113", "--k", "1"]
        assert run_cli(*args) == 0
        assert capsys.readouterr().out.startswith("# AL 113 k=1 r=1 case=uconst ")

    def test_johansen_uses_configured_lag_and_case(self, tmp_path, capsys):
        config = override_config(tmp_path)
        args = ["johansen", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("AL,113,2,uconst,0,")


class TestBadStageFlags:
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("johansen", ["--case", "bogus"], "ConfigInvalid: unknown deterministic case"),
            ("fit", ["--case", "bogus"], "ConfigInvalid: unknown deterministic case"),
            ("fit", ["--case", "rtrend"], "ConfigInvalid: unknown deterministic case"),
            ("fit", ["--k", "0"], "k must be a positive integer"),
            ("fit", ["--r", "-1"], "r must be a nonnegative integer"),
            ("backtest", ["--holdout", "2016Q5"], "ConfigInvalid: bad --holdout"),
            ("adf", ["--lag", "-1"], "--lag must be a nonnegative integer"),
            ("adf", ["--deterministic", "bogus"], "--deterministic must be one of"),
            ("forecast", ["--horizon", "0"], "HorizonZero"),
            ("lags", ["--max-lag", "0"], "--max-lag must be a positive integer"),
            ("johansen", ["--case", "utrend"], "ConfigInvalid: unknown deterministic case"),
        ],
    )
    def test_bad_flag_is_a_typed_error(self, command, flags, message, capsys):
        assert run_cli(*stage_args(command, "AL", 113, *flags)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            (
                "backtest",
                ["--holdout", "2001Q3"],
                "training window 2001Q1..2001Q2: 2 quarters available; k=4 needs at least 34",
            ),
            ("fit", ["--k", "80"], "72 quarters available; k=80 needs at least 490"),
        ],
    )
    def test_short_sample_names_the_quarters_and_k(self, command, flags, message, capsys):
        assert run_cli(*stage_args(command, "AL", 113, *flags)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: SampleTooShort: {message}\n"

    @pytest.mark.parametrize(
        "state, naics, max_lag, message",
        [
            ("AL", 113, "100", "72 quarters available; max_lag=100 needs at least 1350"),
            ("MS", 322, "5", "60 quarters available; max_lag=5 needs at least 68"),
        ],
    )
    def test_short_sample_names_the_quarters_and_max_lag(
        self, state, naics, max_lag, message, capsys
    ):
        assert run_cli(*stage_args("lags", state, naics, "--max-lag", max_lag)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: SampleTooShort: {message}\n"

    @pytest.mark.parametrize("flags", [["--state", "XX"], ["--naics", "999"]])
    def test_unsupported_model(self, flags, capsys):
        args = ["summarize", "--config", CONFIG, "--state", "AL", "--naics", "113", *flags]
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.startswith("error: ConfigInvalid: unsupported ")

    @pytest.mark.parametrize(
        "command",
        [
            "ingest", "summarize", "lq", "adf", "lags", "johansen", "fit", "diagnose",
            "forecast", "backtest",
        ],
    )
    def test_out_is_a_run_flag_only(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(*stage_args(command, "AL", 113, "--out", "x"))
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cointegra ")
        assert captured.err.endswith("error: unrecognized arguments: --out x\n")

    @pytest.mark.parametrize(
        "command",
        [
            "ingest", "summarize", "lq", "adf", "lags", "johansen", "fit", "diagnose",
            "forecast", "backtest",
        ],
    )
    def test_seed_is_a_run_flag_only(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(*stage_args(command, "AL", 113, "--seed", "5"))
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cointegra ")
        assert captured.err.endswith("error: unrecognized arguments: --seed 5\n")

    def test_missing_holdout_is_a_typed_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        models = [{"state": "AL", "naics": 113}]
        config.write_text(json.dumps({"dataDir": DATA_ROOT, "outDir": "out", "models": models}))
        args = ["backtest", "--config", str(config), "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.startswith("error: ConfigInvalid: no holdout start")


class TestRunCommand:
    def test_full_bundled_run(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = run_cli("run", "--config", CONFIG, "--out", str(out))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17
        assert all(": ok (" in line for line in lines[:16])
        assert lines[-1] == f"wrote 12 reports to {out}"
        assert sorted(os.listdir(out)) == sorted(
            [
                "adf.csv", "backtest.csv", "forecast.csv", "irf.csv",
                "johansen.csv", "lags.csv", "lm.csv", "lq.csv",
                "lq_flags.csv", "manifest.json", "normality.csv",
                "plot.csv", "summary.csv",
            ]
        )

    def test_failed_model_sets_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "dataDir": DATA_ROOT,
                    "outDir": str(tmp_path / "out"),
                    "models": [
                        {"state": "AL", "naics": 113, "k": 1, "r": 1},
                        {"state": "WI", "naics": 113, "k": 1, "r": 1},
                    ],
                    "defaults": {"maxLag": 2},
                }
            )
        )
        assert run_cli("run", "--config", str(config)) == 1
        out = capsys.readouterr().out
        assert "AL 113: ok" in out
        assert "WI 113: error" in out


    def test_seed_changes_the_config_hash(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        models = [{"state": "AL", "naics": 113, "k": 1, "r": 1}]
        config.write_text(json.dumps({"dataDir": DATA_ROOT, "outDir": "out", "models": models}))
        hashes = []
        for seed in ([], ["--seed", "5"]):
            assert run_cli("run", "--config", str(config), *seed) == 0
            hashes.append(json.loads((tmp_path / "out" / "manifest.json").read_text())["configHash"])
        assert hashes[0] != hashes[1]
        assert capsys.readouterr().err == ""


def _degenerate_copy(tmp_path, kind):
    """Copy the bundled dataset into tmp_path with AL 113's price column
    replaced by an exact function of other columns or of time."""
    root = tmp_path / "sixstate"
    shutil.copytree(DATA_ROOT, root)
    path = root / "panels" / "AL_113.csv"
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    out = [header]
    for t, line in enumerate(rows):
        row = dict(zip(names, line.split(",")))
        output, firms = float(row["output"]), float(row["num_firms"])
        row["price"] = repr(
            {
                "constant": 1.5,
                "scaled duplicate": 3.0 * output,
                "sum": output + firms,
                "linear trend": 0.5 + 0.01 * t,
            }[kind]
        )
        out.append(",".join(row[name] for name in names))
    path.write_text("\n".join(out) + "\n")
    return str(root / "config.json")


DEGENERATE = ["constant", "scaled duplicate", "sum", "linear trend"]


# The error each degenerate price column ends ``run`` with. ADF screens each
# variable before lag selection, so a constant or trending price stops
# there and is named; the other two are singular only as a system.
RUN_ERRORS = {
    "constant": "ConstantSeries: series has zero variance in 'price'",
    "scaled duplicate": "RankDeficient: ",
    "sum": "RankDeficient: ",
    "linear trend": "RankDeficient: design matrix rank-deficient (6 columns) in 'price'",
}


class TestDegeneratePanel:
    @pytest.mark.parametrize("kind", ["constant", "linear trend"])
    def test_adf_names_the_variable(self, kind, tmp_path, capsys):
        config = _degenerate_copy(tmp_path, kind)
        assert run_cli("adf", "--config", config, "--state", "AL", "--naics", "113") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {RUN_ERRORS[kind]}\n"

    @pytest.mark.parametrize("kind", DEGENERATE)
    def test_lags_is_a_typed_error(self, kind, tmp_path, capsys):
        config = _degenerate_copy(tmp_path, kind)
        assert run_cli("lags", "--config", config, "--state", "AL", "--naics", "113") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: RankDeficient: ")

    @pytest.mark.parametrize("kind", DEGENERATE)
    def test_run_records_the_model_as_error(self, kind, tmp_path, capsys):
        config = _degenerate_copy(tmp_path, kind)
        out = tmp_path / "out"
        assert run_cli("run", "--config", config, "--out", str(out)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"wrote 12 reports to {out}"
        manifest = json.loads((out / "manifest.json").read_text())
        failed = [m for m in manifest["models"] if m["status"] != "ok"]
        assert [(m["state"], m["naics"]) for m in failed] == [("AL", 113)]
        assert len(manifest["models"]) == 16
        assert failed[0]["message"].startswith(RUN_ERRORS[kind])
        if kind in ("constant", "linear trend"):
            assert failed[0]["message"] == RUN_ERRORS[kind]
            assert f"AL 113: error ({RUN_ERRORS[kind]})" in lines


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli(*stage_args("ingest")[:1], "--config", str(tmp_path / "nope.json"),
                       "--state", "AL", "--naics", "113")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_content(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataDir": ".", "outDir": ".", "models": [], "x": 1}))
        args = ["summarize", "--config", str(config), "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        assert "ConfigInvalid" in capsys.readouterr().err

    def test_unknown_panel_file(self, capsys):
        assert run_cli(*stage_args("ingest", "WI", 113)) == 2
        assert "error" in capsys.readouterr().err



class TestConfigTypes:
    """Config values of the wrong JSON type end as ConfigInvalid and exit 2."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj["models"][0].update(k=True),
            lambda obj: obj["models"][0].update(r=False),
            lambda obj: obj["defaults"].update(maxLag=True),
            lambda obj: obj["defaults"].update(horizon=True),
            lambda obj: obj["defaults"].update(lqThreshold=float("nan")),
        ],
        ids=["k-true", "r-false", "maxLag-true", "horizon-true", "lqThreshold-nan"],
    )
    def test_run_rejects(self, edit, tmp_path, capsys):
        with open(CONFIG) as fh:
            obj = json.load(fh)
        obj["dataDir"] = DATA_ROOT
        edit(obj)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))  # a NaN is written as the bare token NaN
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error: ConfigInvalid: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda obj: obj["defaults"].update(holdoutStart=2016),
                "bad holdoutStart: quarter label must be a string, got 2016",
            ),
            (lambda obj: obj.update(dataDir=5), "dataDir must be a string"),
            (lambda obj: obj.update(outDir=["x"]), "outDir must be a string"),
        ],
        ids=["holdoutStart-int", "dataDir-int", "outDir-list"],
    )
    def test_backtest_rejects(self, edit, message, tmp_path, capsys):
        with open(CONFIG) as fh:
            obj = json.load(fh)
        obj["dataDir"] = DATA_ROOT
        edit(obj)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))
        args = ["backtest", "--config", str(config), "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        assert capsys.readouterr().err == f"error: ConfigInvalid: {message}\n"

    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize("key, value", [("dataDir", "\0"), ("outDir", "o\0")])
    def test_nul_in_a_path_is_a_typed_error(self, command, key, value, tmp_path, capsys):
        obj = {"dataDir": DATA_ROOT, "outDir": "out", "models": [{"state": "AL", "naics": 113}]}
        obj[key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))
        args = [command, "--config", str(config)]
        if command == "ingest":
            args += ["--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ConfigInvalid: {key} must not contain a NUL character\n"
        assert os.listdir(tmp_path) == ["config.json"]

    def test_nul_in_run_out_is_a_typed_error(self, tmp_path, capsys):
        assert run_cli("run", "--config", CONFIG, "--out", str(tmp_path / "o\0")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ConfigInvalid: outDir must not contain a NUL character\n"
        assert os.listdir(tmp_path) == []


def _corrupt_copy(tmp_path, relpath, row, edit):
    """Copy the bundled dataset into tmp_path and rewrite data row ``row``
    (0-based, after the header) of ``relpath`` with ``edit``."""
    root = tmp_path / "sixstate"
    shutil.copytree(DATA_ROOT, root)
    path = root / relpath
    lines = path.read_text().splitlines(keepends=True)
    lines[row + 1] = edit(lines[row + 1])
    path.write_text("".join(lines))
    return str(root / "config.json")


class TestMalformedCells:
    def test_bad_year_in_panel(self, tmp_path, capsys):
        config = _corrupt_copy(tmp_path, "panels/AL_113.csv", 3, lambda l: "20x1" + l[4:])
        args = ["ingest", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err == "error: MalformedValue: malformed value at row 3, column 'year'\n"

    def test_short_panel_row(self, tmp_path, capsys):
        config = _corrupt_copy(
            tmp_path, "panels/AL_113.csv", 5, lambda l: ",".join(l.split(",")[:4]) + "\n"
        )
        args = ["ingest", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err == "error: MalformedValue: malformed value at row 5, column 'output'\n"

    def test_quarter_out_of_range(self, tmp_path, capsys):
        def quarter_seven(line):
            year, _quarter, rest = line.split(",", 2)
            return f"{year},7,{rest}"

        config = _corrupt_copy(tmp_path, "panels/AL_113.csv", 3, quarter_seven)
        args = ["ingest", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err == "error: MalformedValue: malformed value at row 3, column 'quarter'\n"

    def test_bad_value_in_aux_series(self, tmp_path, capsys):
        config = _corrupt_copy(
            tmp_path, "aux/national_total.csv", 7, lambda l: l.rsplit(",", 1)[0] + ",1.2.3\n"
        )
        args = ["lq", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        path = tmp_path / "sixstate" / "aux" / "national_total.csv"
        assert err == f"error: MalformedValue: malformed value at row 7, column 'value' in {path}\n"

    def test_short_aux_row(self, tmp_path, capsys):
        config = _corrupt_copy(tmp_path, "aux/state_total_AL.csv", 0, lambda l: "2001\n")
        args = ["lq", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        path = tmp_path / "sixstate" / "aux" / "state_total_AL.csv"
        assert err == (
            f"error: MalformedValue: malformed value at row 0, column 'quarter' in {path}\n"
        )

    def test_nan_panel_value(self, tmp_path, capsys):
        def nan_employment(line):
            fields = line.split(",")
            fields[2] = "nan"
            return ",".join(fields)

        config = _corrupt_copy(tmp_path, "panels/AL_113.csv", 3, nan_employment)
        args = ["ingest", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err == "error: MalformedValue: malformed value at row 3, column 'employment'\n"

    def test_inf_aux_value(self, tmp_path, capsys):
        config = _corrupt_copy(
            tmp_path, "aux/national_total.csv", 7, lambda l: l.rsplit(",", 1)[0] + ",inf\n"
        )
        args = ["lq", "--config", config, "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        path = tmp_path / "sixstate" / "aux" / "national_total.csv"
        assert err == f"error: MalformedValue: malformed value at row 7, column 'value' in {path}\n"

    def test_repeated_aux_quarter(self, tmp_path, capsys):
        root = _append_bytes(tmp_path, "aux/national_total.csv", b"2001,1,123.0\n")
        args = ["lq", "--config", str(root / "config.json"), "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        out, err = capsys.readouterr()
        path = root / "aux" / "national_total.csv"
        assert (out, err) == ("", f"error: DuplicateQuarter: quarter 2001Q1 duplicated in {path}\n")

    def test_aux_quarter_out_of_range(self, tmp_path, capsys):
        root = _append_bytes(tmp_path, "aux/national_total.csv", b"2001,7,1.0\n")
        args = ["lq", "--config", str(root / "config.json"), "--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        out, err = capsys.readouterr()
        path = root / "aux" / "national_total.csv"
        assert (out, err) == (
            "", f"error: MalformedValue: malformed value at row 72, column 'quarter' in {path}\n"
        )

    def test_quoted_field_over_the_csv_field_limit(self, tmp_path, capsys):
        # An unclosed quote makes the rest of the file one field, which the csv
        # module refuses past 128 KiB.
        root = _append_bytes(tmp_path, "aux/national_total.csv", b'"2001' + b"0" * 140_000)
        config = str(root / "config.json")
        assert run_cli("lq", "--config", config, "--state", "AL", "--naics", "113") == 2
        path = root / "aux" / "national_total.csv"
        assert capsys.readouterr().err == (
            f"error: MalformedFile: {path} is not a readable CSV file: "
            "field larger than field limit (131072)\n"
        )

    def test_run_names_the_screening_file(self, tmp_path, capsys):
        # run reads up to ten aux files; the message says which one is bad.
        config = _corrupt_copy(
            tmp_path, "aux/state_total_ME.csv", 2, lambda l: l.rsplit(",", 1)[0] + ",inf\n"
        )
        assert run_cli("run", "--config", config, "--out", str(tmp_path / "out")) == 2
        path = tmp_path / "sixstate" / "aux" / "state_total_ME.csv"
        assert capsys.readouterr().err == (
            f"error: MalformedValue: malformed value at row 2, column 'value' in {path}\n"
        )


class TestMissingInput:
    """A panel or screening file that does not exist ends as
    InputFileMissing naming the file, with exit 2."""

    def test_stage_command_names_the_missing_panel(self, capsys):
        # The bundle has no WI 113 panel.
        assert run_cli(*stage_args("diagnose", "WI", 113)) == 2
        path = os.path.join(DATA_ROOT, "panels", "WI_113.csv")
        assert capsys.readouterr() == ("", f"error: InputFileMissing: no such file: {path}\n")

    @pytest.mark.parametrize("command", ["lq", "run"])
    def test_missing_screening_file(self, tmp_path, capsys, command):
        root = tmp_path / "sixstate"
        shutil.copytree(DATA_ROOT, root)
        path = root / "aux" / "state_total_WI.csv"
        os.remove(path)
        config = str(root / "config.json")
        if command == "lq":
            args = ["lq", "--config", config, "--state", "WI", "--naics", "321"]
        else:
            args = ["run", "--config", config, "--out", str(tmp_path / "out")]
        assert run_cli(*args) == 2
        assert capsys.readouterr() == ("", f"error: InputFileMissing: no such file: {path}\n")


class TestUnreadableInput:
    """An input path that exists but cannot be opened, here a directory in
    the file's place, ends as MalformedFile naming the file, with exit 2.
    (Running as root, a file without read permission still opens, so that
    case is not exercised.)"""

    @staticmethod
    def directory_in_place_of(tmp_path, relpath):
        root = tmp_path / "sixstate"
        shutil.copytree(DATA_ROOT, root)
        path = root / relpath
        os.remove(path)
        os.mkdir(path)
        return root, path

    def test_panel(self, tmp_path, capsys):
        root, path = self.directory_in_place_of(tmp_path, "panels/AL_113.csv")
        config = str(root / "config.json")
        assert run_cli("ingest", "--config", config, "--state", "AL", "--naics", "113") == 2
        assert capsys.readouterr() == (
            "", f"error: MalformedFile: cannot read {path}: Is a directory\n"
        )

    def test_screening_file(self, tmp_path, capsys):
        root, path = self.directory_in_place_of(tmp_path, "aux/state_total_WI.csv")
        config = str(root / "config.json")
        assert run_cli("lq", "--config", config, "--state", "WI", "--naics", "321") == 2
        assert capsys.readouterr() == (
            "", f"error: MalformedFile: cannot read {path}: Is a directory\n"
        )

    def test_panel_fails_only_its_model_in_run(self, tmp_path, capsys):
        root, path = self.directory_in_place_of(tmp_path, "panels/AL_113.csv")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(root / "config.json"), "--out", str(out)) == 1
        with open(out / "manifest.json") as fh:
            models = json.load(fh)["models"]
        failed = [m for m in models if m["status"] != "ok"]
        assert [(m["state"], m["naics"], m["stage"], m["errorType"], m["message"]) for m in failed] == [
            ("AL", 113, "ingest", "MalformedFile", f"MalformedFile: cannot read {path}: Is a directory")
        ]
        assert "AL 113: error (MalformedFile: " in capsys.readouterr().out


class TestUnwritableOutput:
    """An output path that cannot be written ends as OutputUnwritable
    naming the path, with exit 2, and the previous bundle stays as it was
    with no temp file left."""

    @staticmethod
    def bundle(out):
        """Each regular file's bytes, and None for a directory, by name."""
        return {
            p.name: None if p.is_dir() else p.read_bytes() for p in sorted(out.iterdir())
        }

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert run_cli("run", "--config", CONFIG, "--out", str(out)) == 2
        assert capsys.readouterr() == (
            "", f"error: OutputUnwritable: cannot write {out}: Not a directory\n"
        )

    def test_failed_rename_leaves_the_previous_bundle(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIG, "--out", str(out)) == 0
        # summary.csv is renamed into place first.
        os.remove(out / "summary.csv")
        os.mkdir(out / "summary.csv")
        before = self.bundle(out)
        capsys.readouterr()
        assert run_cli("run", "--config", CONFIG, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: OutputUnwritable: cannot write {out / 'summary.csv'}: Is a directory\n"
        )
        assert self.bundle(out) == before

    def test_failed_temp_file_write_names_the_output_directory(self, tmp_path, capsys, monkeypatch):
        from cointegra import pipeline

        out = tmp_path / "out"
        assert run_cli("run", "--config", CONFIG, "--out", str(out)) == 0
        before = self.bundle(out)

        def full_disk(path, *args, **kwargs):
            if os.path.basename(path).startswith(".irf.csv."):
                raise OSError(28, "No space left on device")  # as a failed write: no file named
            return open(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", full_disk, raising=False)
        capsys.readouterr()
        assert run_cli("run", "--config", CONFIG, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: OutputUnwritable: cannot write {out}: No space left on device\n"
        )
        assert self.bundle(out) == before


def _append_bytes(tmp_path, relpath, data):
    """Copy the bundled dataset into tmp_path and append ``data`` to ``relpath``."""
    root = tmp_path / "sixstate"
    shutil.copytree(DATA_ROOT, root)
    with open(root / relpath, "ab") as fh:
        fh.write(data)
    return root


class TestNonUtf8Input:
    """A byte that is not UTF-8 ends as a typed error naming the file, not a traceback."""

    def test_panel_file(self, tmp_path, capsys):
        root = _append_bytes(tmp_path, "panels/AL_113.csv", b"\xff\xfe")
        config = str(root / "config.json")
        assert run_cli("ingest", "--config", config, "--state", "AL", "--naics", "113") == 2
        err = capsys.readouterr().err
        path = root / "panels" / "AL_113.csv"
        assert err.startswith(f"error: MalformedFile: {path} is not UTF-8 text: ")
        assert err.count("\n") == 1

    def test_panel_file_fails_only_its_model_in_run(self, tmp_path, capsys):
        root = _append_bytes(tmp_path, "panels/AL_113.csv", b"\xff\xfe")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(root / "config.json"), "--out", str(out)) == 1
        with open(out / "manifest.json") as fh:
            models = json.load(fh)["models"]
        failed = [m for m in models if m["status"] != "ok"]
        assert [(m["state"], m["naics"]) for m in failed] == [("AL", 113)]
        path = root / "panels" / "AL_113.csv"
        assert failed[0]["message"].startswith(f"MalformedFile: {path} is not UTF-8 text: ")
        assert "AL 113: error (MalformedFile: " in capsys.readouterr().out

    def test_aux_file(self, tmp_path, capsys):
        root = _append_bytes(tmp_path, "aux/national_total.csv", b"\xff\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(root / "config.json"), "--out", str(out)) == 2
        err = capsys.readouterr().err
        path = root / "aux" / "national_total.csv"
        assert err.startswith(f"error: MalformedFile: {path} is not UTF-8 text: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "ingest", "fit"])
    def test_config_file(self, command, tmp_path, capsys):
        root = _append_bytes(tmp_path, "config.json", b"\n\xff\n")
        args = [command, "--config", str(root / "config.json")]
        if command != "run":
            args += ["--state", "AL", "--naics", "113"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigInvalid: config is not UTF-8 text: ")
        assert err.count("\n") == 1


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte-order mark, as Excel's "CSV UTF-8"
    export writes one, reads as the same file without it."""

    @staticmethod
    def stdout_without_and_with_bom(tmp_path, capsys, relpath, command):
        """AL 113's ``command`` stdout on a copy of the bundled data, then
        again after a BOM is put in front of ``relpath``."""
        root = tmp_path / "sixstate"
        shutil.copytree(DATA_ROOT, root)
        argv = [command, "--config", str(root / "config.json"), "--state", "AL", "--naics", "113"]
        assert run_cli(*argv) == 0
        plain = capsys.readouterr().out
        path = root / relpath
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run_cli(*argv) == 0
        return plain, capsys.readouterr().out

    def test_panel_file(self, tmp_path, capsys):
        plain, bom = self.stdout_without_and_with_bom(
            tmp_path, capsys, "panels/AL_113.csv", "summarize"
        )
        assert bom == plain and plain.count("\n") == 6

    def test_aux_file(self, tmp_path, capsys):
        plain, bom = self.stdout_without_and_with_bom(
            tmp_path, capsys, "aux/national_total.csv", "lq"
        )
        assert bom == plain and plain.startswith("state,naics,quarter,lq\nAL,113,2001Q1,")

    def test_config_file(self, tmp_path, capsys):
        plain, bom = self.stdout_without_and_with_bom(tmp_path, capsys, "config.json", "ingest")
        assert bom == plain == "ok AL 113 72 quarters 2001Q1..2018Q4\n"
