"""Byte-level guard on every stored output: the sha256 of each report CSV
of the bundled run, of the ``long-horizon`` bundle and of the
``long-panel`` bundle at its stored seed, and the exit code and stdout
digest of every CLI command of every bundled model.

The digests are those stored in ``benchmarks/golden.json``, which these
tests read and never write, plus ``FLAG_STDOUT`` below: stage commands run
with non-default flags, which golden.json does not cover. A change that
moves any formatted number, row order or header fails here.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys

import numpy as np
import pytest

from cointegra import cli, linalg
from cointegra.pipeline import _fill, fmt6, load_config, run_pipeline

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CONFIG = os.path.join(ROOT, "data", "sixstate", "config.json")
with open(os.path.join(ROOT, "benchmarks", "golden.json")) as _fh:
    GOLDEN = json.load(_fh)
STAGE_STDOUT = GOLDEN["cold-cli"]["stdout"]
SIXSTATE_SHA256 = GOLDEN["sixstate"]["files"]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    manifest = run_pipeline(load_config(CONFIG, out_dir=str(out)))
    assert not manifest.failed
    return out, manifest


def test_bundle_lists_every_report(bundle):
    _out, manifest = bundle
    assert manifest["files"] == sorted(SIXSTATE_SHA256)


@pytest.mark.parametrize("report", sorted(SIXSTATE_SHA256))
def test_report_digest(bundle, report):
    out, _manifest = bundle
    with open(out / report, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SIXSTATE_SHA256[report]


def test_bulk_fill_matches_fmt6():
    edge = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, 150755.5, 0.5, 1234567.0, 1e-5, 123456.5, 9.999995,
    ]
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, size=2000, dtype=np.uint64).view(np.float64)
    values = np.concatenate((edge, bits, rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 9, 2000)))
    values = values.reshape(-1, 5)
    template = "AL,113,2016Q1,output,%.6g,1\n" * values.size
    expected = "".join(f"AL,113,2016Q1,output,{fmt6(v)},1\n" for v in values.ravel())
    assert _fill(template, values) == expected


@pytest.mark.parametrize("command", sorted(STAGE_STDOUT))
def test_stage_stdout_digest(command, tmp_path):
    # ``run`` prints its output directory, which the stored digest spells <out>.
    out = str(tmp_path / "out")
    if command == "run":
        argv = ["run", "--config", CONFIG, "--out", out]
    else:
        name, state, naics = command.split()
        argv = [name, "--config", CONFIG, "--state", state, "--naics", naics]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    stdout = buf.getvalue().encode().replace(out.encode(), b"<out>")
    assert code == STAGE_STDOUT[command]["exit"]
    assert hashlib.sha256(stdout).hexdigest() == STAGE_STDOUT[command]["sha256"]


# Each command's exit code and stdout sha256.
FLAG_STDOUT = {
    "adf AL 113 --lag 0 --deterministic none": (
        0, "571402cce2d8b82187de0560413d13cf54e0e7e3041299ebe4cb69f6f8299822"
    ),
    "adf AL 113 --lag 2 --deterministic constantTrend": (
        0, "3afc0c3da44dbce670ae0f4174131f8ea6ee362d4ec6aa9d47e2fa276dfa256d"
    ),
    "adf MS 322 --lag 0 --deterministic none": (
        0, "89437862fa2127fbf0ee70784749b13df3975d2434789a95ed275bbc6045d535"
    ),
    "adf MS 322 --lag 2 --deterministic constantTrend": (
        0, "ba68d40a9bb29ba472c0872c7799deddbc0e3246df6129ebaf876d3b9a4fcde8"
    ),
    "diagnose AL 113 --k 1 --r 0": (
        0, "6e6e3b0ead555adfa3d9089ddbe25b0600520cb033800326e6fd50d8a95c9995"
    ),
    "diagnose AL 113 --k 3 --r 2 --case uconst": (
        0, "37b4b15eafce345a45359a4c8d8a4311be4fde2456e6714463cb15045796f5de"
    ),
    "diagnose MS 322 --k 1 --r 0": (
        0, "270d2cafb0b27bccddcdd67aeccef7cce273496945ed853771577d066601f2e3"
    ),
    "diagnose MS 322 --k 3 --r 2 --case uconst": (
        0, "3e16229aa776ef3b6f070b630d5dc352926df4cd06e1433b7aada81e2c2d91cf"
    ),
    "johansen AL 113 --k 3 --case none": (
        0, "5ca7dd77a65d341022419192d0eb020fd728c9cc9ecd77b5fe26084c949546f7"
    ),
    "johansen MS 322 --k 3 --case none": (
        0, "bfe66f5746ec9532a4ebff6ec51604e16690b0b78bd2a83c723f81920c7fa797"
    ),
    "lags AL 113 --max-lag 1": (
        0, "e8827f0e40120620f793b5cb8b8bd59952ced957af10dd7956a646454fa32e40"
    ),
    "lags AL 113 --max-lag 5": (
        0, "e0bb18ee2c0f0c27efc6a2b4211f386e17cbf0dc4bd013b0bdea1aecfa6e79f9"
    ),
    "lags MS 322 --max-lag 1": (
        0, "837556aa28cf9e62a4e6aef244b00e77d717b51c83016b5414949d4313a26d6a"
    ),
}


@pytest.mark.parametrize("command", sorted(FLAG_STDOUT))
def test_flag_stdout_digest(command):
    name, state, naics, *flags = command.split()
    argv = [name, "--config", CONFIG, "--state", state, "--naics", naics, *flags]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert (code, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == FLAG_STDOUT[command]


def bundle_digests(config, out):
    manifest = run_pipeline(load_config(config, out_dir=str(out)))
    assert not manifest.failed
    digests = {}
    for report in manifest["files"]:
        with open(out / report, "rb") as fh:
            digests[report] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def long_horizon_config(tmp_path):
    """The bundled configuration with a 200-quarter horizon."""
    with open(CONFIG) as fh:
        obj = json.load(fh)
    obj["dataDir"] = os.path.dirname(CONFIG)
    obj["defaults"]["horizon"] = 200
    config = tmp_path / "long-horizon.json"
    config.write_text(json.dumps(obj))
    return config


def test_long_horizon_bundle_digest(tmp_path):
    config = long_horizon_config(tmp_path)
    assert bundle_digests(config, tmp_path / "out") == GOLDEN["long-horizon"]["files"]


def test_long_panel_bundle_digest(tmp_path):
    # run_path leaves no bytecode cache in benchmarks/.
    generate = runpy.run_path(os.path.join(ROOT, "benchmarks", "longpanel.py"))["generate"]
    config = generate(str(tmp_path / "data"), GOLDEN["long-panel"]["seed"])
    assert bundle_digests(config, tmp_path / "out") == GOLDEN["long-panel"]["files"]


# Three models whose latest start, 2004Q1, is the whole bundle's plot base.
THREE_MODELS = [("AL", 113), ("ME", 321), ("WI", 322)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
@pytest.mark.parametrize("which", ["bundled", "long-horizon", "three models"])
def test_bundle_is_the_same_on_any_number_of_cpus(tmp_path, monkeypatch, which):
    # The models are dealt to one process per usable CPU; the bytes must
    # not depend on how many there are.
    if which == "bundled":
        config, expected = CONFIG, SIXSTATE_SHA256
    elif which == "long-horizon":
        config, expected = long_horizon_config(tmp_path), GOLDEN["long-horizon"]["files"]
    else:
        with open(CONFIG) as fh:
            obj = json.load(fh)
        obj["dataDir"] = os.path.dirname(CONFIG)
        obj["models"] = [{"state": state, "naics": naics} for state, naics in THREE_MODELS]
        config = tmp_path / "three.json"
        config.write_text(json.dumps(obj))
        expected = None
    checks = runpy.run_path(os.path.join(ROOT, "benchmarks", "checks.py"))
    bundles, models = [], []
    for cpus in (1, 2, 3):
        usable = set(range(cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        out = tmp_path / f"out{cpus}"
        manifest = run_pipeline(load_config(str(config), out_dir=str(out)))
        assert len(manifest["timings"]["workers"]) == cpus
        bundles.append(checks["read_bundle"](str(out)))
        models.append(manifest.models)
    assert bundles[0] == bundles[1] == bundles[2]
    assert models[0] == models[1] == models[2]
    if expected is not None:
        assert checks["file_digests"](bundles[0]) == expected
    else:
        golden = GOLDEN["sixstate"]["models"]
        assert checks["model_digests"](bundles[0]) == {
            f"{state}_{naics}": golden[f"{state}_{naics}"] for state, naics in THREE_MODELS
        }


# Makes the child's OpenBLAS lookup see only the empty directory
# ``sys.argv[3]``, as with a numpy built on another BLAS.
EMPTY_LOOKUP = """
import glob, os, sys
real_glob = glob.glob
glob.glob = lambda p: real_glob(os.path.join(sys.argv[3], os.path.basename(p)))
"""

# Refuses every scipy* import in the child, as where scipy is not installed.
NO_SCIPY = """
import sys
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is refused")
sys.meta_path.insert(0, RefuseScipy())
"""


def run_in_child(prelude: str, tmp_path) -> tuple[str, dict[str, str]]:
    """``linalg.LAPACK`` and the report digests of ``cointegra run`` on the
    bundled config, in a fresh interpreter that runs ``prelude`` first."""
    out, empty = tmp_path / "out", tmp_path / "empty"
    empty.mkdir()
    script = prelude + (
        "import sys\n"
        "from cointegra import cli, linalg\n"
        "print(linalg.LAPACK)\n"
        "sys.exit(cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.run(
        [sys.executable, "-c", script, CONFIG, str(out), str(empty)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert sorted(n for n in os.listdir(out) if n.endswith(".csv")) == sorted(SIXSTATE_SHA256)
    with open(out / "manifest.json", encoding="utf-8") as fh:
        environment = json.load(fh)["environment"]
    lapack = child.stdout.splitlines()[0]
    assert environment["lapack"] == lapack and "scipy" not in environment
    digests = {}
    for report in sorted(SIXSTATE_SHA256):
        with open(out / report, "rb") as fh:
            digests[report] = hashlib.sha256(fh.read()).hexdigest()
    return lapack, digests


def test_fallback_lapack_writes_the_same_bundle(tmp_path):
    # Where numpy's OpenBLAS is not found, numpy.linalg solves: both
    # providers must write the same report bytes.
    assert run_in_child(EMPTY_LOOKUP, tmp_path) == ("numpy.linalg", SIXSTATE_SHA256)


@pytest.mark.parametrize("lookup", ["as is", "emptied"])
def test_run_needs_no_scipy(tmp_path, lookup):
    # scipy is no runtime dependency: with every scipy import refused, a run
    # writes the golden bundle on either LAPACK provider.
    if lookup == "as is":
        prelude, lapack = NO_SCIPY, linalg.LAPACK
    else:
        prelude, lapack = NO_SCIPY + EMPTY_LOOKUP, "numpy.linalg"
    assert run_in_child(prelude, tmp_path) == (lapack, SIXSTATE_SHA256)
