"""Byte-level guard on the bundled run: the sha256 of each report CSV, and
of the ``adf`` and ``diagnose`` stage stdouts of every bundled model.

The digests are those stored for ``sixstate`` and ``cold-cli`` in
``benchmarks/golden.json``. A change that moves any formatted number, row
order or header fails here.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest

from cointegra import cli
from cointegra.pipeline import _fill, fmt6, load_config, run_pipeline

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CONFIG = os.path.join(ROOT, "data", "sixstate", "config.json")
with open(os.path.join(ROOT, "benchmarks", "golden.json")) as _fh:
    STAGE_STDOUT = json.load(_fh)["cold-cli"]["stdout"]

SIXSTATE_SHA256 = {
    "adf.csv": "8ea698fb862aecef90f71cdc2731a26e71e4dfd86466cd3080e3f19e9b504eb2",
    "backtest.csv": "462a205bd3b98f4713fd2b33186bb2e155d27fb7b5dac59482c9f1d705f51b27",
    "forecast.csv": "030746b188afcbe4fa142173c9df7af09d919406caa6211e0ac06fa165c9ff16",
    "irf.csv": "e849c72951d5ba433d6fd9c56815fe7bdaf580de796e0bd5e6e5b09f562b0430",
    "johansen.csv": "20dbe2e323ed472fc42dd503d7e42a3e2708cdc99842a98d4e45891150fb0678",
    "lags.csv": "355f538a9fded1b91c0b1f28550b7a9bb0eca72b99b44b8ad01101da6447966d",
    "lm.csv": "22ce21db53f117ad5fae71a748b282577cc449effe2306054938d81db1853f52",
    "lq.csv": "c001532fe61db44776a0f2fa974a7135bf8d247a8ad27a47bfc39324bc4bed97",
    "lq_flags.csv": "0ea61b1f92f0b33d10b852b5da108987409908d274cc140efe4c7671b2036b15",
    "normality.csv": "574bc4dad1a3781fca28bcf27d12a7946d360b5bb13c0bddb7db9fcd0131f3ee",
    "plot.csv": "aa200eccb40dcb3bffbd486a75f49ba50678f842f708d71e7b807d24726ba7a1",
    "summary.csv": "c787ab2fecc6443dd19165b215cb993c856648e1259c98778c06d2ef2511df6a",
}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    manifest = run_pipeline(load_config(CONFIG, out_dir=str(out)))
    assert not manifest.failed
    return out, manifest


def test_bundle_lists_every_report(bundle):
    _out, manifest = bundle
    assert manifest.files == sorted(SIXSTATE_SHA256)


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


@pytest.mark.parametrize(
    "command", sorted(key for key in STAGE_STDOUT if key.split()[0] in ("adf", "diagnose"))
)
def test_stage_stdout_digest(command):
    name, state, naics = command.split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([name, "--config", CONFIG, "--state", state, "--naics", naics])
    assert code == STAGE_STDOUT[command]["exit"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == STAGE_STDOUT[command]["sha256"]
