"""Rewrite ``golden.json``, the benchmark's output references, from the
program in this checkout. Run from the checkout root, only when the
program's outputs are meant to change:

    PYTHONPATH=src python3 benchmarks/make_golden.py

It stores sha256 digests of the report bundle (per file and per model) for
``sixstate``, ``long-horizon`` and ``long-panel`` at the default seed, and
the exit code and stdout digest of every CLI command ``cold-cli`` can run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import checks
import longpanel
import run


def bundle_reference(config: str, out: str) -> dict:
    from cointegra.pipeline import load_config, run_pipeline

    manifest = run_pipeline(load_config(config, out_dir=out))
    if manifest.failed:
        raise SystemExit(f"{config}: a model failed: {manifest.models}")
    return checks.reference(checks.read_bundle(out))


def cli_stdout(argv: list[str], out: str) -> dict:
    from cointegra import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    stdout = buf.getvalue().encode().replace(out.encode(), b"<out>")
    return {"exit": code, "sha256": checks.sha256(stdout)}


def main() -> int:
    root = os.getcwd()
    parent = os.path.join(root, ".bench_work")
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix="golden-", dir=parent)
    golden = {}
    try:
        out = os.path.join(work, "out")
        bundled = os.path.join(root, "data", "sixstate", "config.json")
        golden["sixstate"] = bundle_reference(bundled, out)
        horizon_config = run.long_horizon_config(bundled, os.path.join(work, "long-horizon.json"))
        golden["long-horizon"] = bundle_reference(horizon_config, out)
        panel_config = longpanel.generate(os.path.join(work, "data"), run.DEFAULT_SEED)
        golden["long-panel"] = dict(bundle_reference(panel_config, out), seed=run.DEFAULT_SEED)

        stdout = {"run": cli_stdout(["run", "--config", bundled, "--out", out], out)}
        with open(bundled) as fh:
            models = json.load(fh)["models"]
        for m in models:
            for command in run.STAGES:
                argv = [command, "--config", bundled, "--state", m["state"], "--naics", str(m["naics"])]
                stdout[f"{command} {m['state']} {m['naics']}"] = cli_stdout(argv, out)
        golden["cold-cli"] = {"stdout": stdout}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)
    with open(checks.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = sorted({v["exit"] for v in golden["cold-cli"]["stdout"].values()})
    print(f"wrote {checks.GOLDEN}; CLI exit codes seen: {codes}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
