"""Child processes of the benchmark; ``run.py`` starts them with
``PYTHONPATH`` pointing at the checkout's ``src``.

``worker.py loop SPEC``: warm in-process ``run_pipeline`` calls in a closed
loop (one caller; the next call starts when the previous one returns),
each followed by an untimed output check. With ``traced_seconds`` in the
spec, a traced loop follows the untraced one, and its bundle must be
byte-identical to the untraced bundle.

``worker.py cli SPANS -- ARGS``: one traced ``cointegra`` command; the
per-layer summary goes to the file SPANS.

Both print one JSON object as the last line of standard output (``loop``)
or write it to SPANS (``cli``).

``probe`` and ``interleaved`` are shared with ``run.py``: set-up probes
are spread over a timed run, so that they and the operations see the
same stretch of a machine whose speed drifts.
"""

from __future__ import annotations

import json
import re
import resource
import subprocess
import sys
import time

import checks
import spans

# The first calls of a fresh process run slower; they are not reported.
WARM_UP_SECONDS = 2.0
PROBE_TIMEOUT = 120.0
IMPORTS = ("numpy", "scipy.linalg", "scipy.stats")

# Fresh interpreter: import the CLI and load the config, then report when done.
PROBE = """
import json, sys, time
t0 = time.perf_counter()
import cointegra.cli
t1 = time.perf_counter()
from cointegra.pipeline import load_config
load_config(sys.argv[1])
done = time.monotonic()
import numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):
    blas = "unknown"
versions = {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}
print(json.dumps({"done": done, "import_cli_ms": 1e3 * (t1 - t0), "versions": versions}))
"""


def probe(config: str, env: dict | None = None, importtime: bool = False) -> dict:
    """One set-up sample: seconds from spawning a fresh interpreter until
    ``import cointegra.cli`` and ``load_config`` have finished; with
    ``importtime``, the cumulative import ms of numpy and scipy parts."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.monotonic()
    child = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, config],
        env=env, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT,
    )
    out = json.loads(child.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("done") - t0
    if importtime:
        out["imports_ms"] = {}
        for line in child.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in IMPORTS:
                out["imports_ms"].setdefault(m.group(2), int(m.group(1)) / 1e3)
    return out


def interleaved(seconds: float, slots: int, operation, between) -> tuple[list, list]:
    """Closed loop for ``seconds``: split into ``slots`` equal slots, each
    running ``operation`` (at least once) until the slot ends, then
    ``between`` once."""
    ops, others = [], []
    start = time.perf_counter()
    for i in range(slots):
        end = start + (i + 1) * seconds / slots
        ops.append(operation())
        while time.perf_counter() < end:
            ops.append(operation())
        others.append(between())
    return ops, others


class Loop:
    """Runs and checks ``run_pipeline`` calls on one configuration."""

    def __init__(self, spec: dict):
        from cointegra.pipeline import load_config, run_pipeline

        self.run_pipeline = run_pipeline
        self.config = load_config(spec["config"], out_dir=spec["out"])
        self.models = [f"{m.state}_{m.naics}" for m in self.config.models]
        self.ref = spec.get("reference")
        self.expected_rows = spec.get("expected_rows")
        self.sticky: set[str] = set()
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.first_digests = None
        self.bytes_written = 0

    def call(self, run=None) -> float:
        t0 = time.perf_counter()
        manifest = (run or self.run_pipeline)(self.config)
        elapsed = time.perf_counter() - t0
        self.check(manifest)
        return elapsed

    def check(self, manifest) -> None:
        bundle = checks.read_bundle(self.config.out_dir)
        failed = {f"{m['state']}_{m['naics']}" for m in manifest.models if m["status"] != "ok"}
        if self.ref is None:
            # No stored reference: check row counts once, then hold every
            # later call to the first call's bytes.
            self.sticky = checks.row_count_failures(bundle, self.expected_rows, self.models)
            self.ref = checks.reference(bundle)
        failed |= self.sticky | checks.failed_models(bundle, self.ref, self.models)
        if self.first_digests is None:
            self.first_digests = checks.file_digests(bundle)
            self.bytes_written = sum(len(data) for data in bundle.values())
        self.attempted += len(self.models)
        for model in failed:
            self.failures[model] = self.failures.get(model, 0) + 1

    def timed(self, seconds: float, run=None) -> list[float]:
        times = []
        started = time.perf_counter()
        while not times or time.perf_counter() - started < seconds:
            times.append(self.call(run))
        return times


def loop_main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    loop = Loop(spec)
    loop.timed(WARM_UP_SECONDS)  # checked but not reported
    result = {}
    if spec.get("setup_samples"):
        result["times"], result["probes"] = interleaved(
            spec["seconds"], spec["setup_samples"], loop.call, lambda: probe(spec["config"]))
    else:
        result["times"] = loop.timed(spec["seconds"])
    traced_seconds = spec.get("traced_seconds")
    if traced_seconds:
        untraced = loop.first_digests
        recorder = spans.Recorder()
        recorder.install()
        try:
            run = lambda config: recorder.operation("pipeline.run_pipeline", loop.run_pipeline, config)
            traced_times = loop.timed(traced_seconds, run)
            traced_digests = checks.file_digests(checks.read_bundle(loop.config.out_dir))
        finally:
            recorder.restore()
        calls = spans.by_call(recorder.spans)
        result["traced"] = {
            "times": traced_times,
            "calls": [
                dict(spans.summarize_call(calls[c], "pipeline.run_pipeline"), cells=recorder.cells(c))
                for c in sorted(calls)
            ],
            "identical": traced_digests == untraced,
            "restored": recorder.restored(),
        }
    result.update(
        attempted=loop.attempted,
        failed=sum(loop.failures.values()),
        failures=loop.failures,
        bytes_written=loop.bytes_written,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


def cli_main(spans_path: str, argv: list[str]) -> int:
    from cointegra import cli

    recorder = spans.Recorder()
    recorder.install()
    try:
        code = recorder.operation("cli.main", cli.main, argv)
    finally:
        recorder.restore()
        sys.stdout.flush()
    summary = spans.summarize_call(recorder.spans, "cli.main")
    summary.update(cells=recorder.cells(recorder.call), restored=recorder.restored())
    with open(spans_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "loop":
        sys.exit(loop_main(sys.argv[2]))
    if sys.argv[1] == "cli" and sys.argv[3] == "--":
        sys.exit(cli_main(sys.argv[2], sys.argv[4:]))
    sys.exit(f"usage: {sys.argv[0]} loop SPEC | cli SPANS -- ARGS")
