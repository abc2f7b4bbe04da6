"""Benchmark for cointegra, run from the root of a checkout:

    python3 benchmarks/run.py --workload sixstate --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 20       # every workload

Workloads (see BENCHMARK.json for why each was chosen):

- ``sixstate``: warm in-process ``run_pipeline`` on the bundled
  ``data/sixstate/config.json``, unchanged.
- ``long-panel``: the same on 18 seeded panels of T=312 (``longpanel.py``),
  maxLag 12, horizon 20.
- ``long-horizon``: the bundled panels with ``defaults.horizon`` = 200.
- ``cold-cli``: fresh-process ``python -m cointegra.cli`` on the bundled
  data, alternating ``run`` with one stage subcommand.

Every workload is a closed loop with one caller. The benchmark sets no
``COINTEGRA_THREADS`` or BLAS variable for the timed runs, and runs the
program from the checkout's ``src`` with this interpreter. Scratch files go
to ``.bench_work/`` in the checkout and are removed at the end.

With ``--trace 0`` the last line reports the end-to-end metrics
(``setup_s``, ``op_s.p50``, ``peak_rss_mb``); with ``--trace 1`` the
per-layer metrics of a separate traced run (``spans.py``). The lines before
it are a table by name and unit, and a ``details`` JSON record (samples,
environment, the long-panel data-generating process).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import longpanel
import spans
import worker

WORKLOADS = ("sixstate", "long-panel", "long-horizon", "cold-cli")
STAGES = (
    "ingest", "summarize", "lq", "adf", "lags", "johansen", "fit", "diagnose", "forecast",
    "backtest",
)
COMMANDS = ("run",) + STAGES
MODULES = (
    "__init__", "cli", "diagnostics", "errors", "fixtures", "johansen", "lagselect", "linalg",
    "panel", "pipeline", "quarters", "unitroot", "vecm",
)
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
SERIAL_SECONDS = 5.0
CHILD_TIMEOUT = 150.0
HERE = os.path.dirname(os.path.abspath(__file__))


def long_horizon_config(bundled: str, path: str) -> str:
    """The bundled configuration with ``defaults.horizon`` = 200."""
    with open(bundled) as fh:
        obj = json.load(fh)
    obj["dataDir"] = os.path.dirname(bundled)
    obj["defaults"]["horizon"] = 200
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
    return path


def percentiles(name: str, samples: list[float], what: str) -> list[tuple]:
    """Table rows: the median, and the 90th percentile once 100 samples
    leave at least ten beyond it."""
    rows = [(f"{name}.p50", statistics.median(samples), "s", f"{what}, n={len(samples)}")]
    if len(samples) >= 100:
        rows.append((f"{name}.p90", statistics.quantiles(samples, n=10)[8], "s", f"n={len(samples)}"))
    return rows


@dataclasses.dataclass
class Child:
    """Outcome of one child process: wall time, exit code, output, peak RSS."""

    wall: float
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float

    def last_json(self) -> dict:
        if self.code != 0:
            raise RuntimeError(f"child failed ({self.code}): {self.stderr.decode()[-2000:]}")
        return json.loads(self.stdout.decode().strip().splitlines()[-1])


class Bench:
    def __init__(self, root: str, work: str, workload: str, seed: int, seconds: float):
        self.root, self.work = root, work
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.golden = checks.load_golden()
        self.details: dict = {"workload": workload, "seed": seed, "seconds": seconds}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rss_mb = 0.0
        self._children = 0
        self.prepare()

    # -- inputs ---------------------------------------------------------

    def prepare(self) -> None:
        bundled = os.path.join(self.root, "data", "sixstate", "config.json")
        self.reference = None
        self.expected_rows = None
        if self.workload in ("sixstate", "cold-cli"):
            self.config = bundled
            self.reference = self.golden["sixstate"]
        elif self.workload == "long-horizon":
            self.config = long_horizon_config(bundled, os.path.join(self.work, "long-horizon.json"))
            self.reference = self.golden["long-horizon"]
        else:
            self.config = longpanel.generate(os.path.join(self.work, "data"), self.seed)
            self.details["dgp"] = dict(longpanel.DGP, seed=self.seed)
            golden = self.golden["long-panel"]
            if golden["seed"] == self.seed:
                self.reference = golden
            dgp = longpanel.DGP
            self.expected_rows = checks.expected_rows(dgp["T"], dgp["n"], dgp["maxLag"], dgp["horizon"])
        with open(self.config) as fh:
            self.models = [(m["state"], m["naics"]) for m in json.load(fh)["models"]]

    # -- processes ------------------------------------------------------

    def spawn(self, argv: list[str], env: dict | None = None) -> Child:
        """Run one child to completion; wall time from spawn to reap."""
        self._children += 1
        base = os.path.join(self.work, f"child{self._children}")
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(base + ".out", "rb") as fh:
            stdout = fh.read()
        with open(base + ".err", "rb") as fh:
            stderr = fh.read()
        return Child(wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0)

    def worker_loop(self, seconds: float, traced_seconds: float | None = None,
                    serial: bool = False, setup_samples: int = 0) -> dict:
        spec = {
            "config": self.config,
            "out": os.path.join(self.work, "out"),
            "seconds": seconds,
            "traced_seconds": traced_seconds,
            "setup_samples": setup_samples,
            "reference": self.reference,
            "expected_rows": self.expected_rows,
        }
        path = os.path.join(self.work, "loop.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        env = dict(self.env, COINTEGRA_THREADS="1") if serial else None
        result = self.spawn([sys.executable, os.path.join(HERE, "worker.py"), "loop", path], env).last_json()
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += [f"{m} x{n}" for m, n in result["failures"].items()]
        return result

    def cli_argv(self, command: str, model: tuple[str, int]) -> list[str]:
        argv = [command, "--config", self.config]
        if command == "run":
            return argv + ["--out", os.path.join(self.work, "out_cli")]
        return argv + ["--state", model[0], "--naics", str(model[1])]

    def cli(self, command: str, model: tuple[str, int], spans_path: str | None = None) -> Child:
        """One fresh-process command, checked against the reference."""
        argv = self.cli_argv(command, model)
        if spans_path is None:
            child = self.spawn([sys.executable, "-m", "cointegra.cli", *argv])
        else:
            child = self.spawn([sys.executable, os.path.join(HERE, "worker.py"), "cli", spans_path, "--", *argv])
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        self.attempted += 1
        problem = self.cli_problem(command, model, child)
        if problem:
            self.failed += 1
            self.failures.append(f"{' '.join(argv)}: {problem}")
        return child

    def cli_problem(self, command, model, child: Child) -> str | None:
        stdout = child.stdout.replace(os.path.join(self.work, "out_cli").encode(), b"<out>")
        if command == "run":
            key = "run"
            bundle = checks.read_bundle(os.path.join(self.work, "out_cli"))
            ref = self.run_reference()
            bad = checks.failed_models(bundle, ref, [f"{s}_{n}" for s, n in self.models])
            if bad:
                return f"bundle differs for {sorted(bad)}"
        else:
            key = f"{command} {model[0]} {model[1]}"
        expected = self.golden["cold-cli"]["stdout"].get(key) if self.workload in ("sixstate", "cold-cli") else None
        if expected is None:
            return None if child.code == 0 else f"exit {child.code}: {child.stderr.decode()[-300:]}"
        if child.code != expected["exit"]:
            return f"exit {child.code}, expected {expected['exit']}: {child.stderr.decode()[-300:]}"
        if checks.sha256(stdout) != expected["sha256"]:
            return "stdout differs from the reference"
        return None

    def run_reference(self) -> dict:
        if self.reference is None:
            # long-panel at a seed without stored digests: the warm loop's bundle.
            self.reference = checks.reference(checks.read_bundle(os.path.join(self.work, "out")))
        return self.reference

    # -- runs -----------------------------------------------------------

    def setup_s(self, probes: list[dict]) -> float:
        samples = [p["setup_s"] for p in probes]
        self.details["setup_s_samples"] = samples
        self.details["versions"] = probes[-1]["versions"]
        return statistics.median(samples)

    def timed(self) -> dict:
        """End-to-end metrics, tracing off."""
        table = []
        if self.workload == "cold-cli":
            rng = random.Random(self.seed)
            stage0, model0 = rng.randrange(len(STAGES)), rng.randrange(len(self.models))
            self.cli("ingest", self.models[model0])  # warm-up: bytecode, file cache
            runs, stages = [], []

            def pair():
                i = len(runs)
                model = self.models[(model0 + i) % len(self.models)]
                runs.append(self.cli("run", model).wall)
                stages.append(self.cli(STAGES[(stage0 + i) % len(STAGES)], model).wall)
                return runs[-1] + stages[-1]

            pairs, probes = worker.interleaved(
                self.seconds, SETUP_SAMPLES, pair, lambda: worker.probe(self.config, self.env))
            op = statistics.median(pairs)
            self.details.update(run_s=runs, stage_s=stages, pair_s=pairs)
            table += (
                [("op_s.p50", op, "s", f"one cold run + one cold stage command, n={len(pairs)}")]
                + percentiles("cold_run_s", runs, "fresh-process run")
                + percentiles("cold_stage_s", stages, "fresh-process stage subcommand")
            )
        else:
            result = self.worker_loop(self.seconds, setup_samples=SETUP_SAMPLES)
            times, probes = result["times"], result["probes"]
            op = statistics.median(times)
            self.rss_mb = result["rss_mb"]
            self.details.update(pipeline_s=times)
            table += [("op_s.p50", op, "s", f"warm run_pipeline call, n={len(times)}")]
            table += percentiles("pipeline_s", times, "warm run_pipeline call")
        setup = self.setup_s(probes)
        table = [("setup_s", setup, "s", f"median of {SETUP_SAMPLES} fresh interpreters")] + table
        table.append(("peak_rss_mb", self.rss_mb, "MB", "worker process" if self.workload != "cold-cli" else "max over children"))
        metrics = {"setup_s": setup, "op_s.p50": op, "peak_rss_mb": self.rss_mb}
        return {"table": table, "metrics": {k: {"value": v, "unit": u} for k, v, u, _ in table if k in metrics}}

    def cli_pass(self, model, spans_dir: str | None = None) -> tuple[dict, dict]:
        """Each command once on ``model``: walls, and traced summaries."""
        walls, summaries = {}, {}
        for command in COMMANDS:
            path = None if spans_dir is None else os.path.join(spans_dir, f"{command}.json")
            walls[command] = self.cli(command, model, path).wall
            if path is not None:
                with open(path) as fh:
                    summaries[command] = json.load(fh)
        return walls, summaries

    def traced(self) -> dict:
        """Per-layer metrics from a separate traced run."""
        metrics: dict[str, tuple[float, str]] = {}
        model = self.models[random.Random(self.seed).randrange(len(self.models))]
        if self.workload == "cold-cli":
            walls, _ = self.cli_pass(model)
            out_digests = checks.file_digests(checks.read_bundle(os.path.join(self.work, "out_cli")))
            spans_dir = os.path.join(self.work, "spans")
            os.makedirs(spans_dir)
            traced_walls, summaries = self.cli_pass(model, spans_dir)
            identical = out_digests == checks.file_digests(checks.read_bundle(os.path.join(self.work, "out_cli")))
            restored = all(s["restored"] for s in summaries.values())
            calls = [combine(list(summaries.values()))]
            overhead_ms = 1e3 * (sum(traced_walls.values()) - sum(walls.values())) / len(COMMANDS)
            bytes_written = sum(len(d) for d in checks.read_bundle(os.path.join(self.work, "out_cli")).values())
            serial = self.worker_loop(min(SERIAL_SECONDS, self.seconds), serial=True)
        else:
            result = self.worker_loop(self.seconds / 2, traced_seconds=self.seconds / 2)
            traced = result["traced"]
            calls, identical, restored = traced["calls"], traced["identical"], traced["restored"]
            overhead_ms = 1e3 * (statistics.median(traced["times"]) - statistics.median(result["times"]))
            bytes_written = result["bytes_written"]
            serial = self.worker_loop(min(SERIAL_SECONDS, self.seconds), serial=True)
            walls, _ = self.cli_pass(model)
        if not identical:
            self.failures.append("traced outputs differ from untraced outputs")
        if not restored:
            self.failures.append("traced run left wrappers in place")
        self.details["traced_ok"] = identical and restored
        self.details["traced_calls"] = len(calls)

        for name in spans.SPAN_NAMES:
            for field, unit in (("calls", "count"), ("self_ms", "ms"), ("cpu_ms", "ms"), ("wait_ms", "ms")):
                metrics[f"{name}.{field}"] = (statistics.median(c["spans"][name][field] for c in calls), unit)
        metrics["pipeline.cells"] = (statistics.median(c["cells"] for c in calls), "count")
        metrics["pipeline.bytes_written"] = (bytes_written, "bytes")
        metrics["pipeline.other_ms"] = (statistics.median(c["other_ms"] for c in calls), "ms")
        metrics["pipeline.workers"] = (statistics.median(c["workers"] for c in calls), "count")
        metrics["pipeline.serial_s"] = (statistics.median(serial["times"]), "s")
        metrics["trace.overhead_ms"] = (overhead_ms, "ms")
        probes = [worker.probe(self.config, self.env, importtime=True) for _ in range(SETUP_SAMPLES)]
        self.details["versions"] = probes[-1]["versions"]
        for name in worker.IMPORTS:
            metrics[f"import.{name}_ms"] = (statistics.median(p["imports_ms"].get(name, 0.0) for p in probes), "ms")
        metrics["import.cointegra.cli_ms"] = (statistics.median(p["import_cli_ms"] for p in probes), "ms")
        for command in COMMANDS:
            metrics[f"cli.{command}_s"] = (walls[command], "s")
        lines = source_lines(self.root)
        for module in MODULES:
            metrics[f"src.{module}.lines"] = (lines.get(module, 0), "lines")
        metrics["src.lines"] = (sum(lines.values()), "lines")
        self.details["counts_repeat"] = all(
            len({c["spans"][n]["calls"] for c in calls}) == 1 for n in spans.SPAN_NAMES
        ) and len({c["cells"] for c in calls}) == 1
        table = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
        return {"table": table, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def combine(summaries: list[dict]) -> dict:
    """One cold-cli cycle: span figures summed over its commands."""
    out = {"spans": {}, "cells": 0, "other_ms": 0.0, "workers": 0}
    for s in summaries:
        for name, entry in s["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "self_ms": 0.0, "cpu_ms": 0.0, "wait_ms": 0.0})
            for field in acc:
                acc[field] += entry[field]
        out["cells"] += s["cells"]
        out["other_ms"] += s["other_ms"]
        out["workers"] = max(out["workers"], s["workers"])
    return out


def source_lines(root: str) -> dict[str, int]:
    pkg = os.path.join(root, "src", "cointegra")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                lines[name[:-3]] = fh.read().count(b"\n")
    return lines


def environment(root: str) -> dict:
    names = ("COINTEGRA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "OPENBLAS_CORETYPE")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "env": {n: os.environ.get(n) for n in names},
        "src_lines": source_lines(root),
    }


def run_one(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    parent = os.path.join(root, ".bench_work")
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=parent)
    try:
        bench = Bench(root, work, workload, seed, seconds)
        measured = bench.traced() if trace else bench.timed()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass
    bench.details.update(environment(root))
    bench.details["failures"] = bench.failures
    attempted, failed = bench.attempted, bench.failed
    return {
        "table": measured["table"] + [
            ("failed_share", failed / attempted, "ratio", f"{failed} of {attempted} operations"),
        ],
        "details": bench.details,
        "result": {
            "correct": not bench.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": measured["metrics"],
        },
    }


def print_report(title: str, report: dict) -> None:
    print(title)
    for name, value, unit, note in report["table"]:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    for needed in (("src", "cointegra", "cli.py"), ("data", "sixstate", "config.json")):
        if not os.path.isfile(os.path.join(root, *needed)):
            print(f"error: {os.path.join(*needed)} not found; run from a cointegra checkout",
                  file=sys.stderr)
            return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        report = run_one(root, workload, args.seed, args.seconds, bool(args.trace))
        print_report(f"workload {workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}", report)
        print("details " + json.dumps(report["details"], sort_keys=True))
        result = report["result"]
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
