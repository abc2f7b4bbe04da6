"""Per-call time of ``cointegra.linalg``'s LAPACK kernels, and wall time,
CPU time and peak RSS of fresh processes, for this checkout against a base
checkout.

    python tools/bench_lapack.py --base <base checkout> [--repeat 400] [--pairs 8] [--out BENCH_lapack.json]

``--pairs`` is at least 2. The default ``--out`` is the committed
``BENCH_lapack.json``, which a run overwrites.

Kernels: ``lstsq``, ``solve_triangular`` and ``ols`` at the design shapes
of ``tests/test_linalg.py``, each where both checkouts have it; the others
are named on stderr and under ``kernels_skipped``. Both checkouts'
``linalg`` are imported into one process (the base one as
``cointegra_base``) and timed with ``timeit``, alternating base and change
repeat by repeat; each figure is the minimum over the repeats, in µs per
call.

Processes: fresh ``cointegra run`` and ``cointegra lq`` processes on the
bundled config, base and change alternated, the side that goes first
switched each pair. Each gives its wall seconds from spawn to exit, its
user plus system CPU seconds and its peak RSS (``wait4`` ``ru_utime``,
``ru_stime`` and ``ru_maxrss``); median and quartiles of each. These run
first, while this process has not imported numpy: a child's ``ru_maxrss``
counts the memory it was forked with.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHAPES = [(60, 11), (64, 21), (300, 61)]
KERNELS = ("lstsq", "solve_triangular", "ols")


def load_base(checkout: str):
    package = os.path.join(checkout, "src", "cointegra")
    spec = importlib.util.spec_from_file_location(
        "cointegra_base", os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["cointegra_base"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("cointegra_base.linalg")


def kernel_times(base, change, kernels: list[str], repeat: int) -> dict:
    import numpy as np

    out = {}
    for m, n in SHAPES:
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((m, n)), rng.standard_normal((m, 5))
        r = np.triu(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
        b = rng.standard_normal((n, 5))
        args = {"lstsq": (x, y), "solve_triangular": (r, b), "ols": (x, y)}
        for name in kernels:
            timers = [
                timeit.Timer(lambda f=getattr(module, name), a=args[name]: f(*a))
                for module in (base, change)
            ]
            # Samples of about a millisecond: the minimum then finds the
            # quiet windows of a shared machine.
            number = max(1, timers[0].autorange()[0] // 200)
            best = [float("inf"), float("inf")]
            for _ in range(repeat):
                for side, timer in enumerate(timers):
                    best[side] = min(best[side], timer.timeit(number) / number * 1e6)
            out[f"{name} {m}x{n}"] = {
                "base_us": round(best[0], 2),
                "change_us": round(best[1], 2),
                "delta_us": round(best[1] - best[0], 2),
            }
            print(f"{name:17s} {m}x{n:<3d} {best[0]:8.2f} -> {best[1]:8.2f} µs", file=sys.stderr)
    return out


def summary(values: list[float], unit: str, digits: int) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        f"median_{unit}": round(statistics.median(values), digits),
        f"quartiles_{unit}": [round(q1, digits), round(q3, digits)],
        f"samples_{unit}": [round(v, digits) for v in values],
    }


def processes(checkouts: dict, pairs: int) -> dict:
    samples = {kind: {side: [] for side in checkouts} for kind in ("run", "lq ME 322")}
    for pair in range(pairs):
        sides = list(checkouts) if pair % 2 == 0 else list(checkouts)[::-1]
        for kind in samples:
            for side in sides:
                root = checkouts[side]
                config = os.path.join(root, "data", "sixstate", "config.json")
                env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
                with tempfile.TemporaryDirectory() as out:
                    if kind == "run":
                        argv = ["run", "--config", config, "--out", out]
                    else:
                        argv = ["lq", "--config", config, "--state", "ME", "--naics", "322"]
                    started = time.perf_counter()
                    child = subprocess.Popen(
                        [sys.executable, "-m", "cointegra.cli", *argv],
                        env=env, stdout=subprocess.DEVNULL,
                    )
                    _, status, usage = os.wait4(child.pid, 0)
                    wall = time.perf_counter() - started
                if status != 0:
                    raise SystemExit(f"{side} {kind} exited with status {status}")
                samples[kind][side].append(
                    (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
                )
    out = {}
    for kind, sides in samples.items():
        out[kind] = {}
        for side, values in sides.items():
            wall, cpu, rss = zip(*values)
            out[kind][side] = {
                **summary(wall, "wall_s", 3), **summary(cpu, "cpu_s", 3), **summary(rss, "mb", 2)
            }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the checkout to compare against")
    parser.add_argument("--repeat", type=int, default=400)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--out", default=os.path.join(HERE, "BENCH_lapack.json"))
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, as each figure comes with its quartiles")
    fresh = processes({"base": os.path.abspath(args.base), "change": HERE}, args.pairs)
    sys.path.insert(0, os.path.join(HERE, "src"))
    import numpy as np

    from cointegra import linalg

    base = load_base(os.path.abspath(args.base))
    kernels = [name for name in KERNELS if hasattr(base, name) and hasattr(linalg, name)]
    skipped = [name for name in KERNELS if name not in kernels]
    if skipped:
        print(f"skipped, missing from a checkout: {', '.join(skipped)}", file=sys.stderr)
    result = {
        "method": {
            "kernels": f"timeit in one process, base and change alternated repeat by repeat; "
            f"minimum over {args.repeat} repeats, µs per call",
            "processes": f"fresh processes, {args.pairs} alternated pairs: wall seconds from "
            "spawn to exit, wait4 ru_utime + ru_stime and ru_maxrss; median and quartiles, s and MB",
        },
        "machine": {
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "lapack": {
                "base": getattr(base, "LAPACK", "scipy.linalg._flapack"),
                "change": linalg.LAPACK,
            },
        },
        "kernels_us_per_call": kernel_times(base, linalg, kernels, args.repeat),
        "kernels_skipped": skipped,
        "processes": fresh,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
