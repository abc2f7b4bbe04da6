"""Span recorder for the traced benchmark run.

Wraps public cointegra functions from outside the package: each wrapped
name is rebound in every ``cointegra`` module that holds it (``ols`` in
``lagselect``, ``unitroot`` and ``vecm``; ``johansen_test`` in
``pipeline``, ``vecm`` and ``cli``; ...), so calls between modules are
seen too. Spans live in memory on a per-thread stack and are summarised
when the run ends; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# (defining module, attribute, metric name). Names missing from the
# program are skipped and report zero calls.
WRAPPED = (
    ("cointegra.panel", "ingest_panel", "panel.ingest_panel"),
    ("cointegra.panel", "summarize", "panel.summarize"),
    ("cointegra.pipeline", "load_aux_series", "pipeline.load_aux_series"),
    ("cointegra.pipeline", "lq_records_for_panel", "pipeline.lq_records_for_panel"),
    ("cointegra.unitroot", "adf_test", "unitroot.adf_test"),
    ("cointegra.lagselect", "select_lags", "lagselect.select_lags"),
    ("cointegra.johansen", "johansen_test", "johansen.johansen_test"),
    ("cointegra.vecm", "fit_vecm", "vecm.fit_vecm"),
    ("cointegra.vecm", "forecast", "vecm.forecast"),
    ("cointegra.vecm", "irf", "vecm.irf"),
    ("cointegra.vecm", "backtest", "vecm.backtest"),
    ("cointegra.diagnostics", "lm_autocorrelation", "diagnostics.lm_autocorrelation"),
    ("cointegra.diagnostics", "normality_tests", "diagnostics.normality_tests"),
    ("cointegra.linalg", "ols", "linalg.ols"),
    ("cointegra.linalg", "generalized_sym_eig", "linalg.generalized_sym_eig"),
    ("cointegra.linalg", "cholesky", "linalg.cholesky"),
    ("cointegra.pipeline", "emit_plot_data", "pipeline.emit_plot_data"),
)
CHI2_SF = "pvalue.chi2_sf"
REPORT_WRITE = "pipeline.report_write"
# Modules whose csv.writer calls are report writes (bundle files, stage stdout).
WRITER_MODULES = ("cointegra.pipeline", "cointegra.cli")
CELL_FORMATTERS = ("fmt6", "fmt3")

SPAN_NAMES = tuple(name for _, _, name in WRAPPED) + (CHI2_SF, REPORT_WRITE)


class _Chi2Proxy:
    """Stands in for ``scipy.stats.chi2`` with a traced ``sf``."""

    def __init__(self, dist, sf):
        self._dist = dist
        self.sf = sf

    def __getattr__(self, name):
        return getattr(self._dist, name)


class _CsvProxy:
    """Stands in for the ``csv`` module with traced writer methods."""

    def __init__(self, module, recorder):
        self._module = module
        self._recorder = recorder

    def writer(self, *args, **kwargs):
        return _TimedWriter(self._module.writer(*args, **kwargs), self._recorder)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TimedWriter:
    def __init__(self, writer, recorder):
        self.writerow = recorder.wrap(REPORT_WRITE, writer.writerow)
        self.writerows = recorder.wrap(REPORT_WRITE, writer.writerows)


class Recorder:
    """Collects spans ``(id, parent, name, thread, call, t0, t1, c0, c1)``:
    wall times from ``perf_counter`` and thread CPU times from
    ``thread_time``. ``call`` numbers the operation the span belongs to."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.call = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._cells: list[list[int]] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                spans.append(
                    (span_id, parent, name, threading.get_ident(), self.call, t0, t1, c0, c1)
                )

        return traced

    def _count_cell(self) -> None:
        # One counter per (thread, call): no counter is shared between threads.
        cell = getattr(self._local, "cell", None)
        if cell is None or cell[0] != self.call:
            cell = self._local.cell = [self.call, 0]
            self._cells.append(cell)
        cell[1] += 1

    def cells(self, call: int) -> int:
        return sum(n for c, n in self._cells if c == call)

    def operation(self, name: str, fn, *args, **kwargs):
        """Run one benchmark operation as the root span of a new call."""
        self.call += 1
        return self.wrap(name, fn)(*args, **kwargs)

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "cointegra" or mod_name.startswith("cointegra.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        """Wrap every target; ``cointegra`` modules must already be imported."""
        for mod_name, attr, name in WRAPPED:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is not None:
                self._rebind(original, self.wrap(name, original))
        stats = sys.modules.get("scipy.stats")
        chi2 = getattr(stats, "chi2", None)
        if chi2 is not None:
            self._rebind(chi2, _Chi2Proxy(chi2, self.wrap(CHI2_SF, chi2.sf)))
        for mod_name in WRITER_MODULES:
            module = sys.modules.get(mod_name)
            csv_module = getattr(module, "csv", None)
            if csv_module is not None:
                setattr(module, "csv", _CsvProxy(csv_module, self))
                self._patches.append((module, "csv", csv_module))
        for attr in CELL_FORMATTERS:
            original = getattr(sys.modules.get("cointegra.pipeline"), attr, None)
            if original is not None:
                self._rebind(original, self._counting(original))

    def _counting(self, fn):
        count = self._count_cell

        @functools.wraps(fn)
        def counted(x):
            count()
            return fn(x)

        return counted

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every rebound name holds its original again."""
        return all(getattr(m, attr) is original for m, attr, original in self._patches)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [t0, t1] intervals."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def summarize_call(spans: list[tuple], root_name: str) -> dict:
    """Per-layer figures of one call: for each span name its calls, self
    time (wall minus children on the same thread), CPU self time and
    their difference; plus the root's time covered by no child span on
    any thread, and the number of threads other than the root's."""
    children_wall: dict[int, float] = {}
    children_cpu: dict[int, float] = {}
    for _id, parent, _n, _th, _c, t0, t1, c0, c1 in spans:
        if parent:
            children_wall[parent] = children_wall.get(parent, 0.0) + (t1 - t0)
            children_cpu[parent] = children_cpu.get(parent, 0.0) + (c1 - c0)
    out = {name: {"calls": 0, "self_ms": 0.0, "cpu_ms": 0.0} for name in SPAN_NAMES}
    root = None
    for span_id, _p, name, thread, _c, t0, t1, c0, c1 in spans:
        if name == root_name:
            root = (t0, t1, thread)
            continue
        entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "cpu_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * ((t1 - t0) - children_wall.get(span_id, 0.0))
        entry["cpu_ms"] += 1e3 * ((c1 - c0) - children_cpu.get(span_id, 0.0))
    for entry in out.values():
        entry["wait_ms"] = entry["self_ms"] - entry["cpu_ms"]
    if root is None:
        raise ValueError(f"no {root_name} span in call")
    inner = [(s[5], s[6]) for s in spans if s[2] != root_name]
    return {
        "spans": out,
        "other_ms": 1e3 * ((root[1] - root[0]) - _covered(inner)),
        "workers": len({s[3] for s in spans} - {root[2]}),
    }


def by_call(spans: list[tuple]) -> dict[int, list[tuple]]:
    calls: dict[int, list[tuple]] = {}
    for span in spans:
        calls.setdefault(span[4], []).append(span)
    return calls
