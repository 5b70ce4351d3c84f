"""Spans for the benchmark's traced run, taken from outside the program.

The module-level names and methods through which expcomposite's modules
call each other are rebound, in this process only, to wrappers that open
a span around each call.  ``Tracer.uninstall`` puts the original objects
back, so untraced and traced cycles can alternate in one process.  No
file of the package changes.

A span is (name, start, end, parent span, operation id).  Spans are kept
in memory and written out once, when the run ends.  A layer's self time
is its span's duration minus the durations of its direct child spans;
calls nest strictly on one thread, so the children never overlap.
"""

from __future__ import annotations

import gzip
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from expcomposite import cli, composite, estimation, models, simulation
from expcomposite.composite import ExponentiatedComposite
from expcomposite.estimation import FitFailureError
from expcomposite.models import ModelId

MB = 1024.0 * 1024.0

FIT_MODELS = tuple(m.value for m in ModelId)


def _rows(dataset):
    return {"cli.ingest_csv.rows": dataset.n}


def _draws(sample):
    return {"composite.sample.draws": len(sample)}


def _replicates(result):
    return {
        "simulation.replicates": result.scenario.r,
        "simulation.failures": result.failures,
    }


# span name -> (rebinding sites, counter hook on the call's result).  A
# site is an (owner, attribute) pair: the module whose global the callers
# look up, or the class whose method they call.  The benchmark's own
# operations call cli.main, models.build, models.moment_closed_form,
# composite.verify_composite and simulation.run_scenario through their
# defining modules, so those modules are sites as well.
SPANS = {
    "cli.main": ([(cli, "main")], None),
    "cli.ingest_csv": ([(cli, "ingest_csv")], _rows),
    "models.build": (
        [(models, "build"), (estimation, "build"), (cli, "build"), (simulation, "build")],
        None,
    ),
    "models.log_pdf": ([(estimation, "log_pdf")], None),
    "models.moment_closed_form": ([(models, "moment_closed_form")], None),
    "models.limited_moment_closed_form": (
        [(models, "limited_moment_closed_form"), (cli, "limited_moment_closed_form")],
        None,
    ),
    "composite.sample": ([(ExponentiatedComposite, "sample")], _draws),
    "composite.pdf": ([(ExponentiatedComposite, "pdf")], None),
    "composite.cdf": ([(ExponentiatedComposite, "cdf")], None),
    "composite.verify_composite": ([(composite, "verify_composite")], None),
    "special.adaptive_quadrature": ([(composite, "adaptive_quadrature")], None),
    "special.upper_incomplete_gamma": ([(models, "upper_incomplete_gamma")], None),
    "special.lower_incomplete_gamma": ([(models, "lower_incomplete_gamma")], None),
    "special.find_root_bracketed": (
        [(estimation, "find_root_bracketed"), (models, "find_root_bracketed"),
         (composite, "find_root_bracketed")],
        None,
    ),
    "simulation.run_scenario": ([(simulation, "run_scenario")], _replicates),
    "gof.score": ([(cli, "score")], None),
}

FIT_SITES = [(cli, "fit"), (simulation, "fit")]

# counters reported per traced operation
COUNTERS = ("simulation.replicates", "simulation.failures", "estimation.fit.failed")


class SpanLog:
    """Spans as parallel typed arrays, 32 bytes a span."""

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("q")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")

    @property
    def size(self) -> int:
        return len(self.names)

    def open(self, name_id: int, parent: int, op: int, start: float) -> int:
        self.names.append(name_id)
        self.parents.append(parent)
        self.ops.append(op)
        self.starts.append(start)
        self.ends.append(start)
        return len(self.names) - 1

    def close(self, idx: int, end: float) -> None:
        self.ends[idx] = end

    def __iter__(self):
        """(name id, parent, op, start, end) for every span, in open order."""
        return zip(self.names, self.parents, self.ops, self.starts, self.ends)


class Tracer:
    """Records spans while an operation is running and the wrappers are in."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self.ops = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.ops += 1

    def end_op(self) -> None:
        self._op = -1

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        idx = self.log.open(nid, parent, self._op, perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.log.close(idx, perf_counter())
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                for key, value in hook(result).items():
                    tracer.counts[key] += value
            return result

        return traced

    def _wrap_fit(self, fn):
        tracer = self

        def traced(model, *args, **kwargs):
            if tracer._op < 0:
                return fn(model, *args, **kwargs)
            idx = tracer._open(f"estimation.fit.{model.value}")
            try:
                return fn(model, *args, **kwargs)
            except FitFailureError:
                tracer.counts["estimation.fit.failed"] += 1
                raise
            finally:
                tracer._close(idx)

        return traced

    def _wrap_fit_memory(self, fn):
        peaks = self.peaks

        def measured(model, *args, **kwargs):
            name = f"estimation.fit.{model.value}"
            tracemalloc.start()
            try:
                return fn(model, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                peaks[name] = max(peaks[name], peak)

        return measured

    def _rebind(self, owner, attr, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            # the program no longer routes calls through this name; its
            # metrics then read zero calls
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, memory: bool = False) -> None:
        """Rebind the sites for a traced cycle.

        With memory, only fit is rebound, to run under tracemalloc.  Its
        allocation hooks slow fit several-fold, so a memory cycle records
        no spans.
        """
        if memory:
            for owner, attr in FIT_SITES:
                self._rebind(owner, attr, self._wrap_fit_memory)
            return
        for name, (sites, hook) in SPANS.items():
            for owner, attr in sites:
                self._rebind(owner, attr, lambda fn, n=name, h=hook: self._wrap(n, fn, h))
        for owner, attr in FIT_SITES:
            self._rebind(owner, attr, self._wrap_fit)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s} summed over every traced op."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        name_of = self.log.names
        for nid, parent, _op, start, end in self.log:
            d = end - start
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d
            if parent >= 0:
                out[self.names[name_of[parent]]]["self_s"] -= d
        return out

    def write(self, path: Path, t0: float) -> None:
        """Write every span as gzipped CSV, times in seconds from t0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for idx, (nid, parent, op, start, end) in enumerate(self.log):
                fh.write(f"{idx},{self.names[nid]},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics, per traced operation unless the name says a rate."""
    ops = max(tracer.ops, 1)
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics: dict[str, float] = {}
    names = [*SPANS, *(f"estimation.fit.{m}" for m in FIT_MODELS)]
    for name in names:
        row = summary.get(name, zero)
        metrics[f"{name}.calls"] = row["calls"] / ops
        metrics[f"{name}.self_s"] = row["self_s"] / ops
    for m in FIT_MODELS:
        metrics[f"estimation.fit.{m}.peak_mb"] = tracer.peaks.get(f"estimation.fit.{m}", 0.0)
    for key in COUNTERS:
        metrics[key] = tracer.counts.get(key, 0.0) / ops
    ingest = summary.get("cli.ingest_csv", zero)["total_s"]
    metrics["cli.ingest_csv.rows_per_s"] = (
        tracer.counts["cli.ingest_csv.rows"] / ingest if ingest > 0.0 else 0.0
    )
    sample = summary.get("composite.sample", zero)["total_s"]
    metrics["composite.sample.draws_per_s"] = (
        tracer.counts["composite.sample.draws"] / sample if sample > 0.0 else 0.0
    )
    return metrics
