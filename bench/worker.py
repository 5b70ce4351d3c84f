"""One workload in a fresh process; started by run.py, never by hand.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE TMPDIR [SPANS]

MODE is ``setup`` (set up, report the time, exit), ``measure`` (the
untraced closed loop) or ``trace`` (a memory cycle, then untraced and
span cycles in turn, spans written to SPANS).  Prints one JSON object as its last line
of standard output.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import expcomposite  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_ERRORS = 5


def _kind(cycle: int, tracer) -> str:
    if tracer is None:
        return "untraced"
    if cycle == 0:
        return "memory"
    return "untraced" if cycle % 2 else "spans"


def _loop(workload, seconds: float, tracer=None) -> dict:
    """Closed loop with one client until `seconds` pass, ending on a whole cycle.

    With a tracer, the first cycle is a memory cycle and the rest alternate
    untraced and spans (see Tracer.install), ending on a spans cycle; each
    kind keeps its own latencies.
    """
    latencies: dict[str, list[float]] = {"untraced": []}
    if tracer is not None:
        latencies.update(spans=[], memory=[])
    last = "untraced" if tracer is None else "spans"
    failed = 0
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        kind = _kind(cycle, tracer)
        if kind != "untraced":
            tracer.install(memory=kind == "memory")
        for i in range(workload.cycle_len):
            op = cycle * workload.cycle_len + i
            if kind == "spans":
                tracer.begin_op(op)
            error = None
            t0 = time.perf_counter()
            try:
                result = workload.run(cycle, i)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"op {op}: {type(exc).__name__}: {exc}"
            latencies[kind].append(time.perf_counter() - t0)
            if kind == "spans":
                tracer.end_op()
            if error is None:
                try:
                    workload.check(cycle, i, result)
                except Exception as exc:
                    error = f"op {op} check: {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(error)
        if kind != "untraced":
            tracer.uninstall()
        cycle += 1
        if kind == last and time.perf_counter() >= deadline:
            break
    return {
        "latencies": latencies,
        "attempted": sum(len(v) for v in latencies.values()),
        "failed": failed,
        "errors": errors,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, tmp = argv[:5]
    if not Path(expcomposite.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"expcomposite imported from {expcomposite.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name](int(seed), Path(tmp))
    ready = time.monotonic()
    out = {"ready": ready, "numpy": numpy.__version__, "scipy": scipy.__version__}
    if mode == "measure":
        out.update(_loop(workload, float(seconds)))
    elif mode == "trace":
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        t0 = time.perf_counter()
        out.update(_loop(workload, float(seconds), tracer))
        out["layers"] = layer_metrics(tracer)
        out["spans"] = tracer.log.size
        out["missing_sites"] = sorted(tracer.missing)
        tracer.write(Path(argv[5]), t0)
    if hasattr(workload, "replicates"):
        out["replicates"] = workload.replicates
        out["fit_failures"] = workload.fit_failures
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
