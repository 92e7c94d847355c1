"""Cold serial passes over a workload's cells, in one fresh process.

``run.py`` starts this script once per run; it prints one JSON object on
standard output::

    python3 perfbench/worker.py --src src --workload stencil_static \\
        --seed 0 --seconds 30 [--traced]

Passes start until ``--seconds`` have elapsed; the last one runs to
completion.  Every pass builds every cell from scratch (no result cache),
as ``repro experiments -j1 --no-cache`` does.  With ``--traced`` the
passes alternate: an untraced pass, then the same cells under
:class:`layers.LayerTracer`, after which every patched attribute is
restored and checked.

Before each cell and after the last one the worker times a fixed chunk
of interpreter work (:func:`reference_s`), which it leaves out of the
pass's ``wall_s``.  The pass's ``scale`` is :data:`REFERENCE_S` over the
chunks' mean: a time multiplied by it reads as host seconds at the
speed the benchmark was tuned at.  Host speed on a shared VM can drift
by 20-50 % over minutes; the chunks, run between the cells, drift with
it, while a change to the program does not move them.

``--import-only`` times importing the program and exits; ``run.py``
starts several such processes to take the median import time.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import sys
import time
import typing as _t


#: seconds :func:`reference_s` takes at full speed on the 2-vCPU Xeon VM
#: the benchmark was tuned on; scaled times read as host seconds there
REFERENCE_S = 0.007
#: reference chunks timed after importing the program
IMPORT_REFERENCES = 5


def _reference_work() -> int:
    """A small discrete-event loop: generators, a heap and a dict."""
    counts: dict[int, int] = {}

    def process(i: int) -> _t.Iterator[int]:
        for k in range(20):
            counts[i % 97] = counts.get(i % 97, 0) + k
            yield (i * 7 + k * 13) % 17 + 1

    procs = [process(i) for i in range(400)]
    heap = [(next(p), i) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    while heap:
        now, i = heapq.heappop(heap)
        for delay in procs[i]:
            heapq.heappush(heap, (now + delay, i))
            break
    return len(counts)


def reference_s() -> float:
    """Host seconds of one fixed chunk of reference work.

    The collector is paused, so the program's heap does not change it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _scale(references: list[float]) -> float:
    return REFERENCE_S * len(references) / sum(references)


def _import_repro(src: str) -> float:
    """Import the program from ``src``; returns the seconds it took."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import repro.apps.matmul  # noqa: F401
    import repro.apps.stencil3d  # noqa: F401
    import repro.bench.experiments  # noqa: F401
    import repro.core.api  # noqa: F401
    import repro.trace.projections  # noqa: F401
    elapsed = time.perf_counter() - t0
    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"repro imported from {origin}, not from {src}")
    return elapsed


def run_pass(workload: str, seed: int) -> dict:
    """Run every cell once; timings, results and check failures per cell."""
    import workloads

    runs = {}
    references = []
    t0 = time.perf_counter()
    for spec in workloads.cells(workload, seed):
        references.append(reference_s())
        try:
            run = workloads.run_cell(spec)
        except Exception as exc:  # noqa: BLE001 - a failed cell is reported
            run = workloads.CellRun(spec.label, spec.params["strategy"],
                                    error=f"{type(exc).__name__}: {exc}")
        runs[spec.label] = (spec, run)
    references.append(reference_s())
    wall_s = time.perf_counter() - t0 - sum(references)
    plan_errors = workloads.check_plans(
        workload, {label: run for label, (_spec, run) in runs.items()})
    cells = [{"label": run.label, "strategy": run.strategy,
              "setup_s": run.setup_s, "cell_s": run.cell_s,
              "result": run.result, "sim": run.sim,
              "solve_wall_s": run.solve_wall_s,
              "errors": (workloads.check_cell(spec, run)
                         + plan_errors.get(run.label, []))}
             for spec, run in runs.values()]
    return {"wall_s": wall_s, "scale": _scale(references), "cells": cells}


def run_traced(workload: str, seed: int) -> dict:
    """One pass under the layer tracer; every patch is undone after it."""
    import layers

    tracer = layers.LayerTracer()
    with tracer.installed():
        out = run_pass(workload, seed)
    solve_s = sum(c["solve_wall_s"] for c in out["cells"])
    out["layers"] = layers.layer_seconds(tracer, solve_s, out["wall_s"])
    out["calls"] = tracer.calls
    out["layer_calls"] = tracer.layer_calls()
    out["missing"] = tracer.missing
    out["restored"] = layers.unpatched()
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)

    out: dict = {"import_s": _import_repro(args.src),
                 "import_scale": _scale([reference_s() for _ in
                                         range(IMPORT_REFERENCES)])}
    if not args.import_only:
        import layers

        out["passes"], out["traced"] = [], []
        start = time.perf_counter()
        while True:
            unpatched = layers.unpatched()
            out["passes"].append(run_pass(args.workload, args.seed))
            out["passes"][-1]["unpatched"] = unpatched
            if args.traced:
                out["traced"].append(run_traced(args.workload, args.seed))
            if time.perf_counter() - start >= args.seconds:
                break
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
