"""Figure-cell benchmark: host wall time per workload, and a per-layer split.

    python3 perfbench/run.py --workload matmul_fig9 --seed 0 \\
        --seconds 30 --trace 0

Runs real figure cells of ``repro.bench.experiments`` (see
``manifest.json`` for each workload's cells and why it was chosen)
serially and cold in one worker process, checks every cell's output, and
prints the metrics.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes
and reports its per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exit status: 0 when every check passed, 1 when a check failed (the
result line is still printed), 2 when the benchmark could not run at all
(no program to measure, a worker crashed or timed out); nothing is
printed on standard output then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

#: every run must end within this many seconds, worker included
RUN_LIMIT_S = 170.0
#: separate processes that time importing the program, for setup_s
IMPORT_SAMPLES = 5

#: the strategies whose simulated makespans are reported per workload
STRATEGIES = ("naive", "ddr-only", "hbm-only", "single-io", "no-io",
              "multi-io")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--src", SRC, *args], cwd=ROOT,
            capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc


def _digest(cells: list[dict]) -> str:
    """Identity of the simulated results of one pass (order-independent)."""
    rows = sorted((c["label"], c["result"], c["sim"]) for c in cells)
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _check(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every pass of the run.

    A cell fails when it raised, failed a per-cell or figure check, or
    its simulated results differ from the first pass's: the simulator is
    deterministic, so every pass, traced or not, must agree exactly.
    """
    reference = {c["label"]: (c["result"], c["sim"])
                 for c in passes[0]["cells"]}
    attempted = failed = 0
    reasons: list[str] = []
    for i, p in enumerate(passes):
        for c in p["cells"]:
            attempted += 1
            errors = list(c["errors"])
            if reference.get(c["label"]) != (c["result"], c["sim"]):
                errors.append("simulated results differ from pass 0")
            if errors:
                failed += 1
                reasons.extend(f"pass {i} {c['label']}: {e}" for e in errors)
    return attempted, failed, reasons


def end_to_end(passes: list[dict], imports: list[tuple[float, float]],
               peak_rss_mb: float) -> dict[str, float]:
    """Medians over passes; each time is multiplied by its pass's scale.

    ``imports`` holds (seconds, scale) per import timing.  A scale
    rescales host seconds to the host speed the benchmark was tuned at
    (see ``worker.py``).
    """
    setup = [p["scale"] * sum(c["setup_s"] for c in p["cells"])
             for p in passes]
    return {
        "wall_s": statistics.median(p["scale"] * p["wall_s"]
                                    for p in passes),
        "slowest_cell_s": statistics.median(
            p["scale"] * max(c["cell_s"] for c in p["cells"])
            for p in passes),
        "setup_s": (statistics.median(s * k for s, k in imports)
                    + statistics.median(setup)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes: list[dict], traced: list[dict]) -> dict[str, float]:
    first = traced[0]
    sims = [c["sim"] for c in first["cells"]]

    def total(key: str) -> float:
        return sum(s[key] for s in sims)

    def calls(key: str) -> int:
        return first["calls"].get(key, 0)

    out: dict[str, float] = {}
    for layer in first["layers"]:
        name = ("unattributed_s" if layer == "unattributed"
                else f"{layer}.self_s")
        out[name] = statistics.median(t["layers"][layer] for t in traced)
    tasks = total("tasks_completed")
    out.update({
        "sim.step_calls": calls("Environment.step"),
        "sim.fluid.solves": total("solves"),
        "sim.fluid.memo_hits": total("memo_hits"),
        "sim.fluid.memo_misses": total("memo_misses"),
        "sim.fluid.flows": total("flows"),
        "mem.moves": total("moves"),
        "mem.bytes_moved": total("bytes_moved"),
        "core.intercepts": calls("OOCManager.intercept"),
        "core.retries": calls("OOCManager.retry"),
        "core.strategies.missing_bytes_calls":
            calls("Strategy.missing_bytes"),
        "core.strategies.scans_per_task":
            calls("Strategy.missing_bytes") / tasks if tasks else 0.0,
        "core.strategies.fetches": total("fetches"),
        "core.strategies.evictions": total("evictions"),
        "core.strategies.bytes_fetched": total("bytes_fetched"),
        "core.strategies.bytes_evicted": total("bytes_evicted"),
        "core.strategies.hbm_peak_used": max(s["hbm_peak_used"]
                                             for s in sims),
        "core.eviction.calls": first["layer_calls"]["core.eviction"],
        "runtime.messages_sent": total("messages_sent"),
        "runtime.tasks_executed": total("tasks_executed"),
        "trace.records": calls("Tracer.record"),
        "apps.tasks": tasks,
        "tracing_overhead_x": statistics.median([
            t["wall_s"] / p["wall_s"] for p, t in zip(passes, traced)]),
    })
    for strategy in STRATEGIES:
        out[f"apps.makespan_s.{strategy}"] = sum(
            (c["result"]["total_time"] for c in first["cells"]
             if c["strategy"] == strategy), 0.0)
    return out


def _report(args: argparse.Namespace, passes: list[dict],
            traced: list[dict], units: dict[str, str],
            metrics: dict[str, float], attempted: int, failed: int,
            reasons: list[str]) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} untraced and {len(traced)} traced passes")
    for c in sorted(passes[0]["cells"], key=lambda c: c["label"]):
        print(f"  {c['label']:32s} makespan {c['result']['total_time']!r} "
              f"sim-s  tasks {c['sim']['tasks_completed']}  "
              f"fetches {c['sim']['fetches']}  "
              f"evictions {c['sim']['evictions']}")
    print(f"  simulated-results digest {_digest(passes[0]['cells'])}")
    print(f"  host speed {statistics.median(p['scale'] for p in passes):.3f}"
          " of the reference; unscaled wall_s "
          f"{statistics.median(p['wall_s'] for p in passes):.4f} s")
    for name, value in metrics.items():
        print(f"  {name:40s} {value!r} {units[name]}")
    print(f"  error_rate {failed / attempted!r} ({failed} of {attempted} "
          "cells failed)")
    for reason in reasons:
        print(f"  FAILED {reason}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise BenchError(f"no program to measure under {SRC}")
        run = _worker(["--workload", args.workload, "--seed",
                       str(args.seed), "--seconds", str(args.seconds)]
                      + (["--traced"] if args.trace else []), deadline)
        passes, traced = run["passes"], run["traced"]
        if args.trace:
            metrics = per_layer(passes, traced)
            section = "per_layer"
        else:
            imports = [_worker(["--import-only"], deadline)
                       for _ in range(IMPORT_SAMPLES - 1)] + [run]
            metrics = end_to_end(
                passes, [(i["import_s"], i["import_scale"]) for i in imports],
                run["peak_rss_mb"])
            section = "end_to_end"
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in bench[section]}
    attempted, failed, reasons = _check(passes + traced)
    if any(not p["unpatched"] for p in passes):
        reasons.append("an untraced pass ran with layer wrappers installed")
    if any(not t["restored"] for t in traced):
        reasons.append("a patched attribute was not restored")
    _report(args, passes, traced, units, metrics, attempted, failed,
            reasons)
    for t in traced[:1]:
        # a removed entry point is not a failure: its layer reads 0 calls
        for missing in t["missing"]:
            print(f"  note: layer entry point not found: {missing}")
    correct = not reasons
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
