"""The benchmark's workloads: which figure cells run, on which seed, and checks.

Every cell is a :class:`~repro.exec.spec.RunSpec` taken from a figure
plan in :mod:`repro.bench.experiments` at ``Scale.TINY``.  Seed 0 runs
the plans' cells exactly.  Any other seed perturbs each cell's working
set by a few percent, through :func:`repro.exec.spec.stable_seed`,
so that host work stays comparable across seeds (see :func:`perturb`)
and the cell stays on the same side of the HBM capacity (so the regime
the workload was chosen for is unchanged); it also shuffles the cell
order.

:func:`run_cell` drives one cell the way :mod:`repro.exec.runners`
does, but times the set-up (builder and app constructor) apart from the
run and returns the counters the checks and the per-layer report read.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
import typing as _t

from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.bench.experiments import (fig2_plan, fig5_plan, fig6_plan,
                                     fig8_plan, fig9_plan)
from repro.bench.harness import FigurePlan, Scale, speedup_table
from repro.core.api import OOCRuntimeBuilder
from repro.exec.spec import RunSpec, stable_seed

SCALE = Scale.TINY

#: largest relative change a non-zero seed makes to a cell's working set
PERTURBATION = 0.04


#: workload -> (figure plan, labels of the plan's cells it runs, or None
#: for all of them); BENCHMARK.json says why each workload was chosen
WORKLOADS: dict[str, tuple[tuple[FigurePlan, tuple[str, ...] | None], ...]]
WORKLOADS = {
    "matmul_fig9": ((fig9_plan(SCALE, total_ws_gb=(24,)), None),),
    "stencil_traced": ((fig5_plan(SCALE), None), (fig6_plan(SCALE), None)),
    "stencil_static": (
        (fig2_plan(SCALE), None),
        (fig8_plan(SCALE, reduced_ws_gb=(2,)),
         ("fig8/stencil/2GB/naive", "fig8/stencil/2GB/ddr-only"))),
}


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

def expected_tasks(spec: RunSpec) -> int:
    """Tasks a correct run completes: chares x iterations, or grid^2."""
    p = spec.params
    if spec.kind == "stencil":
        cfg = StencilConfig(total_bytes=int(p["total"]),
                            block_bytes=int(p["block"]),
                            iterations=int(p["iterations"]))
        return cfg.n_chares * cfg.iterations
    cfg = MatMulConfig.for_working_set(int(p["working_set"]),
                                       block_dim=int(p["block_dim"]))
    return cfg.grid * cfg.grid


def perturb(spec: RunSpec, rng: random.Random) -> RunSpec:
    """``spec`` with its working set moved by up to :data:`PERTURBATION`.

    The machine's capacities move by the same factor, so the working set
    keeps its ratio to HBM and the cell stays in its regime.  A stencil
    keeps its chares and tasks at other block sizes.  (Moving the working
    set alone is not benign: a 2 % change to the Fig 6 no-io stencil takes
    its solver from 4 to ~2,500 solves and doubles its host time, so seeds
    would measure different work.)  A matmul keeps its panel width, and so
    each task's compute and transfers, and gains or loses a panel, which
    moves its task count by about 3 %.  (A panel one element wider or
    narrower moves the Fig 9 no-io cell from 7,167 to 5,354 solves and
    its host time by about 30 %; a panel more or fewer moves it by 3 %.)
    """
    p = dict(spec.params)
    sign = rng.choice((-1, 1))
    factor = 1.0 + sign * rng.uniform(PERTURBATION / 4, PERTURBATION)
    if spec.kind == "stencil":
        chares = int(p["total"]) // int(p["block"])
        block = max(8, int(int(p["block"]) * factor) // 8 * 8)
        factor = block / int(p["block"])
        p["block"], p["total"] = block, chares * block
    else:  # matmul
        block_dim = int(p["block_dim"])
        old = MatMulConfig.for_working_set(int(p["working_set"]),
                                           block_dim=block_dim).grid
        # the working set grows with the square of the panel count
        grid = round(old * math.sqrt(factor))
        if grid == old:  # at least one panel more or fewer
            grid += sign
        factor = (grid / old) ** 2
        p["working_set"] = 3 * 8 * (grid * block_dim) ** 2
    p["mcdram"] = int(int(p["mcdram"]) * factor)
    p["ddr"] = int(int(p["ddr"]) * factor)
    return dataclasses.replace(spec, params=p)


def _selected(workload: str) -> list[tuple[FigurePlan, list[RunSpec],
                                            list[str], bool]]:
    """Per plan: its chosen specs, the label of the cell that runs each
    (the first spec with the same identity), and whether it runs whole."""
    first: dict[str, str] = {}
    out = []
    for plan, labels in WORKLOADS[workload]:
        chosen = [s for s in plan.specs
                  if labels is None or s.label in labels]
        ran_as = [first.setdefault(s.key(), s.label) for s in chosen]
        out.append((plan, chosen, ran_as, labels is None))
    return out


def cells(workload: str, seed: int) -> list[RunSpec]:
    """The workload's distinct cells, perturbed and ordered by ``seed``."""
    out: list[RunSpec] = []
    for _plan, chosen, ran_as, _whole in _selected(workload):
        for spec, label in zip(chosen, ran_as):
            if label != spec.label:  # fig5 and fig6 share one multi-io run
                continue
            if seed:
                spec = perturb(spec, random.Random(
                    stable_seed("perfbench", workload, seed, spec.label)))
            out.append(spec)
    if seed:
        random.Random(stable_seed("perfbench-order", workload, seed)
                      ).shuffle(out)
    return out


@dataclasses.dataclass
class CellRun:
    """One executed cell: timings, the runner-compatible result, counters."""

    label: str
    strategy: str
    #: builder + app constructor seconds
    setup_s: float = 0.0
    #: build + construct + run + report seconds
    cell_s: float = 0.0
    #: what :func:`repro.exec.runners.execute_spec` would return
    result: dict = dataclasses.field(default_factory=dict)
    #: simulated counters (identical on every run of the same cell)
    sim: dict = dataclasses.field(default_factory=dict)
    #: fluid solver host seconds (moved from ``sim`` to ``sim.fluid``)
    solve_wall_s: float = 0.0
    error: str = ""


def _builder(params: _t.Mapping[str, _t.Any]) -> OOCRuntimeBuilder:
    return OOCRuntimeBuilder(
        params["strategy"], cores=int(params["cores"]),
        mcdram_capacity=int(params["mcdram"]),
        ddr_capacity=int(params["ddr"]),
        trace=bool(params.get("trace", False)))


def run_cell(spec: RunSpec) -> CellRun:
    """Build, construct and run one cell, as ``repro.exec.runners`` does."""
    p = spec.params
    run = CellRun(spec.label, p["strategy"])
    t0 = time.perf_counter()
    built = _builder(p).build()
    if spec.kind == "stencil":
        app: _t.Any = Stencil3D(built, StencilConfig(
            total_bytes=int(p["total"]), block_bytes=int(p["block"]),
            iterations=int(p["iterations"])))
    else:
        app = MatMul(built, MatMulConfig.for_working_set(
            int(p["working_set"]), block_dim=int(p["block_dim"])))
    run.setup_s = time.perf_counter() - t0
    res = app.run()
    out = {"total_time": res.total_time,
           "mean_kernel_time": res.mean_kernel_time}
    if spec.kind == "stencil":
        out["mean_iteration_time"] = res.mean_iteration_time
        if p.get("trace"):
            from repro.trace import projections

            report = projections.build_report(built.runtime.tracer)
            tasks_per_pe = {f"pe{pe.id}": pe.tasks_executed
                            for pe in built.runtime.pes}
            out["wait_fraction"] = report.mean_wait_fraction()
            out["utilization"] = report.mean_utilization()
            out["preprocess_per_task"] = \
                report.mean_preprocess_per_task(tasks_per_pe)
    run.cell_s = time.perf_counter() - t0
    run.result = out
    machine = built.machine
    run.sim = {
        **{k: v for k, v in built.manager.summary().items()
           if k not in ("strategy", "tasks_completed")},
        # the app's count: the manager sees only intercepted tasks
        "tasks_completed": res.tasks_completed,
        "solves": machine.network.solves,
        "memo_hits": machine.network.memo_hits,
        "memo_misses": machine.network.memo_misses,
        "flows": machine.network.completed_flows,
        "moves": machine.mover.moves_completed,
        "bytes_moved": machine.mover.bytes_moved,
        "messages_sent": built.runtime.messages_sent,
        "tasks_executed": sum(pe.tasks_executed for pe in built.runtime.pes),
        "trace_events": len(built.runtime.tracer.events),
    }
    run.solve_wall_s = machine.network.solve_wall_s
    return run


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def check_cell(spec: RunSpec, run: CellRun) -> list[str]:
    """Failures of checks any correct model passes (empty when correct)."""
    if run.error:
        return [run.error]
    errors = []
    expected = expected_tasks(spec)
    if run.sim.get("tasks_completed") != expected:
        errors.append(f"tasks_completed {run.sim.get('tasks_completed')} "
                      f"!= {expected}")
    makespan = run.result.get("total_time")
    if not (isinstance(makespan, (int, float)) and math.isfinite(makespan)
            and makespan > 0):
        errors.append(f"makespan {makespan!r} is not finite and > 0")
    peak, capacity = run.sim.get("hbm_peak_used"), int(spec.params["mcdram"])
    if not (isinstance(peak, int) and peak <= capacity):
        errors.append(f"hbm_peak_used {peak!r} exceeds MCDRAM {capacity}")
    return errors


def check_plans(workload: str,
                runs: _t.Mapping[str, CellRun]) -> dict[str, list[str]]:
    """Fold each plan's cells into its figure table.

    ``runs`` maps cell labels to their runs.  A plan the workload runs
    whole is folded by its own ``assemble``; a plan it runs in part, by
    ``speedup_table`` over the cells present.  Returns the failures by
    the label of every cell of a plan that could not be folded.
    """
    errors: dict[str, list[str]] = {}
    for plan, chosen, ran_as, whole in _selected(workload):
        chosen_runs = [runs.get(label) for label in ran_as]
        if any(r is None or r.error or not r.result for r in chosen_runs):
            error = f"{plan.figure}: a cell has no result"
        else:
            error = _fold(plan, chosen, [r.result for r in chosen_runs],
                          whole)
        if error:
            for label in ran_as:
                errors.setdefault(label, []).append(error)
    return errors


def _fold(plan: FigurePlan, specs: list[RunSpec], results: list[dict],
          whole: bool) -> str:
    try:
        if whole:
            table = plan.assemble(results).series
        else:
            table = speedup_table({"cells": {
                s.params["strategy"]: r["total_time"]
                for s, r in zip(specs, results)}})
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        return f"{plan.figure}: assemble failed: {type(exc).__name__}: {exc}"
    values = [v for row in table.values() for v in row.values()]
    if not values or not all(isinstance(v, (int, float)) and math.isfinite(v)
                             for v in values):
        return f"{plan.figure}: table has missing or non-finite values"
    return ""
