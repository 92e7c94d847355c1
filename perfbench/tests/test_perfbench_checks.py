"""Correctness checks fail on doctored results; seeds perturb within regime."""

from __future__ import annotations

import dataclasses

import pytest

import run
import workloads
from repro.apps.matmul import MatMulConfig
from repro.bench.experiments import fig2_plan, fig9_plan
from repro.bench.harness import Scale


@pytest.fixture(scope="module")
def good_run():
    spec = fig2_plan(Scale.TINY).specs[0]
    return spec, workloads.run_cell(spec)


def _doctored(cell_run, **sim_or_result):
    out = dataclasses.replace(cell_run, sim=dict(cell_run.sim),
                              result=dict(cell_run.result))
    for key, value in sim_or_result.items():
        (out.result if key == "total_time" else out.sim)[key] = value
    return out


def test_good_cell_passes(good_run):
    spec, cell_run = good_run
    assert workloads.check_cell(spec, cell_run) == []
    assert cell_run.sim["tasks_completed"] == workloads.expected_tasks(spec)


@pytest.mark.parametrize("doctor, needle", [
    ({"tasks_completed": 1}, "tasks_completed"),
    ({"total_time": 0.0}, "makespan"),
    ({"total_time": float("nan")}, "makespan"),
    ({"total_time": float("inf")}, "makespan"),
    ({"hbm_peak_used": Scale.TINY.mcdram + 1}, "hbm_peak_used"),
])
def test_each_cell_check_fails_on_a_doctored_result(good_run, doctor,
                                                    needle):
    spec, cell_run = good_run
    errors = workloads.check_cell(spec, _doctored(cell_run, **doctor))
    assert len(errors) == 1 and needle in errors[0]


def test_a_raised_cell_fails(good_run):
    spec, cell_run = good_run
    failed = dataclasses.replace(cell_run, error="RuntimeError: boom")
    assert workloads.check_cell(spec, failed) == ["RuntimeError: boom"]


def _fake_runs(workload: str, **overrides) -> dict[str, workloads.CellRun]:
    """Runs with plausible results for every cell, without simulating."""
    runs = {}
    for i, spec in enumerate(workloads.cells(workload, 0)):
        result = {"total_time": 1.0 + i, "mean_kernel_time": 0.5 + i,
                  "mean_iteration_time": 0.2, "wait_fraction": 0.1,
                  "utilization": 0.9, "preprocess_per_task": 0.01}
        result.update(overrides.get(spec.label, {}))
        runs[spec.label] = workloads.CellRun(
            spec.label, spec.params["strategy"], result=result)
    return runs


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_figure_tables_fold(workload):
    assert workloads.check_plans(workload, _fake_runs(workload)) == {}


def test_missing_cell_fails_its_whole_plan():
    runs = _fake_runs("stencil_static")
    del runs["fig2/stencil/hbm-only"]
    errors = workloads.check_plans("stencil_static", runs)
    assert set(errors) == {"fig2/stencil/hbm-only", "fig2/stencil/ddr-only"}


def test_assemble_failure_is_reported():
    # Fig 2's table divides by the HBM kernel time
    runs = _fake_runs("stencil_static", **{
        "fig2/stencil/hbm-only": {"mean_kernel_time": 0.0}})
    errors = workloads.check_plans("stencil_static", runs)
    assert "assemble failed" in errors["fig2/stencil/ddr-only"][0]


def test_non_finite_table_is_reported():
    # the partial Fig 8 cells fold through speedup_table: naive / 0 = inf
    runs = _fake_runs("stencil_static", **{
        "fig8/stencil/2GB/ddr-only": {"total_time": 0.0}})
    errors = workloads.check_plans("stencil_static", runs)
    assert "non-finite" in errors["fig8/stencil/2GB/naive"][0]


def _pass(cells):
    return {"cells": cells}


def test_passes_that_disagree_fail():
    cell = {"label": "a", "result": {"total_time": 1.0}, "sim": {"n": 1},
            "errors": []}
    other = dict(cell, sim={"n": 2})
    attempted, failed, reasons = run._check([_pass([cell]), _pass([cell])])
    assert (attempted, failed, reasons) == (2, 0, [])
    attempted, failed, reasons = run._check([_pass([cell]), _pass([other])])
    assert (attempted, failed) == (2, 1)
    assert "differ" in reasons[0]


def test_seed_zero_runs_the_plan_cells_exactly():
    plan = fig9_plan(Scale.TINY, total_ws_gb=(24,))
    assert workloads.cells("matmul_fig9", 0) == plan.specs


def _working_set(spec) -> int:
    p = spec.params
    if spec.kind == "stencil":
        return int(p["total"])
    return MatMulConfig.for_working_set(
        int(p["working_set"]), block_dim=int(p["block_dim"])
    ).total_working_set


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 7, 123])
def test_seeds_perturb_within_the_regime(workload, seed):
    base = {s.label: s for s in workloads.cells(workload, 0)}
    seeded = workloads.cells(workload, seed)
    assert seeded == workloads.cells(workload, seed)  # reproducible
    assert sorted(s.label for s in seeded) == sorted(base)
    for spec in seeded:
        orig = base[spec.label]
        hbm, hbm0 = spec.params["mcdram"], orig.params["mcdram"]
        ws, ws0 = _working_set(spec), _working_set(orig)
        assert 0 < abs(ws / ws0 - 1) <= 2 * workloads.PERTURBATION
        # capacities move with the working set: same side, same ratio
        assert (ws > hbm) == (ws0 > hbm0)
        assert ws / hbm == pytest.approx(ws0 / hbm0, rel=1e-3)
        tasks, tasks0 = (workloads.expected_tasks(spec),
                         workloads.expected_tasks(orig))
        if spec.kind == "stencil":
            assert tasks == tasks0
        else:  # one panel more or fewer, at the same panel width
            assert spec.params["block_dim"] == orig.params["block_dim"]
            assert 0 < abs(tasks / tasks0 - 1) <= 2 * workloads.PERTURBATION


def test_seeds_shuffle_the_order():
    orders = {tuple(s.label for s in workloads.cells("matmul_fig9", seed))
              for seed in range(1, 8)}
    assert len(orders) > 1
