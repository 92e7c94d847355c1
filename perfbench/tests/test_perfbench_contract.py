"""Names, units and the manifest agree with BENCHMARK.json; exit contract."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import layers
import run
import workloads
from repro.exec.runners import EXECUTORS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


BENCHMARK = _load(os.path.join(ROOT, "BENCHMARK.json"))
MANIFEST = _load(os.path.join(BENCH_DIR, "manifest.json"))


def _synthetic_passes() -> tuple[list[dict], list[dict]]:
    sim = {"tasks_completed": 4, "fetches": 1, "evictions": 1,
           "bytes_fetched": 8, "bytes_evicted": 8, "hbm_peak_used": 8,
           "solves": 1, "memo_hits": 1, "memo_misses": 1, "flows": 2,
           "moves": 2, "bytes_moved": 16, "messages_sent": 3,
           "tasks_executed": 3}
    cell = {"label": "c", "strategy": "naive", "setup_s": 0.1,
            "cell_s": 0.5, "result": {"total_time": 1.0}, "sim": sim,
            "errors": []}
    untraced = {"wall_s": 1.0, "scale": 1.0, "cells": [cell],
                "unpatched": True}
    split = dict.fromkeys(layers.LAYERS, 0.1)
    split["unattributed"] = 0.1
    traced = {"wall_s": 2.0, "scale": 1.0, "cells": [cell], "layers": split,
              "calls": {"Environment.step": 5},
              "layer_calls": dict.fromkeys(layers.LAYERS, 1),
              "missing": [], "restored": True}
    return [untraced], [traced]


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_name_and_unit_is_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for m in BENCHMARK[section]:
            names.append(m["name"])
            assert UNIT.fullmatch(m["unit"]), m["unit"]
            assert m["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_emitted_names_match_benchmark_json():
    passes, traced = _synthetic_passes()
    e2e = run.end_to_end(passes, [(0.2, 1.0)], 50.0)
    layer = run.per_layer(passes, traced)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for name in [*e2e, *layer]:
        assert NAME.fullmatch(name), name
    assert layer["tracing_overhead_x"] == 2.0
    assert layer["core.strategies.scans_per_task"] == 0.0


def test_times_are_scaled_by_their_pass():
    passes, _traced = _synthetic_passes()
    slow = dict(passes[0], wall_s=2.0, scale=0.5)
    e2e = run.end_to_end([slow], [(0.4, 0.5)], 50.0)
    assert e2e["wall_s"] == 1.0
    assert e2e["slowest_cell_s"] == 0.25
    assert e2e["setup_s"] == 0.2 + 0.05


def test_manifest_matches_benchmark_and_workloads():
    assert sorted(MANIFEST["workloads"]) == sorted(
        w["name"] for w in BENCHMARK["workloads"])
    assert sorted(MANIFEST["workloads"]) == sorted(workloads.WORKLOADS)
    for name, entry in MANIFEST["workloads"].items():
        assert entry["cells"] == [s.label for s in workloads.cells(name, 0)]
    assert sorted(MANIFEST["end_to_end"]) == sorted(
        m["name"] for m in BENCHMARK["end_to_end"])
    assert sorted(MANIFEST["per_layer"]) == sorted(
        m["name"] for m in BENCHMARK["per_layer"])
    known = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, entry in MANIFEST["per_layer"].items():
        assert entry["layer"] in (*layers.LAYERS, "none"), name
        for move in entry["moves"]:
            assert move["metric"] in known, name
            assert set(move["workloads"]) <= set(workloads.WORKLOADS), name


def test_makespans_equal_the_exec_runners():
    """apps.makespan_s.* is the runners' total_time for the same cells."""
    specs = [*workloads.cells("stencil_static", 0),
             *workloads.cells("stencil_traced", 0),
             # the cheap Fig 9 cells; the prefetching ones take seconds
             *(s for s in workloads.cells("matmul_fig9", 0)
               if s.params["strategy"] in ("naive", "ddr-only"))]
    for spec in specs:
        ours = workloads.run_cell(spec).result
        theirs = EXECUTORS[spec.kind](spec.params)
        assert ours == theirs, spec.label


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit non-zero, print nothing."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stencil_static",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unknown_workload_is_refused(capsys):
    assert run.main(["--workload", "nope"]) == 2
    assert capsys.readouterr().out == ""
