"""Span-tracer overhead guard (opt-in: ``pytest benchmarks/bench_obs.py``).

The repro.obs hook sites (entry-method deliver, strategy fetch/evict,
queue-lock charges) cost a single module-global ``is not None`` test
when no collector is installed — the same zero-cost-when-disabled
contract the metrics and race slots honor.  This bench quantifies both
sides on the same hook-heavy workload as ``bench_metrics.py`` — a
Stencil3D run under multi-io, where the IO threads fetch and evict
continuously:

* ``baseline`` — obs hooks present but empty (the default everywhere);
* ``disabled`` — a second identical run; the ratio to ``baseline``
  bounds the cost of the dormant hook sites plus machine noise;
* ``enabled``  — a full :class:`~repro.obs.SpanTracer` on both hook
  slots (span DAG + causal edge bookkeeping), plus a critical-path walk
  of the result (the walk rides along so the bench also guards the
  profiler's cost staying linear-ish in span count).

The disabled bound is the ISSUE's acceptance bar: spans must cost
nothing measurable when off.  The enabled bound is loose — building a
causal DAG per task/fetch/evict is real work — but still fails loudly
on an accidentally quadratic structure.
"""

from __future__ import annotations

import statistics
import time

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.bench.regression import write_bench
from repro.core.api import OOCRuntimeBuilder
from repro.obs import SpanTracer, critical_path
from repro.units import GiB, MiB

#: the ISSUE's acceptance bar for the dormant hook sites
DISABLED_BOUND = 1.05
#: loose bound for full span collection + the critical-path walk
ENABLED_BOUND = 2.0
NOISE_EPSILON = 0.05
#: interleaved rounds of the three runs
ROUNDS = 16


def run_stencil(with_spans: bool) -> dict[str, float] | None:
    built = OOCRuntimeBuilder("multi-io", cores=16,
                              mcdram_capacity=256 * MiB,
                              ddr_capacity=2 * GiB, trace=False).build()
    tracer = SpanTracer(built.env).install() if with_spans else None
    try:
        cfg = StencilConfig(total_bytes=GiB, block_bytes=16 * MiB,
                            iterations=3)
        Stencil3D(built, cfg).run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        return None
    report = critical_path(tracer.spans)
    return {"spans": float(len(tracer)),
            "path_steps": float(len(report.steps)),
            "makespan_s": report.makespan,
            "compute_share": report.share("compute"),
            "fetch_share": report.share("fetch")}


def _timed(with_spans: bool) -> tuple[float, dict[str, float] | None]:
    t0 = time.perf_counter()
    result = run_stencil(with_spans)
    return time.perf_counter() - t0, result


def test_span_overhead_is_bounded() -> None:
    # interleave the three measurements so machine noise (CPU frequency,
    # neighbours on shared runners) hits all of them alike, then score
    # each series by the median of its per-round ratios to the baseline
    # run of the same round: a load swing lasting a few runs moves all
    # three runs of a round together, where best-of mins pair runs from
    # different moments (on a shared 2-vCPU host, best-of-4 mins put two
    # identical series 0.82-1.25x apart; 16-round medians, 0.96-1.04x) —
    # two *identical* disabled series bound the noise floor
    run_stencil(False), run_stencil(True)  # warm caches / imports
    baseline, disabled, enabled = [], [], []
    run_info: dict[str, float] | None = None
    for i in range(ROUNDS):
        # the two identical series swap places every round, so neither
        # is always the one that runs right after the enabled run
        for series in ((baseline, disabled) if i % 2 else
                       (disabled, baseline)):
            series.append(_timed(False)[0])
        on_s, run_info = _timed(True)
        enabled.append(on_s)
    baseline_s, disabled_s, enabled_s = (min(baseline), min(disabled),
                                         min(enabled))
    disabled_x = statistics.median(
        d / b for d, b in zip(disabled, baseline))
    enabled_x = statistics.median(e / b for e, b in zip(enabled, baseline))
    print(f"\nspans baseline: {baseline_s * 1e3:.1f}ms   "
          f"disabled: {disabled_s * 1e3:.1f}ms ({disabled_x:.2f}x)   "
          f"enabled: {enabled_s * 1e3:.1f}ms ({enabled_x:.2f}x)")
    assert run_info, "enabled run produced no spans"
    assert run_info["spans"] > 0
    assert run_info["path_steps"] > 0
    # the decomposition must stay conservative on the bench workload too
    assert 0.0 <= run_info["compute_share"] <= 1.0
    assert disabled_x <= DISABLED_BOUND + NOISE_EPSILON
    assert enabled_x <= ENABLED_BOUND + NOISE_EPSILON
    write_bench("obs", {
        "stencil_1gib_multi_io": {
            "baseline_s": baseline_s,
            "disabled_s": disabled_s,
            "enabled_s": enabled_s,
            "disabled_x": disabled_x,
            "enabled_x": enabled_x,
            **{f"run_{k}": v for k, v in run_info.items()},
        },
    })
