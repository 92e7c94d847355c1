"""Golden simulated results: every strategy on a cheap stencil and matmul.

Host-side refactors of the scheduling layers (bookkeeping, caches, loop
structure) must leave the simulation bit-identical.  Each row pins, for
one strategy, the makespan ``repr`` and the counts a schedule change
would move: fetches, evictions, bytes moved and the HBM high-water mark.
The values were recorded before the strategy layer switched to
incremental bookkeeping and must never be re-recorded to make a change
pass — a difference here is a behaviour change.

The fluid ``solves`` column is host work, not simulated behaviour: it
counts rate-kernel runs, which the solver memo skips.  It is pinned as an
upper bound only, since a coarser memo key (flow classes instead of
per-flow signatures) legitimately replays more and solves less.  Every
run must also stay on the exact class kernel (no per-flow fallbacks).

``hbm-only`` refuses working sets that overflow HBM, so it runs the same
application on a machine whose HBM fits it (``HBM_FIT``).
"""

import pytest

from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.core.strategies import STRATEGIES
from repro.units import GiB, MiB

HBM = 128 * MiB
HBM_FIT = 512 * MiB
DDR = 1 * GiB
CORES = 16

#: strategy -> (makespan repr, fetches, evictions, bytes moved, solves
#: upper bound, hbm_peak_used); 256 MiB stencil (2x HBM), 2 MiB blocks, 3 iterations
STENCIL = {
    "naive": ('0.11410306880000001', 0, 0, 0, 2, 134217728),
    "ddr-only": ('0.16107927360000007', 0, 0, 0, 1, 0),
    "hbm-only": ('0.06712686399999998', 0, 0, 0, 1, 268435456),
    "single-io": ('0.1286447276783338', 273, 216, 1025507328, 350, 134217728),
    "no-io": ('0.08660121159999995', 384, 336, 1509949440, 4, 134217728),
    "multi-io": ('0.06843775383999998', 384, 336, 1509949440, 6, 134217728),
    "static-guided": ('0.11410306880000001', 0, 0, 0, 2, 134217728),
    "phase-guided": ('0.06843775383999998', 384, 336, 1509949440, 6, 134217728),
}

#: same columns; 192 MiB matmul working set (1.5x HBM), block_dim 128
MATMUL = {
    "naive": ('0.10004195969828578', 0, 0, 0, 10, 134217728),
    "ddr-only": ('0.10004195969828578', 0, 0, 0, 3, 0),
    "hbm-only": ('0.10004195969828578', 0, 0, 0, 6, 208011264),
    "single-io": ('0.10993495628952392', 575, 382, 292683776, 454, 134217728),
    "no-io": ('0.10952927193474217', 575, 383, 292814848, 737, 134217728),
    "multi-io": ('0.10054416280975235', 575, 351, 294387712, 111, 133562368),
    "static-guided": ('0.10004195969828578', 0, 0, 0, 10, 134217728),
    "phase-guided": ('0.10054416280975235', 575, 351, 294387712, 111, 133562368),
}


def _run(app: str, strategy: str) -> tuple:
    hbm = HBM_FIT if strategy == "hbm-only" else HBM
    built = OOCRuntimeBuilder(strategy, cores=CORES, mcdram_capacity=hbm,
                              ddr_capacity=DDR, trace=False).build()
    if app == "stencil":
        result = Stencil3D(built, StencilConfig(
            total_bytes=256 * MiB, block_bytes=2 * MiB,
            iterations=3)).run()
    else:
        result = MatMul(built, MatMulConfig.for_working_set(
            192 * MiB, block_dim=128)).run()
    summary = built.manager.summary()
    machine = built.runtime.machine
    network = machine.network
    assert network.fallback_solves == 0
    return (repr(result.total_time), summary["fetches"],
            summary["evictions"], machine.mover.bytes_moved,
            network.solves, summary["hbm_peak_used"])


def _check(app: str, strategy: str, golden: tuple) -> None:
    got = _run(app, strategy)
    simulated = got[:4] + got[5:]
    assert simulated == golden[:4] + golden[5:]
    assert got[4] <= golden[4], "more fluid kernel runs than recorded"


def test_golden_tables_cover_every_strategy():
    assert set(STENCIL) == set(STRATEGIES) == set(MATMUL)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_stencil_golden(strategy):
    _check("stencil", strategy, STENCIL[strategy])


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_matmul_golden(strategy):
    _check("matmul", strategy, MATMUL[strategy])
