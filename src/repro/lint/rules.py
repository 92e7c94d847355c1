"""Rule catalog for :mod:`repro.lint` and :mod:`repro.race`.

``REP1xx`` rules are emitted by the static dependence-declaration checker
(:mod:`repro.lint.static_checker`); ``REP2xx`` by the placement-state
model checker (:mod:`repro.race.model_checker`, run as part of the same
static pass); ``SAN2xx`` by the runtime invariant sanitizer
(:mod:`repro.lint.sanitizer`); ``RACE3xx`` by the happens-before race
detector and schedule explorer (:mod:`repro.race`).  The catalog is data,
not behaviour, so docs and the CLI ``--explain`` output cannot drift from
the implementation.
"""

from __future__ import annotations

import dataclasses

from repro.lint.findings import Severity

__all__ = ["Rule", "RULES", "rule", "STATIC_RULES", "SANITIZER_RULES",
           "RACE_RULES"]


@dataclasses.dataclass(frozen=True)
class Rule:
    """One lint rule: identifier, default severity, summary."""

    id: str
    severity: Severity
    title: str
    description: str


_ALL = [
    # -- static checker (declaration vs body cross-check, paper §IV-A) -------
    Rule("REP100", Severity.ERROR, "parse-error",
         "the file could not be parsed as python — nothing in it was "
         "checked"),
    Rule("REP101", Severity.ERROR, "undeclared-dependence",
         "a block attribute appears in self.kernel(reads=/writes=) but is "
         "not declared on the @entry annotation — the runtime will not "
         "prefetch it and refcount gating will not protect it"),
    Rule("REP102", Severity.ERROR, "intent-mismatch",
         "a dependence declared readonly appears in writes=, or one "
         "declared writeonly appears in reads= — eviction may write back "
         "stale data or skip a dirty block"),
    Rule("REP103", Severity.ERROR, "prefetch-without-deps",
         "an @entry(prefetch=True) declares no data dependences — there "
         "is nothing for the IO threads to prefetch"),
    Rule("REP104", Severity.WARNING, "dead-declaration",
         "a declared dependence is never used by any self.kernel() call "
         "in the entry body — it is fetched and refcounted for nothing"),
    Rule("REP105", Severity.ERROR, "duplicate-intent",
         "the same dependence name is declared with two intents on one "
         "entry"),
    Rule("REP106", Severity.ERROR, "duplicate-block-name",
         "two declare_block calls in one chare class use the same literal "
         "name — registry lookups and traces become ambiguous"),
    Rule("REP107", Severity.ERROR, "declare-in-prefetch-entry",
         "declare_block inside a [prefetch] entry — blocks must be "
         "declared in a setup entry, before finalize_placement()"),
    Rule("REP108", Severity.WARNING, "kernel-outside-prefetch",
         "self.kernel() inside an entry not annotated [prefetch] — the "
         "bandwidth-sensitive task is invisible to the OOC manager"),
    # -- bwlint static traffic inference (repro.lint.traffic) ----------------
    Rule("REP300", Severity.WARNING, "overdeclared-intent",
         "a dependence is declared readwrite but no kernel in the class "
         "ever writes it — eviction will write back a clean block and "
         "node-level sharing is disabled for nothing; declare it readonly"),
    Rule("REP301", Severity.WARNING, "dead-site",
         "a declared block is never touched by any kernel or entry — the "
         "allocation occupies tier capacity and shows up in placement "
         "decisions for no traffic"),
    Rule("REP302", Severity.WARNING, "writeonly-shared-site",
         "a node-group-shared block is declared writeonly by every "
         "referencing kernel and read by none — keeping it resident in "
         "HBM for sharing buys nothing"),
    Rule("REP303", Severity.ERROR, "use-before-fetch",
         "a declared dependence handle is never bound to a block site in "
         "its class — the prefetch phase has nothing to fetch and the "
         "kernel runs against an unbound handle"),
    Rule("REP304", Severity.ERROR, "static-footprint-exceeds-hbm",
         "the blocks one [prefetch] entry declares are simultaneously "
         "live and their static sizes already exceed the HBM tier "
         "capacity — no eviction order can make this task's working set "
         "fit"),
    Rule("REP305", Severity.WARNING, "unbounded-kernel-loop",
         "a while-loop with no inferable trip count wraps a kernel launch "
         "inside a [prefetch] entry — static traffic inference cannot "
         "bound the phase's byte volume; drive the loop from a config "
         "range instead"),
    Rule("REP306", Severity.ERROR, "conflicting-alias-intents",
         "two dependence handles in one entry are bound to the same block "
         "site with different intents — the runtime will pick one "
         "arbitrarily when refcounting and writeback cannot honour both"),
    # -- bwlint v2 phase-ordered analysis (repro.lint.phases) ----------------
    Rule("REP310", Severity.WARNING, "phase-dead-still-resident",
         "a block's last kernel touch is phases before the program ends, "
         "yet later phases need more HBM than the tier holds while the "
         "dead block stays resident — schedule an eviction at its last "
         "phase boundary"),
    Rule("REP311", Severity.ERROR, "cross-phase-intent-conflict",
         "a block is read in an earlier phase than any phase that writes "
         "it — the first read observes bytes no kernel has produced yet"),
    Rule("REP312", Severity.WARNING, "fetch-before-first-use",
         "a [prefetch] entry declares a dependence whose kernels in that "
         "phase never touch it while a later phase does — the fetch is "
         "scheduled phases early and holds HBM capacity across the gap"),
    Rule("REP313", Severity.ERROR, "phase-footprint-exceeds-hbm",
         "the distinct blocks declared by all [prefetch] entries of one "
         "phase exceed the HBM tier by their static sizes — the phase "
         "cannot run fully resident no matter the eviction order"),
    Rule("REP314", Severity.WARNING, "unreachable-entry",
         "an @entry method's name is never dispatched by any literal "
         "send/broadcast in the module although other entries are — the "
         "method (and any blocks only it declares) is dead code to the "
         "message graph"),
    # -- runtime sanitizer ("simsan") ----------------------------------------
    Rule("SAN201", Severity.ERROR, "refcount-leak",
         "a block still holds a non-zero refcount at quiescence — some "
         "task retained it and never released (pinned forever, so it can "
         "never be evicted)"),
    Rule("SAN202", Severity.ERROR, "use-after-evict",
         "a kernel or retain touched a block whose backing allocation is "
         "gone or which is mid-move — the simulated bytes do not exist "
         "where the task thinks they do"),
    Rule("SAN203", Severity.ERROR, "double-evict",
         "a block whose allocation is already dead was freed or moved "
         "again — the classic double-evict/double-free pair"),
    Rule("SAN204", Severity.ERROR, "capacity-conservation",
         "device byte accounting went out of bounds (used < 0 or "
         "used > capacity), or registry-visible residency exceeds the "
         "allocator's books"),
    Rule("SAN205", Severity.ERROR, "stuck-moving",
         "a block is still in the transient MOVING state at a quiescence "
         "point — a move was abandoned without rollback (the PR 1 bug "
         "class)"),
    Rule("SAN206", Severity.ERROR, "non-quiescent-shutdown",
         "wait queues, run queues or in-flight moves are non-empty at "
         "shutdown — pending waiters will never be served"),
    Rule("SAN207", Severity.ERROR, "refcount-underflow",
         "release() on a block whose refcount is already zero — a task "
         "released dependences it never retained"),
    Rule("SAN208", Severity.ERROR, "event-queue-conservation",
         "the environment's live-event counter disagrees with the entries "
         "actually stored at quiescence — the event core lost or "
         "double-counted a scheduled event"),
    Rule("SAN209", Severity.ERROR, "incremental-bookkeeping-drift",
         "a task's missing-byte counter, a PE's wait-queue missing total, "
         "or the OOC manager's evictable index or byte total disagrees "
         "with a from-scratch recount — a block transition bypassed the "
         "callbacks that keep them current"),
    # -- placement-state model checker (repro.race.model_checker) ------------
    Rule("REP200", Severity.ERROR, "raw-state-assignment",
         "a BlockState is assigned directly to .state outside DataBlock — "
         "placement must go through begin_move()/settle() so the "
         "INDDR→MOVING→INHBM protocol (and its sanitizer hooks) stays "
         "intact"),
    Rule("REP201", Severity.ERROR, "settle-to-moving",
         "settle(..., BlockState.MOVING) — settle() must bind a concrete "
         "placement; the transient MOVING state is entered only via "
         "begin_move()"),
    Rule("REP202", Severity.ERROR, "unguarded-eviction",
         "an eviction call whose victim is not guarded by an "
         "in_use/pinned check on any enclosing path — a block can be "
         "freed out from under a running kernel"),
    Rule("REP203", Severity.ERROR, "unsettled-move-exit",
         "a code path after begin_move() can leave the function without a "
         "settle() — the block would be stuck MOVING forever (the PR 1 "
         "bug class, now caught before runtime)"),
    Rule("REP204", Severity.ERROR, "move-outside-inflight",
         "a strategy calls the mover without begin_inflight() — "
         "concurrent fetchers cannot join the move and will double-move "
         "the block"),
    Rule("REP205", Severity.ERROR, "unchecked-fetch-result",
         "the result of fetch_task_blocks() is discarded — the task may "
         "be made ready with non-resident dependences"),
    # -- happens-before race detector + schedule explorer ("racesan") --------
    Rule("RACE301", Severity.ERROR, "data-race",
         "two conflicting accesses to one block with no happens-before "
         "path between them — a legal schedule exists where they overlap"),
    Rule("RACE302", Severity.ERROR, "writeonly-read",
         "a kernel reads a block its task declared writeonly — the "
         "declared intent the runtime schedules by is false"),
    Rule("RACE303", Severity.ERROR, "schedule-deadlock",
         "a permuted schedule deadlocked or left non-empty wait queues "
         "with no runnable task — progress depends on event-tie ordering"),
]

RULES: dict[str, Rule] = {r.id: r for r in _ALL}
STATIC_RULES: dict[str, Rule] = {r.id: r for r in _ALL if r.id.startswith("REP")}
SANITIZER_RULES: dict[str, Rule] = {r.id: r for r in _ALL if r.id.startswith("SAN")}
RACE_RULES: dict[str, Rule] = {r.id: r for r in _ALL if r.id.startswith("RACE")}


def rule(rule_id: str) -> Rule:
    """Look up a rule; unknown ids are a programming error."""
    return RULES[rule_id]
