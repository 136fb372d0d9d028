"""Execution-driven engine.

Drives one workload coroutine per core at memory-operation granularity.
The scheduler always advances the core with the smallest local clock, which
approximates cycle-level interleaving; every operation charges Table I
latencies computed by the memory system.

Transactions (``Atomic`` ops) are replayed on abort: the transaction's
generator is discarded, the core stalls for randomized backoff, and a fresh
generator is created — mirroring hardware restart exactly, because all
shared-state effects go through speculative stores that rollback undoes.

Dispatch is a type-keyed table (``op.__class__`` -> bound handler) rather
than an isinstance ladder: every yielded op costs one dict lookup. Subclasses
(e.g. ``OrderedAtomic``) resolve through the MRO once and are memoized into
the table. Hot per-core state (the clock array, the active-transaction list,
the cycle breakdown) is bound to locals on the engine at construction so the
per-op path does plain list indexing instead of chained attribute loads.
All of this is pure host-side speed: simulated cycle counts are identical
to the straightforward implementation.

Scheduling runs in *run-ahead quanta*: after popping the minimum-clock core
from the ready heap, the engine keeps stepping that same core in a tight
inner loop until its clock passes the next heap stamp (same ``(stamp,
core)`` lexicographic tie-break the heap would apply), and only then
touches the heap again. One heap transaction per quantum instead of one per
op, and the popped core can never hit the stale-entry requeue path. The
interleaving is *identical* to one-pop-per-op scheduling — see
``_scheduler`` for the invariant argument. ``_scheduler`` is the only
scheduler loop: the interpreted run drives it with an unbounded op budget,
and the vector backend (:mod:`repro.sim.vector`) drives it in bursts
between epoch attempts. The stepped loop (``_run_stepped``, one
``CoreClocks.next_core`` per op) is kept as the reference the
differential tests compare against.

Each memory op type has one handler. It first probes the coherence
protocol's private-hit fast path (``MemorySystem.fast_*``) and takes the
full protocol path on anything else; with the probe off (an Observer is
installed, or the test-only ``_NO_FASTPATH``) the same handlers run the
full path alone, which is the fast path's differential reference.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..coherence.messages import Requester
from ..errors import SimulationError, TransactionError
from ..mem.address import line_of
from ..htm.backoff import backoff_cycles
from ..runtime.ops import (
    MEMORY_OPS,
    Atomic,
    Barrier,
    LabeledLoad,
    LabeledStore,
    Load,
    LoadGather,
    Store,
    Work,
)
from ..runtime.thread_api import ThreadCtx
from .clock import CoreClocks
from .trace import EventKind

#: Sentinel distinguishing "generator finished" from any yielded op (a body
#: yielding ``None`` must still be rejected as an unknown operation).
_FINISHED = object()

#: Test-only switches selecting the references the differential oracles
#: compare against: ``_NO_RUNAHEAD`` makes ``Engine.run`` use the stepped
#: scheduler, ``_NO_FASTPATH`` makes new Engines' memory handlers skip the
#: private-hit probe. Tests monkeypatch them; nothing else sets them.
_NO_RUNAHEAD = False
_NO_FASTPATH = False

#: Op budget that never runs out: ``_scheduler`` drains the ready heap.
_UNBOUNDED = sys.maxsize


def _obs_noop(*args) -> None:
    """Bound in place of the Observer's lifecycle hooks when obs is off."""
    return None


@dataclass(slots=True)
class Frame:
    """One level of a thread's generator stack."""

    gen: object
    atomic: Optional[Atomic] = None
    is_tx_root: bool = False


@dataclass(slots=True)
class ThreadRunner:
    core: int
    ctx: ThreadCtx
    frames: List[Frame] = field(default_factory=list)
    pending_value: object = None
    blocked: bool = False  # waiting at a barrier
    #: ``frames[-1].gen.send``, maintained at every frame push/pop: the
    #: step loops call it once per simulated operation, and the cached
    #: bound method replaces a four-hop attribute chain. None when the
    #: thread has finished (frames empty).
    send: object = None
    #: Op already pulled from the generator but not yet executed (or the
    #: ``_FINISHED`` sentinel, with the StopIteration value in
    #: ``pulled_value``). Only the vector backend's epoch certification
    #: sets these; consuming a pulled op before resuming the generator
    #: preserves the consume-before-resume contract exactly.
    pulled: object = None
    pulled_value: object = None


class Engine:
    """Runs a set of thread bodies to completion on a machine."""

    def __init__(self, machine, bodies: List[Callable]):
        self.machine = machine
        self.config = machine.config
        self.stats = machine.stats
        self.htm = machine.htm
        self.msys = machine.msys
        if len(bodies) > self.config.num_cores:
            raise SimulationError(
                f"{len(bodies)} threads exceed {self.config.num_cores} cores"
            )
        self.clocks = CoreClocks(self.config.num_cores,
                                 jitter=machine.rng.jitter())
        self.runners: List[Optional[ThreadRunner]] = []
        for core in range(self.config.num_cores):
            if core < len(bodies):
                ctx = ThreadCtx(core, machine)
                runner = ThreadRunner(core=core, ctx=ctx)
                gen = bodies[core](ctx)
                runner.frames.append(Frame(gen=gen))
                runner.send = gen.send
                self.runners.append(runner)
            else:
                self.runners.append(None)
                self.clocks.finish(core)
        self._live_threads = len(bodies)
        self._barrier_waiting: List[int] = []

        # Hot-path bindings. ``conflicts.active`` and ``clocks.cycles`` are
        # mutated in place by their owners, so holding the list references
        # is safe; ``tracer.record`` is a bound no-op when tracing is off.
        self._tx_active = self.htm.conflicts.active
        self._cycles = self.clocks.cycles
        self._breakdown = self.stats.breakdown
        self._trace = machine.tracer.record
        self._tracing = machine.tracer.enabled
        self._commtm = self.config.commtm_enabled
        self._eager = self.config.conflict_detection != "lazy"
        self._tx_begin_cycles = self.config.tx_begin_cycles
        self._tx_commit_cycles = self.config.tx_commit_cycles
        # The private-hit probes, also bound for the vector backend's
        # epochs. ``_probe`` is False under an Observer (fast private hits
        # never reach MemorySystem's public ops, where the protocol-level
        # hooks live) and under the test-only ``_NO_FASTPATH``; the full
        # path alone is bit-identical (tests/test_fastpath_equivalence.py),
        # so observing cannot change simulated results.
        self._fast_load = self.msys.fast_load
        self._fast_store = self.msys.fast_store
        self._fast_labeled_load = self.msys.fast_labeled_load
        self._fast_labeled_store = self.msys.fast_labeled_store
        # Transaction-lifecycle hooks for the obs layer: bound no-ops when
        # no Observer is installed (same discipline as tracer.record).
        obs = getattr(machine, "obs", None)
        self._obs = obs
        self._obs_tx_begin = obs.tx_begin if obs is not None else _obs_noop
        self._obs_tx_retry = obs.tx_retry if obs is not None else _obs_noop
        self._obs_tx_commit = obs.tx_commit if obs is not None else _obs_noop
        self._obs_tx_abort = obs.tx_abort if obs is not None else _obs_noop
        self._probe = not _NO_FASTPATH and obs is None
        if self._commtm:
            labeled_load = self._op_labeled_load
            labeled_store = self._op_labeled_store
            gather = self._op_load_gather
        else:
            # The baseline HTM executes labeled operations as
            # conventional loads and stores.
            labeled_load = gather = self._op_load
            labeled_store = self._op_store
        self._handlers = {
            Atomic: self._op_atomic,
            Work: self._op_work,
            Barrier: self._op_barrier,
            Load: self._op_load,
            Store: self._op_store,
            LabeledLoad: labeled_load,
            LabeledStore: labeled_store,
            LoadGather: gather,
        }
        # When sanitizing, checkpoint after every memory op. Private hits
        # never reach MemorySystem's public ops (where the full path's
        # checkpoint lives), so the probing handlers are wrapped; the
        # table is built per Engine, so the unsanitized hot path keeps
        # its direct bindings.
        sanitizer = getattr(machine, "sanitizer", None)
        if sanitizer is not None and self._probe:
            for op_cls in MEMORY_OPS:
                self._handlers[op_cls] = self._sanitized_handler(
                    self._handlers[op_cls], sanitizer.check)

    @staticmethod
    def _sanitized_handler(handler, check):
        """Wrap a memory-op handler with a sanitizer checkpoint."""

        def sanitized(runner, op):
            handler(runner, op)
            check()

        return sanitized

    # ------------------------------------------------------------------

    def run(self) -> None:
        if _NO_RUNAHEAD:
            self._run_stepped()
        else:
            scheduler = self._scheduler()
            next(scheduler)
            scheduler.send(_UNBOUNDED)
            scheduler.close()
        if not self.clocks.all_finished():
            raise SimulationError("no runnable core but simulation not finished")
        self.stats.parallel_cycles = self.clocks.max_cycle

    #: Deferred obs commit emissions, a ``(cycle, core, ...)`` min-heap.
    #: Only the vector backend defers (it gives each instance its own
    #: list); here it stays empty, so ``_scheduler``'s check is one
    #: truthiness test.
    _obs_deferred = ()

    def _fire_deferred_obs(self, t: int, core: int) -> None:
        """Emit every deferred synthesized commit whose strict position
        ``(cycle, core)`` does not follow the event about to execute at
        ``(t, core)``. The tie (same cycle, same core) fires first: a
        commit emission precedes the same core's next operation in
        program order. Cross-core ties resolve by core index, exactly
        the strict scheduler's ``(stamp, core)`` tie-break."""
        deferred = self._obs_deferred
        fire = self._obs.fused_tx_commit
        heappop = heapq.heappop
        while deferred and (deferred[0][0], deferred[0][1]) <= (t, core):
            e = heappop(deferred)
            fire(e[1], e[0], e[2], e[3], e[4], e[5], e[6])

    def _scheduler(self):
        """The run-ahead scheduler, as a generator. Prime it with
        ``next()``; then ``send(budget)`` runs up to ``budget`` simulated
        steps and yields True while work remains, False once the ready
        heap is empty. ``close()`` lands its host counters. The
        interpreted run sends one ``_UNBOUNDED`` budget; the vector
        backend sends short bursts between epoch attempts. A generator
        rather than a method so the hot locals bind once per run, not
        once per burst.

        Run-ahead (leapfrog): pop the minimum core once, then keep
        stepping *that core* in a tight inner loop until its clock passes
        the next heap stamp. One heap transaction per quantum instead of
        one per op, and the running core never takes the stale-entry
        requeue path.

        Why the interleaving is bit-identical to one-pop-per-op: every
        unfinished, unblocked core other than the running one has exactly
        one heap entry at (a lower bound of) its current clock, so the
        one-pop loop would re-pop the running core immediately iff
        ``(cycles[core], core) <= heap[0]`` lexicographically. That is
        precisely the inner loop's continue condition. When ``heap[0]``
        is stale (its core was charged since being queued), the true
        stamp is *larger*, so breaking out is conservative: the outer
        loop re-pops, requeues the stale entry at its true time, and
        hands the quantum straight back. ``heap[0]`` is re-read every
        iteration because a step can push entries (barrier release
        reschedules the waiters). A spent budget parks the running core
        back in the heap, which restores the one-entry invariant.

        Two hooks serve the vector backend and are inert under the
        interpreter: an op an epoch pulled but did not execute
        (``runner.pulled``) is consumed before the generator resumes, and
        dropped when its transaction aborted (replay re-creates it); and
        deferred obs commits fire at their strict position."""
        clocks = self.clocks
        heap = clocks._heap
        done = clocks._done
        cycles = self._cycles
        runners = self.runners
        tx_active = self._tx_active
        handlers = self._handlers
        heappop = heapq.heappop
        heappush = heapq.heappush
        # push + pop-min in one sift: the quantum hand-off and the
        # stale-entry requeue both replace a heappush/heappop pair.
        heappushpop = heapq.heappushpop
        finished = _FINISHED
        deferred = self._obs_deferred
        batches = 0
        ops = 0

        try:
            limit = yield None
            while True:
                if not heap:
                    limit = ops + (yield False)
                    continue
                stamp, core = heappop(heap)
                while True:
                    if done[core]:
                        if not heap:
                            break  # outer loop reports the drain
                        stamp, core = heappop(heap)
                        continue
                    c = cycles[core]
                    if stamp < c:
                        # Stale entry (core was charged since being
                        # queued); requeue at its true time to preserve
                        # min-clock order.
                        if heap:
                            stamp, core = heappushpop(heap, (c, core))
                        else:
                            stamp = c
                        continue

                    runner = runners[core]
                    batches += 1
                    while True:
                        ops += 1
                        if deferred and (deferred[0][0], deferred[0][1]) \
                                <= (cycles[core], core):
                            self._fire_deferred_obs(cycles[core], core)
                        tx = tx_active[core]
                        if tx is not None and tx.aborted:
                            runner.pulled = None
                            runner.pulled_value = None
                            self._restart_tx(runner, tx)
                        else:
                            op = runner.pulled
                            if op is None:
                                value = runner.pending_value
                                runner.pending_value = None
                                try:
                                    op = runner.send(value)
                                except StopIteration as stop:
                                    self._finish_frame(runner, stop.value)
                                    op = finished
                            else:
                                runner.pulled = None
                                if op is finished:
                                    value = runner.pulled_value
                                    runner.pulled_value = None
                                    self._finish_frame(runner, value)
                            if op is not finished:
                                try:
                                    handler = handlers[op.__class__]
                                except KeyError:
                                    handler = self._resolve_handler(op)
                                handler(runner, op)

                        if runner.blocked or done[core]:
                            break
                        if ops >= limit:
                            heappush(heap, (cycles[core], core))
                            limit = ops + (yield True)
                            runner = None  # fresh pop on resume
                            break
                        c = cycles[core]
                        if heap:
                            top = heap[0]
                            if c > top[0] or (c == top[0] and core > top[1]):
                                # Another core's turn (or a stale entry to
                                # clean up): hand off, taking the new
                                # minimum in the same heap transaction.
                                stamp, core = heappushpop(heap, (c, core))
                                break

                    if runner is None:
                        break
                    if runner.blocked or done[runner.core]:
                        # The core we were stepping left the ready set
                        # (barrier or finished) without handing off; pull
                        # the next one. (After a hand-off, ``core`` is
                        # already the freshly popped entry and the loop
                        # top vets it.)
                        if not heap:
                            break
                        stamp, core = heappop(heap)
        finally:
            self.stats.host_runahead_batches += batches
            self.stats.host_runahead_ops += ops

    def _run_stepped(self) -> None:
        # Reference scheduler (test-only, ``_NO_RUNAHEAD``): one
        # CoreClocks transaction — next_core() / step / reschedule() — per
        # simulated operation. The differential tests hold this loop and
        # ``_scheduler`` to identical interleavings, cycle counts and stats.
        clocks = self.clocks
        runners = self.runners
        while True:
            core = clocks.next_core()
            if core is None:
                return
            runner = runners[core]
            self._step_core(runner)
            if not runner.blocked and not clocks.is_finished(core):
                clocks.reschedule(core)

    def _step_core(self, runner: ThreadRunner) -> None:
        """Advance one core by one simulated operation (or one abort
        restart) for the stepped loop; ``_scheduler`` inlines the same
        logic."""
        tx = self._tx_active[runner.core]
        if tx is not None and tx.aborted:
            self._restart_tx(runner, tx)
            return
        value = runner.pending_value
        runner.pending_value = None
        try:
            op = runner.send(value)
        except StopIteration as stop:
            self._finish_frame(runner, stop.value)
            return
        handler = self._handlers.get(op.__class__)
        if handler is None:
            handler = self._resolve_handler(op)
        handler(runner, op)

    # ------------------------------------------------------------------

    def _resolve_handler(self, op):
        """Memoize a subclassed op (e.g. OrderedAtomic) into the table."""
        for base in type(op).__mro__:
            handler = self._handlers.get(base)
            if handler is not None:
                self._handlers[op.__class__] = handler
                return handler
        raise SimulationError(f"unknown operation {op!r}")

    # ------------------------------------------------------------------

    def _op_atomic(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        if self._tx_active[core] is None:
            tx = self.htm.begin(core, ts=op.ts)  # OrderedAtomic: order == priority
            if self._tracing:
                self._trace(self._cycles[core], core, EventKind.TX_BEGIN)
            if self._obs is not None:
                self._obs_tx_begin(core, self._cycles[core], tx)
            # Inline _charge: a freshly begun transaction cannot be aborted.
            cycles = self._tx_begin_cycles
            self._breakdown[core].tx_committed += cycles
            tx.cycles_this_attempt += cycles
            self._cycles[core] += cycles
            # Inline op.make_generator (hot: once per transaction).
            gen = op.fn(runner.ctx, *op.args)
            runner.frames.append(Frame(gen, op, True))
        else:
            # Closed nesting by subsumption.
            gen = op.fn(runner.ctx, *op.args)
            runner.frames.append(Frame(gen, op))
        runner.send = gen.send

    def _op_work(self, runner: ThreadRunner, op) -> None:
        cycles = op.cycles
        if cycles < 0:
            raise SimulationError(f"negative Work: {cycles}")
        # Inline _charge: Work is one of the hottest ops (every think step).
        stats = self.stats
        stats.instructions += cycles
        core = runner.core
        tx = self._tx_active[core]
        entry = self._breakdown[core]
        if tx is None:
            entry.non_tx += cycles
        elif tx.aborted:
            entry.tx_aborted += cycles
            stats.wasted_by_cause[tx.abort_cause] += cycles
        else:
            entry.tx_committed += cycles
            tx.cycles_this_attempt += cycles
        self._cycles[core] += cycles

    def _op_barrier(self, runner: ThreadRunner, op) -> None:
        self._barrier_arrive(runner)

    # ------------------------------------------------------------------

    def _barrier_arrive(self, runner: ThreadRunner) -> None:
        core = runner.core
        if self._tx_active[core] is not None:
            raise TransactionError(
                f"Barrier inside a transaction on core {core}"
            )
        runner.blocked = True
        self._trace(self._cycles[core], core, EventKind.BARRIER)
        self._barrier_waiting.append(core)
        self._maybe_release_barrier(skip_reschedule=core)

    def _maybe_release_barrier(self, skip_reschedule: Optional[int] = None) -> None:
        if not self._barrier_waiting:
            return
        if len(self._barrier_waiting) < self._live_threads:
            return
        release_at = max(self._cycles[c] for c in self._barrier_waiting)
        waiting, self._barrier_waiting = self._barrier_waiting, []
        for core in waiting:
            stall = release_at - self._cycles[core]
            if stall > 0:
                # Barrier wait is non-transactional stall time.
                self.stats.charge(core, stall, in_tx=False)
                self.clocks.advance(core, stall)
            self.runners[core].blocked = False
            self.runners[core].pending_value = None
            if core != skip_reschedule:
                self.clocks.reschedule(core)

    # ------------------------------------------------------------------
    # Memory operations. One handler per op type (type-keyed dispatch).
    # Each first probes the protocol's private-hit fast path (see
    # MemorySystem.fast_load and friends) when ``_probe`` is set: a stable
    # hit comes back as a bare value/cycles pair, with no Requester, no
    # AccessResult and no occupancy bookkeeping, and is charged here. A
    # hit can still abort this core's own transaction through the L1
    # spec-eviction hook inside the LRU touch, so an aborted hit delivers
    # no value. Anything else takes the full protocol path and the shared
    # _after_memory_op postlude. The baseline HTM (commtm_enabled=False)
    # binds the labeled op types to _op_load/_op_store, and a restarted
    # transaction with labels disabled delegates to the same two.

    def _op_load(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        tx = self._tx_active[core]
        stats = self.stats
        stats.instructions += 1
        if self._probe:
            fast = self._fast_load(core, op.addr, tx is not None)
            if fast is not None:
                self._charge(core, fast[1])
                if tx is None or not tx.aborted:
                    runner.pending_value = fast[0]
                return
            stats.host_fastpath_misses += 1
        res = self.msys.load(
            core, op.addr,
            Requester(core, tx.ts if tx is not None else None,
                      now=self._cycles[core]))
        self._after_memory_op(runner, core, res)

    def _op_store(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        tx = self._tx_active[core]
        stats = self.stats
        stats.instructions += 1
        # Lazy transactional stores buffer, so only the full path applies.
        if self._probe and (tx is None or self._eager):
            cycles = self._fast_store(core, op.addr, op.value, tx is not None)
            if cycles is not None:
                self._charge(core, cycles)
                return
            stats.host_fastpath_misses += 1
        requester = Requester(core, tx.ts if tx is not None else None,
                              now=self._cycles[core])
        res = self._conventional_store(core, op.addr, op.value, requester, tx)
        self._after_memory_op(runner, core, res)

    def _op_labeled_load(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        tx = self._tx_active[core]
        if tx is not None and tx.labels_disabled:
            self._op_load(runner, op)
            return
        stats = self.stats
        stats.instructions += 1
        stats.labeled_instructions += 1
        stats.labeled_by_label[op.label.name] += 1
        if self._probe:
            fast = self._fast_labeled_load(core, op.addr, op.label,
                                           tx is not None)
            if fast is not None:
                self._charge(core, fast[1])
                if tx is None or not tx.aborted:
                    runner.pending_value = fast[0]
                return
            stats.host_fastpath_misses += 1
        requester = Requester(core, tx.ts if tx is not None else None,
                              now=self._cycles[core])
        res = self.msys.labeled_load(core, op.addr, op.label, requester)
        self._after_memory_op(runner, core, res)

    def _op_labeled_store(self, runner: ThreadRunner, op) -> None:
        core = runner.core
        tx = self._tx_active[core]
        if tx is not None and tx.labels_disabled:
            self._op_store(runner, op)
            return
        stats = self.stats
        stats.instructions += 1
        stats.labeled_instructions += 1
        stats.labeled_by_label[op.label.name] += 1
        if self._probe:
            cycles = self._fast_labeled_store(core, op.addr, op.label,
                                              op.value, tx is not None)
            if cycles is not None:
                self._charge(core, cycles)
                return
            stats.host_fastpath_misses += 1
        requester = Requester(core, tx.ts if tx is not None else None,
                              now=self._cycles[core])
        res = self.msys.labeled_store(core, op.addr, op.label, op.value,
                                      requester)
        self._after_memory_op(runner, core, res)

    def _op_load_gather(self, runner: ThreadRunner, op) -> None:
        # A gather always transacts with the directory: nothing to probe.
        core = runner.core
        tx = self._tx_active[core]
        if tx is not None and tx.labels_disabled:
            self._op_load(runner, op)
            return
        stats = self.stats
        stats.instructions += 1
        stats.labeled_instructions += 1
        stats.labeled_by_label[op.label.name] += 1
        requester = Requester(core, tx.ts if tx is not None else None,
                              now=self._cycles[core])
        res = self.msys.load_gather(core, op.addr, op.label, requester)
        self._after_memory_op(runner, core, res)

    def _after_memory_op(self, runner: ThreadRunner, core: int, res) -> None:
        self._charge(core, res.cycles)
        tx = self._tx_active[core]
        if res.abort_requester:
            if tx is None:
                raise SimulationError(
                    "non-transactional request was asked to abort"
                )
            if not tx.aborted:
                self.htm.conflicts.abort(core, res.abort_cause)
            return  # restart handled on the next step
        if tx is not None and tx.aborted:
            return  # aborted as a victim mid-operation (self-abort path)
        runner.pending_value = res.value

    def _conventional_store(self, core: int, addr: int, value, requester,
                            tx):
        """Route a conventional store per the conflict-detection scheme:
        eager acquires ownership immediately; lazy buffers and records the
        line for commit-time publication."""
        if tx is not None and self.config.conflict_detection == "lazy":
            res = self.msys.lazy_store(core, addr, value, requester)
            if not res.abort_requester:
                if tx.lazy_written is None:
                    tx.lazy_written = set()
                tx.lazy_written.add(line_of(addr))
            return res
        return self.msys.store(core, addr, value, requester)

    # ------------------------------------------------------------------

    def _finish_frame(self, runner: ThreadRunner, value) -> None:
        core = runner.core
        frames = runner.frames
        frame = frames.pop()
        runner.send = frames[-1].gen.send if frames else None
        if frame.is_tx_root:
            tx = self._tx_active[core]
            if tx is None:
                raise TransactionError(
                    f"transaction frame on core {core} without a tx"
                )
            if tx.aborted:
                # Aborted between its last operation and commit.
                frames.append(frame)
                self._restart_tx(runner, tx)
                return
            if tx.lazy_written:
                # Lazy conflict detection: publish the write set, aborting
                # conflicting transactions (commits always win).
                requester = Requester(core, tx.ts, now=self._cycles[core])
                for line_no in sorted(tx.lazy_written):
                    pres = self.msys.publish_line(core, line_no, requester)
                    self._charge(core, pres.cycles)
                if tx.aborted:
                    # A publication cannot abort the committer; guard.
                    raise TransactionError("committer aborted mid-publish")
            # Commit clears the speculative sets instantly at the protocol
            # level; the commit latency is charged afterwards so it does not
            # extend the conflict window (mirrors hardware, where the
            # post-commit pipeline drain is not speculative).
            # The obs hook must precede commit: it reads the speculative
            # set sizes that commit_all() is about to clear.
            if self._obs is not None:
                self._obs_tx_commit(core, self._cycles[core], tx)
            self.htm.commit(core)
            if self._tracing:
                self._trace(self._cycles[core], core, EventKind.TX_COMMIT)
            # Inline stats.charge(in_tx=True) + clocks.advance: the commit
            # latency lands in the committed bucket after the tx detaches.
            cycles = self._tx_commit_cycles
            self._breakdown[core].tx_committed += cycles
            self._cycles[core] += cycles
        if not runner.frames:
            self.clocks.finish(core)
            self._live_threads -= 1
            # A finished thread no longer participates in barriers.
            self._maybe_release_barrier()
            return
        runner.pending_value = value

    def _restart_tx(self, runner: ThreadRunner, tx) -> None:
        core = runner.core
        self.htm.finish_abort(core)
        while runner.frames and not runner.frames[-1].is_tx_root:
            runner.frames.pop()
        if not runner.frames:
            raise TransactionError(
                f"aborted tx on core {core} has no transaction frame"
            )
        tx_frame = runner.frames.pop()
        atomic = tx_frame.atomic
        if self._tracing:
            self._trace(self._cycles[core], core, EventKind.TX_ABORT,
                        detail=str(tx.abort_cause))

        if tx.attempts >= self.config.max_restarts:
            raise SimulationError(
                f"transaction on core {core} aborted {tx.attempts} times; "
                f"livelock guard tripped"
            )

        stall = backoff_cycles(self.machine.rng.backoff(), tx.attempts,
                               self.config.backoff_base,
                               self.config.backoff_max)
        self._obs_tx_abort(core, self._cycles[core], tx, stall)
        # Backoff stall is abort-induced: account it as wasted.
        self._breakdown[core].tx_aborted += stall
        self.stats.wasted_by_cause[tx.abort_cause] += stall
        self.clocks.advance(core, stall)

        self.htm.begin_retry(core, tx)
        self._obs_tx_retry(core, self._cycles[core], tx)
        self._charge(core, self.config.tx_begin_cycles)
        gen = atomic.make_generator(runner.ctx)
        runner.frames.append(Frame(gen=gen, atomic=atomic, is_tx_root=True))
        runner.send = gen.send
        runner.pending_value = None

    # ------------------------------------------------------------------

    def _charge(self, core: int, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError(f"negative cycle charge: {cycles}")
        tx = self._tx_active[core]
        entry = self._breakdown[core]
        if tx is None:
            entry.non_tx += cycles
        elif tx.aborted:
            # The op that doomed the tx: its cycles are wasted directly.
            entry.tx_aborted += cycles
            self.stats.wasted_by_cause[tx.abort_cause] += cycles
        else:
            entry.tx_committed += cycles
            tx.cycles_this_attempt += cycles
        self._cycles[core] += cycles
