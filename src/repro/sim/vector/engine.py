"""VectorEngine: epoch-batched execution with per-op interpreted fallback.

The interpreted engine advances one core by one operation per scheduler
step, paying the full dispatch/handler/heap machinery each time even when
the operation is a guaranteed private-cache hit. This engine alternates
between two phases:

**Fence-bounded epochs** (:meth:`VectorEngine._run_epoch`). Every live,
unblocked core's pulled operation is classified: *local* operations —
think time, a private-hit load/store, a labeled update on this core's own
M/E/U line, a whole transaction fusible through :mod:`.kernels` — enter a
private min-start heap; everything else (an uncertifiable miss, the begin
of a transaction that does not fuse, a transaction commit or restart, a
barrier, thread completion) becomes a *fence* at its start time and runs
in the strict phase through the engine's own handlers. The epoch then
pops the heap and executes every local operation starting strictly
before the earliest fence; after each execution the core pulls and
classifies its next operation, re-entering the heap (so one core chains
through a whole local region) or lowering the fence. Statistics land in
per-core columns (:class:`~repro.sim.vector.columns.EpochColumns`) that
numpy reduces into the ordinary ``Stats`` fields when the run completes.

*Why the interleaving is bit-identical to strict min-clock order*: local
operations touch only their own core's private cache (plus additive
global counters), so local operations commute with each other — only
their multiset matters, and that is exactly the set the strict scheduler
would execute before reaching the earliest fenced event. A fence
discovered mid-epoch sits at ``t + d`` of an operation just executed
with duration ``d >= 1`` — strictly after every operation executed so
far (heap pops are monotone in start time) — so it never invalidates
completed work; a tie between a local operation and a fence is never
executed (strict ``t < fence``), because the strict scheduler's
``(stamp, core)`` tie-break could order the fenced event first.
Durations are exact by construction: a classified operation's latency
depends only on this core's cache state, which no other core can change
during an epoch. Zero-duration operations (``Work(0)``) are never
classified local — their ``t + d`` would not move past a tie — and fall
to the strict phase instead.

**Certified protocol accesses** (:meth:`VectorEngine._certify_proto`).
Three event classes that used to fence every epoch now execute inside
it: deterministic misses and S-upgrades (closed-form latency predicted
from the precomputed NoC/directory tables and validated against the
real handler's charge), word-wise reductions (batched through the numpy
kernel in :mod:`.kernels` when exact), and gathers. A certified access
runs the *real* ``MemorySystem`` handler at its heap-pop time — the
strict scheduler's execution point — so it is bit-identical by
construction; certification merely proves the transition cannot abort,
NACK, or nondeterministically evict. Because these accesses mutate
shared state, every later fused/fast/proto pop re-validates its
precomputed snapshot and fences on disagreement.

**Adaptive backend gate + fenced replay** (:meth:`VectorEngine._run_vector`).
Workloads that never engage epochs (e.g. conventional-HTM baselines
whose every access conflicts) pay the classification attempts as pure
host overhead: at two checkpoint attempt counts, if the share of
simulated cycles executed inside epochs is below that checkpoint's bar,
the run rebinds to one uninterrupted strict (run-ahead) pass.
Symmetrically, when several cores fence in one attempt (a barrier wave,
a burst of uncertifiable misses), the strict phase gets at least one op
per fenced event so the whole wave replays as one sorted batch. Every
fence increments a cause histogram (``Stats.host_vector_fence_causes``).

**Strict phases** run the interpreted engine's one scheduler
(:meth:`Engine._scheduler <repro.sim.engine.Engine._scheduler>`) — same
heap, same ``(stamp, core)`` tie-break, same stale-entry requeue — in
bursts: each ``send(budget)`` runs up to ``budget`` operations, consuming
first the operations an epoch certification pulled but did not execute.
The budget starts small and doubles every time an epoch attempt fails,
so irregular regions (conflicts, barriers, reductions) degrade gracefully
toward plain run-ahead execution instead of thrashing on failed
certifications. When the adaptive gate gives up on epochs, the same
scheduler drains the rest of the run with an unbounded budget.

Epochs batch per-op work, so anything that must see every operation —
the coherence sanitizer, the Perfetto tracer, lazy conflict detection —
forces the whole run down the interpreted engine, with a logged notice
(never a silently unchecked epoch).

**Observability** (``REPRO_OBS``) is the exception: the obs layer *is*
vector-native. Strict phases reuse the interpreted hooks verbatim (obs
disables the interpreted fast path, so every strict access passes the
full handlers); certified K_PROTO / K_FMISS accesses run the real
handlers with ``Requester.now`` set, so touch/NACK/reduction/gather
metrics fire naturally; epoch fast hits and fused transactions
*synthesize* the emissions the interpreted run would have made — one
touch per access, a begin span at the strict begin cycle, and a commit
record **deferred** to its closed-form commit cycle (commit emissions
sample machine-wide counters, so they must fire at their exact strict
``(cycle, core)`` position, after every earlier event's mutations; see
:meth:`VectorEngine._fire_deferred_obs`). The engine additionally feeds
a dedicated vector lane (epoch spans, certifier mispredicts, gate
rebinds, drain regions) and the host self-profiler
(:mod:`repro.obs.hostprof`) — both outside the per-core payload the
parity oracle compares. ``tests/test_vector_obs_parity.py`` proves the
resulting obs payload identical to the interpreted run's.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from ...coherence.messages import AccessKind, Requester
from ...coherence.states import State
from ...errors import SimulationError
from ...params import LINE_BYTES
from ...runtime.ops import (
    Atomic,
    Barrier,
    Load,
    LabeledLoad,
    LabeledStore,
    LoadGather,
    Store,
    Work,
)
from ..engine import _FINISHED, _UNBOUNDED, Engine, Frame
from . import certify, log
from .columns import EpochColumns
from .kernels import lower_atomic, reduce_lines

_M = State.M
_E = State.E
_S = State.S
_U = State.U
_I = State.I

# Operation kinds a classified record can carry. Conventional routes of
# LabeledLoad/LabeledStore/LoadGather (baseline HTM, labels disabled) also
# classify as K_LOAD/K_STORE — no labeled counts, mirroring the engine.
# K_PROTO carries a certified *full-protocol* access — a miss, an
# S-upgrade, a reduction, a gather — whose outcome
# :meth:`VectorEngine._certify_proto` proved deterministic from the
# current directory/sharer snapshot: executed at heap-pop time (= the
# strict scheduler's execution point) through the real ``MemorySystem``
# handlers, so it is bit-identical by construction.
K_WORK = 0
K_FUSED = 1
K_LOAD = 2
K_STORE = 3
K_LLOAD = 4
K_LSTORE = 5
K_PROTO = 8
#: K_PROTO sub-kind for labeled gathers (record ``data`` field only; a
#: record's ``kind`` is never K_GATHER).
K_GATHER = 9

#: Engine op-kind -> protocol AccessKind, for the extracted certifier.
_CERTIFY_KINDS = {
    K_LOAD: AccessKind.LOAD,
    K_STORE: AccessKind.STORE,
    K_LLOAD: AccessKind.LABELED_LOAD,
    K_LSTORE: AccessKind.LABELED_STORE,
    K_GATHER: AccessKind.GATHER,
}
#: First-touch fused transaction, phase 1: the real ``htm.begin`` (the
#: timestamp draw happens in heap-pop = strict order). The body is
#: scheduled as its own record at ``t + tx_begin_cycles`` because between
#: begin and first access the transaction has no footprint — other cores'
#: records must interleave exactly as the strict schedule would.
K_FMISS_BEGIN = 12
#: First-touch fused transaction, phase 2: one certified GETU install
#: through the real protocol handlers, the remaining labeled hits closed
#: form (they all L1-hit the just-installed line), and the real commit.
#: Re-certified at its own pop; on decline it falls back to the
#: interpreted transaction by materializing the frame the strict begin
#: would have created.
K_FMISS_BODY = 13

# Strict-phase op budget between epoch attempts: doubles while epoch
# attempts keep yielding nothing (irregular region), shrinks back toward
# the minimum when epochs are productive. Small minimum on purpose: an
# epoch usually ends at one fenced event (a single miss or barrier
# arrival), so a large strict quantum would overshoot it and interpret
# work the next epoch could have batched.
_MIN_BURST = 8
_MAX_BURST = 4096

# Adaptive backend gate (mirrors the interpreted engine's fast-path
# warmup): at each checkpoint attempt count, if the share of simulated
# cycles executed inside epochs is below that checkpoint's bar, the run
# rebinds to a single uninterrupted strict (run-ahead) pass — epoch
# attempts are pure host-side overhead on workloads that never engage
# them. The early checkpoint exits the warmup itself: each attempt costs
# a full scan of every runner, and the cumulative epoch-cycle share only
# *falls* on a fence-bound workload (every contended phase repeats), so a
# share already well below full engagement after a handful of attempts is
# decisive — measured trajectories separate cleanly (a fence-bound
# counter run sits near 0.6 by attempt four and keeps falling, an
# epoch-friendly kmeans run stays above 0.95). Its bar is deliberately
# *higher*: past the warmup the accumulated evidence justifies a lower
# one.
_GATE_CHECKPOINTS = {4: 0.65, 32: 0.5}


class VectorEngine(Engine):
    """Engine backend ``"vector"``: wavefront epochs + strict fallback."""

    def __init__(self, machine, bodies):
        super().__init__(machine, bodies)
        msys = self.msys
        self._caches = msys.caches
        self._l1_lat = msys._l1_latency
        self._l12_lat = msys._l12_latency
        self._fused_base = self._tx_begin_cycles + self._tx_commit_cycles
        self._cols = EpochColumns(self.config.num_cores)
        #: Per-epoch memo of validated fused targets:
        #: (core, line, label, idx0, n) -> CacheLine.
        self._fused_ok: dict = {}
        #: Why the most recent _classify call declined (fence-cause
        #: histogram; see Stats.host_vector_fence_causes).
        self._decline = "unclassified"
        # Batched reduction seam: word-wise reductions and gather merges
        # collect the sharer lines and fold them in one numpy pass
        # (bit-identical words and charge; see kernels.reduce_lines).
        msys.reduction_kernel = self._reduction_kernel
        #: Synthesized commit emissions awaiting their strict positions:
        #: a heapq of ``(cycle, core, committed_cycles, reads, writes,
        #: labeled, attempt)``. Commit emissions sample machine-wide
        #: counters, so a fused transaction's commit — executed eagerly
        #: at its heap pop — may only *emit* once every record ordered
        #: before ``(cycle, core)`` has run. Always empty when no
        #: Observer is installed, so the hot loops' guard is one local
        #: truthiness test.
        self._obs_deferred: List[tuple] = []
        #: Host-side phase accountant (None ~ obs off: the hot loops
        #: never look it up per op, only per phase boundary).
        self._prof = self._obs.hostprof if self._obs is not None else None

    def _reduction_kernel(self, label, rows):
        prof = self._prof
        if prof is None:
            out = reduce_lines(label, rows)
        else:
            t0 = prof.start()
            out = reduce_lines(label, rows)
            prof.stop("kernel", t0)
        if out is not None:
            self.stats.host_vector_kernel_reductions += 1
        return out

    # ------------------------------------------------------------------

    def _epochs_disabled_reason(self) -> Optional[str]:
        machine = self.machine
        if getattr(machine, "sanitizer", None) is not None:
            return "coherence sanitizer installed (REPRO_SANITIZE)"
        if self._tracing:
            return "tracing enabled"
        if not self._eager:
            return "lazy conflict detection"
        return None

    def run(self) -> None:
        reason = self._epochs_disabled_reason()
        if reason is not None:
            # Epochs batch per-op work; per-op layers (sanitizer, tracer)
            # must see every operation, so the whole run goes through the
            # interpreted engine rather than producing unchecked epochs.
            # The obs layer is the exception: its emissions are
            # synthesized (and where order-sensitive, deferred) at their
            # exact strict positions, so epochs stay on.
            log.info("vector backend: %s; running per-op via the "
                     "interpreted engine", reason)
            super().run()
            return
        self._run_vector()
        if not self.clocks.all_finished():
            raise SimulationError("no runnable core but simulation not finished")
        self.stats.parallel_cycles = self.clocks.max_cycle

    def _gated_drain(self, strict, attempts: int, epoch_cycles: int) -> None:
        """The gate's rebind: mark it on the vector lane (when observing)
        and drain the rest of the run through the scheduler ``strict``
        with an unbounded budget, accounted as the ``drain`` host
        phase."""
        obs = self._obs
        prof = self._prof
        if obs is not None:
            total = sum(self._cycles)
            obs.vector_gate_rebind(self.clocks.max_cycle, attempts,
                                   epoch_cycles / total if total else 0.0)
            heap = self.clocks._heap
            t0 = heap[0][0] if heap else self.clocks.max_cycle
        if prof is None:
            strict.send(_UNBOUNDED)
        else:
            p0 = prof.start()
            strict.send(_UNBOUNDED)
            prof.stop("drain", p0)
        if obs is not None:
            obs.vector_drain(t0, self.clocks.max_cycle)

    def _run_vector(self) -> None:
        burst = _MIN_BURST
        attempts = 0
        epoch_cycles = 0
        prof = self._prof
        strict = self._scheduler()
        next(strict)  # prime: bind the hot locals, park at the first yield
        try:
            while True:
                if prof is None:
                    n, ecyc, fences = self._run_epoch()
                else:
                    p0 = prof.start()
                    n, ecyc, fences = self._run_epoch()
                    prof.stop("epoch", p0)
                epoch_cycles += ecyc
                attempts += 1
                # Host-only decision: strict phases run the interpreted
                # engine's scheduler, so simulated results are
                # bit-identical either way.
                bar = _GATE_CHECKPOINTS.get(attempts)
                if bar is not None and epoch_cycles < sum(self._cycles) * bar:
                    self.stats.host_vector_gated = True
                    log.info("vector backend: epoch engagement below "
                             "%.0f%% after %d attempts; rebinding to the "
                             "run-ahead loop", bar * 100, attempts)
                    self._gated_drain(strict, attempts, epoch_cycles)
                    break
                if n == 0:
                    burst = min(burst * 2, _MAX_BURST)
                elif n >= burst:
                    burst = _MIN_BURST
                else:
                    burst = max(_MIN_BURST, burst // 2)
                # Epoch-parallel fenced replay: when several cores fenced
                # in this attempt (e.g. a barrier arrival wave, or misses
                # on lines the certifier declined), give the strict phase
                # at least one op per fenced event so the whole wave
                # replays as one sorted batch instead of one epoch
                # attempt per event.
                if prof is None:
                    more = strict.send(max(burst, fences))
                else:
                    p0 = prof.start()
                    more = strict.send(max(burst, fences))
                    prof.stop("strict", p0)
                if not more:
                    break
        finally:
            strict.close()  # run its ``finally`` so host counters land
            if self._obs_deferred:
                # Commits whose strict emission position lies past the
                # last executed event (the run's tail): nothing can
                # precede them anymore, so flush in heap order.
                self._fire_deferred_obs(self.clocks.max_cycle + 1, -1)
            # One deferred flush: nothing reads the columns' Stats fields
            # mid-run, so per-epoch flushes would only add numpy overhead
            # to short epochs.
            if prof is None:
                self._cols.flush(self.stats)
            else:
                p0 = prof.start()
                self._cols.flush(self.stats)
                prof.stop("stats_reduce", p0)

    # ------------------------------------------------------------------
    # Epoch phase
    # ------------------------------------------------------------------

    def _run_epoch(self):
        """Attempt one epoch; returns ``(ops, cycles, fences)`` — the
        number of operations executed (0 when nothing classified local),
        the simulated cycles they covered, and the number of fence events
        observed. Operations pulled but not executed stay in
        ``runner.pulled`` for the strict phase.

        Cores whose next event is *not* local — a miss, a transaction
        begin, commit or restart, a barrier, thread completion — do not
        park the whole epoch: they become *fences* at their event's start
        time. The epoch executes, in min-start order off a private heap,
        every local operation starting strictly before the earliest fence —
        exactly the set the strict scheduler would run before reaching
        the fenced event. A core whose operation executes immediately
        pulls and classifies its next one, so a core chains through
        whole local regions in one epoch. A fence discovered mid-epoch
        is always at ``t + d`` of an op just executed, hence *strictly
        after* every op executed so far (durations are >= 1), so it
        never invalidates anything already done; ties between a local
        op and a fence never execute (strict ``t < fence``), because
        the strict scheduler could order the fenced event first."""
        done = self.clocks._done
        cycles = self._cycles
        finished = _FINISHED
        classify = self._classify
        self._fused_ok.clear()
        obs = self._obs
        deferred = self._obs_deferred
        if obs is None:
            fc = self._cols.fence_causes
        else:
            # Fresh per-epoch histogram so the epoch's trace span can be
            # annotated with *its own* fence causes; merged into the
            # run-wide dict at the end of the attempt.
            fc = {}
        #: Epoch trace span bounds (observing only): first executed pop
        #: time, max clock reached by an executed record.
        ep_t0 = -1
        ep_end = 0
        fences = 0

        heap: List[list] = []  # [start, core, rec] — min-start order
        fence = None  # earliest start among held non-local events
        admit = self._admit
        for runner in self.runners:
            if runner is None:
                continue
            core = runner.core
            if done[core] or runner.blocked:
                continue
            ft = admit(runner, heap, fc)
            if ft is not None:
                fences += 1
                if fence is None or ft < fence:
                    fence = ft
        if not heap:
            return 0, 0, fences

        cols = self._cols
        instr_col = cols.instructions
        labeled_col = cols.labeled
        non_tx_col = cols.non_tx_cycles
        tx_col = cols.tx_cycles
        commits_col = cols.commits
        by_label = cols.by_label
        breakdown = self._breakdown
        htm = self.htm
        msys = self.msys
        certify = self._certify_proto
        fast_load = self._fast_load
        fast_store = self._fast_store
        fast_lload = self._fast_labeled_load
        fast_lstore = self._fast_labeled_store

        epoch_ops = 0
        epoch_cycles = 0
        fused_txs = 0
        #: Set once a K_PROTO op executed: full-protocol accesses mutate
        #: shared state (directory, foreign caches, own L2/L1 via install),
        #: so later pops must re-validate what classification precomputed.
        proto_mutated = False
        heappop = heapq.heappop
        heappush = heapq.heappush

        #: A record provably <= everything in the heap: a core chaining
        #: through a local region stays the global minimum most of the
        #: time, and skipping the heappush/heappop pair for those pops
        #: is the single largest host saving in this loop.
        pending = None
        while True:
            if pending is not None:
                item = pending
                pending = None
            elif heap:
                item = heappop(heap)
            else:
                break
            t = item[0]
            if fence is not None and t >= fence:
                # The minimum held start reached the fence: everything
                # still on the heap starts at or past it too. Hold the
                # lot (ops stay in runner.pulled) and let the strict
                # phase run the fenced event first. Back into the heap
                # so the post-loop sweep sees this record too.
                heappush(heap, item)
                break
            if obs is not None:
                if ep_t0 < 0:
                    ep_t0 = t
                if deferred and (deferred[0][0],
                                 deferred[0][1]) <= (t, item[1]):
                    # A synthesized commit's strict position precedes
                    # this record: emit it first (counter samples read
                    # machine-wide state, which is now exactly what the
                    # interpreted run would have seen at that point).
                    self._fire_deferred_obs(t, item[1])
            rec = item[2]
            runner, core, dur, kind, op, data, tx = rec

            # --- execute the held op ------------------------------------
            if kind == K_WORK:
                instr_col[core] += dur
                if tx is None:
                    non_tx_col[core] += dur
                else:
                    breakdown[core].tx_committed += dur
                    tx.cycles_this_attempt += dur
            elif kind == K_FUSED:
                entry, idx0, deltas, label, ret = data
                cache = self._caches[core]
                if proto_mutated:
                    # An earlier protocol access may have invalidated,
                    # downgraded, or L1-evicted the pre-validated target
                    # (our own install evicts LRU L1 slots too, voiding
                    # the all-L1-hits charge). Re-validate or hold.
                    st = entry.state
                    if (cache.peek_line(entry.line) is not entry
                            or entry.line not in cache._l1
                            or not (st is _M or st is _E
                                    or (st is _U and entry.label is label))
                            or entry.clean_words is not None
                            or entry.spec_read or entry.spec_written
                            or entry.spec_labeled):
                        fc["fused_revoked"] = fc.get("fused_revoked", 0) + 1
                        fences += 1
                        if fence is None or t < fence:
                            fence = t
                        break
                if obs is not None:
                    # Synthesize what the interpreted run would emit: the
                    # begin span at the strict begin cycle t (the ts this
                    # record "draws" is the pre-bump _next_ts), one touch
                    # per labeled access (aggregate metrics, order-free),
                    # and the commit record deferred to its closed-form
                    # commit cycle t + dur - commit, where it interleaves
                    # with other cores' emissions in strict order. Spec
                    # sizes are constants: 2n labeled hits on one private
                    # line set exactly spec_labeled -> (0, 0, 1).
                    obs.fused_tx_begin(core, t, htm._next_ts)
                    touch = obs.touch
                    line_no = entry.line
                    for _ in range(2 * len(deltas)):
                        touch(line_no, label)
                    commit = self._tx_commit_cycles
                    heappush(deferred,
                             (t + dur - commit, core, dur - commit,
                              0, 0, 1, 1))
                cache.touch(entry.line)
                entry.words = words = list(entry.words)
                j = idx0
                for d in deltas:
                    words[j] += d
                    j += 1
                entry.dirty = True
                if entry.state is _E:
                    entry.state = _M
                htm._next_ts += 1
                n2 = 2 * len(deltas)
                instr_col[core] += n2
                labeled_col[core] += n2
                name = label.name
                by_label[name] = by_label.get(name, 0) + n2
                commits_col[core] += 1
                tx_col[core] += dur
                fused_txs += 1
                runner.pending_value = ret
            elif kind == K_PROTO:
                # Certified full-protocol access (miss, upgrade,
                # reduction, gather): executed here, at its strict
                # execution point, through the real MemorySystem handlers
                # — bit-identical by construction. Earlier epoch work may
                # have changed the snapshot (spec bits appear when in-tx
                # cores run local ops), so re-certify before committing.
                pred = certify(core, data, op.addr,
                               getattr(op, "label", None), t,
                               tx is not None)
                if pred is None:
                    fc["proto_revoked"] = fc.get("proto_revoked", 0) + 1
                    fences += 1
                    if fence is None or t < fence:
                        fence = t
                    break
                req = Requester(core, tx.ts if tx is not None else None,
                                now=t)
                if data == K_LOAD:
                    res = msys.load(core, op.addr, req)
                elif data == K_STORE:
                    res = msys.store(core, op.addr, op.value, req)
                elif data == K_LLOAD:
                    res = msys.labeled_load(core, op.addr, op.label, req)
                elif data == K_LSTORE:
                    res = msys.labeled_store(core, op.addr, op.label,
                                             op.value, req)
                else:
                    res = msys.load_gather(core, op.addr, op.label, req)
                if res.abort_requester or res.aborted_victims:
                    raise SimulationError(
                        "certified epoch protocol access aborted a "
                        "transaction; the certifier must decline these"
                    )
                dur = res.cycles
                instr_col[core] += 1
                if data != K_LOAD and data != K_STORE:
                    labeled_col[core] += 1
                    name = op.label.name
                    by_label[name] = by_label.get(name, 0) + 1
                if tx is None:
                    non_tx_col[core] += dur
                else:
                    # Straight to the breakdown (not the deferred column):
                    # an abort after this epoch reclassifies
                    # cycles_this_attempt out of tx_committed, clamped to
                    # what the breakdown already holds.
                    breakdown[core].tx_committed += dur
                    tx.cycles_this_attempt += dur
                runner.pending_value = res.value
                cols.proto_ops += 1
                if pred >= 0:
                    if pred == dur:
                        cols.pred_hits += 1
                    else:
                        cols.pred_misses += 1
                        if obs is not None:
                            obs.vector_mispredict(
                                core, t, op.addr // LINE_BYTES, pred, dur)
                proto_mutated = True
                self._fused_ok.clear()
            elif kind == K_FMISS_BEGIN:
                # Phase 1 of a first-touch fused transaction: the real
                # begin (timestamp drawn in heap-pop = strict order),
                # then schedule the body as its own record at t + dur.
                # No frame is pushed — generator creation is deferred to
                # the fallback path, where it is still side-effect free.
                tx = htm.begin(core, ts=op.ts)
                if obs is not None:
                    obs.tx_begin(core, t, tx)
                breakdown[core].tx_committed += dur
                tx.cycles_this_attempt += dur
                nt = t + dur
                cycles[core] = nt
                epoch_ops += 1
                epoch_cycles += dur
                if obs is not None and nt > ep_end:
                    ep_end = nt
                item[0] = nt
                item[2] = [runner, core, 0, K_FMISS_BODY, op, data, tx]
                if heap and (heap[0][0] < nt
                             or (heap[0][0] == nt and heap[0][1] < core)):
                    heappush(heap, item)
                else:
                    pending = item
                continue
            elif kind == K_FMISS_BODY:
                plan = data
                n = len(plan.deltas)
                line_no = plan.line
                addr0 = line_no * 64 + plan.idx0 * 8
                cache = self._caches[core]
                # Records executed since classification (our phase 1 ran
                # at t - begin) may have changed the directory snapshot —
                # even flipped which GETU case this install takes.
                # Re-certify from the state at the body's own pop.
                pred = (certify(core, K_LLOAD, addr0, plan.label, t, True)
                        if cache.peek_line(line_no) is None else None)
                if pred is None or pred < 0:
                    # Fall back to the interpreted transaction: create
                    # the frame the strict begin would have created and
                    # fence at the body's start — the next pull yields
                    # the first labeled access, replayed op by op.
                    gen = op.fn(runner.ctx, *op.args)
                    runner.frames.append(Frame(gen, op, True))
                    runner.send = gen.send
                    runner.pulled = None
                    runner.pending_value = None
                    fc["fmiss_revoked"] = fc.get("fmiss_revoked", 0) + 1
                    fences += 1
                    if fence is None or t < fence:
                        fence = t
                    continue
                req = Requester(core, tx.ts, now=t)
                res = msys.labeled_load(core, addr0, plan.label, req)
                if res.abort_requester or res.aborted_victims:
                    raise SimulationError(
                        "certified fused install aborted a transaction; "
                        "the certifier must decline these"
                    )
                entry = cache.peek_line(line_no)
                # The remaining 2n-1 labeled ops replay closed form: the
                # just-installed line L1-hits every one of them. The
                # first store's copy-on-write snapshot feeds rollback
                # (never taken — the real commit below clears it);
                # spec_labeled was already set by the speculative
                # install. One LRU touch stands in for all (idempotent).
                cache.touch(line_no)
                if entry.clean_words is None:
                    entry.clean_words = list(entry.words)
                entry.spec_labeled = True
                entry.words = words = list(entry.words)
                j = plan.idx0
                for d in plan.deltas:
                    words[j] += d
                    j += 1
                entry.dirty = True
                dur = res.cycles + (2 * n - 1) * self._l1_lat \
                    + self._tx_commit_cycles
                n2 = 2 * n
                instr_col[core] += n2
                labeled_col[core] += n2
                name = plan.label.name
                by_label[name] = by_label.get(name, 0) + n2
                breakdown[core].tx_committed += dur
                tx.cycles_this_attempt += dur
                if obs is not None:
                    # The real labeled_load above fired its own touch;
                    # synthesize the remaining 2n-1 closed-form hits.
                    # Spec sizes must be read before htm.commit clears
                    # the bits; the commit record itself is deferred to
                    # its strict emission position t + dur - commit.
                    # Unlike the interpreted run, cycles_this_attempt
                    # here includes the commit charge — subtract it.
                    touch = obs.touch
                    for _ in range(n2 - 1):
                        touch(line_no, plan.label)
                    reads, writes, labeled_n = obs._spec_sizes(core)
                    commit = self._tx_commit_cycles
                    heappush(deferred,
                             (t + dur - commit, core,
                              tx.cycles_this_attempt - commit,
                              reads, writes, labeled_n, tx.attempts))
                htm.commit(core)  # commit_all clears the spec residue
                tx = None
                runner.pending_value = plan.value
                cols.proto_ops += 1
                if pred == res.cycles:
                    cols.pred_hits += 1
                else:
                    cols.pred_misses += 1
                    if obs is not None:
                        obs.vector_mispredict(core, t, line_no, pred,
                                              res.cycles)
                fused_txs += 1
                proto_mutated = True
                self._fused_ok.clear()
            else:
                spec = tx is not None
                if kind == K_LOAD:
                    fast = fast_load(core, op.addr, spec)
                elif kind == K_STORE:
                    fast = fast_store(core, op.addr, op.value, spec)
                elif kind == K_LLOAD:
                    fast = fast_lload(core, op.addr, op.label, spec)
                else:
                    fast = fast_lstore(core, op.addr, op.label,
                                       op.value, spec)
                if fast is None:
                    # Classification guarantees a hit; if the protocol
                    # disagrees (an earlier protocol access invalidated
                    # or downgraded the line), hold the op (still in
                    # runner.pulled) and end the epoch: everything left
                    # on the heap starts at or after this op, so nothing
                    # else may run first.
                    fc["fast_revoked"] = fc.get("fast_revoked", 0) + 1
                    fences += 1
                    break
                if obs is not None:
                    # The fast paths carry no hooks; the interpreted run
                    # under obs takes the full handlers, which touch the
                    # line once per access (with the label only when the
                    # access routed as labeled).
                    if kind == K_LOAD or kind == K_STORE:
                        obs.touch(op.addr // LINE_BYTES)
                    else:
                        obs.touch(op.addr // LINE_BYTES, op.label)
                if kind == K_LOAD or kind == K_LLOAD:
                    value, dur = fast
                    runner.pending_value = value
                else:
                    dur = fast
                instr_col[core] += 1
                if kind == K_LLOAD or kind == K_LSTORE:
                    labeled_col[core] += 1
                    name = op.label.name
                    by_label[name] = by_label.get(name, 0) + 1
                if tx is None:
                    non_tx_col[core] += dur
                else:
                    breakdown[core].tx_committed += dur
                    tx.cycles_this_attempt += dur
            nt = t + dur
            cycles[core] = nt
            runner.pulled = None
            epoch_ops += 1
            epoch_cycles += dur
            if obs is not None and nt > ep_end:
                ep_end = nt

            # --- pull and classify this core's next op ------------------
            # A non-local pull fences this core at its new time
            # t + dur > t, strictly after everything already executed.
            value = runner.pending_value
            runner.pending_value = None
            nop = None
            while True:
                try:
                    nop = runner.send(value)
                except StopIteration as stop:
                    frames = runner.frames
                    if len(frames) > 1 and not frames[-1].is_tx_root:
                        # Plain nested generator: free, invisible pop.
                        frames.pop()
                        runner.send = frames[-1].gen.send
                        value = stop.value
                        continue
                    runner.pulled = finished
                    runner.pulled_value = stop.value
                    cause = "tx_commit" if len(frames) > 1 else "thread_finish"
                    fc[cause] = fc.get(cause, 0) + 1
                    fences += 1
                    if fence is None or nt < fence:
                        fence = nt
                break
            if nop is None:
                continue
            runner.pulled = nop
            if kind == K_FUSED and nop is op and nop.args is op.args:
                # Hoisted Atomic re-yielded unchanged (e.g. counter's
                # add_one): the plan and its validated target are still
                # exact, skip re-lowering. Never done for Work/memory
                # ops — their shuttles mutate in place between yields.
                nrec = rec
            else:
                nrec = classify(runner, nop, tx)
                if nrec is None:
                    cause = self._decline
                    fc[cause] = fc.get(cause, 0) + 1
                    fences += 1
                    if fence is None or nt < fence:
                        fence = nt
                    continue
            item[0] = nt
            item[2] = nrec
            if heap and (heap[0][0] < nt
                         or (heap[0][0] == nt and heap[0][1] < core)):
                heappush(heap, item)
            else:
                pending = item

        # A scheduled install body whose epoch ended before it popped
        # must fall back to the interpreted transaction (its begin has
        # already run): materialize the frame the strict begin would
        # have created, so the next pull — strict or epoch — yields the
        # transaction's first access.
        for it in heap:
            r = it[2]
            if r[3] == K_FMISS_BODY:
                rn = r[0]
                fop = r[4]
                gen = fop.fn(rn.ctx, *fop.args)
                rn.frames.append(Frame(gen, fop, True))
                rn.send = gen.send
                rn.pulled = None
                rn.pending_value = None

        if obs is not None:
            if epoch_ops:
                obs.vector_epoch(ep_t0, max(ep_end, ep_t0) - ep_t0,
                                 epoch_ops, fences, fc)
            gfc = self._cols.fence_causes
            for cause, count in fc.items():
                gfc[cause] = gfc.get(cause, 0) + count
        if epoch_ops:
            stats = self.stats
            stats.host_vector_epochs += 1
            stats.host_vector_epoch_ops += epoch_ops
            stats.host_vector_fused_txs += fused_txs
        return epoch_ops, epoch_cycles, fences

    def _admit(self, runner, heap, fc) -> Optional[int]:
        """Pull and classify one unblocked, unfinished core's next event
        for the epoch's opening scan.

        An epoch-local event is pushed onto ``heap`` and None is
        returned; anything else bumps its cause in ``fc`` and returns the
        event's start time so the caller can fence at it."""
        core = runner.core
        tx = self._tx_active[core]
        t = self._cycles[core]
        if tx is not None and tx.aborted:
            fc["tx_restart"] = fc.get("tx_restart", 0) + 1
            return t
        op = runner.pulled
        if op is None:
            value = runner.pending_value
            runner.pending_value = None
            while True:
                try:
                    op = runner.send(value)
                except StopIteration as stop:
                    frames = runner.frames
                    if len(frames) > 1 and not frames[-1].is_tx_root:
                        # Plain nested generator: popping it is free
                        # and invisible to every other core.
                        frames.pop()
                        runner.send = frames[-1].gen.send
                        value = stop.value
                        continue
                    runner.pulled = op = _FINISHED
                    runner.pulled_value = stop.value
                break
            if op is not _FINISHED:
                runner.pulled = op
        if op is _FINISHED:
            # A pending frame-finish: a tx root's commit or the thread's
            # completion, both strict-phase work.
            cause = ("tx_commit" if len(runner.frames) > 1
                     else "thread_finish")
            fc[cause] = fc.get(cause, 0) + 1
            return t
        rec = self._classify(runner, op, tx)
        if rec is None:
            cause = self._decline
            fc[cause] = fc.get(cause, 0) + 1
            return t
        heapq.heappush(heap, [t, core, rec])
        return None

    # ------------------------------------------------------------------

    def _classify(self, runner, op, tx) -> Optional[list]:
        """Classify one held op as epoch-local, returning a record
        ``[runner, core, duration, kind, op, data, tx]`` with the *exact*
        latency the op will charge, or None to park the epoch (with the
        cause in ``self._decline`` for the fence histogram).

        This is a non-mutating mirror of the engine's routing rules plus
        the fast-path state checks in ``coherence/protocol.py``: only ops
        those fast paths would certainly service (and that cannot insert
        into the L1 while a transaction is active, so the LRU touch cannot
        self-abort) classify as local. Latency is precomputed from L1
        residency, which only this core can change before execution.
        Non-transactional accesses the fast path would *miss* — misses,
        S-upgrades, reductions, gathers — get a second chance through
        :meth:`_certify_proto`: when the protocol transition is fully
        determined by the current directory/sharer snapshot (no
        speculative victims, no unsafe evictions, word-wise labels only),
        they classify as K_PROTO and execute in-epoch through the real
        handlers."""
        core = runner.core
        cls = op.__class__
        if cls is Work:
            dur = op.cycles
            if dur < 1:  # Work(0) could tie with a held op at exactly G
                self._decline = "zero_work"
                return None
            return [runner, core, dur, K_WORK, op, None, tx]

        if cls is Atomic:
            if tx is not None:
                self._decline = "nested_atomic"
                return None  # closed nesting pushes a zero-cost frame
            if self._commtm:
                plan = lower_atomic(op)
                if plan is not None:
                    deltas = plan.deltas
                    n = len(deltas)
                    key = (core, plan.line, plan.label, plan.idx0, n)
                    entry = self._fused_ok.get(key)
                    if entry is None:
                        entry = self._validate_fused(core, plan, n)
                    if entry is not None:
                        self._fused_ok[key] = entry
                        dur = self._fused_base + 2 * n * self._l1_lat
                        data = (entry, plan.idx0, deltas, plan.label,
                                plan.value)
                        return [runner, core, dur, K_FUSED, op, data, None]
                    rec = self._classify_fused_miss(runner, core, op, plan, n)
                    if rec is not None:
                        return rec
            # Not fusible (no lowering, or the target line is neither a
            # private hit nor a certifiable first touch): the strict
            # phase runs the transaction interpreted.
            self._decline = "atomic"
            return None

        labeled = (self._commtm
                   and not (tx is not None and tx.labels_disabled))
        if cls is Load:
            kind = K_LOAD
        elif cls is Store:
            kind = K_STORE
        elif cls is LabeledLoad:
            kind = K_LLOAD if labeled else K_LOAD
        elif cls is LabeledStore:
            kind = K_LSTORE if labeled else K_STORE
        elif cls is LoadGather:
            if labeled:
                # Gathers always take the full protocol path; the
                # certifier can still prove one epoch-safe.
                addr = op.addr
                if addr % 8:
                    self._decline = "misaligned"
                    return None
                if self._certify_proto(core, K_GATHER, addr, op.label,
                                       self._cycles[core],
                                       tx is not None) is None:
                    self._decline = ("tx_gather" if tx is not None
                                     else "gather_unsafe")
                    return None
                return [runner, core, 1, K_PROTO, op, K_GATHER, tx]
            kind = K_LOAD
        elif cls is Barrier:
            self._decline = "barrier"
            return None
        else:
            self._decline = "unhandled_op"
            return None  # OrderedAtomic, unknown ops

        addr = op.addr
        if addr % 8:
            self._decline = "misaligned"
            return None  # misaligned: slow path raises
        cache = self._caches[core]
        entry = cache.peek_line(addr // LINE_BYTES)
        hit = entry is not None
        if hit:
            st = entry.state
            if kind == K_LOAD:
                hit = st is _M or st is _E or st is _S
            elif kind == K_STORE:
                hit = st is _M or st is _E
            else:  # K_LLOAD / K_LSTORE
                hit = (st is _M or st is _E
                       or (st is _U and entry.label is op.label))
        if hit:
            if entry.line in cache._l1:
                dur = self._l1_lat
            elif tx is not None:
                # The touch would insert into the L1 and could evict a
                # speculative line, aborting this core's own transaction —
                # only the full path may take that step.
                self._decline = "tx_l1_insert"
                return None
            else:
                dur = self._l12_lat
            return [runner, core, dur, kind, op, None, tx]
        # Fast-path state check failed: a miss, an S-upgrade, or a
        # non-commutative access to an own U line. The certifier may
        # prove the transition deterministic — for speculative requesters
        # that additionally means no victim can NACK (none speculative)
        # and no self-abort through a speculative eviction.
        if self._certify_proto(core, kind, addr,
                               op.label if kind == K_LLOAD
                               or kind == K_LSTORE else None,
                               self._cycles[core], tx is not None) is None:
            self._decline = ("tx_miss" if tx is not None
                             else "miss_unsafe")
            return None
        return [runner, core, 1, K_PROTO, op, kind, tx]

    def _classify_fused_miss(self, runner, core: int, op, plan,
                             n: int) -> Optional[list]:
        """First-touch fusion: the plan's line is not local, but when the
        GETU install itself certifies, the transaction still collapses —
        into *two* records mirroring the strict event times (see
        K_FMISS_BEGIN / K_FMISS_BODY). Only the true miss qualifies: a
        private copy in any state means the strict first access would
        take the fast path (different charge, no occupancy postlude)."""
        # Begin and commit may execute inside epochs only with a nonzero
        # latency: a zero-duration event could tie with a fenced one at
        # the same cycle, where the strict tie-break might order the
        # fence first.
        begin = self._tx_begin_cycles
        if begin < 1 or self._tx_commit_cycles < 1:
            return None
        if plan.idx0 < 0 or plan.idx0 + n > 8:
            return None
        if self._caches[core].peek_line(plan.line) is not None:
            return None
        addr0 = plan.line * 64 + plan.idx0 * 8
        pred = self._certify_proto(core, K_LLOAD, addr0, plan.label,
                                   self._cycles[core] + begin, True)
        if pred is None or pred < 0:
            return None
        return [runner, core, begin, K_FMISS_BEGIN, op, plan, None]

    def _validate_fused(self, core: int, plan, n: int):
        """Check a FusedPlan against this core's cache: line present and
        L1-resident (the fused charge is all L1 hits, and no insertion
        means no eviction), stable state, no speculative residue, and the
        word run in bounds. Returns the CacheLine or None."""
        cache = self._caches[core]
        entry = cache.peek_line(plan.line)
        if entry is None or plan.line not in cache._l1:
            return None
        st = entry.state
        if not (st is _M or st is _E
                or (st is _U and entry.label is plan.label)):
            return None
        if (entry.clean_words is not None or entry.spec_read
                or entry.spec_written or entry.spec_labeled):
            return None
        if plan.idx0 < 0 or plan.idx0 + n > len(entry.words):
            return None
        return entry

    # ------------------------------------------------------------------
    # Full-protocol certification (K_PROTO)
    # ------------------------------------------------------------------

    def _certify_proto(self, core: int, memkind: int, addr: int, label,
                       now: int, spec: bool = False) -> Optional[int]:
        """Decide whether one access that missed the private-hit fast
        path may execute *inside* an epoch through the real protocol
        handlers, and predict its closed-form latency.

        The decision procedure itself is :func:`certify.certify_access`
        — a pure function of the memory system, shared with the
        exhaustive model checker, which proves on every reachable state
        of its bounded configs that a non-``None`` prediction matches
        the charge the real handlers produce.  This wrapper only maps
        the engine's integer op kinds onto :class:`AccessKind`.  It is
        looked up through the module attribute (not bound at import) so
        fault-injection tests can patch the certifier in one place for
        both consumers."""
        return certify.certify_access(self.msys, core,
                                      _CERTIFY_KINDS[memkind], addr,
                                      label, now, spec)
