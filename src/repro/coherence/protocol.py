"""The CommTM memory system: MESI + U-state request handling.

This module implements Sec. III-B of the paper: how conventional loads and
stores, labeled loads and stores, gather requests, and evictions move lines
between M/E/S/U/I, when reductions fire, and how conflicts are raised to the
HTM layer.

Every public operation is logically atomic (the engine interleaves cores at
operation granularity) and returns an :class:`AccessResult` whose ``cycles``
field charges the issuing core with Table I latencies:

* L1 hit: L1 latency.
* Private (L2) hit: L1 + L2.
* Directory transaction: + NoC round trip to the line's L3 bank + L3 bank
  latency (+ main-memory latency on an L3 miss).
* Invalidation fan-out: + the worst-case round trip to a victim (parallel).
* Forwarded data (downgrades, reductions, gathers): + the forward hop, and
  reductions additionally charge the user handler's cost serially (the
  shadow thread merges one line at a time).

Conflicts are delegated to a *conflict manager* (the HTM layer) through a
narrow interface: :meth:`ConflictManagerBase.resolve` decides, per victim,
whether the victim's transaction aborts (and rolls it back synchronously) or
NACKs the request (in which case the requester's transaction must abort).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set

from ..errors import ProtocolError, ReductionError
from ..mem.address import line_of, word_index, check_word_aligned
from ..mem.memory import MainMemory
from ..params import LINE_BYTES, SystemConfig, WORD_BYTES, WORDS_PER_LINE
from ..sim.stats import Stats, WastedCause
from ..core.labels import HandlerContext, Label, LabelRegistry
from .cache import PrivateCache
from .directory import Directory, DirEntry
from .line import CacheLine
from .messages import AccessKind, AccessResult, Requester, SYSTEM
from .noc import Mesh
from .states import State

# Hot-path aliases: the per-access handlers below compare states with `is`
# against these module locals instead of looking up enum attributes, and
# inline the line/word arithmetic of mem.address.
_M, _E, _S, _U = State.M, State.E, State.S, State.U


class Trigger(enum.Enum):
    """What kind of action is hitting a victim's speculative line.

    Used by the conflict manager to attribute wasted cycles (Fig. 18).
    """

    READ = "read"            # GETS downgrade / read invalidation
    WRITE = "write"          # GETX invalidation
    LABELED = "labeled"      # GETU invalidation of S sharers or M owner
    REDUCTION_READ = "reduction_read"    # reduction triggered by a load
    REDUCTION_WRITE = "reduction_write"  # reduction triggered by a store
    GATHER = "gather"        # split request
    EVICTION = "eviction"    # capacity / inclusion invalidation


class Resolution(enum.Enum):
    ABORT_VICTIM = "abort_victim"
    NACK = "nack"


class ConflictManagerBase:
    """Interface the HTM layer implements (see ``repro.htm.conflict``).

    The default implementation here lets the memory system run stand-alone
    (no transactions): every conflict aborts the victim, which trivially
    succeeds because there are no victims without transactions.
    """

    def resolve(self, victim_core: int, line_no: int, requester: Requester,
                trigger: Trigger, victim_entry: CacheLine) -> Resolution:
        raise NotImplementedError

    def abort_requester(self, core: int, cause: WastedCause,
                        disable_labels: bool = False) -> None:
        """Abort (roll back) the requesting core's transaction immediately.
        Used for the unlabeled-access-to-own-speculative-U case (which also
        disables labeled accesses for the retry, per Sec. III-B4) and for
        capacity evictions of speculative lines."""
        raise NotImplementedError


class NoTransactions(ConflictManagerBase):
    """Conflict manager for non-transactional use of the memory system."""

    def resolve(self, victim_core, line_no, requester, trigger, victim_entry):
        raise ProtocolError(
            "speculative line encountered but no HTM layer is attached"
        )

    def abort_requester(self, core, cause, disable_labels=False):
        raise ProtocolError("no HTM layer attached")


class MemorySystem:
    """Private caches + directory + protocol logic for one machine."""

    def __init__(self, config: SystemConfig, memory: MainMemory,
                 labels: LabelRegistry, stats: Stats, rng):
        self.config = config
        self.memory = memory
        self.labels = labels
        self.stats = stats
        self.rng = rng
        self.caches: List[PrivateCache] = []
        for core in range(config.num_cores):
            cache = PrivateCache(core, config.l1, config.l2)
            cache.eviction_hook = self._make_eviction_hook(core)
            self.caches.append(cache)
        self.directory = Directory(
            memory, num_lines=config.l3.num_lines, stats=stats
        )
        self.directory.eviction_hook = self._on_l3_eviction
        self.conflicts: ConflictManagerBase = NoTransactions()
        #: Optional Tracer (set by the Machine facade).
        self.tracer = None
        #: Optional CoherenceSanitizer (set by the Machine facade when
        #: sanitizing; see repro.analysis.sanitizer). None keeps every
        #: operation on its original path.
        self.sanitizer = None
        #: Optional Observer (set by the Machine facade; see repro.obs).
        #: When installed, the engine routes every memory operation through
        #: the full handlers below, so these hooks see all protocol events.
        self.obs = None
        #: Optional batched reduction kernel, ``kernel(label, rows) ->
        #: merged words | None``. Set by the vector backend; when present
        #: and the label is word-wise, reductions/gather merges collect the
        #: sharer lines and fold them in one call instead of the sequential
        #: per-line loop. The kernel may decline (None) and must then be
        #: bit-identical to the sequential fold when it accepts; charged
        #: cycles are independent of which path ran.
        self.reduction_kernel = None
        self._in_handler = False
        #: Per-line end-of-service time at the home directory bank: a
        #: directory transaction reserves its line, so contended lines
        #: serialize (the effect that makes conventional HTMs flat-line on
        #: contended counters, and that U-state local hits bypass).
        self._line_busy: Dict[int, int] = {}
        # NoC geometry, tabulated once from Mesh (the single definition):
        # every directory, fan-out and forward charge below, and the
        # vector certifier, is a list lookup into these tables.
        mesh = Mesh(config.noc)
        tiles = range(config.noc.num_tiles)
        #: Tile of each core.
        self._tile_of = [config.tile_of_core(c)
                         for c in range(config.num_cores)]
        #: One-way latency and hop count, tile x tile.
        self._tile_lat = [[mesh.latency(a, b) for b in tiles] for a in tiles]
        self._tile_hops = [[mesh.hops(a, b) for b in tiles] for a in tiles]
        self._l3_banks = config.l3_banks
        bank_tiles = [bank % config.noc.num_tiles
                      for bank in range(config.l3_banks)]
        #: Per bank (``line_no % l3_banks``), the invalidation round trip
        #: from its tile to each core; rows of banks on one tile are shared.
        rt_rows = [[2 * self._tile_lat[t][ct] for ct in self._tile_of]
                   for t in tiles]
        self._bank_rt = [rt_rows[t] for t in bank_tiles]
        # Directory round trip and two-way hop count, [core][bank]; cores
        # on one tile share a row.
        dir_rt = [[2 * self._tile_lat[t][bt] for bt in bank_tiles]
                  for t in tiles]
        dir_hops2 = [[2 * self._tile_hops[t][bt] for bt in bank_tiles]
                     for t in tiles]
        self._dir_rt = [dir_rt[t] for t in self._tile_of]
        self._dir_hops2 = [dir_hops2[t] for t in self._tile_of]
        #: Fixed shadow-thread cost of merging/splitting one line.
        self._handler_cost = config.reduction_cycles_per_word * WORDS_PER_LINE
        self._l1_latency = config.l1.latency
        self._l12_latency = config.l1.latency + config.l2.latency

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_conflict_manager(self, manager: ConflictManagerBase) -> None:
        self.conflicts = manager
        for cache in self.caches:
            cache.spec_eviction_hook = (
                lambda core, reason: self.conflicts.abort_requester(
                    core, WastedCause.OTHER
                )
            )

    def _make_eviction_hook(self, core: int):
        return lambda victim: self._on_private_eviction(core, victim)

    # ------------------------------------------------------------------
    # Latency helpers
    # ------------------------------------------------------------------

    def _private_lookup_cycles(self, l1_hit: bool) -> int:
        if l1_hit:
            return self._l1_latency
        return self._l12_latency

    def _charge_dir_access(self, core: int, line_no: int,
                           res: AccessResult) -> DirEntry:
        """Charge a directory transaction and return the entry."""
        was_miss = self.directory.was_miss(line_no)
        ent = self.directory.entry(line_no)
        bank = line_no % self._l3_banks
        res.cycles += self._dir_rt[core][bank] + self.config.l3.latency
        self.stats.noc_hops += self._dir_hops2[core][bank]
        if was_miss:
            res.cycles += self.config.mem_latency
        res.dir_line = line_no
        return ent

    def _apply_occupancy(self, requester: Requester,
                         res: AccessResult) -> AccessResult:
        """Serialize directory transactions on the same line.

        If the op transacted with a line's home directory, it stalls until
        the line's previous transaction finishes, and holds the line for
        its own duration. Private-cache hits never stall — the heart of
        CommTM's concurrency benefit.
        """
        if res.dir_line is None or requester.now is None:
            # Private-cache hits (the common case) never transact with a
            # directory and never stall.
            return res
        start = requester.now
        busy_until = self._line_busy.get(res.dir_line, 0)
        stall = busy_until - start
        if stall > 0:
            res.cycles += stall
        occupying = res.cycles - res.overlap_cycles
        self._line_busy[res.dir_line] = max(busy_until, start + occupying)
        return res

    def _charge_inval_fanout(self, line_no: int, victims, res: AccessResult) -> None:
        """Invalidations fan out in parallel from the line's bank."""
        row = self._bank_rt[line_no % self._l3_banks]
        res.cycles += max(map(row.__getitem__, victims), default=0)

    def _charge_forward(self, src_core: int, dst_core: int,
                        res: AccessResult) -> None:
        res.cycles += self._forward_latency(src_core, dst_core)

    def _forward_latency(self, src_core: int, dst_core: int) -> int:
        """Latency of one cache-to-cache data forward; records traffic."""
        src = self._tile_of[src_core]
        dst = self._tile_of[dst_core]
        self.stats.forwards += 1
        self.stats.noc_hops += self._tile_hops[src][dst]
        return self._tile_lat[src][dst]

    # ------------------------------------------------------------------
    # Handler context (reduction / splitter memory access)
    # ------------------------------------------------------------------

    def handler_context(self, core: int, res: AccessResult) -> HandlerContext:
        """Build the restricted memory interface for user handlers.

        Handler accesses are non-speculative, charged to the shadow thread
        (and to the blocked request's latency), and must not touch lines in
        U state (Sec. III-B4's no-nested-reductions rule).
        """

        def check_not_reducible(addr: int) -> None:
            line_no = line_of(addr)
            own = self.caches[core].lookup(line_no)
            if own is not None and own.state is State.U:
                raise ReductionError(
                    f"handler accessed local U-state line {line_no}"
                )
            ent = self.directory.peek(line_no)
            if ent is not None and ent.u_sharers:
                raise ReductionError(
                    f"handler access to line {line_no} would trigger a "
                    f"nested reduction"
                )

        def read(addr: int) -> object:
            check_not_reducible(addr)
            inner = self._load(core, addr, SYSTEM)
            res.cycles += inner.cycles
            self.stats.shadow_thread_cycles += inner.cycles
            return inner.value

        def write(addr: int, value: object) -> None:
            check_not_reducible(addr)
            inner = self._store(core, addr, value, SYSTEM)
            res.cycles += inner.cycles
            self.stats.shadow_thread_cycles += inner.cycles

        return HandlerContext(read, write)

    # ------------------------------------------------------------------
    # Conflict helpers
    # ------------------------------------------------------------------

    def _resolve_victims(self, line_no: int, victims, requester: Requester,
                         trigger: Trigger, res: AccessResult) -> Set[int]:
        """Run conflict resolution against each speculative victim.

        Returns the set of victims that NACKed (and therefore keep their
        copies). Victims that abort are rolled back synchronously by the
        conflict manager, leaving their lines non-speculative.
        """
        nackers: Set[int] = set()
        for victim in victims:
            entry = self.caches[victim].lookup(line_no)
            if entry is None or not entry.speculative:
                continue
            if victim == requester.core:
                continue
            outcome = self.conflicts.resolve(
                victim, line_no, requester, trigger, entry
            )
            if outcome is Resolution.NACK:
                self.stats.nacks_sent += 1
                nackers.add(victim)
                if self.obs is not None:
                    self.obs.nack(requester, victim, line_no, entry, trigger)
            else:
                res.aborted_victims.append(victim)
        return nackers

    @staticmethod
    def _requester_cause(kind: AccessKind) -> WastedCause:
        """Fig. 18 attribution for a requester aborted by a NACK."""
        if kind is AccessKind.GATHER:
            return WastedCause.GATHER_AFTER_LABELED
        if kind in (AccessKind.LOAD, AccessKind.LABELED_LOAD):
            return WastedCause.READ_AFTER_WRITE
        return WastedCause.WRITE_AFTER_READ

    # ------------------------------------------------------------------
    # Private-hit fast path
    #
    # The overwhelming majority of simulated accesses are private-cache
    # hits in a stable state: a load on a readable (M/E/S) line, a store
    # on an exclusive (M/E) line, a labeled access on M/E or on U with a
    # matching label. Those accesses never transact with the directory,
    # never scan sharers, never stall on line occupancy, and can never
    # abort the requester through the protocol — so the full
    # AccessResult/Requester machinery is pure overhead for them. The
    # ``fast_*`` handlers below service exactly those accesses with plain
    # tuples and the precomputed L1/L1+L2 latencies, and return ``None``
    # for anything else (miss, U mismatch, misaligned address), in which
    # case the caller retries through the full path. They are
    # bit-identical to the slow path by construction: every state
    # mutation (LRU touch, speculative bits, write versioning, silent
    # E->M upgrade) is the same code the slow path would run, in the same
    # order. The engine's memory-op handlers call them first unless the
    # probe is off (obs, or the test-only ``_NO_FASTPATH``), and the
    # probe-off run is the reference ``tests/test_fastpath_equivalence.py``
    # compares against.
    # ------------------------------------------------------------------

    def fast_load(self, core: int, addr: int, speculative: bool):
        """Stable private read hit: ``(value, cycles)``, else ``None``."""
        if addr % WORD_BYTES:
            return None  # slow path raises the alignment error
        cache = self.caches[core]
        entry = cache.peek_line(addr // LINE_BYTES)
        if entry is None:
            return None
        st = entry.state
        if st is not _M and st is not _E and st is not _S:
            return None
        cycles = (self._l1_latency if cache.touch(entry.line)
                  else self._l12_latency)
        if speculative:
            entry.spec_read = True
        self.stats.host_fastpath_hits += 1
        return entry.words[addr % LINE_BYTES // WORD_BYTES], cycles

    def fast_store(self, core: int, addr: int, value: object,
                   speculative: bool):
        """Stable private write hit (M, or E with the silent upgrade):
        latency in cycles, else ``None``."""
        if addr % WORD_BYTES:
            return None
        cache = self.caches[core]
        entry = cache.peek_line(addr // LINE_BYTES)
        if entry is None:
            return None
        st = entry.state
        if st is not _M and st is not _E:
            return None
        cycles = (self._l1_latency if cache.touch(entry.line)
                  else self._l12_latency)
        if speculative:
            if entry.clean_words is None:
                entry.clean_words = list(entry.words)
            entry.spec_written = True
        entry.words = words = list(entry.words)
        words[addr % LINE_BYTES // WORD_BYTES] = value
        entry.dirty = True
        if st is _E:
            entry.state = _M
        self.stats.host_fastpath_hits += 1
        return cycles

    def fast_labeled_load(self, core: int, addr: int, label: Label,
                          speculative: bool):
        """Labeled read hit on M/E or on U with a matching label:
        ``(value, cycles)``, else ``None``."""
        if addr % WORD_BYTES:
            return None
        cache = self.caches[core]
        entry = cache.peek_line(addr // LINE_BYTES)
        if entry is None:
            return None
        st = entry.state
        if not (st is _M or st is _E
                or (st is _U and entry.label is label)):
            return None
        cycles = (self._l1_latency if cache.touch(entry.line)
                  else self._l12_latency)
        if speculative:
            entry.spec_labeled = True
        self.stats.host_fastpath_hits += 1
        return entry.words[addr % LINE_BYTES // WORD_BYTES], cycles

    def fast_labeled_store(self, core: int, addr: int, label: Label,
                           value: object, speculative: bool):
        """Labeled write hit (the commutative hit on U): latency in
        cycles, else ``None``."""
        if addr % WORD_BYTES:
            return None
        cache = self.caches[core]
        entry = cache.peek_line(addr // LINE_BYTES)
        if entry is None:
            return None
        st = entry.state
        if not (st is _M or st is _E
                or (st is _U and entry.label is label)):
            return None
        cycles = (self._l1_latency if cache.touch(entry.line)
                  else self._l12_latency)
        if speculative:
            if entry.clean_words is None:
                entry.clean_words = list(entry.words)
            entry.spec_labeled = True
        entry.words = words = list(entry.words)
        words[addr % LINE_BYTES // WORD_BYTES] = value
        entry.dirty = True
        if st is _E:
            entry.state = _M
        self.stats.host_fastpath_hits += 1
        return cycles

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def _finish(self, requester: Requester, res: AccessResult) -> AccessResult:
        """Occupancy postlude + sanitizer checkpoint for one public op."""
        res = self._apply_occupancy(requester, res)
        if self.sanitizer is not None:
            self.sanitizer.check()
        return res

    def _touch_metrics(self, addr: int, requester: Requester,
                       label: Optional[Label] = None) -> None:
        """Hot-line touch accounting for the obs layer. ``requester.now``
        is None only for flush/verification accesses, which are not part
        of the simulated run and must not skew the metrics."""
        if requester.now is not None:
            self.obs.touch(line_of(addr), label)

    def load(self, core: int, addr: int, requester: Requester) -> AccessResult:
        check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester)
        return self._finish(requester, self._load(core, addr, requester))

    def store(self, core: int, addr: int, value: object,
              requester: Requester) -> AccessResult:
        check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester)
        return self._finish(
            requester, self._store(core, addr, value, requester))

    def labeled_load(self, core: int, addr: int, label: Label,
                     requester: Requester) -> AccessResult:
        check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester, label)
        return self._finish(
            requester,
            self._labeled_access(core, addr, label, requester,
                                 value=None, is_store=False))

    def labeled_store(self, core: int, addr: int, label: Label,
                      value: object, requester: Requester) -> AccessResult:
        check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester, label)
        return self._finish(
            requester,
            self._labeled_access(core, addr, label, requester,
                                 value=value, is_store=True))

    def load_gather(self, core: int, addr: int, label: Label,
                    requester: Requester) -> AccessResult:
        check_word_aligned(addr)
        if self.obs is not None:
            self._touch_metrics(addr, requester, label)
        return self._finish(
            requester, self._gather(core, addr, label, requester))

    # ------------------------------------------------------------------
    # Lazy conflict detection (Sec. III-D generalization)
    # ------------------------------------------------------------------

    def lazy_store(self, core: int, addr: int, value: object,
                   requester: Requester) -> AccessResult:
        """Buffer a speculative store without acquiring ownership.

        TCC/Bulk-style lazy mode: the line is fetched with read permission
        (no invalidations, no conflicts) and the store lands only in the
        local speculative copy. :meth:`publish_line` makes it visible at
        commit. Exclusive (M/E) hits behave as in eager mode — there is
        nothing to defer when no other copy exists.
        """
        check_word_aligned(addr)
        if not requester.speculative:
            raise ProtocolError("lazy_store outside a transaction")
        if self.obs is not None:
            self._touch_metrics(addr, requester)
        line_no = line_of(addr)
        cache = self.caches[core]
        entry = cache.lookup(line_no)
        if entry is not None and entry.state is State.U:
            # Same rules as eager mode for reducible data.
            return self._finish(
                requester, self._store(core, addr, value, requester))
        if entry is None or not entry.state.can_read:
            res = self._apply_occupancy(
                requester, self._load(core, addr, requester))
            if res.abort_requester:
                return res
            entry = cache.lookup(line_no)
        else:
            res = AccessResult()
            res.cycles += self._private_lookup_cycles(cache.touch(line_no))
        self._write_word(entry, addr, value, requester, labeled=False)
        if entry.state is State.M and entry.clean_words is not None:
            pass  # already exclusive: the publish will be free
        if self.sanitizer is not None:
            self.sanitizer.check()
        return res

    def publish_line(self, core: int, line_no: int,
                     requester: Requester) -> AccessResult:
        """Commit-time publication of one speculatively-written line.

        Acquires ownership, invalidating every other copy; transactions
        holding the line in their read/write sets are aborted (commits
        always win in lazy mode — there is no NACK at commit)."""
        res = AccessResult()
        cache = self.caches[core]
        entry = cache.lookup(line_no)
        if entry is None:
            raise ProtocolError(
                f"publish of line {line_no} not present at core {core}"
            )
        if entry.state in (State.M, State.E):
            res.cycles += self._private_lookup_cycles(cache.touch(line_no))
            return res
        if entry.state is not State.S:
            raise ProtocolError(
                f"publish of line {line_no} in state {entry.state}"
            )
        ent = self._charge_dir_access(core, line_no, res)
        self.stats.getx += 1
        committer = Requester(core=core, ts=None, now=requester.now)
        victims = [s for s in ent.sharers if s != core]
        spec_victims = [
            v for v in victims
            if (e := self.caches[v].lookup(line_no)) is not None
            and e.speculative
        ]
        self._resolve_victims(line_no, spec_victims, committer,
                              Trigger.WRITE, res)
        self._charge_inval_fanout(line_no, victims, res)
        for victim in victims:
            self.caches[victim].drop(line_no)
            self.directory.drop_sharer(ent, victim)
            self.stats.invalidations += 1
        if self.obs is not None and victims:
            self.obs.invalidated(line_no, len(victims))
        ent.sharers.discard(core)
        ent.owner = core
        ent.check()
        entry.state = State.M
        entry.dirty = True
        return self._finish(requester, res)

    # ------------------------------------------------------------------
    # Conventional load
    # ------------------------------------------------------------------

    def _load(self, core: int, addr: int, requester: Requester) -> AccessResult:
        res = AccessResult()
        line_no = addr // LINE_BYTES
        cache = self.caches[core]
        entry = cache.lookup(line_no)

        if entry is not None and (
                (st := entry.state) is _M or st is _E or st is _S):
            res.cycles += (self._l1_latency if cache.touch(line_no)
                           else self._l12_latency)
            if requester.ts is not None:
                entry.spec_read = True
            res.value = entry.words[addr % LINE_BYTES // WORD_BYTES]
            return res

        if entry is not None and entry.state is State.U:
            return self._noncommutative_own_u(core, addr, entry, requester,
                                              is_store=False, value=None)

        # Miss: GETS.
        res.cycles += self._private_lookup_cycles(False)
        ent = self._charge_dir_access(core, line_no, res)
        self.stats.gets += 1

        if ent.owner is not None and ent.owner != core:
            done = self._downgrade_owner_for_read(core, line_no, ent,
                                                  requester, res)
            if not done:
                return res  # NACKed; requester aborts
            entry = cache.lookup(line_no)
            res.value = entry.words[word_index(addr)]
            return res
        elif ent.u_sharers:
            ok = self._reduce_at(core, line_no, ent, requester, res,
                                 trigger=Trigger.REDUCTION_READ,
                                 kind=AccessKind.LOAD)
            if not ok:
                return res
            entry = self.caches[core].lookup(line_no)
            cache.touch(line_no)
            if requester.speculative:
                entry.spec_read = True
            res.value = entry.words[word_index(addr)]
            return res

        state = State.E if ent.unshared else State.S
        new = CacheLine(line=line_no, state=state, words=list(ent.words))
        cache.install(new)
        if state is State.E:
            ent.owner = core
        else:
            ent.sharers.add(core)
        ent.check()
        if requester.speculative:
            new.spec_read = True
        res.value = new.words[word_index(addr)]
        if state is State.S:
            # Read sharing pipelines at the directory: a GETS served from
            # the L3 stalls behind pending ownership changes but does not
            # reserve the line itself.
            res.overlap_cycles = res.cycles
        return res

    def _downgrade_owner_for_read(self, core: int, line_no: int,
                                  ent: DirEntry, requester: Requester,
                                  res: AccessResult) -> bool:
        """Downgrade the M/E owner to S and forward its data. Returns False
        if the owner NACKed (requester must abort)."""
        owner = ent.owner
        owner_entry = self.caches[owner].lookup(line_no)
        if owner_entry is None:
            raise ProtocolError(f"directory owner {owner} lost line {line_no}")
        if owner_entry.spec_written or owner_entry.spec_labeled:
            nackers = self._resolve_victims(line_no, [owner], requester,
                                            Trigger.READ, res)
            if nackers:
                res.abort_requester = True
                res.abort_cause = self._requester_cause(AccessKind.LOAD)
                return False
        self._charge_inval_fanout(line_no, [owner], res)
        self._charge_forward(owner, core, res)
        self.stats.downgrades += 1
        data = list(owner_entry.words)
        owner_entry.state = State.S
        if owner_entry.dirty:
            ent.words = list(data)
            ent.dirty = True
            owner_entry.dirty = False
            self.stats.writebacks += 1
        ent.owner = None
        ent.sharers.update({owner, core})
        ent.check()
        new = CacheLine(line=line_no, state=State.S, words=data)
        self.caches[core].install(new)
        if requester.speculative:
            new.spec_read = True
        return True

    # ------------------------------------------------------------------
    # Conventional store
    # ------------------------------------------------------------------

    def _store(self, core: int, addr: int, value: object,
               requester: Requester) -> AccessResult:
        res = AccessResult()
        line_no = addr // LINE_BYTES
        cache = self.caches[core]
        entry = cache.lookup(line_no)

        if entry is not None and ((st := entry.state) is _M or st is _E):
            res.cycles += (self._l1_latency if cache.touch(line_no)
                           else self._l12_latency)
            self._write_word(entry, addr, value, requester, labeled=False)
            if entry.state is State.E:
                entry.state = State.M  # silent upgrade
            return res

        if entry is not None and entry.state is State.U:
            return self._noncommutative_own_u(core, addr, entry, requester,
                                              is_store=True, value=value)

        # Miss or S-upgrade: GETX.
        res.cycles += self._private_lookup_cycles(False)
        ent = self._charge_dir_access(core, line_no, res)
        self.stats.getx += 1

        if ent.u_sharers:
            ok = self._reduce_at(core, line_no, ent, requester, res,
                                 trigger=Trigger.REDUCTION_WRITE,
                                 kind=AccessKind.STORE)
            if not ok:
                return res
            merged = self.caches[core].lookup(line_no)
            cache.touch(line_no)
            self._write_word(merged, addr, value, requester, labeled=False)
            return res

        # Invalidate the owner and/or S sharers.
        data: Optional[List[object]] = None
        victims = []
        if ent.owner is not None and ent.owner != core:
            victims.append(ent.owner)
        victims.extend(s for s in ent.sharers if s != core)
        spec_victims = [
            v for v in victims
            if (e := self.caches[v].lookup(line_no)) is not None
            and e.speculative
        ]
        nackers = self._resolve_victims(line_no, spec_victims, requester,
                                        Trigger.WRITE, res)
        if nackers:
            res.abort_requester = True
            res.abort_cause = self._requester_cause(AccessKind.STORE)
            return res
        self._charge_inval_fanout(line_no, victims, res)
        for victim in victims:
            ventry = self.caches[victim].lookup(line_no)
            if ventry is None:
                raise ProtocolError(
                    f"directory sharer {victim} lost line {line_no}"
                )
            if ventry.state in (State.M, State.E):
                self._charge_forward(victim, core, res)
                data = list(ventry.words)
                if ventry.dirty:
                    ent.words = list(data)
                    ent.dirty = True
                    self.stats.writebacks += 1
            self.caches[victim].drop(line_no)
            self.directory.drop_sharer(ent, victim)
            self.stats.invalidations += 1
        if self.obs is not None and victims:
            self.obs.invalidated(line_no, len(victims))

        if entry is not None and entry.state is State.S:
            # Upgrade in place.
            data = entry.words
            new = entry
            new.state = State.M
            cache.touch(line_no)
        else:
            if data is None:
                data = list(ent.words)
            new = CacheLine(line=line_no, state=State.M, words=list(data))
            cache.install(new)
        ent.sharers.discard(core)
        ent.owner = core
        ent.check()
        self._write_word(new, addr, value, requester, labeled=False)
        return res

    def _write_word(self, entry: CacheLine, addr: int, value: object,
                    requester: Requester, labeled: bool) -> None:
        if requester.ts is not None:
            entry.snapshot_before_write()
            if labeled:
                entry.spec_labeled = True
            else:
                entry.spec_written = True
        entry.words = words = list(entry.words)
        words[addr % LINE_BYTES // WORD_BYTES] = value
        entry.dirty = True
        if entry.state is State.E:
            entry.state = State.M

    # ------------------------------------------------------------------
    # Labeled accesses (GETU; Sec. III-B3 cases 1-5)
    # ------------------------------------------------------------------

    def _labeled_access(self, core: int, addr: int, label: Label,
                        requester: Requester, value: object,
                        is_store: bool) -> AccessResult:
        res = AccessResult()
        line_no = addr // LINE_BYTES
        cache = self.caches[core]
        entry = cache.lookup(line_no)

        if entry is not None:
            st = entry.state
            if (st is _M or st is _E
                    or (st is _U and entry.label is label)):
                # M/E satisfy all requests (Fig. 3): the core holds the full
                # value, which is a valid sole partial value. U with a
                # matching label is the commutative hit.
                res.cycles += (self._l1_latency if cache.touch(line_no)
                               else self._l12_latency)
                if is_store:
                    self._write_word(entry, addr, value, requester,
                                     labeled=True)
                else:
                    if requester.ts is not None:
                        entry.spec_labeled = True
                    res.value = entry.words[addr % LINE_BYTES // WORD_BYTES]
                return res
            if st is _U:
                # Different label: non-commutative; reduce then re-enter U
                # with the new label (GETU case 3 with own stale copy).
                return self._noncommutative_own_u(
                    core, addr, entry, requester,
                    is_store=is_store, value=value, into_label=label)

        # Miss (I or S): GETU.
        res.cycles += self._private_lookup_cycles(False)
        ent = self._charge_dir_access(core, line_no, res)
        self.stats.getu += 1
        trigger = Trigger.LABELED

        if ent.u_sharers and ent.u_label is label:
            # Case 4: same label -> grant U, no data, identity init.
            new = CacheLine(line=line_no, state=State.U, label=label,
                            words=label.identity_line())
            cache.install(new)
            ent.u_sharers.add(core)
            ent.check()
        elif ent.u_sharers:
            # Case 3: different label -> reduce at requester, enter U with
            # the new label holding the full value.
            ok = self._reduce_at(core, line_no, ent, requester, res,
                                 trigger=Trigger.REDUCTION_WRITE if is_store
                                 else Trigger.REDUCTION_READ,
                                 kind=AccessKind.LABELED_STORE if is_store
                                 else AccessKind.LABELED_LOAD,
                                 into_label=label)
            if not ok:
                return res
        elif ent.owner is not None and ent.owner != core:
            # Case 5: downgrade owner M -> U (it keeps its data); requester
            # initializes with identity.
            owner = ent.owner
            owner_entry = self.caches[owner].lookup(line_no)
            if owner_entry is None:
                raise ProtocolError(
                    f"directory owner {owner} lost line {line_no}"
                )
            if owner_entry.speculative:
                nackers = self._resolve_victims(line_no, [owner], requester,
                                                trigger, res)
                if nackers:
                    res.abort_requester = True
                    res.abort_cause = self._requester_cause(
                        AccessKind.LABELED_STORE if is_store
                        else AccessKind.LABELED_LOAD)
                    return res
            self._charge_inval_fanout(line_no, [owner], res)
            self.stats.downgrades += 1
            owner_entry.state = State.U
            owner_entry.label = label
            ent.owner = None
            ent.u_sharers.update({owner, core})
            ent.u_label = label
            ent.check()
            new = CacheLine(line=line_no, state=State.U, label=label,
                            words=label.identity_line())
            cache.install(new)
        else:
            # Cases 1-2: no private copies (after invalidating S sharers):
            # the requester receives the actual data.
            victims = [s for s in ent.sharers if s != core]
            spec_victims = [
                v for v in victims
                if (e := self.caches[v].lookup(line_no)) is not None
                and e.speculative
            ]
            nackers = self._resolve_victims(line_no, spec_victims, requester,
                                            trigger, res)
            if nackers:
                res.abort_requester = True
                res.abort_cause = self._requester_cause(
                    AccessKind.LABELED_STORE if is_store
                    else AccessKind.LABELED_LOAD)
                return res
            self._charge_inval_fanout(line_no, victims, res)
            for victim in victims:
                self.caches[victim].drop(line_no)
                self.directory.drop_sharer(ent, victim)
                self.stats.invalidations += 1
            if self.obs is not None and victims:
                self.obs.invalidated(line_no, len(victims))
            if entry is not None and entry.state is State.S:
                cache.drop(line_no)
                self.directory.drop_sharer(ent, core)
            new = CacheLine(line=line_no, state=State.U, label=label,
                            words=list(ent.words))
            cache.install(new)
            ent.u_sharers.add(core)
            ent.u_label = label
            ent.check()

        final = cache.lookup(line_no)
        if final is None:
            raise ProtocolError(f"labeled access lost line {line_no}")
        if is_store:
            self._write_word(final, addr, value, requester, labeled=True)
        else:
            if requester.speculative:
                final.spec_labeled = True
            res.value = final.words[word_index(addr)]
        return res

    # ------------------------------------------------------------------
    # Non-commutative access to a line this core holds in U
    # ------------------------------------------------------------------

    def _noncommutative_own_u(self, core: int, addr: int, entry: CacheLine,
                              requester: Requester, is_store: bool,
                              value: object,
                              into_label: Optional[Label] = None) -> AccessResult:
        """Handle an unlabeled (or differently-labeled) access to a line the
        issuing core itself holds in U (Sec. III-B4 last paragraph).

        If our own transaction speculatively modified the U line, we abort
        it and perform the reduction on non-speculative state; on restart
        the transaction's labeled accesses execute as conventional ones.
        """
        res = AccessResult()
        line_no = line_of(addr)
        cache = self.caches[core]
        res.cycles += self._private_lookup_cycles(cache.touch(line_no))

        if requester.speculative and entry.spec_modified:
            # Abort self; the conflict manager rolls the cache back, which
            # restores this entry's non-speculative value. The retry runs
            # labeled accesses as conventional ones (Sec. III-B4).
            self.conflicts.abort_requester(core, WastedCause.OTHER,
                                           disable_labels=True)
            res.abort_requester = True
            res.abort_cause = WastedCause.OTHER
            requester = SYSTEM  # the rest of the reduction is non-speculative

        ent = self._charge_dir_access(core, line_no, res)
        if core not in ent.u_sharers:
            raise ProtocolError(
                f"core {core} holds U line {line_no} unknown to directory"
            )

        if len(ent.u_sharers) == 1:
            # Sole sharer: our copy is the full value; convert in place.
            ent.u_sharers.clear()
            ent.u_label = None
            if into_label is not None:
                entry.state = State.U
                entry.label = into_label
                ent.u_sharers.add(core)
                ent.u_label = into_label
            else:
                entry.state = State.M
                entry.label = None
                ent.owner = core
            ent.check()
            self.stats.getx += 1  # upgrade request between L2 and L3
        else:
            kind = AccessKind.STORE if is_store else AccessKind.LOAD
            trigger = (Trigger.REDUCTION_WRITE if is_store
                       else Trigger.REDUCTION_READ)
            if is_store:
                self.stats.getx += 1
            else:
                self.stats.gets += 1
            ok = self._reduce_at(core, line_no, ent, requester, res,
                                 trigger=trigger, kind=kind,
                                 into_label=into_label)
            if not ok:
                return res

        final = cache.lookup(line_no)
        if res.abort_requester:
            return res
        if is_store:
            self._write_word(final, addr, value, requester,
                             labeled=into_label is not None)
        else:
            if requester.speculative:
                if into_label is not None:
                    final.spec_labeled = True
                else:
                    final.spec_read = True
            res.value = final.words[word_index(addr)]
        return res

    # ------------------------------------------------------------------
    # Reductions (Sec. III-B4, Fig. 7)
    # ------------------------------------------------------------------

    def _reduce_at(self, core: int, line_no: int, ent: DirEntry,
                   requester: Requester, res: AccessResult, trigger: Trigger,
                   kind: AccessKind,
                   into_label: Optional[Label] = None) -> bool:
        """Collapse all U-state copies of ``line_no`` at ``core``.

        On success the requester holds the merged line in M (or in U with
        ``into_label``) and the directory reflects it; returns True.

        If any sharer NACKs (its transaction is older), the requester still
        merges the data it received, retains it in U, and must abort
        (returns False with ``res.abort_requester`` set) — the NACKed
        reduction of Fig. 6b.
        """
        if self._in_handler:
            raise ReductionError("nested reduction triggered by a handler")
        label = ent.u_label
        if label is None:
            raise ProtocolError(f"reduction on line {line_no} with no label")
        cache = self.caches[core]
        own = cache.lookup(line_no)
        hctx = self.handler_context(core, res)
        cycles_before = res.cycles
        lines_before = self.stats.reduction_lines

        sharers = sorted(ent.u_sharers - {core})
        spec_victims = [
            v for v in sharers
            if (e := self.caches[v].lookup(line_no)) is not None
            and e.speculative
        ]
        nackers = self._resolve_victims(line_no, spec_victims, requester,
                                        trigger, res)
        self._charge_inval_fanout(line_no, sharers, res)

        merged: Optional[List[object]] = None
        if own is not None:
            merged = list(own.words)
        self.stats.reductions += 1
        self.stats.reductions_by_label[label.name] += 1
        if self.tracer is not None and requester.now is not None:
            from ..sim.trace import EventKind
            self.tracer.record(requester.now, core, EventKind.REDUCTION,
                               detail=label.name)

        # Sharers forward their lines in parallel (the dedicated virtual
        # network); the shadow thread merges them one at a time. When a
        # batched kernel is installed and the label is word-wise (the fold
        # never consults the HandlerContext), the forwarded lines are
        # collected and folded in one pass instead — same merge count, same
        # charge, bit-identical merged words.
        batch: Optional[List[List[object]]] = None
        if self.reduction_kernel is not None and label._reduce_word is not None:
            batch = [] if merged is None else [merged]
        max_forward = 0
        self._in_handler = True
        try:
            for sharer in sharers:
                if sharer in nackers:
                    continue
                ventry = self.caches[sharer].lookup(line_no)
                if ventry is None:
                    raise ProtocolError(
                        f"U sharer {sharer} lost line {line_no}"
                    )
                max_forward = max(max_forward,
                                  self._forward_latency(sharer, core))
                self.stats.reduction_lines += 1
                data = list(ventry.words)
                if batch is not None:
                    batch.append(data)
                elif merged is None:
                    merged = data
                else:
                    merged = label.reduce(hctx, merged, data)
                    res.cycles += self._handler_cost
                    self.stats.shadow_thread_cycles += self._handler_cost
                self.caches[sharer].drop(line_no)
                self.directory.drop_sharer(ent, sharer)
                self.stats.invalidations += 1
        finally:
            self._in_handler = False
        if batch:
            merged = self._fold_rows(label, batch, hctx, res)
        res.cycles += max_forward
        if self.obs is not None:
            # Forwarded lines were also invalidated at their sharers
            # (NACKers kept theirs and are excluded from both counts).
            self.obs.reduction(core, line_no, label,
                               forwarded=self.stats.reduction_lines
                               - lines_before,
                               nacked=len(nackers),
                               latency=res.cycles - cycles_before,
                               ts=requester.now)

        if merged is None:
            if nackers:
                # Every sharer NACKed and we held no copy: nothing was
                # forwarded; just abort and retry.
                res.abort_requester = True
                res.abort_cause = self._requester_cause(kind)
                return False
            raise ProtocolError(f"reduction of line {line_no} had no data")

        if nackers:
            # NACKed reduction: keep the partial merge in U and abort.
            self._install_reduced(core, line_no, ent, merged, own,
                                  as_state=State.U, label=label)
            res.abort_requester = True
            res.abort_cause = self._requester_cause(kind)
            return False

        if into_label is not None:
            self._install_reduced(core, line_no, ent, merged, own,
                                  as_state=State.U, label=into_label)
        else:
            self._install_reduced(core, line_no, ent, merged, own,
                                  as_state=State.M, label=None)
        return True

    def _install_reduced(self, core: int, line_no: int, ent: DirEntry,
                         merged: List[object], own: Optional[CacheLine],
                         as_state: State, label: Optional[Label]) -> None:
        """Install the merged value at the requester and fix the directory.

        Merged data is non-speculative by construction (reductions operate
        on non-speculative values), so it must survive a later abort of the
        requester's transaction: we update both the speculative words and
        the clean snapshot. If the requester's own line was speculatively
        modified, its speculative delta is preserved on top.
        """
        cache = self.caches[core]
        if own is not None and own.clean_words is not None:
            # own.words (speculative) already participated in the merge; the
            # clean copy must absorb the same forwarded data. Recompute:
            # merged = reduce(own.spec, forwards); clean' = reduce(own.clean,
            # forwards). We reconstruct forwards-merge by re-reducing clean
            # with (merged "minus" own.spec) — not expressible for general
            # labels, so instead we merged forwards separately below.
            raise ProtocolError(
                "speculatively-modified own U line reached _install_reduced; "
                "the caller must abort the requester first"
            )
        entry = CacheLine(line=line_no, state=as_state, label=label,
                          words=list(merged), dirty=True)
        cache.install(entry)
        ent.u_sharers.discard(core)
        if as_state is State.M:
            ent.owner = core
            if not ent.u_sharers:
                ent.u_label = None
        else:
            ent.u_sharers.add(core)
            ent.u_label = label
        ent.check()

    # ------------------------------------------------------------------
    # Gather requests (Sec. IV, Fig. 8)
    # ------------------------------------------------------------------

    def _gather(self, core: int, addr: int, label: Label,
                requester: Requester) -> AccessResult:
        """load_gather: redistribute partial updates without leaving U."""
        if not self.config.gather_enabled:
            # Ablation: gathers behave as plain labeled loads.
            return self._labeled_access(core, addr, label, requester,
                                        value=None, is_store=False)
        res = AccessResult()
        line_no = line_of(addr)
        cache = self.caches[core]
        entry = cache.lookup(line_no)

        if entry is None or entry.state is not State.U or entry.label is not label:
            # The paper issues gathers from U; acquire U first.
            inner = self._labeled_access(core, addr, label, requester,
                                         value=None, is_store=False)
            res.cycles += inner.cycles
            if inner.abort_requester:
                inner.cycles = res.cycles
                return inner
            entry = cache.lookup(line_no)
            if entry is None or entry.state is not State.U:
                # Landed in M/E: the core already sees the full value.
                res.value = inner.value
                return res

        ent = self._charge_dir_access(core, line_no, res)
        others = sorted(ent.u_sharers - {core})
        if not others:
            res.cycles += self._private_lookup_cycles(cache.touch(line_no))
            if requester.speculative:
                entry.spec_labeled = True
            res.value = entry.words[word_index(addr)]
            return res

        self.stats.gathers += 1
        self.stats.gathers_by_label[label.name] += 1
        if self.tracer is not None and requester.now is not None:
            from ..sim.trace import EventKind
            self.tracer.record(requester.now, core, EventKind.GATHER,
                               detail=label.name)
        cycles_before = res.cycles
        num_sharers = len(ent.u_sharers)
        nackers = self._resolve_victims(
            line_no,
            [v for v in others
             if (e := self.caches[v].lookup(line_no)) is not None
             and e.speculative],
            requester, Trigger.GATHER, res)
        self._charge_inval_fanout(line_no, others, res)
        # The directory's involvement ends here: it forwarded the gather to
        # the sharers (the line stays in U at everyone). Splits, donations
        # and merges flow core-to-core and do not occupy the home line.
        cycles_at_dir_release = res.cycles

        hctx = self.handler_context(core, res)
        donations: List[List[object]] = []
        # Splitters run concurrently on each sharer's shadow thread and the
        # donations are forwarded in parallel; the requester's serial work
        # is merging them (charged by _merge_nonspec).
        max_split_path = 0
        self._in_handler = True
        try:
            for sharer in others:
                if sharer in nackers:
                    continue
                ventry = self.caches[sharer].lookup(line_no)
                if ventry is None:
                    raise ProtocolError(
                        f"U sharer {sharer} lost line {line_no}"
                    )
                # The splitter runs on the *sharer's* shadow thread.
                sharer_ctx = self.handler_context(sharer, res)
                kept, donated = label.split(sharer_ctx, list(ventry.words),
                                            num_sharers)
                cost = self._handler_cost
                self.stats.shadow_thread_cycles += cost
                self.stats.splits += 1
                # The split is non-speculative: it rewrites the sharer's
                # clean value. Aborted victims were already rolled back;
                # surviving sharers must not have speculative state here.
                if ventry.spec_modified:
                    raise ProtocolError(
                        f"split on speculatively-modified line at {sharer}"
                    )
                ventry.words = list(kept)
                ventry.dirty = True
                path = cost + self._forward_latency(sharer, core)
                max_split_path = max(max_split_path, path)
                if not label.is_identity_line(donated):
                    donations.append(donated)
        finally:
            self._in_handler = False
        res.cycles += max_split_path

        # Merge donations into the requester's line non-speculatively: they
        # must survive an abort of the requester's transaction.
        self._merge_nonspec(core, entry, label, donations, hctx, res)
        if self.obs is not None:
            self.obs.gather(core, line_no, label, sharers=len(others),
                            donations=len(donations), nacked=len(nackers),
                            latency=res.cycles - cycles_before,
                            ts=requester.now)

        if nackers:
            res.abort_requester = True
            res.abort_cause = WastedCause.GATHER_AFTER_LABELED
            res.overlap_cycles = res.cycles - cycles_at_dir_release
            return res

        res.cycles += self._private_lookup_cycles(cache.touch(line_no))
        if requester.speculative:
            entry.spec_labeled = True
        res.value = entry.words[word_index(addr)]
        res.overlap_cycles = res.cycles - cycles_at_dir_release
        return res

    def _fold_rows(self, label: Label, rows: List[List[object]],
                   hctx: HandlerContext, res: AccessResult) -> List[object]:
        """Fold collected word-wise partial lines, preferring the batched
        kernel; falls back to the sequential left fold (identical result by
        the kernel's contract) when it declines. Charges one handler cost
        per merge — exactly what the in-loop sequential path charges."""
        if len(rows) == 1:
            return rows[0]
        cost = self._handler_cost * (len(rows) - 1)
        res.cycles += cost
        self.stats.shadow_thread_cycles += cost
        kernel = self.reduction_kernel
        out = kernel(label, rows) if kernel is not None else None
        if out is None:
            out = rows[0]
            self._in_handler = True
            try:
                for row in rows[1:]:
                    out = label.reduce(hctx, out, row)
            finally:
                self._in_handler = False
        return out

    def _merge_nonspec(self, core: int, entry: CacheLine, label: Label,
                       donations: List[List[object]], hctx: HandlerContext,
                       res: AccessResult) -> None:
        """Reduce forwarded partial lines into both the speculative and the
        non-speculative copy of ``entry`` (donated data is non-speculative
        and must survive a rollback)."""
        if not donations:
            return
        kernel = self.reduction_kernel
        if kernel is not None and label._reduce_word is not None:
            # Batched: fold all donations into the speculative copy (and
            # the clean snapshot, when present) in one kernel pass each.
            # Only taken when *every* fold the sequential loop would do is
            # kernel-exact; otherwise fall through unchanged.
            merged = kernel(label, [list(entry.words), *donations])
            clean = None
            if merged is not None and entry.clean_words is not None:
                clean = kernel(label, [list(entry.clean_words), *donations])
            if merged is not None and (entry.clean_words is None
                                       or clean is not None):
                cost = self._handler_cost * len(donations)
                res.cycles += cost
                self.stats.shadow_thread_cycles += cost
                entry.words = merged
                if clean is not None:
                    entry.clean_words = clean
                entry.dirty = True
                return
        self._in_handler = True
        try:
            for donated in donations:
                cost = self._handler_cost
                res.cycles += cost
                self.stats.shadow_thread_cycles += cost
                entry.words = label.reduce(hctx, list(entry.words), donated)
                if entry.clean_words is not None:
                    entry.clean_words = label.reduce(
                        hctx, list(entry.clean_words), donated
                    )
                entry.dirty = True
        finally:
            self._in_handler = False

    # ------------------------------------------------------------------
    # Evictions (Sec. III-B5)
    # ------------------------------------------------------------------

    def _on_private_eviction(self, core: int, victim: CacheLine) -> None:
        """A private cache evicted ``victim`` for capacity. Runs off the
        critical path (no cycles charged to the core)."""
        line_no = victim.line
        ent = self.directory.peek(line_no)
        if ent is None:
            # Inclusion guarantees an L3 entry for every private copy.
            raise ProtocolError(
                f"private eviction of line {line_no} absent from the L3"
            )
        if victim.state in (State.M, State.E):
            if ent.owner != core:
                raise ProtocolError(
                    f"evicting owner line {line_no} not owned by {core}"
                )
            ent.owner = None
            if victim.dirty:
                ent.words = victim.nonspec_words()
                ent.dirty = True
                self.stats.writebacks += 1
        elif victim.state is State.S:
            self.directory.drop_sharer(ent, core)  # no silent drops
        elif victim.state is State.U:
            self._evict_u_line(core, victim, ent)
        ent.check()

    def _evict_u_line(self, core: int, victim: CacheLine,
                      ent: DirEntry) -> None:
        """U-state eviction: sole sharer -> dirty writeback; otherwise the
        directory forwards the data to a random sharer, which reduces it
        locally (aborting that sharer's transaction if it touched the
        line)."""
        line_no = victim.line
        self.stats.u_evictions += 1
        self.directory.drop_sharer(ent, core)
        others = sorted(ent.u_sharers)
        if not others:
            ent.words = victim.nonspec_words()
            ent.dirty = True
            self.stats.writebacks += 1
            return
        label = ent.u_label
        target = others[self.rng.eviction().randrange(len(others))]
        tentry = self.caches[target].lookup(line_no)
        if tentry is None:
            raise ProtocolError(f"U sharer {target} lost line {line_no}")
        if tentry.speculative:
            # "If the chosen core is performing a transaction that touches
            # this data, for simplicity, the transaction is aborted."
            self.conflicts.resolve(target, line_no, SYSTEM,
                                   Trigger.EVICTION, tentry)
        dummy = AccessResult()
        hctx = self.handler_context(target, dummy)
        self._in_handler = True
        try:
            tentry.words = label.reduce(hctx, list(tentry.words),
                                        victim.nonspec_words())
        finally:
            self._in_handler = False
        tentry.dirty = True
        self.stats.forwards += 1
        self.stats.reduction_lines += 1

    def _on_l3_eviction(self, ent: DirEntry) -> None:
        """Inclusive L3 eviction: invalidate every private copy; U lines are
        reduced at one sharing core first. Aborts every transaction that
        accessed the line."""
        line_no = ent.line
        if ent.u_sharers:
            label = ent.u_label
            sharers = sorted(ent.u_sharers)
            home = sharers[0]
            merged: Optional[List[object]] = None
            for sharer in sharers:
                sentry = self.caches[sharer].lookup(line_no)
                if sentry is None:
                    raise ProtocolError(
                        f"U sharer {sharer} lost line {line_no}"
                    )
                if sentry.speculative:
                    self.conflicts.resolve(sharer, line_no, SYSTEM,
                                           Trigger.EVICTION, sentry)
                data = sentry.nonspec_words()
                if merged is None:
                    merged = data
                else:
                    dummy = AccessResult()
                    hctx = self.handler_context(home, dummy)
                    self._in_handler = True
                    try:
                        merged = label.reduce(hctx, merged, data)
                    finally:
                        self._in_handler = False
                self.caches[sharer].drop(line_no)
                self.directory.drop_sharer(ent, sharer)
            ent.words = merged
            ent.dirty = True
            self.stats.reductions += 1
            return
        if ent.owner is not None:
            owner = ent.owner
            oentry = self.caches[owner].lookup(line_no)
            if oentry is not None:
                if oentry.speculative:
                    self.conflicts.resolve(owner, line_no, SYSTEM,
                                           Trigger.EVICTION, oentry)
                if oentry.dirty:
                    ent.words = oentry.nonspec_words()
                    ent.dirty = True
                self.caches[owner].drop(line_no)
            ent.owner = None
        for sharer in list(ent.sharers):
            sentry = self.caches[sharer].lookup(line_no)
            if sentry is not None and sentry.speculative:
                self.conflicts.resolve(sharer, line_no, SYSTEM,
                                       Trigger.EVICTION, sentry)
            self.caches[sharer].drop(line_no)
            ent.sharers.discard(sharer)
        ent.check()

    # ------------------------------------------------------------------
    # Debug / test helpers
    # ------------------------------------------------------------------

    def peek_word(self, addr: int) -> object:
        """The globally-reduced (true) value at ``addr``, computed without
        protocol actions. For assertions and tests only."""
        line_no = line_of(addr)
        idx = word_index(addr)
        ent = self.directory.peek(line_no)
        if ent is None:
            return self.memory.read_word(addr)
        if ent.owner is not None:
            oentry = self.caches[ent.owner].lookup(line_no)
            if oentry is not None:
                return oentry.nonspec_words()[idx]
        if ent.u_sharers:
            label = ent.u_label
            merged = None
            dummy = HandlerContext(lambda a: 0, lambda a, v: None)
            for sharer in sorted(ent.u_sharers):
                sentry = self.caches[sharer].lookup(line_no)
                data = sentry.nonspec_words()
                merged = data if merged is None else label.reduce(
                    dummy, merged, data
                )
            return merged[idx]
        return ent.words[idx]

    def state_of(self, core: int, addr: int) -> State:
        entry = self.caches[core].lookup(line_of(addr))
        return entry.state if entry is not None else State.I

    # ------------------------------------------------------------------
    # Snapshot/restore (model-checker hooks)
    # ------------------------------------------------------------------

    def snapshot_state(self):
        """Capture the complete coherence state — every private cache,
        the L3/directory, line occupancy, and memory.  Stats, hooks
        (sanitizer/tracer/obs/conflicts), and the label registry are
        deliberately excluded: they are run infrastructure, not protocol
        state, and the model checker compares snapshots for equality.

        The returned value is immutable from the caller's perspective and
        can be passed to :meth:`restore_state` any number of times."""
        return (tuple(cache.snapshot() for cache in self.caches),
                self.directory.snapshot(),
                tuple(sorted(self._line_busy.items())),
                self.memory.snapshot())

    def restore_state(self, snap) -> None:
        """Reset caches, directory, occupancy, and memory to a
        :meth:`snapshot_state` capture."""
        cache_snaps, dir_snap, busy, mem_snap = snap
        for cache, csnap in zip(self.caches, cache_snaps):
            cache.restore(csnap)
        self.directory.restore(dir_snap)
        self._line_busy.clear()
        self._line_busy.update(busy)
        self.memory.restore(mem_snap)
