"""Coherence building blocks: states, NoC, cache lines, private cache,
directory."""

import random

import pytest

from repro import Machine
from repro.coherence.cache import PrivateCache
from repro.coherence.directory import Directory, DirEntry
from repro.coherence.line import CacheLine
from repro.coherence.messages import AccessResult
from repro.coherence.noc import Mesh
from repro.coherence.states import State
from repro.core.labels import add_label
from repro.errors import ProtocolError
from repro.mem.memory import MainMemory
from repro.params import CacheGeometry, NocConfig, SystemConfig, small_config

ADD = add_label()


class TestStates:
    def test_can_read(self):
        assert State.M.can_read and State.E.can_read and State.S.can_read
        assert not State.U.can_read and not State.I.can_read

    def test_can_write(self):
        assert State.M.can_write and State.E.can_write
        assert not State.S.can_write
        assert not State.U.can_write

    def test_exclusive(self):
        assert State.M.is_exclusive and State.E.is_exclusive
        assert not State.S.is_exclusive

    def test_labeled_satisfaction(self):
        assert State.M.can_satisfy_labeled(None, ADD)
        assert State.U.can_satisfy_labeled(ADD, ADD)
        assert not State.U.can_satisfy_labeled(ADD, "OTHER")
        assert not State.S.can_satisfy_labeled(None, ADD)
        assert not State.I.can_satisfy_labeled(None, ADD)


class TestMesh:
    def setup_method(self):
        self.mesh = Mesh(NocConfig(mesh_width=4, mesh_height=4,
                                   router_cycles=2, link_cycles=1))

    def test_coords(self):
        assert self.mesh.coords(0) == (0, 0)
        assert self.mesh.coords(5) == (1, 1)
        assert self.mesh.coords(15) == (3, 3)

    def test_hops_manhattan(self):
        assert self.mesh.hops(0, 0) == 0
        assert self.mesh.hops(0, 3) == 3
        assert self.mesh.hops(0, 15) == 6

    def test_hops_symmetric(self):
        for a in range(16):
            for b in range(16):
                assert self.mesh.hops(a, b) == self.mesh.hops(b, a)

    def test_latency_formula(self):
        # h links + (h+1) routers
        assert self.mesh.latency(0, 0) == 2
        assert self.mesh.latency(0, 1) == 1 + 4

    def test_round_trip(self):
        assert self.mesh.round_trip(0, 5) == 2 * self.mesh.latency(0, 5)

    def test_max_latency_from(self):
        assert self.mesh.max_latency_from(0, []) == 0
        worst = self.mesh.max_latency_from(0, [1, 15])
        assert worst == self.mesh.latency(0, 15)


#: The Table I 4x4 mesh, the 2x2 test mesh, and a non-square mesh (which
#: catches a width/height transposition) whose bank count wraps the tiles.
NOC_CONFIGS = {
    "4x4-128c-16b": lambda: SystemConfig(),
    "2x2-8c-4b": lambda: small_config(),
    "4x2-32c-12b": lambda: small_config(
        num_cores=32, noc=NocConfig(mesh_width=4, mesh_height=2),
        l3_banks=12),
}


@pytest.mark.parametrize("name", sorted(NOC_CONFIGS))
class TestNocTables:
    """The memory system's per-machine NoC tables against Mesh."""

    def _build(self, name):
        config = NOC_CONFIGS[name]()
        return config, Machine(config).msys, Mesh(config.noc)

    def test_tables_match_mesh(self, name):
        config, msys, mesh = self._build(name)
        tiles = range(config.noc.num_tiles)
        tile_of = [config.tile_of_core(c) for c in range(config.num_cores)]
        assert msys._tile_of == tile_of
        for a in tiles:
            for b in tiles:
                assert msys._tile_lat[a][b] == mesh.latency(a, b)
                assert msys._tile_hops[a][b] == mesh.hops(a, b)
        assert len(msys._bank_rt) == config.l3_banks
        for bank in range(config.l3_banks):
            bank_tile = bank % config.noc.num_tiles
            for core, tile in enumerate(tile_of):
                assert msys._bank_rt[bank][core] == \
                    2 * mesh.latency(bank_tile, tile)
                assert msys._dir_rt[core][bank] == \
                    mesh.round_trip(tile, bank_tile)
                assert msys._dir_hops2[core][bank] == \
                    2 * mesh.hops(tile, bank_tile)

    def test_fanout_matches_max_latency_from(self, name):
        config, msys, mesh = self._build(name)
        rng = random.Random(15)
        for _ in range(300):
            line_no = rng.randrange(1 << 20)
            victims = rng.sample(range(config.num_cores),
                                 rng.randint(0, min(12, config.num_cores)))
            res = AccessResult(cycles=3)
            msys._charge_inval_fanout(line_no, victims, res)
            bank_tile = (line_no % config.l3_banks) % config.noc.num_tiles
            tiles = [config.tile_of_core(v) for v in victims]
            assert res.cycles == 3 + 2 * mesh.max_latency_from(bank_tile,
                                                               tiles)

    def test_forward_matches_mesh(self, name):
        config, msys, mesh = self._build(name)
        rng = random.Random(16)
        for _ in range(300):
            src, dst = rng.randrange(config.num_cores), \
                rng.randrange(config.num_cores)
            forwards, hops = msys.stats.forwards, msys.stats.noc_hops
            st, dt = config.tile_of_core(src), config.tile_of_core(dst)
            assert msys._forward_latency(src, dst) == mesh.latency(st, dt)
            assert msys.stats.forwards == forwards + 1
            assert msys.stats.noc_hops == hops + mesh.hops(st, dt)


class TestCacheLine:
    def test_u_state_requires_label(self):
        with pytest.raises(ProtocolError):
            CacheLine(line=0, state=State.U, words=[0] * 8)

    def test_snapshot_and_rollback(self):
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        entry.snapshot_before_write()
        entry.spec_written = True
        entry.words = [2] * 8
        assert entry.spec_modified
        entry.rollback()
        assert entry.words == [1] * 8
        assert not entry.speculative

    def test_snapshot_once(self):
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        entry.snapshot_before_write()
        entry.words = [2] * 8
        entry.snapshot_before_write()  # must keep the ORIGINAL value
        entry.words = [3] * 8
        entry.rollback()
        assert entry.words == [1] * 8

    def test_commit_clears_spec(self):
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        entry.snapshot_before_write()
        entry.spec_written = True
        entry.words = [2] * 8
        entry.commit()
        assert entry.words == [2] * 8
        assert not entry.speculative
        assert entry.clean_words is None

    def test_nonspec_words(self):
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        entry.snapshot_before_write()
        entry.words = [2] * 8
        assert entry.nonspec_words() == [1] * 8


def _small_cache(l1_lines=2, l2_lines=4):
    return PrivateCache(
        0,
        CacheGeometry(size_bytes=l1_lines * 64, ways=1, latency=1),
        CacheGeometry(size_bytes=l2_lines * 64, ways=1, latency=6),
    )


class TestPrivateCache:
    def test_lookup_miss(self):
        cache = _small_cache()
        assert cache.lookup(0) is None

    def test_install_and_lookup(self):
        cache = _small_cache()
        cache.install(CacheLine(line=3, state=State.S, words=[0] * 8))
        assert cache.lookup(3).state is State.S

    def test_l1_tracker_hits(self):
        cache = _small_cache(l1_lines=2)
        cache.install(CacheLine(line=0, state=State.S, words=[0] * 8))
        assert cache.touch(0)  # just installed -> L1 hit
        cache.install(CacheLine(line=1, state=State.S, words=[0] * 8))
        cache.install(CacheLine(line=2, state=State.S, words=[0] * 8))
        # line 0 fell out of the 2-line L1 but is still in the L2.
        assert not cache.touch(0)
        assert cache.lookup(0) is not None

    def test_l2_capacity_evicts_lru(self):
        evicted = []
        cache = _small_cache(l2_lines=2)
        cache.eviction_hook = evicted.append
        for line in range(3):
            cache.install(CacheLine(line=line, state=State.S, words=[0] * 8))
        assert [e.line for e in evicted] == [0]
        assert cache.lookup(0) is None

    def test_spec_eviction_hook_fires(self):
        events = []
        cache = _small_cache(l1_lines=1, l2_lines=8)
        cache.spec_eviction_hook = lambda core, why: events.append(why)
        entry = CacheLine(line=0, state=State.M, words=[0] * 8)
        entry.spec_written = True
        cache.install(entry)
        cache.install(CacheLine(line=1, state=State.S, words=[0] * 8))
        assert events == ["l1-capacity"]

    def test_rollback_and_commit_all(self):
        cache = _small_cache(l2_lines=8)
        entry = CacheLine(line=0, state=State.M, words=[1] * 8)
        cache.install(entry)
        entry.snapshot_before_write()
        entry.spec_written = True
        entry.words = [9] * 8
        cache.rollback_all()
        assert cache.lookup(0).words == [1] * 8
        entry2 = cache.lookup(0)
        entry2.snapshot_before_write()
        entry2.spec_written = True
        entry2.words = [5] * 8
        cache.commit_all()
        assert cache.lookup(0).words == [5] * 8
        assert not cache.lookup(0).speculative

    def test_drop(self):
        cache = _small_cache()
        cache.install(CacheLine(line=0, state=State.S, words=[0] * 8))
        cache.drop(0)
        assert cache.lookup(0) is None

    def test_spec_lines(self):
        cache = _small_cache(l2_lines=8)
        a = CacheLine(line=0, state=State.M, words=[0] * 8)
        a.spec_read = True
        cache.install(a)
        cache.install(CacheLine(line=1, state=State.S, words=[0] * 8))
        assert [e.line for e in cache.spec_lines()] == [0]


class TestDirectory:
    def test_entry_fills_from_memory(self):
        mem = MainMemory()
        mem.write_word(0, 42)
        directory = Directory(mem, num_lines=0)
        ent = directory.entry(0)
        assert ent.words[0] == 42

    def test_was_miss(self):
        directory = Directory(MainMemory(), num_lines=0)
        assert directory.was_miss(0)
        directory.entry(0)
        assert not directory.was_miss(0)

    def test_direntry_incompatible_sharers(self):
        ent = DirEntry(line=0, words=[0] * 8)
        ent.owner = 1
        ent.sharers = {2}
        with pytest.raises(ProtocolError):
            ent.check()

    def test_direntry_u_without_label(self):
        ent = DirEntry(line=0, words=[0] * 8)
        ent.u_sharers = {1}
        with pytest.raises(ProtocolError):
            ent.check()

    def test_drop_sharer(self):
        ent = DirEntry(line=0, words=[0] * 8)
        ent.u_sharers = {1, 2}
        ent.u_label = ADD
        directory = Directory(MainMemory(), num_lines=0)
        directory.drop_sharer(ent, 1)
        assert ent.u_sharers == {2}
        directory.drop_sharer(ent, 2)
        assert ent.u_label is None  # cleared with the last sharer

    def test_private_state_of(self):
        ent = DirEntry(line=0, words=[0] * 8, owner=3)
        assert ent.private_state_of(3) is State.M
        assert ent.private_state_of(1) is State.I

    def test_capacity_eviction_writes_back(self):
        mem = MainMemory()
        directory = Directory(mem, num_lines=2)
        e0 = directory.entry(0)
        e0.words = [7] * 8
        e0.dirty = True
        directory.entry(1)
        directory.entry(2)  # evicts line 0
        assert directory.peek(0) is None
        assert mem.read_word(0) == 7

    def test_eviction_with_sharers_requires_hook(self):
        directory = Directory(MainMemory(), num_lines=1)
        ent = directory.entry(0)
        ent.owner = 1
        with pytest.raises(ProtocolError):
            directory.entry(1)  # would evict line 0 with a live owner
