"""Differential tests for the coherence protocol's private-hit fast path.

The fast path (``MemorySystem.fast_load`` and friends, probed first by
the engine's memory-op handlers) is a host-side optimization only: for
every workload it must produce *bit-identical* simulated behaviour —
cycles, aborts, traffic, breakdowns — to the full protocol path the same
handlers take alone under the test-only ``_NO_FASTPATH`` flag. These
tests run every micro workload both ways and compare
``Stats.comparable()``, which covers every simulated statistic and
excludes only the ``host_*`` instrumentation counters.
"""

import pytest

from repro import (Atomic, LabeledLoad, LabeledStore, Load, LoadGather,
                   Machine, Work)
from repro.analysis.sanitizer import SANITIZE_ENV
from repro.coherence.protocol import MemorySystem
from repro.core.labels import add_label
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.params import SystemConfig, small_config
from repro.sim import engine as engine_mod
from repro.workloads.micro import (counter, linked_list, ordered_put,
                                   refcount, topk)

MICROS = {
    "counter": counter.build,
    "topk": topk.build,
    "ordered_put": ordered_put.build,
    "linked_list": linked_list.build,
    "refcount": refcount.build,
}


def _run(build, *, commtm, seed, no_fastpath, monkeypatch, sanitize=False,
         num_threads=4, **params):
    monkeypatch.setattr(engine_mod, "_NO_FASTPATH", no_fastpath)
    if sanitize:
        monkeypatch.setenv(SANITIZE_ENV, "1")
    else:
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
    # Pinned to the interpreted engine: this file differentially tests
    # *its* fast path, and asserts its host counters, which the vector
    # backend reports as "n/a (vector)". The vector backend has its own
    # oracle in tests/test_vector_equivalence.py. Obs is pinned off too:
    # an ambient REPRO_OBS=1 (the CI obs x vector leg exports it
    # suite-wide) deliberately disables the interpreted fast path, which
    # would contradict the hit-count assertions below.
    monkeypatch.delenv(OBS_ENV, raising=False)
    return run_workload(build, num_threads, num_cores=16, commtm=commtm,
                        seed=seed, total_ops=240, backend="interp", **params)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_fastpath_is_bit_identical(name, commtm, seed, monkeypatch):
    build = MICROS[name]
    fast = _run(build, commtm=commtm, seed=seed, no_fastpath=False,
                monkeypatch=monkeypatch)
    slow = _run(build, commtm=commtm, seed=seed, no_fastpath=True,
                monkeypatch=monkeypatch)

    assert fast.cycles == slow.cycles
    assert fast.stats.parallel_cycles == slow.stats.parallel_cycles
    assert fast.stats.aborts == slow.stats.aborts
    assert fast.stats.commits == slow.stats.commits
    # The full simulated surface: per-core breakdowns, wasted-cycle causes,
    # coherence traffic, CommTM mechanism counts, instruction counts.
    assert fast.stats.comparable() == slow.stats.comparable()

    # The flag really forces the slow path: zero hits, zero
    # *attempts* — the hit rate reads None ("disabled"), not 0.0.
    assert slow.stats.host_fastpath_hits == 0
    assert slow.stats.host_fastpath_misses == 0
    assert slow.stats.fastpath_hit_rate is None
    # ...and the fast path really fires (every micro has private hits).
    assert fast.stats.host_fastpath_hits > 0
    assert 0.0 < fast.stats.fastpath_hit_rate <= 1.0


@pytest.mark.parametrize("no_fastpath", [False, True],
                         ids=["fastpath", "no-fastpath"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_sanitized_runs_are_clean_and_equivalent(name, no_fastpath,
                                                 monkeypatch):
    """REPRO_SANITIZE=1 finds no violation on any micro, on either path,
    and observes without disturbing: the simulated statistics are
    bit-identical to the unsanitized run."""
    build = MICROS[name]
    plain = _run(build, commtm=True, seed=1, no_fastpath=no_fastpath,
                 monkeypatch=monkeypatch)
    # A violation anywhere in the run raises SanitizerError and fails here.
    checked = _run(build, commtm=True, seed=1, no_fastpath=no_fastpath,
                   monkeypatch=monkeypatch, sanitize=True)
    assert checked.cycles == plain.cycles
    assert checked.stats.comparable() == plain.stats.comparable()


def test_counter_commtm_is_hit_dominated(monkeypatch):
    # The labeled counter is the fast path's best case: after warmup every
    # access is a U-state hit with a matching label.
    res = _run(MICROS["counter"], commtm=True, seed=1, no_fastpath=False,
               monkeypatch=monkeypatch)
    assert res.stats.fastpath_hit_rate > 0.9


PROBES = ("fast_load", "fast_store", "fast_labeled_load",
          "fast_labeled_store")


@pytest.mark.parametrize("config", ["refcount-commtm", "counter-lazy"])
def test_hits_plus_misses_counts_probes(config, monkeypatch):
    """``host_fastpath_hits + host_fastpath_misses`` is the number of
    ``fast_*`` probes. Ops that are never probed must not count as misses:
    refcount's CommTM gathers, and every transactional store of a lazy
    baseline."""
    probes = [0]
    for name in PROBES:
        def counted(self, *args, _probe=getattr(MemorySystem, name)):
            probes[0] += 1
            return _probe(self, *args)
        monkeypatch.setattr(MemorySystem, name, counted)
    if config == "refcount-commtm":
        res = _run(MICROS["refcount"], commtm=True, seed=1,
                   no_fastpath=False, monkeypatch=monkeypatch, num_threads=8)
        assert res.stats.gathers > 0
    else:
        res = _run(MICROS["counter"], commtm=False, seed=1,
                   no_fastpath=False, monkeypatch=monkeypatch, num_threads=8,
                   base_config=SystemConfig(num_cores=16,
                                            conflict_detection="lazy"))
    stats = res.stats
    assert stats.host_fastpath_hits > 0
    assert stats.host_fastpath_hits + stats.host_fastpath_misses == probes[0]


ADDR = 0x1000


def _labels_disabled_retry(*, no_fastpath, monkeypatch):
    """A transaction that labeled-modifies a line and then reads it
    unlabeled aborts itself and retries with labels disabled (Sec.
    III-B4). The retry runs every labeled op type through the
    conventional route: the two leading labeled ops, and a trailing
    ``LabeledStore`` and ``LoadGather`` on the line it now holds in M."""
    monkeypatch.setattr(engine_mod, "_NO_FASTPATH", no_fastpath)
    monkeypatch.delenv(OBS_ENV, raising=False)
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    machine = Machine(small_config(num_cores=4), backend="interp")
    add = machine.register_label(add_label())
    observed = []

    def holder(ctx):
        # Keep a second U copy alive so the unlabeled read must reduce.
        v = yield LabeledLoad(ADDR, add)
        yield LabeledStore(ADDR, add, v + 10)

    def mixed(ctx):
        v = yield LabeledLoad(ADDR, add)
        yield LabeledStore(ADDR, add, v + 1)
        full = yield Load(ADDR)  # unlabeled read of own spec U data
        yield LabeledStore(ADDR, add, full + 1)
        return (yield LoadGather(ADDR, add))

    def body0(ctx):
        yield Atomic(holder)

    def body1(ctx):
        yield Work(200)  # let core 0 commit its partial first
        observed.append((yield Atomic(mixed)))

    machine.run([body0, body1])
    machine.flush_reducible()
    assert machine.read_word(ADDR) == 12
    assert observed == [12]
    return machine.stats


def test_labels_disabled_retry_is_bit_identical(monkeypatch):
    fast = _labels_disabled_retry(no_fastpath=False, monkeypatch=monkeypatch)
    slow = _labels_disabled_retry(no_fastpath=True, monkeypatch=monkeypatch)
    assert fast.aborts >= 1
    # Only the first attempt's two labeled ops count as labeled: the
    # retry ran all four conventionally.
    assert fast.labeled_instructions == 4
    assert fast.parallel_cycles == slow.parallel_cycles
    assert fast.comparable() == slow.comparable()
    assert fast.host_fastpath_hits > 0
