"""Differential-oracle parity tests for the vector engine backend.

The vector backend (``repro.sim.vector``) advances the simulation in
fence-bounded epochs — bulk-executing provably local operations (private
hits, think time, fused commutative transactions, certified misses) off
a min-start heap, interleaved with strict per-op phases for everything
else (including the begin and commit of every transaction that does not
fuse). It is a host-side optimization only: every simulated quantity
must be *bit-identical* to the interpreted engine. These tests run all
ten workloads — the five micros and the five ported applications
(kmeans, vacation, ssca2, genome, boruvka) — under both systems (CommTM
and the baseline HTM), plus a randomized op mix, and compare per-thread
cycles, ``parallel_cycles``, and the full ``Stats.comparable()`` dict —
the same differential oracle the run-ahead scheduler is held to in
tests/test_runahead_equivalence.py.

Composition is covered too. The coherence sanitizer is a per-op layer:
``REPRO_SANITIZE=1`` plus ``backend="vector"`` forces delegation to the
interpreted path with a logged notice (bit-identical, zero epochs). The
obs layer is *vector-native*: ``REPRO_OBS=1`` keeps the epochs engaged
and the engine synthesizes the interpreted path's emissions at their
exact strict positions — the full payload-equality matrix lives in
``tests/test_vector_obs_parity.py``; here we assert the engagement and
stats parity.
"""

import logging

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.runtime.ops import BARRIER, Atomic
from repro.sim.vector import BACKEND_ENV, available
from repro.workloads.apps import boruvka, genome, kmeans, ssca2, vacation
from repro.workloads.micro import (counter, linked_list, ordered_put,
                                   refcount, topk)
from repro.workloads.micro.common import BuiltWorkload

pytestmark = pytest.mark.skipif(
    not available(), reason="vector backend requires numpy")

MICROS = {
    "counter": counter.build,
    "topk": topk.build,
    "ordered_put": ordered_put.build,
    "linked_list": linked_list.build,
    "refcount": refcount.build,
}

#: The five ported applications at differential-oracle scale: big enough
#: that every fence class fires (misses, non-fusible transactions and
#: their commits, barriers, restarts, gathers, resizes, thread finish),
#: small enough to run the full 10-workload x 2-system matrix in tier 1.
#: ``total_ops=None`` opts the apps out of the micro-only default in
#: ``_run``.
APPS = {
    "boruvka": (boruvka.build, dict(num_nodes=48)),
    "genome": (genome.build, dict(num_segments=160, gene_length=256,
                                  initial_buckets=16)),
    "kmeans": (kmeans.build, dict(num_points=64, clusters=4, iterations=2)),
    "ssca2": (ssca2.build, dict(scale=5, edge_factor=3)),
    "vacation": (vacation.build, dict(num_tasks=96, relations=32)),
}


#: (micro, commtm) runs with no epoch to engage: topk's baseline threads
#: run transactions back to back, and the begin and commit of a
#: transaction that does not fuse fence the epoch, so the gate's first
#: checkpoint rebinds the whole run to the run-ahead loop.
NO_EPOCH_MICROS = {("topk", False)}


def _assert_engagement(name, commtm, stats):
    """Epochs engaged on the vector side — or, for the runs in
    NO_EPOCH_MICROS, none did and the gate rebound the run."""
    assert stats.host_backend == "vector"
    if (name, commtm) in NO_EPOCH_MICROS:
        assert stats.host_vector_epochs == 0
        assert stats.host_vector_gated
    else:
        assert stats.host_vector_epochs > 0
        assert stats.host_vector_epoch_ops > 0


def _run(build, *, backend, commtm, seed, monkeypatch, sanitize=False,
         observe=False, **params):
    # Parity must not depend on an ambient backend selection.
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    if sanitize:
        monkeypatch.setenv(SANITIZE_ENV, "1")
    else:
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
    if observe:
        monkeypatch.setenv(OBS_ENV, "1")
    else:
        monkeypatch.delenv(OBS_ENV, raising=False)
    params.setdefault("total_ops", 240)
    # total_ops=None opts a build without that parameter (kmeans, the
    # random mix) out of the micro default.
    params = {k: v for k, v in params.items() if v is not None}
    return run_workload(build, 4, num_cores=16, commtm=commtm, seed=seed,
                        backend=backend, **params)


def _assert_parity(interp, vector):
    assert interp.cycles == vector.cycles
    assert interp.stats.parallel_cycles == vector.stats.parallel_cycles
    assert interp.stats.aborts == vector.stats.aborts
    assert interp.stats.commits == vector.stats.commits
    assert interp.stats.comparable() == vector.stats.comparable()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_vector_is_bit_identical(name, commtm, seed, monkeypatch):
    build = MICROS[name]
    interp = _run(build, backend="interp", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch)
    vector = _run(build, backend="vector", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch)
    _assert_parity(interp, vector)

    # The backends really ran where they claim: epochs engaged on the
    # vector side (where the micro has a certifiable window) and never on
    # the interpreted side.
    assert interp.stats.host_backend == "interp"
    assert interp.stats.host_vector_epochs == 0
    _assert_engagement(name, commtm, vector.stats)


@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(APPS))
def test_vector_is_bit_identical_on_apps(name, commtm, monkeypatch):
    """The full application matrix under both systems. kmeans mixes fused
    commutative transactions with reduction resets, barriers, and
    first-touch misses — the densest fence profile in the repo; genome and
    vacation bring hash-table gathers and resizes, ssca2 and boruvka bring
    irregular graph footprints with MIN-labeled reductions."""
    build, params = APPS[name]
    interp = _run(build, backend="interp", commtm=commtm, seed=1,
                  monkeypatch=monkeypatch, total_ops=None, **params)
    vector = _run(build, backend="vector", commtm=commtm, seed=1,
                  monkeypatch=monkeypatch, total_ops=None, **params)
    _assert_parity(interp, vector)
    assert vector.stats.host_vector_epochs > 0
    if name == "kmeans" and commtm:
        # The accumulate transaction lowers through the fused-plan
        # registry, so the closed form must actually fire.
        assert vector.stats.host_vector_fused_txs > 0


def test_fence_causes_name_what_fenced(monkeypatch):
    """Every fence is charged to the event that raised it: kmeans' barrier
    waves count as "barrier" and its interpreted transactions' commits as
    "tx_commit" — neither falls through to the catch-all."""
    build, params = APPS["kmeans"]
    vector = _run(build, backend="vector", commtm=True, seed=1,
                  monkeypatch=monkeypatch, total_ops=None, **params)
    causes = vector.stats.host_vector_fence_causes
    assert causes["barrier"] > 0
    assert causes["tx_commit"] > 0
    assert "unhandled_op" not in causes


def _random_mix(machine, num_threads: int, iters: int = 60) -> BuiltWorkload:
    """Deterministic per-thread random mixes of conventional loads,
    private stores, variable think time, commutative transactions, and
    barriers — irregular core clocks stress epoch certification, fence
    placement, and strict-phase hand-off edges."""
    from repro.datatypes.counter import SharedCounter

    shared_counter = SharedCounter(machine)
    lines = [machine.alloc.alloc_line() for _ in range(4)]
    for addr in lines:
        machine.seed_word(addr, 0)

    def make_body(tid: int):
        def body(ctx):
            rng = ctx.rng
            scratch = ctx.thread_alloc_words(1)
            add_one = Atomic(shared_counter.add, 1)
            for i in range(iters):
                r = rng.random()
                if r < 0.4:
                    yield ctx.load(lines[rng.randrange(len(lines))])
                elif r < 0.6:
                    yield ctx.store(scratch, i)
                elif r < 0.85:
                    yield ctx.work(1 + rng.randrange(50))
                else:
                    yield add_one
                if i % 20 == 10:
                    yield BARRIER
        return body

    return BuiltWorkload(
        name="random_mix",
        bodies=[make_body(t) for t in range(num_threads)],
        verify=None,
        info={},
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
def test_random_mix_parity(commtm, seed, monkeypatch):
    interp = _run(_random_mix, backend="interp", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch, total_ops=None)
    vector = _run(_random_mix, backend="vector", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch, total_ops=None)
    _assert_parity(interp, vector)


def test_vector_composes_with_sanitize(monkeypatch, caplog):
    """REPRO_SANITIZE is a per-op layer: combined with the vector backend
    the whole run must delegate to the interpreted path (zero epochs),
    say so in the log, and stay bit-identical."""
    interp = _run(MICROS["counter"], backend="interp", commtm=True, seed=1,
                  monkeypatch=monkeypatch, sanitize=True)
    with caplog.at_level(logging.INFO, logger="repro.sim.vector"):
        vector = _run(MICROS["counter"], backend="vector", commtm=True,
                      seed=1, monkeypatch=monkeypatch, sanitize=True)
    _assert_parity(interp, vector)
    assert vector.stats.host_backend == "vector"
    assert vector.stats.host_vector_epochs == 0
    assert any("interpreted engine" in r.message for r in caplog.records)


def test_vector_composes_with_obs(monkeypatch):
    """REPRO_OBS is vector-native: epochs stay engaged under observation
    and the simulated results remain bit-identical. (Payload equality
    across every workload is tests/test_vector_obs_parity.py's job.)"""
    interp = _run(MICROS["counter"], backend="interp", commtm=True, seed=1,
                  monkeypatch=monkeypatch, observe=True)
    vector = _run(MICROS["counter"], backend="vector", commtm=True, seed=1,
                  monkeypatch=monkeypatch, observe=True)
    _assert_parity(interp, vector)
    assert vector.stats.host_backend == "vector"
    assert vector.stats.host_vector_epochs > 0
    assert vector.stats.host_vector_epoch_ops > 0
    assert vector.info["obs"] is not None


