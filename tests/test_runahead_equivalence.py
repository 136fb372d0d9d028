"""Differential tests for the run-ahead (leapfrog) scheduler.

The run-ahead scheduler (``Engine._scheduler``) is a host-side
optimization only: it batches consecutive steps of the minimum-clock core
into one scheduling quantum, but must reproduce the *exact* ``(stamp,
core)`` pop order of the single-step reference loop
(``Engine._run_stepped``, selected by the test-only ``_NO_RUNAHEAD``
flag). These tests run every micro workload both ways and compare
``Stats.comparable()`` (every simulated statistic, ``host_*`` counters
excluded) — and, for a sharper check, record the full op-level
interleaving trace of both schedulers and require it to be identical
element by element, including when the scheduler is driven in small op
budgets the way the vector backend drives it between epochs.

The adaptive fast-path gate (``Engine._disable_fastpath``) is validated
here too: it is driven purely by the attempt/hit sequence, which the
trace tests prove is scheduler-independent, so gating composes with
run-ahead without breaking bit-identity.
"""

import pytest

from repro import Machine
from repro.analysis.sanitizer import SANITIZE_ENV
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV
from repro.params import small_config
from repro.runtime.ops import BARRIER, Atomic
from repro.sim import engine as engine_mod
from repro.sim.engine import Engine
from repro.workloads.micro import (counter, linked_list, ordered_put,
                                   refcount, topk)
from repro.workloads.micro.common import BuiltWorkload

MICROS = {
    "counter": counter.build,
    "topk": topk.build,
    "ordered_put": ordered_put.build,
    "linked_list": linked_list.build,
    "refcount": refcount.build,
}


def _run(build, *, commtm, seed, runahead, monkeypatch, sanitize=False,
         observe=False, **params):
    monkeypatch.setattr(engine_mod, "_NO_RUNAHEAD", not runahead)
    if sanitize:
        monkeypatch.setenv(SANITIZE_ENV, "1")
    else:
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
    if observe:
        monkeypatch.setenv(OBS_ENV, "1")
    else:
        monkeypatch.delenv(OBS_ENV, raising=False)
    params.setdefault("total_ops", 240)
    # Pinned to the interpreted engine: this file differentially tests
    # *its* run-ahead scheduler, and asserts its host batching counters,
    # which the vector backend reports as "n/a (vector)". The vector
    # backend has its own oracle in tests/test_vector_equivalence.py.
    return run_workload(build, 4, num_cores=16, commtm=commtm, seed=seed,
                        backend="interp", **params)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_runahead_is_bit_identical(name, commtm, seed, monkeypatch):
    build = MICROS[name]
    ahead = _run(build, commtm=commtm, seed=seed, runahead=True,
                 monkeypatch=monkeypatch)
    stepped = _run(build, commtm=commtm, seed=seed, runahead=False,
                   monkeypatch=monkeypatch)

    assert ahead.cycles == stepped.cycles
    assert ahead.stats.parallel_cycles == stepped.stats.parallel_cycles
    assert ahead.stats.aborts == stepped.stats.aborts
    assert ahead.stats.commits == stepped.stats.commits
    assert ahead.stats.comparable() == stepped.stats.comparable()

    # The flag really selects the reference loop (no quanta), and the
    # run-ahead loop really batches (>= 1 op per quantum).
    assert stepped.stats.host_runahead_batches == 0
    assert stepped.stats.runahead_ops_per_batch is None
    assert ahead.stats.host_runahead_batches > 0
    assert ahead.stats.runahead_ops_per_batch >= 1.0


@pytest.mark.parametrize("mode", ["obs", "sanitize"])
@pytest.mark.parametrize("name", ["counter", "topk"])
def test_runahead_composes_with_obs_and_sanitize(name, mode, monkeypatch):
    """Run-ahead stays bit-identical when the observability layer or the
    coherence sanitizer rebuilds the handler table around it."""
    build = MICROS[name]
    kwargs = {"sanitize": mode == "sanitize", "observe": mode == "obs"}
    ahead = _run(build, commtm=True, seed=1, runahead=True,
                 monkeypatch=monkeypatch, **kwargs)
    stepped = _run(build, commtm=True, seed=1, runahead=False,
                   monkeypatch=monkeypatch, **kwargs)
    assert ahead.cycles == stepped.cycles
    assert ahead.stats.comparable() == stepped.stats.comparable()
    assert ahead.stats.host_runahead_batches > 0


# ---------------------------------------------------------------------------
# Adaptive fast-path gate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("runahead", [True, False],
                         ids=["runahead", "stepped"])
def test_gate_disables_fastpath_on_contended_baseline(runahead, monkeypatch):
    """The baseline counter is the fast path's worst case (every store
    contends): the gate must trip after warmup, record a sub-threshold
    hit rate, and leave simulated results bit-identical to both the
    never-attempted (``_NO_FASTPATH``) run and the other scheduler."""
    gated = _run(MICROS["counter"], commtm=False, seed=1, runahead=runahead,
                 monkeypatch=monkeypatch, total_ops=600)
    assert gated.stats.host_fastpath_gated
    assert gated.stats.fastpath_hit_rate is not None
    assert gated.stats.fastpath_hit_rate < 0.5

    monkeypatch.setattr(engine_mod, "_NO_FASTPATH", True)
    never = _run(MICROS["counter"], commtm=False, seed=1, runahead=runahead,
                 monkeypatch=monkeypatch, total_ops=600)
    monkeypatch.setattr(engine_mod, "_NO_FASTPATH", False)
    assert not never.stats.host_fastpath_gated
    assert never.stats.fastpath_hit_rate is None
    assert gated.cycles == never.cycles
    assert gated.stats.comparable() == never.stats.comparable()


def test_gate_decision_is_scheduler_independent(monkeypatch):
    ahead = _run(MICROS["counter"], commtm=False, seed=1, runahead=True,
                 monkeypatch=monkeypatch, total_ops=600)
    stepped = _run(MICROS["counter"], commtm=False, seed=1, runahead=False,
                   monkeypatch=monkeypatch, total_ops=600)
    # Identical interleaving -> identical attempt/hit sequence -> the gate
    # trips at the same op with the same observed rate.
    assert ahead.stats.host_fastpath_gated
    assert stepped.stats.host_fastpath_gated
    assert ahead.stats.fastpath_hit_rate == stepped.stats.fastpath_hit_rate


def test_gate_leaves_hit_dominated_workloads_alone(monkeypatch):
    res = _run(MICROS["counter"], commtm=True, seed=1, runahead=True,
               monkeypatch=monkeypatch, total_ops=600)
    assert not res.stats.host_fastpath_gated
    assert res.stats.fastpath_hit_rate > 0.9


# ---------------------------------------------------------------------------
# Op-level interleaving traces
# ---------------------------------------------------------------------------

def _random_mix(machine, num_threads: int, iters: int = 60) -> BuiltWorkload:
    """A scheduling-order stress: per-thread deterministic random mixes of
    conventional loads, private stores, variable think time, commutative
    transactions, and barriers — far more irregular core clocks than any
    micro, so quantum hand-off edges get exercised hard."""
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


def _traced_engine(machine, bodies):
    """An Engine whose every op dispatch is recorded as
    ``(core, op class, addr)`` — the full interleaving, not just totals."""
    engine = Engine(machine, bodies)
    trace = []
    append = trace.append

    def wrap(handler):
        def wrapped(runner, op):
            append((runner.core, op.__class__.__name__,
                    getattr(op, "addr", None)))
            return handler(runner, op)
        return wrapped

    for op_cls, handler in list(engine._handlers.items()):
        engine._handlers[op_cls] = wrap(handler)
    return engine, trace


#: How ``_interleaving`` drives the engine: the stepped reference loop,
#: ``Engine.run`` (one unbounded budget), or the one scheduler resumed with
#: ``send(b)`` until it drains — the vector backend's burst protocol, where
#: every spent budget parks the running core back in the heap.
STEPPED = "stepped"
RUN = "run"
BUDGETS = (1, 3, 8)


def _interleaving(build, *, commtm, seed, mode, monkeypatch):
    # Pin the fast path off so the handler table stays stable (the gate
    # rebinding mid-run would strip the recording wrappers).
    monkeypatch.setattr(engine_mod, "_NO_FASTPATH", True)
    monkeypatch.setattr(engine_mod, "_NO_RUNAHEAD", mode == STEPPED)
    machine = Machine(small_config(num_cores=8, seed=seed,
                                   commtm_enabled=commtm))
    built = build(machine, 4)
    engine, trace = _traced_engine(machine, built.bodies)
    if mode in (STEPPED, RUN):
        engine.run()
    else:
        scheduler = engine._scheduler()
        next(scheduler)
        while scheduler.send(mode):
            pass
        scheduler.close()
        assert engine.clocks.all_finished()
        machine.stats.parallel_cycles = engine.clocks.max_cycle
        assert machine.stats.host_runahead_batches > 0
    return trace, machine.stats


def _assert_same_interleaving(build, *, commtm, seed, monkeypatch):
    ref, ref_stats = _interleaving(build, commtm=commtm, seed=seed,
                                   mode=STEPPED, monkeypatch=monkeypatch)
    assert ref
    for mode in (RUN,) + BUDGETS:
        trace, stats = _interleaving(build, commtm=commtm, seed=seed,
                                     mode=mode, monkeypatch=monkeypatch)
        assert len(trace) == len(ref), mode
        assert trace == ref, mode
        assert stats.parallel_cycles == ref_stats.parallel_cycles, mode
        assert stats.comparable() == ref_stats.comparable(), mode


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
def test_random_mix_interleaving_identical(commtm, seed, monkeypatch):
    _assert_same_interleaving(_random_mix, commtm=commtm, seed=seed,
                              monkeypatch=monkeypatch)


@pytest.mark.parametrize("name", sorted(MICROS))
def test_micro_interleaving_identical(name, monkeypatch):
    def build(machine, num_threads):
        return MICROS[name](machine, num_threads, total_ops=120)

    _assert_same_interleaving(build, commtm=True, seed=1,
                              monkeypatch=monkeypatch)
