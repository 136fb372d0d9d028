"""Simulator throughput benchmark.

Measures raw simulation speed (simulated instructions per wall-clock
second) on the hot-loop workloads, plus sweep wall-clock with and without
worker processes and the on-disk result cache. Writes
``BENCH_sim_throughput.json`` at the repository root so runs are
comparable across commits.

Numbers are best-of-N minimum times (robust against scheduler noise),
A/B ratios interleave the reps of the configs they compare (so drift in
the host's effective speed cancels out of the ratio), and the report
records ``cpu_count``: on a single-CPU machine ``--jobs`` adds
process overhead instead of speedup, and only the cache shows the sweep
win. Simulated *results* are identical in every mode — only wall-clock
changes.

Two sweeps are timed: the historical 8-point sweep, which now falls under
the serial threshold (run_points quietly runs it serially — the regression
this JSON once recorded is gone by construction), and a 16-point sweep
that engages the persistent worker pool at ``jobs=4``. Single runs also
record ``fastpath_hit_rate`` (the fraction of memory accesses served by
the coherence protocol's private-hit fast path) and ``fastpath_speedup``
(wall-clock ratio against a full-protocol-handler run in the same
process, selected by the engine's test-only ``_NO_FASTPATH`` flag),
``runahead`` (wall-clock ratio against a single-step-scheduler run,
selected by ``_NO_RUNAHEAD``, with the run-ahead loop's ops-per-quantum
batching factor), plus the wall-clock cost of the opt-in instrumentation
layers:
``sanitize.slowdown`` (``REPRO_SANITIZE=1`` invariant sweeps) and
``obs.slowdown`` (``REPRO_OBS=1`` structured observability) — both
asserted to leave simulated stats bit-identical. The obs point is a
four-way interleave when numpy is present: plain and observed runs of
both backends, recording ``obs.vector_slowdown`` (what observation costs
the vector engine, whose epochs stay engaged under obs) and
``obs.vector_vs_interp_observed`` (the observed-vector over
observed-interp speedup — the reason obs no longer forces the
interpreted path). The plain vector leg of that interleave doubles as
the zero-overhead-when-off guard: it must produce no obs payload, and
its wall-clock is the baseline the obs-on leg is paired against.

When numpy is installed, each single-run point is also timed under the
vector engine backend (``backend="vector"``) as a fourth leg of the same
interleaved A/B, recorded as ``backend_ab`` (interp vs vector ops/sec and
the speedup ratio) and ``single_run_ops_per_sec_vector``, with a
``vector_engagement`` entry per workload (epochs, epoch ops, fused
transactions, certified protocol ops, the fence-cause histogram, and
whether the adaptive gate rebound the run). The vector run is asserted
bit-identical to the interpreted run on the spot —
tests/test_vector_equivalence.py holds the full differential oracle.
``tools/check_bench_regression.py`` reads the ``backend_ab`` speedups
back and warns when a workload falls under its per-workload floor.

Set ``REPRO_BENCH_SMOKE=1`` (CI's bench-smoke job) for a reduced config
that exercises every code path in seconds without pretending to be a
stable measurement.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.harness import ResultCache, make_spec, run_points
from repro.harness.parallel import warm_pool
from repro.harness.runner import run_workload
from repro.obs import OBS_ENV, vector_engagement
from repro.sim import engine as engine_mod
from repro.sim.vector import BACKEND_ENV, available as vector_available
from repro.workloads.apps import kmeans
from repro.workloads.micro import counter

OUT_PATH = Path(__file__).parent.parent / "BENCH_sim_throughput.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: name -> (builder, run_workload kwargs, best-of reps)
if SMOKE:
    SINGLE_RUNS = {
        "counter_commtm": (counter.build,
                           dict(num_cores=16, commtm=True, total_ops=400), 2),
        "counter_baseline": (counter.build,
                             dict(num_cores=16, commtm=False,
                                  total_ops=200), 2),
        "kmeans_commtm": (kmeans.build,
                          dict(num_cores=16, commtm=True, num_points=64,
                               clusters=4, iterations=1), 2),
    }
    SWEEP_OPS, SWEEP_REPS = 200, 1
else:
    SINGLE_RUNS = {
        "counter_commtm": (counter.build,
                           dict(num_cores=16, commtm=True, total_ops=4000), 5),
        "counter_baseline": (counter.build,
                             dict(num_cores=16, commtm=False,
                                  total_ops=1000), 5),
        "kmeans_commtm": (kmeans.build,
                          dict(num_cores=16, commtm=True, num_points=256,
                               clusters=8, iterations=2), 4),
    }
    SWEEP_OPS, SWEEP_REPS = 1500, 2

SWEEP_THREADS = (1, 2, 4, 8)              # 8 points: below serial threshold
SWEEP16_THREADS = (1, 2, 3, 4, 5, 6, 7, 8)  # 16 points: pool engages


def _best_of(reps, fn):
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _interleaved_best_of(reps, fns):
    """Best-of-``reps`` for several configs, with the reps interleaved.

    Timing config A's reps back-to-back and then config B's hands any
    drift in the host's effective speed (shared machine, thermal state,
    page-cache warmth) entirely to one side of the A/B ratio. Rotating
    through the configs inside each rep exposes them to the same drift,
    so the ratios stay honest even when the absolute numbers wander.
    """
    bests = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            bests[i] = min(bests[i], time.perf_counter() - t0)
    return bests, results


def _with_env(var, fn):
    """Wrap ``fn`` to run with ``var=1`` in the environment."""
    def run():
        os.environ[var] = "1"
        try:
            return fn()
        finally:
            del os.environ[var]
    return run


def _with_flag(flag, fn):
    """Wrap ``fn`` to run with the engine's test-only ``flag`` set."""
    def run():
        setattr(engine_mod, flag, True)
        try:
            return fn()
        finally:
            setattr(engine_mod, flag, False)
    return run


def _sweep_specs(threads, total_ops):
    return [
        make_spec(counter.build, t, num_cores=16, commtm=commtm,
                  total_ops=total_ops)
        for t in threads for commtm in (False, True)
    ]


def test_sim_throughput(tmp_path, monkeypatch):
    report = {
        "cpu_count": os.cpu_count(),
        "smoke": SMOKE,
        "single_run_ops_per_sec": {},
        "single_run_ops_per_sec_vector": {},
        "backend_ab": {},
        "vector_engagement": {},
        "fastpath": {},
        "runahead": {},
        "sanitize": {},
        "obs": {},
        "sweep_seconds": {},
        "sweep16_seconds": {},
    }

    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    monkeypatch.delenv(OBS_ENV, raising=False)
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    has_vector = vector_available()
    for name, (build, params, reps) in SINGLE_RUNS.items():
        # Three configs of the same point, reps interleaved so host-speed
        # drift lands on all three equally: the default path, the full
        # protocol path (the fast path's real win, same process), and the
        # single-step reference scheduler (the run-ahead loop's win, with
        # the identical-interleaving guarantee checked on the spot —
        # tests/test_runahead_equivalence.py holds the op-level traces
        # identical too). Simulated stats must not change at all.
        default = lambda b=build, p=params: run_workload(b, 8, **p)  # noqa: E731
        vector = lambda b=build, p=params: run_workload(  # noqa: E731
            b, 8, backend="vector", **p)
        fns = [
            default,
            _with_flag("_NO_FASTPATH", default),
            _with_flag("_NO_RUNAHEAD", default),
        ]
        if has_vector:
            # Fourth leg of the same interleaved A/B: the vector engine
            # backend on the identical point.
            fns.append(vector)
        walls, results = _interleaved_best_of(reps, fns)
        wall, slow_wall, stepped_wall = walls[:3]
        result, slow_result, stepped_result = results[:3]
        ops_per_sec = result.stats.instructions / wall
        assert ops_per_sec > 0
        report["single_run_ops_per_sec"][name] = round(ops_per_sec)

        if has_vector:
            vec_wall, vec_result = walls[3], results[3]
            # The backend is a host-side optimization only: simulated
            # results must be bit-identical before the ratio means
            # anything.
            assert vec_result.cycles == result.cycles
            assert vec_result.stats.comparable() == result.stats.comparable()
            assert vec_result.stats.host_vector_epochs > 0
            vec_ops_per_sec = vec_result.stats.instructions / vec_wall
            report["single_run_ops_per_sec_vector"][name] = \
                round(vec_ops_per_sec)
            report["backend_ab"][name] = {
                "interp_ops_per_sec": round(ops_per_sec),
                "vector_ops_per_sec": round(vec_ops_per_sec),
                "speedup": round(wall / vec_wall, 3),
            }
            # Per-workload epoch engagement: how much of the run the
            # vector backend actually executed in epochs, what fenced
            # them, and whether the adaptive gate rebound the run to the
            # strict loop. These explain the speedup ratio above — a
            # gated run's ratio is the cost of the gate's warmup, an
            # engaged run's ratio is the epoch path's win.
            vstats = vec_result.stats
            report["vector_engagement"][name] = {
                # Core block shared with the obs run report (same shape
                # the --report-json host section carries).
                **vector_engagement(vstats),
                "proto_ops": vstats.host_vector_proto_ops,
                "miss_predicted": vstats.host_vector_miss_predicted,
                "miss_mispredicts": vstats.host_vector_miss_mispredicts,
            }

        # ``hit_rate`` is None ("disabled") only when no attempt was
        # made; a run the adaptive gate turned off mid-way still reports
        # its observed (sub-threshold) rate.
        assert slow_result.stats.comparable() == result.stats.comparable()
        hit_rate = result.stats.fastpath_hit_rate
        report["fastpath"][name] = {
            "hit_rate": ("disabled" if hit_rate is None
                         else round(hit_rate, 4)),
            "gated": result.stats.host_fastpath_gated,
            "speedup": round(slow_wall / wall, 3),
        }

        assert stepped_result.stats.comparable() == result.stats.comparable()
        assert stepped_result.stats.host_runahead_batches == 0
        assert result.stats.host_runahead_batches > 0
        report["runahead"][name] = {
            "speedup": round(stepped_wall / wall, 3),
            "ops_per_batch": round(result.stats.runahead_ops_per_batch, 3),
        }

    # One REPRO_SANITIZE=1 point: records what the full-sweep invariant
    # checker costs (the slowdown is the price of --sanitize, not a
    # regression — the sanitizer is off everywhere else). Simulated stats
    # must be untouched by the instrumentation.
    build, params, reps = SINGLE_RUNS["counter_commtm"]
    wall, result = _best_of(
        reps, lambda: run_workload(build, 8, **params))
    monkeypatch.setenv(SANITIZE_ENV, "1")
    san_wall, san_result = _best_of(
        1 if SMOKE else 2, lambda: run_workload(build, 8, **params))
    monkeypatch.delenv(SANITIZE_ENV)
    assert san_result.stats.comparable() == result.stats.comparable()
    report["sanitize"] = {
        "run": "counter_commtm",
        "slowdown": round(san_wall / wall, 2),
    }

    # REPRO_OBS=1: what the structured observability layer (Perfetto
    # trace + lifecycle records + hot-line metrics + hostprof) costs on
    # each backend. On the interpreted engine observation routes memory
    # ops through the full protocol path, so its slowdown bounds below
    # at 1/fastpath_speedup. The vector backend keeps its epochs engaged
    # under observation (synthesized emissions at their exact strict
    # positions; tests/test_vector_obs_parity.py proves payload parity),
    # so the four legs interleave plain/observed x interp/vector and the
    # ratios expose both the layer's cost per backend and the
    # observed-vector over observed-interp win.
    obs_reps = 1 if SMOKE else 2
    plain_cc = lambda: run_workload(build, 8, **params)  # noqa: E731
    vec_cc = lambda: run_workload(build, 8, backend="vector",  # noqa: E731
                                  **params)
    obs_fns = [plain_cc, _with_env(OBS_ENV, plain_cc)]
    if has_vector:
        obs_fns += [vec_cc, _with_env(OBS_ENV, vec_cc)]
    obs_walls, obs_results = _interleaved_best_of(obs_reps, obs_fns)
    obs_wall, obs_result = obs_walls[1], obs_results[1]
    assert obs_result.stats.comparable() == result.stats.comparable()
    assert obs_result.info.get("obs") is not None
    report["obs"] = {
        "run": "counter_commtm",
        "slowdown": round(obs_wall / obs_walls[0], 2),
    }
    if has_vector:
        vec_wall, obs_vec_wall = obs_walls[2], obs_walls[3]
        vec_plain, obs_vec = obs_results[2], obs_results[3]
        # Zero overhead when off: the obs-off vector leg collects
        # nothing. Bit-identical and genuinely vectorized when on.
        assert vec_plain.info.get("obs") is None
        assert obs_vec.stats.comparable() == result.stats.comparable()
        assert obs_vec.stats.host_vector_epochs > 0
        assert obs_vec.info.get("obs") is not None
        assert "hostprof" in obs_vec.info["obs"]
        report["obs"]["vector_slowdown"] = round(obs_vec_wall / vec_wall, 2)
        report["obs"]["vector_vs_interp_observed"] = \
            round(obs_wall / obs_vec_wall, 3)
        report["obs"]["vector_engagement"] = vector_engagement(obs_vec.stats)
        if not SMOKE:
            # The point of making obs vector-native: an observed vector
            # run must beat an observed interpreted run on the epoch-
            # friendly workload.
            assert obs_vec_wall < obs_wall

    specs = _sweep_specs(SWEEP_THREADS, SWEEP_OPS)
    serial_wall, serial_results = _best_of(
        SWEEP_REPS, lambda: run_points(specs, jobs=1))
    par_wall, par_results = _best_of(
        SWEEP_REPS, lambda: run_points(specs, jobs=4))
    assert [r.cycles for r in serial_results] \
        == [r.cycles for r in par_results]

    cache = ResultCache(tmp_path / "bench-cache")
    run_points(specs, jobs=1, cache=cache)  # populate
    warm = ResultCache(tmp_path / "bench-cache")
    cached_wall, cached_results = _best_of(
        3, lambda: run_points(specs, jobs=1, cache=warm))
    assert [r.cycles for r in cached_results] \
        == [r.cycles for r in serial_results]

    report["sweep_seconds"] = {
        "points": len(specs),
        "serial": round(serial_wall, 4),
        "jobs4": round(par_wall, 4),
        "cached": round(cached_wall, 4),
    }

    # 16 distinct points: above the serial threshold, so jobs=4 engages
    # the persistent pool when the host has the CPUs for it (run_points
    # clamps the dispatch width to the affinity mask; on a one-CPU host
    # both legs below run the same serial loop by design). warm_pool
    # pays the whole one-time pool startup outside the timed region —
    # a per-process cost, not a per-sweep cost, and this benchmark
    # measures the steady state.
    specs16 = _sweep_specs(SWEEP16_THREADS, SWEEP_OPS)
    serial16_wall, serial16_results = _best_of(
        SWEEP_REPS, lambda: run_points(specs16, jobs=1))
    warm_pool(4)
    par16_wall, par16_results = _best_of(
        SWEEP_REPS, lambda: run_points(specs16, jobs=4))
    assert [r.cycles for r in serial16_results] \
        == [r.cycles for r in par16_results]

    report["sweep16_seconds"] = {
        "points": len(specs16),
        "serial": round(serial16_wall, 4),
        "jobs4": round(par16_wall, 4),
    }

    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n=== sim throughput ===\n{json.dumps(report, indent=2)}")
