"""Parallel sweep layer: spec round-trips, dedupe, pool determinism, and
the on-disk result cache."""

import pickle

import pytest

from repro.errors import SimulationError
from repro.harness import (ResultCache, fingerprint, make_spec, run_point,
                           run_points, resolve_build, resolve_jobs,
                           speedup_curve)
from repro.harness.experiments import run_experiment
from repro.harness.parallel import JOBS_ENV, build_path
from repro.params import small_config
from repro.workloads.micro import counter


def _counter_spec(threads=2, *, commtm=True, seed=1, total_ops=60,
                  base_config=None):
    return make_spec(counter.build, threads, num_cores=16, commtm=commtm,
                     seed=seed, base_config=base_config,
                     total_ops=total_ops)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

def test_build_path_roundtrip():
    path = build_path(counter.build)
    assert path == "repro.workloads.micro.counter:build"
    assert resolve_build(path) is counter.build


def test_build_path_rejects_closures():
    def closure(machine, threads):
        return counter.build(machine, threads, total_ops=10)

    with pytest.raises(SimulationError):
        build_path(closure)
    with pytest.raises(SimulationError):
        build_path(lambda machine, threads: None)


def test_spec_canonical_distinguishes_configuration():
    base = _counter_spec()
    assert base.canonical() == _counter_spec().canonical()
    assert base.canonical() != _counter_spec(seed=2).canonical()
    assert base.canonical() != _counter_spec(commtm=False).canonical()
    assert base.canonical() != _counter_spec(total_ops=61).canonical()
    assert base.canonical() != _counter_spec(
        base_config=small_config(num_cores=8, seed=1)).canonical()


def test_spec_pickles():
    spec = _counter_spec(base_config=small_config(num_cores=8, seed=1))
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.canonical() == spec.canonical()


def test_run_point_matches_run_workload():
    from repro.harness import run_workload

    direct = run_workload(counter.build, 2, num_cores=16, commtm=True,
                          seed=1, total_ops=60)
    via_spec = run_point(_counter_spec())
    assert via_spec.cycles == direct.cycles
    assert via_spec.stats.summary() == direct.stats.summary()


# ---------------------------------------------------------------------------
# run_points: dedupe + determinism
# ---------------------------------------------------------------------------

def test_run_points_dedupes_identical_specs():
    a, b = _counter_spec(), _counter_spec()
    first, second, other = run_points([a, b, _counter_spec(commtm=False)])
    assert first is second  # simulated once, shared
    assert other.cycles != 0


def test_serial_and_parallel_sweeps_identical(monkeypatch):
    from repro.harness import parallel as par

    specs = [_counter_spec(t, commtm=c, total_ops=40)
             for t in (1, 2) for c in (False, True)]
    serial = run_points(specs, jobs=1)
    # serial_threshold=0 forces the pool despite the small spec count,
    # and the pinned CPU count keeps the worker path exercised on
    # single-CPU hosts (where the affinity clamp would otherwise fall
    # back to the serial loop).
    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    parallel = run_points(specs, jobs=4, serial_threshold=0)
    assert [r.cycles for r in serial] == [r.cycles for r in parallel]
    assert [r.stats.summary() for r in serial] \
        == [r.stats.summary() for r in parallel]


def test_pool_persists_across_sweeps(monkeypatch):
    from repro.harness import parallel as par

    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    specs = [_counter_spec(t, commtm=c, total_ops=40)
             for t in (1, 2) for c in (False, True)]
    run_points(specs, jobs=2, serial_threshold=0)
    pool = par._pool
    assert pool is not None and par._pool_jobs == 2
    run_points([_counter_spec(t, total_ops=41) for t in (1, 2)],
               jobs=2, serial_threshold=0)
    assert par._pool is pool  # reused, not rebuilt
    # A different worker count rebuilds; shutdown clears.
    run_points(specs, jobs=3, serial_threshold=0)
    assert par._pool is not pool and par._pool_jobs == 3
    par.shutdown_pool()
    assert par._pool is None


def test_oversubscribed_jobs_run_serially(caplog, monkeypatch):
    """More workers than available CPUs is a strict loss (same serial
    work plus dispatch): the clamp must keep the pool out of it and say
    so once."""
    from repro.harness import parallel as par

    monkeypatch.setattr(par, "_available_cpus", lambda: 1)

    def boom(jobs):
        raise AssertionError("pool used despite a one-CPU affinity mask")

    monkeypatch.setattr(par, "get_pool", boom)
    specs = [_counter_spec(t, commtm=c, total_ops=40)
             for t in (1, 2) for c in (False, True)]
    with caplog.at_level("INFO", logger="repro.harness"):
        results = run_points(specs, jobs=4, serial_threshold=0)
    assert len(results) == 4
    assert any("one CPU" in r.message for r in caplog.records)


def test_partition_specs_balances_and_covers():
    from repro.harness.parallel import estimate_cost, partition_specs

    specs = [_counter_spec(t, commtm=c, total_ops=100 * t)
             for t in (1, 2, 3, 4) for c in (False, True)]
    buckets = partition_specs(specs, 3)
    flat = sorted(i for bucket in buckets for i in bucket)
    assert flat == list(range(len(specs)))  # exact cover, no duplicates
    loads = [sum(estimate_cost(specs[i]) for i in bucket)
             for bucket in buckets]
    # LPT guarantee: no bucket exceeds the ideal share by more than the
    # largest single item.
    ideal = sum(loads) / len(loads)
    largest = max(estimate_cost(s) for s in specs)
    assert max(loads) <= ideal + largest
    # Degenerate shapes: more buckets than specs, and a single bucket.
    assert partition_specs(specs[:2], 8) == [[1], [0]] \
        or len(partition_specs(specs[:2], 8)) == 2
    assert partition_specs(specs, 1) == [sorted(
        range(len(specs)), key=lambda i: estimate_cost(specs[i]),
        reverse=True)]


def test_small_sweep_falls_back_to_serial(caplog, monkeypatch):
    from repro.harness import parallel as par

    def boom(jobs):  # the pool must not be touched below the threshold
        raise AssertionError("pool used for a below-threshold sweep")

    monkeypatch.setattr(par, "get_pool", boom)
    monkeypatch.setattr(par, "_available_cpus", lambda: 4)
    specs = [_counter_spec(t, commtm=c, total_ops=40)
             for t in (1, 2) for c in (False, True)]
    with caplog.at_level("INFO", logger="repro.harness"):
        results = run_points(specs, jobs=4)  # 4 < default threshold of 10
    assert len(results) == 4
    assert any("below the serial threshold" in r.message
               for r in caplog.records)


def test_resolve_serial_threshold(monkeypatch):
    from repro.harness.parallel import (DEFAULT_SERIAL_THRESHOLD,
                                        SERIAL_THRESHOLD_ENV,
                                        resolve_serial_threshold)

    assert resolve_serial_threshold(5) == 5
    assert resolve_serial_threshold(-3) == 0
    monkeypatch.setenv(SERIAL_THRESHOLD_ENV, "17")
    assert resolve_serial_threshold() == 17
    assert resolve_serial_threshold(2) == 2  # explicit beats env
    monkeypatch.setenv(SERIAL_THRESHOLD_ENV, "lots")
    with pytest.raises(SimulationError):
        resolve_serial_threshold()
    monkeypatch.delenv(SERIAL_THRESHOLD_ENV)
    assert resolve_serial_threshold() == DEFAULT_SERIAL_THRESHOLD


def test_resolve_jobs(monkeypatch):
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1
    monkeypatch.setenv(JOBS_ENV, "7")
    assert resolve_jobs() == 7
    monkeypatch.setenv(JOBS_ENV, "seven")
    with pytest.raises(SimulationError):
        resolve_jobs()
    monkeypatch.delenv(JOBS_ENV)
    assert resolve_jobs() >= 1


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _counter_spec()
    assert cache.get(spec) is None
    (result,) = run_points([spec], cache=cache)
    # Two misses: the probing get above plus run_points' own lookup.
    assert cache.misses == 2 and cache.stores == 1

    warm = ResultCache(tmp_path)
    (again,) = run_points([spec], cache=warm)
    assert warm.hits == 1 and warm.misses == 0
    assert again.cycles == result.cycles
    assert again.stats.summary() == result.stats.summary()


def test_cache_invalidates_on_config_change(tmp_path):
    cache = ResultCache(tmp_path)
    run_points([_counter_spec()], cache=cache)

    probe = ResultCache(tmp_path)
    assert probe.get(_counter_spec(seed=9)) is None
    assert probe.get(_counter_spec(commtm=False)) is None
    assert probe.get(
        _counter_spec(base_config=small_config(num_cores=8, seed=1))) is None
    assert probe.get(_counter_spec()) is not None


def test_fingerprint_keys_on_simulator_sources(monkeypatch):
    """Results from older simulator code are never served: the
    fingerprint follows the source digest, and only the digest."""
    from repro.harness import cache as cache_mod

    spec = _counter_spec()
    digest = cache_mod.source_digest()
    assert len(digest) == 64
    assert cache_mod.source_digest() == digest  # computed once
    current = fingerprint(spec)

    monkeypatch.setattr(cache_mod, "_source_digest", "0" * 64)
    edited = fingerprint(spec)
    assert edited != current
    assert fingerprint(spec) == edited
    assert fingerprint(_counter_spec()) == edited

    monkeypatch.setattr(cache_mod, "_source_digest", digest)
    assert fingerprint(spec) == current


def test_source_digest_covers_only_the_simulator(monkeypatch):
    from repro.harness import cache as cache_mod

    monkeypatch.setattr(cache_mod, "_source_digest", None)
    seen = []
    read_bytes = cache_mod.Path.read_bytes

    def recording_read(path):
        seen.append(path)
        return read_bytes(path)

    monkeypatch.setattr(cache_mod.Path, "read_bytes", recording_read)
    cache_mod.source_digest()
    root = cache_mod.Path(cache_mod.__file__).resolve().parent.parent
    rel = {p.relative_to(root).as_posix() for p in seen}
    assert {"sim/engine.py", "sim/vector/engine.py",
            "coherence/protocol.py", "__init__.py"} <= rel
    assert not {r.split("/")[0] for r in rel} & {"harness", "obs",
                                                 "analysis"}


def test_cache_tolerates_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _counter_spec()
    run_points([spec], cache=cache)
    entry = tmp_path / f"{fingerprint(spec)}.pkl"
    entry.write_bytes(b"not a pickle")

    probe = ResultCache(tmp_path)
    assert probe.get(spec) is None  # corrupt file counts as a miss
    (result,) = run_points([spec], cache=probe)
    assert result.cycles > 0
    assert probe.get(spec) is not None  # re-stored after the re-run


def test_cache_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    run_points([_counter_spec(), _counter_spec(commtm=False)], cache=cache)
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------

def test_speedup_curve_shares_baseline_run(tmp_path):
    cache = ResultCache(tmp_path)
    curves = speedup_curve(counter.build, [1], num_cores=16, total_ops=40,
                           cache=cache)
    # Three requested points (reference, CommTM@1, Baseline@1) but the
    # reference IS Baseline@1: only two simulations hit the cache.
    assert cache.stores == 2
    assert curves["Baseline"][1] == pytest.approx(1.0)


def test_experiment_report_identical_serial_vs_parallel():
    serial = run_experiment("fig09", threads=[1, 2], scale=0.01, jobs=1)
    parallel = run_experiment("fig09", threads=[1, 2], scale=0.01, jobs=4)
    assert serial == parallel


def test_breakdown_experiment_empty_threads():
    # Regression: used to raise UnboundLocalError (columns bound only
    # inside the per-thread loop). An empty ladder renders a bare title.
    report = run_experiment("fig17-kmeans", threads=[])
    assert report == "Fig. 17 — kmeans"
    report = run_experiment("fig18-kmeans", threads=[])
    assert report == "Fig. 18 — kmeans"


def test_cli_smoke(tmp_path, capsys, monkeypatch):
    from repro.harness.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["--list"]) == 0
    assert "fig09" in capsys.readouterr().out

    assert main(["fig09", "--threads", "1", "--scale", "0.01",
                 "--jobs", "1"]) == 0
    out = capsys.readouterr()
    assert "Fig. 9" in out.out
    assert "0 hit(s)" in out.err

    assert main(["fig09", "--threads", "1", "--scale", "0.01",
                 "--jobs", "1"]) == 0
    assert "2 hit(s), 0 miss(es)" in capsys.readouterr().err

    assert main(["nope"]) == 2
