"""Obs-payload parity: the vector backend under ``REPRO_OBS=1``.

The observability layer used to force the vector engine to delegate whole
runs to the interpreted path. It no longer does: epochs stay engaged, and
the engine synthesizes the interpreted path's emissions at their exact
strict positions — fused transactions emit begin spans at pop time and
*deferred* commit records (ordered by ``(commit cycle, core)``, fired
from the epoch and strict loops so the machine-wide counter samples taken
inside ``tx_commit`` see the same interleaved state), per-op touches feed
the aggregate metrics registry, certifier-executed misses report through
the ordinary hooks via ``Requester.now``, and the strict stepper reuses
the interpreted handler path unchanged.

These tests prove the strong form of that contract across all ten
workloads on both systems: an observed vector run is bit-identical in
simulated results *and* produces the identical observability payload —
trace events, transaction lifecycle records, abort attribution, hot-line
metrics — as the observed interpreted run. The only deltas allowed are
the vector-only additions with no interpreted counterpart (the engine
lane, the host wall-clock lane, and the hostprof section), which are
stripped before comparison and asserted separately.
"""

import copy

import pytest

from repro.obs import TRACE_SCHEMA, chrome_trace
from repro.sim.vector import available

from .test_obs import validate_chrome_trace
from .test_vector_equivalence import (APPS, MICROS, _assert_engagement,
                                      _assert_parity, _run)

pytestmark = pytest.mark.skipif(
    not available(), reason="vector backend requires numpy")


def _stripped_payload(result):
    """The obs payload minus the vector-only sections (deep-copied: the
    comparison must not mutate ``result.info``)."""
    payload = copy.deepcopy(result.info["obs"])
    payload.pop("hostprof", None)
    payload["trace"].pop("vector_events", None)
    payload["trace"].pop("host_events", None)
    return payload


def _run_pair(build, *, commtm, seed, monkeypatch, **params):
    interp = _run(build, backend="interp", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch, observe=True, **params)
    vector = _run(build, backend="vector", commtm=commtm, seed=seed,
                  monkeypatch=monkeypatch, observe=True, **params)
    return interp, vector


def _assert_obs_parity(name, commtm, interp, vector):
    _assert_parity(interp, vector)
    assert _stripped_payload(interp) == _stripped_payload(vector)
    # The vector run really ran vectorized while observed.
    _assert_engagement(name, commtm, vector.stats)
    # The vector-only sections exist and carry the host accounting.
    obs = vector.info["obs"]
    assert obs["hostprof"]["schema"] == "repro-obs-hostprof/1"
    assert "epoch" in obs["hostprof"]["phases"]
    assert interp.info["obs"]["trace"]["vector_events"] == []


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(MICROS))
def test_observed_vector_micro_payloads_match(name, commtm, seed,
                                              monkeypatch):
    interp, vector = _run_pair(MICROS[name], commtm=commtm, seed=seed,
                               monkeypatch=monkeypatch)
    _assert_obs_parity(name, commtm, interp, vector)


@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
@pytest.mark.parametrize("name", sorted(APPS))
def test_observed_vector_app_payloads_match(name, commtm, monkeypatch):
    build, params = APPS[name]
    interp, vector = _run_pair(build, commtm=commtm, seed=1,
                               monkeypatch=monkeypatch, total_ops=None,
                               **params)
    _assert_obs_parity(name, commtm, interp, vector)
    if name == "kmeans" and commtm:
        # Fused transactions fired under observation: the synthesized
        # begin/commit emissions above came from the closed form, not
        # from an interpreted fallback.
        assert vector.stats.host_vector_fused_txs > 0


@pytest.mark.parametrize("commtm", [True, False],
                         ids=["commtm", "baseline"])
def test_observed_vector_trace_is_schema_valid(commtm, monkeypatch):
    """The merged v2 trace — core lanes plus the engine and host lanes —
    passes the same structural validation as the interpreted export."""
    _, vector = _run_pair(MICROS["counter"], commtm=commtm, seed=1,
                          monkeypatch=monkeypatch)
    from repro.core.machine import Machine  # noqa: F401 (import guard)

    obs = vector.info["obs"]

    # Rebuild a chrome trace from the payload the way merge_traces does:
    # the payload carries the raw event lists.
    from repro.obs.perfetto import merge_traces

    merged = merge_traces([("vector-point", obs["trace"])])
    assert merged["schema"] == TRACE_SCHEMA
    validate_chrome_trace(merged)
    lanes = {e["tid"] for e in merged["traceEvents"] if e["ph"] == "M"
             and e["name"] == "thread_name"}
    names = {e["args"]["name"] for e in merged["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert "engine (vector)" in names
    assert "host (wall µs)" in names
    assert len(lanes) >= 3  # cores + engine + host


def test_merge_traces_reads_v1_payloads(monkeypatch):
    """Backward compatibility: a /1-era payload (no vector_events /
    host_events keys) still merges cleanly."""
    interp, _ = _run_pair(MICROS["counter"], commtm=True, seed=1,
                          monkeypatch=monkeypatch)
    from repro.obs.perfetto import merge_traces

    legacy = copy.deepcopy(interp.info["obs"]["trace"])
    legacy.pop("vector_events", None)
    legacy.pop("host_events", None)
    merged = merge_traces([("legacy-point", legacy)])
    validate_chrome_trace(merged)
    names = {e["args"]["name"] for e in merged["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert "engine (vector)" not in names
    assert "host (wall µs)" not in names


def test_obs_off_vector_engine_installs_nothing(monkeypatch):
    """With no Observer the engine carries no obs machinery: the hooks
    resolve to None once at setup, the deferred-commit heap stays empty
    (its truthiness is the only per-iteration check the hot loops pay),
    and no profiler exists. The wall-clock side of this guarantee is the
    paired obs-off/obs-on A/B in benchmarks/test_sim_throughput.py."""
    from repro.core.machine import Machine
    from repro.params import small_config
    from repro.obs import OBS_ENV
    from repro.sim.vector.engine import VectorEngine

    monkeypatch.delenv(OBS_ENV, raising=False)
    machine = Machine(small_config(num_cores=8, seed=1, commtm_enabled=True))
    built = MICROS["counter"](machine, 4, total_ops=120)
    engine = VectorEngine(machine, built.bodies)
    assert machine.obs is None
    assert engine._obs is None
    assert engine._prof is None
    engine.run()
    assert engine._obs_deferred == []
    assert machine.stats.host_vector_epochs > 0


def test_live_chrome_trace_includes_vector_lanes(monkeypatch):
    """chrome_trace on a live observed machine (not a pickled payload)
    exports the engine and host lanes directly."""
    from repro.core.machine import Machine
    from repro.params import small_config
    from repro.obs import OBS_ENV

    monkeypatch.delenv(OBS_ENV, raising=False)
    machine = Machine(small_config(num_cores=8, seed=1, commtm_enabled=True),
                      observe=True, backend="vector")
    built = MICROS["counter"](machine, 4, total_ops=120)
    machine.run(built.bodies)
    trace = chrome_trace(machine.obs, point="counter-vector")
    validate_chrome_trace(trace)
    epoch_spans = [e for e in trace["traceEvents"]
                   if e.get("name") == "epoch" and e.get("cat") == "interval"]
    assert epoch_spans
    assert all("ops" in e["args"] and "causes" in e["args"]
               for e in epoch_spans)
    host_spans = [e for e in trace["traceEvents"]
                  if e.get("cat") == "host"]
    assert host_spans
