"""Figure-regeneration benchmark.

Regenerates one of the paper's figures end to end through the harness's
public entry point, ``repro.harness.experiments.run_experiment``, once per
engine backend (interp, then vector), serially, in this one process, and
checks every simulated point against pinned digests.

    python3 figbench/run.py --workload fig09 --seed 1 --seconds 50 --trace 0

``--trace 0`` repeats the regeneration until ``--seconds`` is spent and
prints the end-to-end metrics (medians over the repetitions).
``--trace 1`` regenerates once untraced and once with the layer wrappers
of ``layers.py`` installed, and prints the per-layer metrics. The last
line of standard output is one JSON object; the lines before it are the
same numbers for people, plus any failure with its replay command.
Run it from the repository root. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes goes here (bytecode, the traced run's
#: private result cache, trace dumps).
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("fig09", "fig10", "fig16-vacation")
THREADS = (1, 8, 32, 128)
#: Op-count scale per figure. The app figures have no op-count knob and
#: always run at their registered size. A timed run takes medians over
#: several regenerations, each with its own inputs (fig10's heaviest point
#: costs 0.7-1.3 s across seeds at scale 0.1), so the scales keep one
#: regeneration on both backends near 5 s on a 2-CPU host.
SCALES = {"fig09": 0.2, "fig10": 0.1, "fig16-vacation": 1.0}
BACKENDS = ("interp", "vector")

#: Settings that change what the harness runs or where it caches; the
#: benchmark always starts from none of them.
SCRUBBED_ENV = ("REPRO_OBS", "REPRO_SANITIZE", "REPRO_NO_FASTPATH",
                "REPRO_NO_RUNAHEAD", "REPRO_JOBS", "REPRO_SERIAL_THRESHOLD",
                "REPRO_CACHE_DIR", "REPRO_BACKEND")

#: Fresh-process imports timed per run for ``setup_s`` (median taken).
IMPORT_REPEATS = 5
IMPORT_TIMEOUT_S = 60
IMPORT_SCRIPT = """\
import time
t0 = time.perf_counter()
try:
    import numpy
except ImportError:
    pass
import repro.harness.experiments, repro.sim.vector.engine
print(time.perf_counter() - t0)
"""

#: Largest share of the traced wall time that no layer may own.
CLOSURE_TOLERANCE = 0.02


# --- point-level probe --------------------------------------------------------

def point_id(spec) -> str:
    """Seed- and backend-independent name of one figure point."""
    parts = [f"t={spec.num_threads}", f"commtm={spec.commtm}"]
    if spec.gather is not None:
        parts.append(f"gather={spec.gather}")
    parts += [f"{k}={v}" for k, v in spec.params]
    return " ".join(parts)


def digest(result) -> str:
    """Digest of everything simulated about one point."""
    blob = json.dumps([result.stats.parallel_cycles,
                       result.stats.comparable()],
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def iteration_seed(seed: int, i: int) -> int:
    """Simulator seed of the ``i``-th regeneration of a run with ``seed``.

    The first regeneration uses the run's seed itself (so seed 1 meets the
    pinned digests); later ones draw fresh inputs, because a figure's cost
    depends on its inputs and a run should average over several."""
    if i == 0:
        return seed
    return int(hashlib.sha256(f"{seed}/{i}".encode()).hexdigest()[:7], 16)


def replay_command(spec) -> str:
    return ('PYTHONPATH=src python3 -c "from repro.harness.parallel import '
            f'PointSpec, run_point; print(run_point({spec!r}).cycles)"')


#: Stats fields summed over a leg's points for the per-layer metrics.
COUNTED = ("instructions", "commits", "aborts", "reductions", "gathers",
           "host_fastpath_hits", "host_fastpath_misses",
           "host_runahead_ops", "host_runahead_batches",
           "host_vector_epochs", "host_vector_epoch_ops",
           "host_vector_miss_mispredicts", "host_vector_gated")


@dataclass
class Point:
    spec: object
    wall_ns: int = 0
    setup_ns: int = 0     # Machine construction + workload build
    sim_ns: int = 0       # Machine.run
    digest: str = ""
    counts: Dict[str, int] = field(default_factory=dict)


class Probe:
    """Point-level timing, on in every run: per point its wall time, its
    set-up time (Machine construction plus the gap until ``Machine.run``,
    which is the workload build) and its simulate time, and a digest of
    its result. It also passes ``--seed`` into every point spec."""

    def __init__(self, seed: int):
        self.seed = seed
        self.specs: List = []
        self.points: Dict[str, Point] = {}
        self.current: Optional[str] = None
        #: (spec, result) of every simulated point, kept only on request.
        self.results: Optional[List] = None
        self._init_ns = 0
        self._init_end = 0

    def reset(self, keep_results: bool = False) -> None:
        self.specs, self.points, self.current = [], {}, None
        self.results = [] if keep_results else None

    def install(self, stack: contextlib.ExitStack) -> None:
        from repro.core.machine import Machine
        from repro.harness import experiments, parallel, runner
        from layers import patched

        for module in (runner, experiments):
            stack.enter_context(patched(module, "make_spec",
                                        self._seeded(module.make_spec)))
        stack.enter_context(patched(runner, "run_points",
                                    self._capture(runner.run_points)))
        stack.enter_context(patched(parallel, "run_point",
                                    self._timed_point(parallel.run_point)))
        stack.enter_context(patched(Machine, "__init__",
                                    self._timed_init(Machine.__init__)))
        stack.enter_context(patched(Machine, "run",
                                    self._timed_run(Machine.run)))

    def _seeded(self, make_spec):
        def seeded(build, *args, **kwargs):
            kwargs["seed"] = self.seed
            return make_spec(build, *args, **kwargs)
        return seeded

    def _capture(self, run_points):
        def capture(specs, **kwargs):
            self.specs = list(specs)
            return run_points(specs, **kwargs)
        return capture

    def _timed_point(self, run_point):
        def timed(spec):
            pid = point_id(spec)
            point = self.points[pid] = Point(spec)
            self.current = pid
            t0 = perf_counter_ns()
            result = run_point(spec)
            point.wall_ns = perf_counter_ns() - t0
            point.digest = digest(result)
            point.counts = {k: int(getattr(result.stats, k))
                            for k in COUNTED}
            if self.results is not None:
                self.results.append((spec, result))
            self.current = None
            return result
        return timed

    def _timed_init(self, init):
        def timed(machine, *args, **kwargs):
            t0 = perf_counter_ns()
            init(machine, *args, **kwargs)
            self._init_end = perf_counter_ns()
            self._init_ns = self._init_end - t0
        return timed

    def _timed_run(self, run):
        def timed(machine, bodies):
            t0 = perf_counter_ns()
            point = self.points.get(self.current)
            if point is not None:
                point.setup_ns = self._init_ns + (t0 - self._init_end)
            out = run(machine, bodies)
            if point is not None:
                point.sim_ns = perf_counter_ns() - t0
            return out
        return timed


# --- one figure regeneration on one backend --------------------------------------

@dataclass
class Leg:
    backend: str
    seed: int
    wall_ns: int
    report: Optional[str]
    specs: List
    points: Dict[str, Point]
    error: Optional[str]
    failing_point: Optional[str]

    @property
    def figure_hash(self) -> Optional[str]:
        if self.report is None:
            return None
        return hashlib.sha256(self.report.encode()).hexdigest()[:16]


@dataclass
class Failure:
    workload: str
    point: str
    backend: str
    seed: int
    reason: str
    replay: str


class Bench:
    def __init__(self, args, golden: Optional[dict]):
        from repro.sim import vector

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.scale = args.scale if args.scale is not None \
            else SCALES[args.workload]
        self.threads = list(args.threads)
        self.backends = BACKENDS if vector.available() else BACKENDS[:1]
        self.golden = golden or {}
        self.probe = Probe(self.seed)
        self.failures: List[Failure] = []
        self.attempted = 0
        self.failed = 0
        #: The legs judged last (their digests can be pinned).
        self.last_legs: List[Leg] = []

    def config(self, seed: int) -> dict:
        return {"seed": seed, "scale": self.scale, "threads": self.threads}

    def pinned(self, seed: int) -> Optional[dict]:
        """Golden digests of this workload, if pinned for this config."""
        golden = self.golden.get(self.workload)
        if golden is None or golden["config"] != self.config(seed):
            return None
        return golden

    def bench_command(self) -> str:
        return (f"python3 figbench/run.py --workload {self.workload} "
                f"--seed {self.seed} --seconds 1 --trace 0")

    def leg(self, backend: str, seed: int, cache=None,
            keep_results: bool = False) -> Leg:
        from repro.harness.experiments import run_experiment

        self.probe.reset(keep_results)
        self.probe.seed = seed
        os.environ["REPRO_BACKEND"] = backend
        report = error = None
        t0 = perf_counter_ns()
        try:
            report = run_experiment(self.workload, threads=self.threads,
                                    scale=self.scale, jobs=1, cache=cache)
        except Exception:  # a failing leg is recorded; the run goes on
            error = traceback.format_exc()
        finally:
            wall_ns = perf_counter_ns() - t0
            del os.environ["REPRO_BACKEND"]
        probe = self.probe
        return Leg(backend, seed, wall_ns, report, probe.specs, probe.points,
                   error, probe.current)

    # --- correctness ------------------------------------------------------

    def fail(self, point: str, leg: Optional[Leg], reason: str,
             spec=None) -> None:
        replay = replay_command(spec) if spec is not None \
            else self.bench_command()
        self.failures.append(Failure(
            self.workload, point, leg.backend if leg else "-",
            leg.seed if leg else self.seed, reason, replay))

    def judge(self, legs: List[Leg]) -> None:
        """Count and check every point of one regeneration on each backend.

        A point fails if it raised or was not reached because its leg
        raised, or if its digest differs from the pinned golden digest
        (when this run's configuration is the pinned one) or from the
        other backend's digest."""
        golden = self.pinned(legs[0].seed)
        pinned = golden["points"] if golden else {}
        expected: Dict[str, object] = {}
        for leg in legs:
            expected.update((point_id(s), s) for s in leg.specs)
        if not expected:
            expected = dict.fromkeys(pinned) or {"<figure>": None}
        for leg in legs:
            others = [o for o in legs if o is not leg]
            for pid, spec in expected.items():
                self.attempted += 1
                point = leg.points.get(pid)
                reason = None
                if point is None or not point.digest:
                    reason = ("raised: " + leg.error.strip().splitlines()[-1]
                              if pid == leg.failing_point and leg.error
                              else "not reached: an earlier point raised")
                elif pid in pinned and point.digest != pinned[pid]:
                    reason = (f"digest {point.digest} differs from the "
                              f"pinned {pinned[pid]}")
                else:
                    for other in others:
                        theirs = other.points.get(pid)
                        if theirs and theirs.digest and \
                                theirs.digest != point.digest:
                            reason = (f"digest {point.digest} differs from "
                                      f"{other.backend}'s {theirs.digest}")
                if reason is not None:
                    self.failed += 1
                    self.fail(pid, leg, reason, spec)
            if leg.error and leg.failing_point is None:
                self.fail("<figure>", leg,
                          "raised outside any point: "
                          + leg.error.strip().splitlines()[-1])
        self.judge_figures(legs, golden)
        self.last_legs = legs

    def judge_figures(self, legs: List[Leg], golden: Optional[dict]) -> None:
        hashes = {leg.backend: leg.figure_hash for leg in legs
                  if leg.report is not None}
        for leg in legs:
            h = leg.figure_hash
            if h is None:
                continue
            if golden is not None and h != golden["figure"]:
                self.fail("<figure>", leg, f"figure hash {h} differs from "
                          f"the pinned {golden['figure']}")
            elif golden is None and len(set(hashes.values())) > 1:
                self.fail("<figure>", leg,
                          f"figures differ across backends: {hashes}")

    def same_as_untraced(self, traced: Leg, plain: Leg) -> None:
        """Require the traced regeneration to reproduce the untraced one
        point for point: the wrappers must not change the execution."""
        for pid, point in plain.points.items():
            mine = traced.points.get(pid)
            if mine is None or mine.digest != point.digest:
                self.fail(pid, traced,
                          f"traced run: digest {mine and mine.digest} "
                          f"differs from the untraced {point.digest}",
                          point.spec)
        if traced.report != plain.report:
            self.fail("<figure>", traced,
                      "traced run: figure differs from the untraced one")

    # --- the two kinds of run -----------------------------------------------

    def run_timed(self) -> Dict[str, float]:
        """End-to-end metrics: medians over as many regenerations (each on
        every backend, each with its own seed) as fit in ``seconds``, at
        least one. The median keeps a slow spell of a shared host out of
        the result as long as it covers less than half of the run."""
        imports = [fresh_import_s() for _ in range(IMPORT_REPEATS)]
        samples: Dict[str, List[float]] = {}

        def add(name: str, value: float) -> None:
            samples.setdefault(name, []).append(value)

        start, last = perf_counter(), 0.0
        while not samples or perf_counter() - start + last <= self.seconds:
            t0 = perf_counter()
            seed = iteration_seed(self.seed, len(samples.get("setup_s", ())))
            legs = [self.leg(backend, seed) for backend in self.backends]
            self.judge(legs)
            add("setup_s", sum(p.setup_ns for leg in legs
                               for p in leg.points.values()) / 1e9)
            for leg in legs:
                b, points = leg.backend, leg.points.values()
                sim_ns = sum(p.sim_ns for p in points)
                add(f"wall_s.{b}", leg.wall_ns / 1e9)
                add(f"slowest_point_s.{b}",
                    max((p.wall_ns for p in points), default=0) / 1e9)
                add(f"sim_kips.{b}", sum(p.counts.get("instructions", 0)
                                         for p in points) / sim_ns * 1e6
                    if sim_ns else 0.0)
            last = perf_counter() - t0
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        metrics["setup_s"] += statistics.median(imports)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["pass_share"] = 1.0 - self.failed / max(1, self.attempted)
        print(f"# {len(samples['setup_s'])} regeneration(s) per backend; "
              f"fresh import {statistics.median(imports):.4f} s (median of "
              f"{IMPORT_REPEATS})")
        return metrics

    def run_traced(self, dump: dict) -> Dict[str, float]:
        """Per-layer metrics: one untraced and one traced regeneration per
        backend, plus a cache pass (cold puts, then a warm regeneration)
        in a private temporary directory."""
        from layers import Tracer
        from repro.harness.cache import ResultCache

        untraced = [self.leg(backend, self.seed)
                    for backend in self.backends]
        self.judge(untraced)
        metrics: Dict[str, float] = {}
        for plain in untraced:
            b = plain.backend
            tracer = Tracer(lambda: self.probe.current)
            with contextlib.ExitStack() as stack:
                tracer.install(stack)
                traced = self.leg(b, self.seed, keep_results=True)
            results = self.probe.results
            self.judge([traced])
            self.same_as_untraced(traced, plain)
            unattributed = traced.wall_ns - tracer.attributed_ns
            share = unattributed / traced.wall_ns
            if share > CLOSURE_TOLERANCE:
                self.fail("<figure>", traced,
                          f"closure: {share:.1%} of the traced wall time "
                          f"is in no layer (tolerance "
                          f"{CLOSURE_TOLERANCE:.0%})")
            metrics[f"trace_overhead.{b}"] = traced.wall_ns / plain.wall_ns
            metrics[f"trace.unattributed_share.{b}"] = share

            cache_tracer = Tracer(lambda: self.probe.current)
            tmp = tempfile.mkdtemp(prefix="cache-", dir=OUT)
            try:
                cache = ResultCache(tmp)
                with contextlib.ExitStack() as stack:
                    cache_tracer.install(stack)
                    for spec, result in results:
                        cache.put(spec, result)
                    warm = self.leg(b, self.seed, cache=cache)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if cache.misses or warm.points:
                self.fail("<figure>", warm,
                          f"warm cache pass: {cache.misses} miss(es), "
                          f"{len(warm.points)} point(s) re-simulated")
            if warm.report != plain.report:
                self.fail("<figure>", warm, "warm cache pass: figure "
                          "differs from the untraced one")
            metrics.update(layer_metrics(b, tracer, cache_tracer, traced))
            dump["backends"][b] = {
                "untraced_wall_s": plain.wall_ns / 1e9,
                "traced_wall_s": traced.wall_ns / 1e9,
                "functions": {k: {"calls": c, "incl_s": i / 1e9,
                                  "self_s": s / 1e9}
                              for k, (c, i, s) in sorted(tracer.funcs.items())},
                "cache_functions": {k: {"calls": c, "incl_s": i / 1e9}
                                    for k, (c, i, _) in
                                    sorted(cache_tracer.funcs.items())},
                "spans": tracer.spans,
            }
        metrics.update(simulated_metrics(untraced[0]))
        return metrics


def layer_metrics(b: str, tracer, cache_tracer, leg: Leg) -> Dict[str, float]:
    totals = tracer.layer_totals()
    s = lambda ns: ns / 1e9
    out = {
        f"harness.self_s.{b}": s(totals["harness"]["self_ns"]),
        f"harness.cache_get_s.{b}": s(cache_tracer.incl_ns(
            "harness:ResultCache.get")),
        f"harness.cache_put_s.{b}": s(cache_tracer.incl_ns(
            "harness:ResultCache.put")),
        f"workloads.build_s.{b}": s(tracer.self_ns("workloads:build")),
        f"workloads.verify_s.{b}": s(tracer.self_ns("workloads:verify")),
        f"workloads.body_s.{b}": s(tracer.self_ns("workloads:send")),
    }
    for layer in ("sim", "htm", "coherence", "noc_dir", "labels"):
        out[f"{layer}.self_s.{b}"] = s(totals[layer]["self_ns"])
        if layer != "sim":
            out[f"{layer}.calls.{b}"] = totals[layer]["calls"]
    calls = totals["coherence"]["calls"]
    out[f"coherence.ns_per_call.{b}"] = \
        totals["coherence"]["self_ns"] / calls if calls else 0.0
    counts = summed_counts(leg)
    if b == "interp":
        batches = counts["host_runahead_batches"]
        out["sim.ops_per_batch.interp"] = \
            counts["host_runahead_ops"] / batches if batches else 0.0
        tries = counts["host_fastpath_hits"] + counts["host_fastpath_misses"]
        out["coherence.fast_hit_rate.interp"] = \
            counts["host_fastpath_hits"] / tries if tries else 0.0
    else:
        epochs, epoch_ops = (counts["host_vector_epochs"],
                             counts["host_vector_epoch_ops"])
        steps = epoch_ops + counts["host_runahead_ops"]
        out.update({
            "vector.self_s": s(totals["vector"]["self_ns"]),
            "vector.certify_s": s(tracer.self_ns("vector:certify_access")),
            "vector.kernel_s": s(tracer.self_ns("vector:reduce_lines")
                                 + tracer.self_ns("vector:lower_atomic")),
            "vector.epochs": epochs,
            "vector.ops_per_epoch": epoch_ops / epochs if epochs else 0.0,
            "vector.epoch_op_share": epoch_ops / steps if steps else 0.0,
            "vector.gated_points": counts["host_vector_gated"],
            "vector.mispredicts": counts["host_vector_miss_mispredicts"],
        })
    return out


def simulated_metrics(leg: Leg) -> Dict[str, float]:
    """Simulated counts: identical on every backend (the digests say so)."""
    counts = summed_counts(leg)
    attempts = counts["commits"] + counts["aborts"]
    return {
        "sim.instructions": counts["instructions"],
        "htm.aborts": counts["aborts"],
        "htm.commit_ratio": counts["commits"] / attempts if attempts else 0.0,
        "labels.reductions": counts["reductions"],
        "labels.gathers": counts["gathers"],
    }


def summed_counts(leg: Leg) -> Dict[str, int]:
    return {k: sum(p.counts.get(k, 0) for p in leg.points.values())
            for k in COUNTED}


# --- process-level measurements and checks -----------------------------------------

def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def fresh_import_s() -> float:
    """Seconds a new interpreter takes to import the simulator stack."""
    out = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT],
                         env=child_env(), cwd=ROOT, capture_output=True,
                         text=True, timeout=IMPORT_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def leftover_processes() -> List[str]:
    """Processes this run left behind, after stopping any it finds: the
    sweep pool must never have been started (the benchmark runs jobs=1)."""
    import multiprocessing
    from multiprocessing import forkserver

    from repro.harness import parallel

    problems = []
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join(10)
    if children:
        problems.append(f"{len(children)} child process(es) still running")
    if parallel._pool is not None:
        parallel.shutdown_pool()
        problems.append("the sweep worker pool was started")
    if getattr(forkserver._forkserver, "_forkserver_pid", None) is not None:
        problems.append("a forkserver was started")
    return problems


def environment() -> Dict[str, object]:
    from importlib.metadata import PackageNotFoundError, version
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0))}


# --- entry point ----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller figures for the self-tests; the golden digests only apply
    # at the default scale and thread ladder, and at the pinned seed.
    p.add_argument("--scale", type=float)
    p.add_argument("--threads", default=",".join(map(str, THREADS)),
                   type=lambda s: [int(x) for x in s.split(",")])
    p.add_argument("--golden", type=Path, default=GOLDEN,
                   help="pinned digests to check against")
    p.add_argument("--write-golden", type=Path, metavar="PATH",
                   help="pin this run's digests for --workload into PATH")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"figbench: no simulator sources under {SRC}; run from the "
              "repository root of a full checkout", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    OUT.mkdir(exist_ok=True)
    sys.pycache_prefix = str(OUT / "pycache")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    golden = json.loads(args.golden.read_text()) \
        if args.golden.is_file() else None

    env = environment()
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    bench = Bench(args, golden)
    dump = {"env": env, "workload": args.workload, "seed": args.seed,
            "backends": {}}
    with contextlib.ExitStack() as stack:
        bench.probe.install(stack)
        metrics = bench.run_traced(dump) if args.trace \
            else bench.run_timed()
    for problem in leftover_processes():
        bench.fail("<process>", None, problem)
    if args.write_golden:
        write_golden(args.write_golden, bench)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    for f in bench.failures:
        print(f"FAIL {f.workload} point=[{f.point}] backend={f.backend} "
              f"seed={f.seed}: {f.reason}\n  replay: {f.replay}")
    if args.trace:
        dump["metrics"] = metrics
        dump["failures"] = [vars(f) for f in bench.failures]
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(dump))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


#: Unit of each metric, by the last part of its name before the backend.
UNITS = {"sim_kips": "kinst/s", "peak_rss_mb": "MB", "ns_per_call": "ns",
         "ops_per_batch": "ops/batch", "ops_per_epoch": "ops/epoch"}
RATIOS = ("pass_share", "commit_ratio", "fast_hit_rate", "epoch_op_share",
          "unattributed_share", "trace_overhead")


def unit(name: str) -> str:
    base = name.removesuffix(".interp").removesuffix(".vector")
    last = base.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith("_s"):
        return "s"
    return "ratio" if last in RATIOS else "count"


def write_golden(path: Path, bench: Bench) -> None:
    """Pin the digests and the figure hash of the last regeneration, for
    this run's workload and configuration, into ``path``."""
    if bench.failures:
        raise SystemExit(f"figbench: not pinning a failing run ({path})")
    leg = bench.last_legs[0]
    golden = json.loads(path.read_text()) if path.is_file() else {}
    golden[bench.workload] = {
        "config": bench.config(leg.seed),
        "figure": leg.figure_hash,
        "points": {pid: p.digest for pid, p in sorted(leg.points.items())},
    }
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
