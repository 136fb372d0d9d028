"""Per-layer attribution for the traced run, timed from outside the program.

The traced run wraps the public functions of each simulator layer, from
this file, for the duration of one figure regeneration. Every wrapper
keeps a call count, an inclusive time and a self time (inclusive time
minus the time of wrapped calls made inside it). The hot boundaries see
millions of calls, so the wrappers only aggregate per function; the
point-level phases (build, simulate, verify, render) are kept as spans
that share a point id. Everything stays in memory until the run ends.

Self times telescope: summed over every wrapped function they equal the
time spent inside top-level wrapped calls, so whatever the traced wall
time has beyond that sum is time no layer owns ("unattributed").
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: Layer names, in the order the metrics are reported.
LAYERS = ("harness", "workloads", "sim", "htm", "coherence", "noc_dir",
          "labels", "vector")

#: Functions that open a point-level span, by wrapped-function key.
SPAN_PHASES = {
    "sim:Machine.__init__": "build",
    "workloads:build": "build",
    "sim:Machine.run": "simulate",
    "workloads:verify": "verify",
    "harness:render_speedup_chart": "render",
    "harness:render_stacked_bars": "render",
}


def targets() -> List[Tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for every public function wrapped by
    patching ``owner.attribute``. Module-level functions are patched in
    the module that calls them, which is where the caller looks them up.
    Builders, ``verify`` and generator ``send`` are wrapped separately
    (see :meth:`Tracer.install`)."""
    from repro.coherence.directory import Directory
    from repro.coherence.noc import Mesh
    from repro.coherence.protocol import MemorySystem
    from repro.core.labels import Label
    from repro.core.machine import Machine
    from repro.harness import cache, experiments, runner
    from repro.htm.conflict import ConflictManager
    from repro.htm.htm import HtmRuntime
    from repro.params import SystemConfig

    out = [
        ("harness", runner, "run_points"),
        ("harness", runner, "make_spec"),
        ("harness", cache.ResultCache, "get"),
        ("harness", cache.ResultCache, "put"),
        ("harness", experiments, "render_speedup_chart"),
        ("harness", experiments, "render_stacked_bars"),
        ("sim", Machine, "__init__"),
        ("sim", Machine, "run"),
    ]
    out += [("htm", HtmRuntime, name)
            for name in ("begin", "begin_retry", "commit", "finish_abort")]
    out += [("htm", ConflictManager, name)
            for name in ("resolve", "abort", "abort_requester")]
    out += [("coherence", MemorySystem, name)
            for name in ("load", "store", "labeled_load", "labeled_store",
                         "load_gather", "lazy_store", "publish_line",
                         "fast_load", "fast_store", "fast_labeled_load",
                         "fast_labeled_store")]
    out += [("noc_dir", Mesh, name)
            for name in ("hops", "latency", "round_trip",
                         "max_latency_from")]
    out += [("noc_dir", Directory, "entry"), ("noc_dir", Directory, "peek"),
            ("noc_dir", SystemConfig, "tile_of_core")]
    out += [("labels", Label, "reduce"), ("labels", Label, "split")]
    try:
        from repro.sim.vector import certify
        from repro.sim.vector import engine as vengine
    except ImportError:  # no numpy: the vector backend does not run
        return out
    out += [("vector", vengine.VectorEngine, "run"),
            ("vector", certify, "certify_access"),
            ("vector", vengine, "reduce_lines"),
            ("vector", vengine, "lower_atomic")]
    return out


@contextlib.contextmanager
def patched(owner, name: str, value):
    """Set ``owner.name`` to ``value`` for the duration of the block."""
    old = owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


class Tracer:
    """Aggregated call counts and self times for one traced figure run.

    ``point_id`` returns the id of the point being simulated (or None),
    which tags the spans.
    """

    def __init__(self, point_id: Callable[[], object]):
        self._point_id = point_id
        #: key -> [calls, inclusive ns, self ns]; key is "layer:function".
        self.funcs: Dict[str, List[int]] = {}
        #: (point id, phase, start ns, end ns), relative to ``epoch``.
        self.spans: List[tuple] = []
        self.epoch = perf_counter_ns()
        # Child-time accumulators, one per open wrapped call; the bottom
        # slot collects the time of top-level wrapped calls.
        self._stack = [0]

    @property
    def attributed_ns(self) -> int:
        return self._stack[0]

    def wrap(self, key: str, fn: Callable) -> Callable:
        """``fn`` timed under ``key`` ("layer:function")."""
        rec = self.funcs.setdefault(key, [0, 0, 0])
        stack = self._stack
        clock = perf_counter_ns
        phase = SPAN_PHASES.get(key)
        if phase is None:
            def timed(*args, **kwargs):
                stack.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - stack.pop()
                    stack[-1] += dt
            return timed
        spans, point_id, epoch = self.spans, self._point_id, self.epoch

        def spanned(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                stack[-1] += dt
                spans.append((point_id(), phase, t0 - epoch, t1 - epoch))
        return spanned

    def install(self, stack: contextlib.ExitStack) -> None:
        """Wrap every target; ``stack`` undoes it on close."""
        for layer, owner, name in targets():
            if isinstance(owner, type):
                fn, key = owner.__dict__[name], f"{owner.__name__}.{name}"
            else:
                fn, key = getattr(owner, name), name
            timed = functools.wraps(fn)(self.wrap(f"{layer}:{key}", fn))
            stack.enter_context(patched(owner, name, timed))
        from repro.harness import parallel
        from repro.sim import engine
        stack.enter_context(patched(parallel, "run_point",
                                    self._scope_builder(parallel.run_point)))
        stack.enter_context(patched(engine, "ThreadRunner",
                                    self._runner_class(engine.ThreadRunner)))

    def _scope_builder(self, run_point: Callable) -> Callable:
        """Wrap ``run_point`` so that, while it runs, the point's builder
        (a module-level ``build``, looked up by its path) is timed, and so
        is the ``verify`` of what it builds. The patch is scoped to the
        point because ``make_spec`` checks that the path resolves back to
        the very function it was given."""
        timed_verify = functools.partial(self.wrap, "workloads:verify")

        def traced_run_point(spec):
            module_name, _, name = spec.build.partition(":")
            module = importlib.import_module(module_name)
            timed_build = self.wrap("workloads:build", getattr(module, name))

            def build_and_wrap(*args, **kwargs):
                built = timed_build(*args, **kwargs)
                if built.verify is not None:
                    built.verify = timed_verify(built.verify)
                return built

            with patched(module, name, build_and_wrap):
                return run_point(spec)

        return traced_run_point

    def _runner_class(self, base: type) -> type:
        """A ``ThreadRunner`` whose ``send`` slot stores a timed wrapper of
        the generator's bound ``send``. The engines resume every thread
        and transaction body through ``runner.send``, so this times all
        workload generator code without replacing the generators."""
        slot = base.__dict__["send"]
        wrap = functools.partial(self.wrap, "workloads:send")

        class TimedRunner(base):
            __slots__ = ()

            @property
            def send(self):
                return slot.__get__(self)

            @send.setter
            def send(self, fn):
                slot.__set__(self, None if fn is None else wrap(fn))

        return TimedRunner

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """Per layer: ``calls`` and ``self_ns`` summed over its functions."""
        out = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for key, (calls, _incl, self_ns) in self.funcs.items():
            layer = out[key.partition(":")[0]]
            layer["calls"] += calls
            layer["self_ns"] += self_ns
        return out

    def self_ns(self, key: str) -> int:
        return self.funcs.get(key, (0, 0, 0))[2]

    def incl_ns(self, key: str) -> int:
        return self.funcs.get(key, (0, 0, 0))[1]
