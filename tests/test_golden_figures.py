"""Golden digests for every registered speedup figure.

Each figure is regenerated through its registry entry at a small scale,
and every simulated point is reduced to a digest of ``parallel_cycles``
plus ``Stats.comparable()``. The digests are pinned in
``golden_figures.json``. Interpreter-vs-vector parity cannot catch a
timing drift that both backends share (both run ``coherence/`` and
``htm/``, and the vector certifier reads the protocol's latency tables),
so this test pins the numbers themselves. The same regeneration also
checks each figure's shape: which curve wins at the top thread count.

The thread counts span several mesh tiles, so NoC distances, fan-outs
and forwards all reach the digests. Regenerate the pinned file only for
a deliberate change to a modelled behaviour, and say in CHANGES.md which
simulated number moved and why::

    PYTHONPATH=src python tests/test_golden_figures.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness import runner
from repro.harness.experiments import REGISTRY

GOLDEN = Path(__file__).with_name("golden_figures.json")

#: Micro-benchmark op counts are multiplied by this scale.
SCALE = 0.02

#: Thread ladder per figure: 32 and 128 threads span 4 and 16 tiles.
FIGURES = {name: [1, 32, 128] for name in REGISTRY
           if name[:5] in ("fig09", "fig10", "fig12", "fig13", "fig14")}
FIGURES.update({name: [1, 32] for name in REGISTRY
                if name.startswith("fig16-")})


#: Curve orderings asserted at each figure's top thread count, as
#: ``(faster, slower)`` pairs of curves (see :func:`curve`) compared on
#: ``parallel_cycles``. fig16-ssca2 has none: its curves overlap (see
#: EXPERIMENTS.md). Neither has fig10's CommTM without gathers against
#: the baseline: at this scale their order inverts the full-scale one.
COMMTM_WINS = [("commtm", "baseline")]
SHAPES = {
    "fig09": COMMTM_WINS,
    "fig10": [("commtm", "commtm-nogather"), ("commtm", "baseline")],
    "fig12a": COMMTM_WINS,
    "fig12b": COMMTM_WINS,
    "fig13": COMMTM_WINS,
    "fig14": COMMTM_WINS,
    "fig16-boruvka": COMMTM_WINS,
    "fig16-genome": COMMTM_WINS,
    "fig16-kmeans": COMMTM_WINS,
    "fig16-vacation": COMMTM_WINS,
}


def curve(spec) -> str:
    """The curve a point belongs to: ``baseline``, ``commtm``, or
    ``commtm-nogather`` (fig10's CommTM run without gathers)."""
    if not spec.commtm:
        return "baseline"
    if dict(spec.params).get("use_gather") is False:
        return "commtm-nogather"
    return "commtm"


def point_key(spec) -> str:
    parts = [f"t={spec.num_threads}", f"commtm={spec.commtm}"]
    if spec.gather is not None:
        parts.append(f"gather={spec.gather}")
    parts += [f"{k}={v}" for k, v in spec.params]
    return " ".join(parts)


def digest(result) -> str:
    blob = json.dumps([result.stats.parallel_cycles,
                       result.stats.comparable()],
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def regenerate(name: str):
    """Regenerate ``name`` serially and uncached. Returns every point's
    digest, by point key, and its ``parallel_cycles``, by
    ``(threads, curve)``."""
    digests, cycles = {}, {}
    run_points = runner.run_points

    def capture(specs, **kwargs):
        results = run_points(specs, **kwargs)
        for spec, result in zip(specs, results):
            digests[point_key(spec)] = digest(result)
            cycles[spec.num_threads, curve(spec)] = \
                result.stats.parallel_cycles
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "run_points", capture)
        REGISTRY[name].run(FIGURES[name], SCALE, jobs=1, cache=None)
    return digests, cycles


def test_every_speedup_figure_is_pinned():
    pinned = json.loads(GOLDEN.read_text())
    assert sorted(pinned) == sorted(FIGURES)
    assert set(SHAPES) <= set(FIGURES)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_matches_golden(name):
    pinned = json.loads(GOLDEN.read_text())[name]
    digests, cycles = regenerate(name)
    assert digests == pinned
    top = max(FIGURES[name])
    for faster, slower in SHAPES.get(name, ()):
        assert cycles[top, faster] < cycles[top, slower], \
            (name, top, faster, slower)


if __name__ == "__main__":
    table = {name: regenerate(name)[0] for name in sorted(FIGURES)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, table.values()))} points "
          f"of {len(table)} figures in {GOLDEN.name}")
