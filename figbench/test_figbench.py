"""Self-tests of the figure benchmark, on tiny figures.

    python3 -m pytest figbench -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "1", "--seconds", "0", "--scale", "0.02",
        "--threads", "1,2"]
TIMEOUT_S = 300


def bench(*args, cwd=ROOT, check=True):
    """Run the benchmark's declared command from ``cwd`` in its own
    session; return (process, result).

    Also checks that nothing from its process group outlives it."""
    proc = subprocess.Popen(
        [sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the group is empty once the leader exits
    proc.stdout_text, proc.stderr_text = out, err
    if not check:
        return proc, None
    assert proc.returncode == 0, err
    return proc, json.loads(out.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(
    {w["name"] for w in SPEC["workloads"]} | {"fig16-vacation"}))
def test_every_metric_printed_with_its_unit(workload, trace):
    _, result = bench("--workload", workload, "--trace", str(trace), *TINY)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_corrupted_golden_digest_fails_with_replay(tmp_path):
    golden = tmp_path / "golden.json"
    args = ["--workload", "fig09", "--trace", "0", *TINY]
    bench(*args, "--write-golden", str(golden))
    pinned = json.loads(golden.read_text())
    points = pinned["fig09"]["points"]
    victim = sorted(points)[0]
    points[victim] = "0" * 16
    golden.write_text(json.dumps(pinned))

    proc, result = bench(*args, "--golden", str(golden))
    assert not result["correct"]
    assert result["failed"] == 2  # the point, on each backend
    assert result["metrics"]["pass_share"]["value"] < 1
    fails = [line for line in proc.stdout_text.splitlines()
             if line.startswith("FAIL")]
    assert len(fails) == 2 and all(f"point=[{victim}]" in f for f in fails)
    replays = [line.split("replay: ", 1)[1]
               for line in proc.stdout_text.splitlines()
               if "replay: " in line]
    replay = subprocess.run(replays[0], shell=True, cwd=ROOT,
                            capture_output=True, text=True,
                            timeout=TIMEOUT_S)
    assert replay.returncode == 0, replay.stderr
    assert int(replay.stdout.strip()) > 0


def test_raising_leg_fails_its_unfinished_points(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("figbench_run",
                                                  HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.machine import Machine

    real_run = Machine.run

    def flaky_run(machine, bodies):
        if machine.backend == "vector" and len(bodies) == 2 \
                and machine.config.commtm_enabled:
            raise RuntimeError("injected")
        return real_run(machine, bodies)

    monkeypatch.setattr(Machine, "run", flaky_run)
    assert run.main(["--workload", "fig09", "--trace", "0", *TINY]) == 0
    assert Machine.run is flaky_run  # the benchmark undid its wrappers
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    # Unique points in order: base@1, commtm@1, commtm@2, base@2. The
    # vector leg raises at commtm@2, so base@2 is never reached.
    assert result["attempted"] == 8
    assert result["failed"] == 2
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert any("t=2 commtm=True" in f and "raised" in f
               and "backend=vector" in f for f in fails)
    assert any("t=2 commtm=False" in f and "not reached" in f
               for f in fails)
    assert all("seed=1" in f for f in fails)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _ = bench("--workload", "fig09", "--trace", "0", *TINY,
                    cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout_text
