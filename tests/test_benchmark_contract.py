"""The benchmark harness's contract with the package.

``perfbench/run.py`` writes a config per workload and ``perfbench/launch.py``
runs ``wigner`` with spans installed on package functions it names.  A config
key, a traced name or a module the launcher imports that the package drops
fails here, not in the next benchmark run.  This test reads perfbench and
does not edit it.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wigner.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_runner():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = _benchmark_runner()


@pytest.mark.parametrize("name", sorted(RUNNER.WORKLOADS))
def test_benchmark_config_validates_under_the_tracer(tmp_path, capsys, name):
    text, _ = RUNNER.make_config(name, 1)
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == EXIT_OK
    capsys.readouterr()

    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/launch.py", "trace", "0", str(report),
         "validate", str(cfg)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["exit_code"] == EXIT_OK


def test_stationary_probe_sees_one_eigensolve(tmp_path):
    """The probe times a stationary run by its one ``stationary_eigen``
    call, which also solves the pair one level down, and the run's
    artifacts pass the benchmark's own checks.  The manifest's
    ``level_change`` and ``field_change`` are finite (seed 1: 0.0932268 and
    0.000565313)."""
    text, spec = RUNNER.make_config("stationary_quartic", 1)
    cfg = tmp_path / "stationary_quartic.ini"
    cfg.write_text(text)
    report, out = tmp_path / "report.json", tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "perfbench/launch.py", "probe", "0", str(report),
         "run", str(cfg), "--threads", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(report.read_text())["eigen"]) == 1
    run_dir = out / f"run-{spec['mode']}"
    problems, _ = RUNNER.checks.check_run(str(run_dir), proc.returncode, spec)
    assert problems == []
    manifest = dict(line.split(" = ", 1) for line in
                    (run_dir / "manifest.txt").read_text().splitlines()
                    if " = " in line)
    assert float(manifest["level_change"]) == pytest.approx(0.0932268, rel=1e-4)
    assert float(manifest["field_change"]) == pytest.approx(0.000565313, rel=1e-4)


def test_projection_spans_count_every_sample_once(tmp_path):
    """The traced ``assembly.PhaseSpaceBasis.project`` spans of an
    ``evolve_long`` config count 4^(6 + 3) = 262,144 points in all: f sees
    each node of the 512 x 512 sample grid once, however the projection
    blocks it, so the per-layer ``assembly.project_points`` keeps its
    meaning.  ``t_end = 0`` leaves out the steps."""
    text, _ = RUNNER.make_config("evolve_long", 1)
    cfg = tmp_path / "evolve_long.ini"
    cfg.write_text(re.sub(r"(?m)^t_end = .*$", "t_end = 0", text))
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/launch.py", "trace", "0", str(report),
         "run", str(cfg), "--threads", "1", "--out", str(tmp_path / "out")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    points = [info.get("points", 0) for name, *_, info
              in json.loads(report.read_text())["spans"]
              if name == "assembly.PhaseSpaceBasis.project"]
    assert points and sum(points) == 4 ** 9
