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

import wigner.assembly
import wigner.solve
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
    call, and the run's artifacts pass the benchmark's own checks.  The
    manifest's ``purity_defect`` reads 0.0027943 on seed 1."""
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
    assert float(manifest["purity_defect"]) == pytest.approx(0.0027943, rel=1e-4)


def test_stationary_run_solves_one_pair(tmp_path, capsys, monkeypatch):
    """A stationary run of the ``stationary_quartic`` config assembles two
    pairs, ``parse_config``'s table check at the smallest level and its
    own, and solves one: one ``_lowest_states`` call, whose two side
    problems factor one shifted band each."""
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(wigner.assembly, "assemble_stationary_pair")
    count(wigner.solve, "_lowest_states")
    count(wigner.solve, "_shifted_inverse")
    text, _ = RUNNER.make_config("stationary_quartic", 1)
    cfg = tmp_path / "stationary_quartic.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--threads", "1",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert calls == {"assemble_stationary_pair": 2, "_lowest_states": 1,
                     "_shifted_inverse": 2}


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
