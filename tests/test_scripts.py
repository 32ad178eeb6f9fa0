"""Smoke runs of the experiment scripts at their smallest sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wigner

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(wigner.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script,args,outputs", [
    ("harmonic_spectrum.py", ["--orders", "10", "--levels", "5", "--n-states", "2"],
     ["harmonic_spectrum.txt"]),
    ("refinement_study.py", ["--n-min", "4", "--n-max", "5"], []),
    ("damped_waveleton.py", ["--j-fine", "4", "--t-end", "2", "--dt", "0.05"],
     ["damped_initial.wgrid", "damped_final.wgrid"]),
    # 20 steps: the checkpoint stride follows the step count
    ("damped_waveleton.py", ["--j-fine", "4", "--t-end", "1", "--dt", "0.05"],
     ["damped_initial.wgrid", "damped_final.wgrid"]),
    ("free_shear_study.py", ["--j-fine", "4", "--t-end", "1", "--dt", "0.05"],
     ["free_shear_study.txt"]),
], ids=["harmonic_spectrum", "refinement_study", "damped_waveleton",
        "damped_waveleton_20_steps", "free_shear_study"])
def test_script_runs(tmp_path, script, args, outputs):
    if outputs:
        args = args + ["--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
