"""Config parsing, grid dumps, and end-to-end command-line runs."""

import os

import numpy as np
import pytest

from wigner.assembly import assemble_evolution
from wigner.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _build_phase_space,
    _evolution_config,
    _initial_field,
    _make_run_dir,
    _model_params,
    dump_grid,
    load_grid,
    main,
    parse_config,
)
from wigner.diagnostics import HealthSeries
from wigner.errors import ConfigurationError
from wigner.model import parse_potential
from wigner.solve import _MidpointStepper, evolve

MINIMAL = """\
[run]
mode = evolve

[model]
potential = 0.5*q^2

[basis]
order = 6
j_coarse = 3
j_fine = 4
q_min = -4
q_max = 4
p_min = -4
p_max = 4

[solver]
dt = 0.05
t_end = 0.1
"""


def _edited(edits):
    text = MINIMAL
    for old, new in edits:
        text = text.replace(old, new)
    return text


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.mode == "evolve"
    assert cfg.mass == 1.0 and cfg.hbar == 1.0
    assert cfg.gamma == 0.0 and cfg.diffusion == 0.0
    assert cfg.q_box == (-4.0, 4.0) and cfg.p_box == (-4.0, 4.0)
    assert cfg.scheme == "implicit_midpoint"
    assert cfg.initial["type"] == "gaussian"
    assert cfg.thresholds["theta_loc"] == 0.05
    assert cfg.raw_text.startswith("[run]")


def test_parse_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        parse_config("/nonexistent/run.ini")


def test_parse_reports_all_errors_at_once(tmp_path):
    bad = """\
[run]
mode = evolve

[model]
potential = q q
mass = -1

[bassis]
order = 6

[solver]
dtt = 0.1
scheme = midpoint
"""
    with pytest.raises(ConfigurationError) as exc:
        parse_config(_write(tmp_path, bad))
    msg = str(exc.value)
    # every problem is reported in a single pass, with spelling hints
    assert "potential" in msg
    assert "mass must be positive" in msg
    assert "unknown section [bassis]" in msg and "did you mean [basis]" in msg
    assert "unknown key 'dtt'" in msg and "did you mean 'dt'" in msg
    assert "scheme" in msg


def test_parse_rejects_bad_mode(tmp_path):
    with pytest.raises(ConfigurationError, match="mode"):
        parse_config(_write(tmp_path, MINIMAL.replace("mode = evolve",
                                                      "mode = dance")))


def test_parse_rejects_bad_numbers(tmp_path):
    text = MINIMAL.replace("dt = 0.05", "dt = -0.05") \
                  .replace("order = 6", "order = 7")
    with pytest.raises(ConfigurationError) as exc:
        parse_config(_write(tmp_path, text))
    msg = str(exc.value)
    assert "dt must be positive" in msg
    assert "order" in msg


def test_ensemble_mode_requires_section(tmp_path):
    text = MINIMAL.replace("mode = evolve", "mode = ensemble")
    with pytest.raises(ConfigurationError, match="ensemble"):
        parse_config(_write(tmp_path, text))


# ---------------------------------------------------------------------------
# grid dumps
# ---------------------------------------------------------------------------

def test_grid_round_trip(tmp_path, gaussian_field6):
    path = str(tmp_path / "w.wgrid")
    dump_grid(gaussian_field6, 16, path)
    header, data = load_grid(path)
    assert header["nq"] == header["np"] == 16
    assert header["qmin"] == -4.0 and header["qmax"] == 4.0
    assert header["time"] == 0.0
    assert data.shape == (16, 16)
    # compare against direct evaluation at the cell centres
    ps = gaussian_field6.ps
    qs = -4.0 + 8.0 * (np.arange(16) + 0.5) / 16
    vals = ps.evaluate_grid(gaussian_field6.coeffs, qs, qs)
    np.testing.assert_allclose(data, vals.T, atol=1e-15)


def test_load_grid_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wgrid"
    path.write_text("GRID 2\n1 1 0 1 0 1 0\n0\n")
    with pytest.raises(ConfigurationError, match="WGRID"):
        load_grid(str(path))


def test_dump_grid_rejects_tiny_resolution(tmp_path, gaussian_field6):
    with pytest.raises(ConfigurationError):
        dump_grid(gaussian_field6, 1, str(tmp_path / "w.wgrid"))


def test_run_dir_suffixing(tmp_path):
    from wigner.cli import RunConfig

    cfg = RunConfig(mode="evolve", potential_text="0", mass=1, hbar=1, gamma=0,
                    diffusion=0, order=6, j_coarse=3, j_fine=4,
                    q_box=(-4, 4), p_box=(-4, 4), initial={}, dt=0.1,
                    t_end=1.0, scheme="implicit_midpoint", renormalize=False,
                    epsilon=1e-4, n_max=6, n_min=4, n_states=4, pairs=4,
                    store_every=1, ensemble=None, out_directory=None,
                    grid_resolution=16, checkpoint_every=10, thresholds={})
    d0 = _make_run_dir(cfg, str(tmp_path))
    d1 = _make_run_dir(cfg, str(tmp_path))
    d2 = _make_run_dir(cfg, str(tmp_path))
    assert d0.endswith("run-evolve")
    assert d1.endswith("run-evolve-1")
    assert d2.endswith("run-evolve-2")


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_validate_command(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["validate", path]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out
    bad = _write(tmp_path, MINIMAL.replace("mode = evolve", "mode = x"), "b.ini")
    assert main(["validate", bad]) == EXIT_CONFIG


@pytest.mark.parametrize("edits", [
    [("mode = evolve", "mode = lindblad")],
    [("potential = 0.5*q^2", "potential = p^2")],
    [("potential = 0.5*q^2", "potential = 0.5*q^2 + p^2")],
    [("t_end = 0.1", "t_end = 0.1\nn_states = 0")],
    [("t_end = 0.1", "t_end = 0.1\npairs = 0")],
    [("mode = evolve", "mode = refine"), ("t_end = 0.1", "t_end = 0.1\nn_min = 5\nn_max = 4")],
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 2\nweights = 0.5 0.5")],
    # q^4 needs d^3/dp^3, beyond the regularity of order 4
    [("order = 6", "order = 4"), ("0.5*q^2", "q^4")],
    # q^9 needs d^9/dp^9 (d^7/dp^7 in evolve), beyond order 10
    [("order = 6", "order = 10"), ("0.5*q^2", "q^9"), ("j_fine = 4", "j_fine = 5")],
    [("mode = evolve", "mode = stationary"), ("order = 6", "order = 10"),
     ("0.5*q^2", "q^9"), ("j_fine = 4", "j_fine = 5")],
    # 8 functions per axis: order 10 overhangs the filter support, order 8
    # the moment band (6 > 8 / 2); refine mode starts at n_min
    [("order = 6", "order = 10"), ("j_fine = 4", "j_fine = 3")],
    [("order = 6", "order = 8"), ("j_fine = 4", "j_fine = 3")],
    [("mode = evolve", "mode = refine"), ("order = 6", "order = 10"),
     ("t_end = 0.1", "t_end = 0.1\nn_min = 3")],
    [("t_end = 0.1", "t_end = 0.1\nstore_every = 0")],
    [("t_end = 0.1", "t_end = 0.1\n\n[output]\ncheckpoint_every = 0")],
    [("t_end = 0.1", "t_end = 0.1\n\n[initial]\nsigma_q = 0")],
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 1\nweights = 1.5 -0.5")],
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 1\nweights = 0 0")],
], ids=["lindblad", "pure_p", "p_term", "n_states", "pairs", "n_min",
        "ensemble_weights", "filter_too_rough", "q9_evolve", "q9_stationary",
        "support_too_coarse", "moment_band_too_coarse", "refine_n_min_too_coarse",
        "store_every", "checkpoint_every", "sigma_q", "negative_weight",
        "zero_weights"])
def test_validate_rejects_what_run_would(tmp_path, edits):
    assert main(["validate", _write(tmp_path, _edited(edits))]) == EXIT_CONFIG


def test_run_evolve_writes_artifacts(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert main(["run", path, "--threads", "1", "--out", out]) == EXIT_OK
    run_dir = capsys.readouterr().out.strip()
    for name in ("manifest.txt", "timing.txt", "w_initial.wgrid",
                 "w_final.wgrid", "marginal_q.txt", "marginal_p.txt",
                 "checkpoints.txt"):
        assert os.path.isfile(os.path.join(run_dir, name)), name
    manifest = open(os.path.join(run_dir, "manifest.txt")).read()
    assert "mode = evolve" in manifest
    assert "regime" in manifest
    assert "converged = True" in manifest


def test_run_stationary_reports_eigenvalues(tmp_path, capsys):
    text = MINIMAL.replace("mode = evolve", "mode = stationary") + \
        "n_states = 2\n"
    path = _write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out]) == EXIT_OK
    run_dir = capsys.readouterr().out.strip()
    manifest = open(os.path.join(run_dir, "manifest.txt")).read()
    assert "eps_0 =" in manifest and "eps_1 =" in manifest


def test_run_refine_not_converged_exit_code(tmp_path, capsys):
    text = MINIMAL.replace("mode = evolve", "mode = refine") + \
        "epsilon = 1e-14\nn_min = 3\nn_max = 4\n"
    path = _write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out]) == EXIT_NOT_CONVERGED
    run_dir = capsys.readouterr().out.strip()
    manifest = open(os.path.join(run_dir, "manifest.txt")).read()
    assert "refine_converged = False" in manifest
    assert "converged = False" in manifest


@pytest.mark.parametrize("mode", ["stationary", "moyal", "refine"])
def test_single_state_modes_list_one_checkpoint(tmp_path, capsys, mode):
    text = _edited([("mode = evolve", f"mode = {mode}"),
                    ("t_end = 0.1", "t_end = 0.1\nn_states = 2\nn_min = 3")])
    out = str(tmp_path / "out")
    assert main(["run", _write(tmp_path, text), "--threads", "1", "--out", out]) \
        in (EXIT_OK, EXIT_NOT_CONVERGED)
    run_dir = capsys.readouterr().out.strip()
    lines = open(os.path.join(run_dir, "checkpoints.txt")).read().splitlines()
    assert lines == ["checkpoint_0000.npy 0"]


def test_one_step_evolve_is_classified_against_its_initial_state(tmp_path, capsys):
    # A displaced Gaussian moves by 5% of its norm in one step: not stable,
    # so localized_mode.  Compared with itself it would be a waveleton.
    text = _edited([("t_end = 0.1", "t_end = 0.05\n\n[initial]\nq0 = 1")])
    out = str(tmp_path / "out")
    assert main(["run", _write(tmp_path, text), "--threads", "1", "--out", out]) \
        == EXIT_OK
    run_dir = capsys.readouterr().out.strip()
    assert len(open(os.path.join(run_dir, "checkpoints.txt")).readlines()) == 2
    manifest = open(os.path.join(run_dir, "manifest.txt")).read()
    assert "regime = 'localized_mode'" in manifest


@pytest.mark.parametrize("edits,code", [
    # a 16 x 16 basis holds 39 stationary states
    ([("mode = evolve", "mode = stationary"),
      ("t_end = 0.1", "t_end = 0.1\nn_states = 100000")], EXIT_NUMERICAL),
    # and 256 pairs
    ([("mode = evolve", "mode = moyal"),
      ("t_end = 0.1", "t_end = 0.1\npairs = 300")], EXIT_NUMERICAL),
], ids=["too_many_states", "too_many_pairs"])
def test_run_failure_leaves_manifest(tmp_path, capsys, edits, code):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, _edited(edits)), "--threads", "1",
                 "--out", str(out)]) == code
    (run_dir,) = out.iterdir()
    assert "\nerror = " in (run_dir / "manifest.txt").read_text()
    assert "error" in capsys.readouterr().err


def test_run_bad_config_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, MINIMAL.replace("order = 6", "order = 5"))
    assert main(["run", bad]) == EXIT_CONFIG
    assert "order" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != EXIT_OK


def test_tables_command(capsys):
    assert main(["tables", "--order", "6", "--max-deriv", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "filter order 6" in out
    assert "derivative 1" in out and "derivative 2" in out
    assert main(["tables", "--order", "5"]) == EXIT_CONFIG


def test_run_determinism_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    dirs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["run", path, "--threads", "1", "--out", out]) == EXIT_OK
        dirs.append(capsys.readouterr().out.strip())
    for name in ("w_initial.wgrid", "w_final.wgrid", "series.txt"):
        a = open(os.path.join(dirs[0], name), "rb").read()
        b = open(os.path.join(dirs[1], name), "rb").read()
        assert a == b


def test_run_stationary_determinism_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, _edited([
        ("mode = evolve", "mode = stationary"), ("0.5*q^2", "0.5*q^2 + 0.1*q^4"),
        ("order = 6", "order = 10"), ("j_fine = 4", "j_fine = 5"),
        ("t_end = 0.1", "t_end = 0.1\nn_states = 3")]))
    dirs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["run", path, "--threads", "1", "--out", out]) == EXIT_OK
        dirs.append(capsys.readouterr().out.strip())
    # everything but timing.txt
    names = [sorted(n for n in os.listdir(d)
                    if n in ("manifest.txt", "series.txt")
                    or n.endswith((".npy", ".wgrid")))
             for d in dirs]
    assert names[0] == names[1]
    assert any(n.endswith(".npy") for n in names[0])
    assert any(n.endswith(".wgrid") for n in names[0])
    for name in names[0]:
        a = open(os.path.join(dirs[0], name), "rb").read()
        b = open(os.path.join(dirs[1], name), "rb").read()
        assert a == b, name


# ---------------------------------------------------------------------------
# streamed checkpoints and the health series
# ---------------------------------------------------------------------------

def _run_dir(tmp_path, text, code=EXIT_OK):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text), "--threads", "1",
                 "--out", str(out)]) == code
    (run_dir,) = out.iterdir()
    return str(run_dir)


@pytest.mark.parametrize("every", [1, 3, 10])
@pytest.mark.parametrize("steps", [1, 2, 10, 11])
def test_checkpoints_thin_the_full_trajectory(tmp_path, steps, every):
    """Streamed checkpoints equal the whole trajectory thinned afterwards:
    every ``every``-th stored state, then the last one."""
    text = _edited([("t_end = 0.1", f"t_end = {0.05 * steps:g}")]) + \
        f"\n[output]\ncheckpoint_every = {every}\ngrid_resolution = 8\n"
    run_dir = _run_dir(tmp_path, text)

    cfg = parse_config(_write(tmp_path, text))
    ps = _build_phase_space(cfg)
    L = assemble_evolution(ps, parse_potential(cfg.potential_text),
                           _model_params(cfg))
    fields = []
    evolve(_initial_field(cfg, ps), L, _evolution_config(cfg),
           store=fields.append)
    assert len(fields) == steps + 1
    kept = fields[::every]
    if kept[-1] is not fields[-1]:
        kept.append(fields[-1])

    lines = open(os.path.join(run_dir, "checkpoints.txt")).read().splitlines()
    assert lines == ["checkpoint_%04d.npy %.17g" % (i, W.time)
                     for i, W in enumerate(kept)]
    saved = sorted(n for n in os.listdir(run_dir) if n.endswith(".npy"))
    assert saved == [line.split()[0] for line in lines]
    for name, W in zip(saved, kept):
        assert np.load(os.path.join(run_dir, name)).tobytes() == W.coeffs.tobytes()


def test_aborted_evolve_lists_the_checkpoints_it_wrote(tmp_path, monkeypatch):
    step, calls = _MidpointStepper.step, []

    def fail_at_25(self, c):
        calls.append(c)
        return np.full_like(c, np.inf) if len(calls) == 25 else step(self, c)

    monkeypatch.setattr(_MidpointStepper, "step", fail_at_25)
    text = _edited([("t_end = 0.1", "t_end = 2")]) + \
        "\n[output]\ncheckpoint_every = 10\n"
    run_dir = _run_dir(tmp_path, text, EXIT_NUMERICAL)
    assert "\nerror = numerical error: evolution unstable" in \
        open(os.path.join(run_dir, "manifest.txt")).read()
    lines = open(os.path.join(run_dir, "checkpoints.txt")).read().splitlines()
    names = [line.split()[0] for line in lines]
    assert names == [f"checkpoint_{i:04d}.npy" for i in range(3)]
    assert sorted(n for n in os.listdir(run_dir) if n.endswith(".npy")) == names
    rows = np.loadtxt(os.path.join(run_dir, "series.txt"), ndmin=2)
    np.testing.assert_allclose(rows[:, 0], [0.0, 0.5, 1.0], atol=1e-12)


def _series(run_dir):
    path = os.path.join(run_dir, "series.txt")
    with open(path) as fh:
        header = fh.readline()
    return header, np.loadtxt(path, ndmin=2)


def _manifest_value(run_dir, key):
    for line in open(os.path.join(run_dir, "manifest.txt")):
        if line.startswith(f"{key} = "):
            return float(line.split(" = ")[1])
    raise KeyError(key)


def test_series_has_one_row_per_checkpoint(tmp_path):
    text = _edited([("t_end = 0.1", "t_end = 0.55")]) + \
        "\n[output]\ncheckpoint_every = 3\n"
    run_dir = _run_dir(tmp_path, text)
    header, rows = _series(run_dir)
    assert header.split() == ["#", *HealthSeries.COLUMNS]
    lines = open(os.path.join(run_dir, "checkpoints.txt")).read().splitlines()
    assert rows.shape == (len(lines), len(HealthSeries.COLUMNS)) == (5, 7)
    assert [float(line.split()[1]) for line in lines] == list(rows[:, 0])
    last = dict(zip(HealthSeries.COLUMNS, rows[-1]))
    assert abs(last["integral"] - _manifest_value(run_dir, "total_integral")) < 1e-12
    assert abs(last["purity"] - _manifest_value(run_dir, "purity")) < 1e-12
    assert abs(last["l2_norm"] - _manifest_value(run_dir, "l2_norm")) < 1e-12


def test_series_energy_and_edge_mass(tmp_path):
    """<H> of the oscillator's ground Gaussian is 1/2; a Gaussian at q0 = 2
    on +-4 puts far more of its weight next to the periodic wrap."""
    first = {}
    for q0 in (0, 2):
        text = _edited([("j_fine = 4", "j_fine = 5"),
                        ("t_end = 0.1", f"t_end = 0.05\n\n[initial]\nq0 = {q0}")])
        (tmp_path / str(q0)).mkdir()
        _, rows = _series(_run_dir(tmp_path / str(q0), text))
        first[q0] = dict(zip(HealthSeries.COLUMNS, rows[0]))
    assert abs(first[0]["energy"] - 0.5) < 1e-5
    assert first[2]["edge_fraction"] >= 100 * first[0]["edge_fraction"]
    assert 0 < first[0]["finest_fraction"] < 1e-2
