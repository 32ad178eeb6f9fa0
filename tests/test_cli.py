"""Config parsing, grid dumps, and end-to-end command-line runs."""

import configparser
import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wigner
from wigner.assembly import PhaseSpaceBasis, assemble_evolution
from wigner.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EnsembleSettings,
    InitialState,
    OutputSettings,
    _make_run_dir,
    dump_grid,
    main,
    parse_config,
)
from wigner.diagnostics import ClassifierThresholds, HealthSeries
from wigner.errors import ConfigurationError
from wigner.model import ModelParams
from wigner.solve import EvolutionConfig, _MidpointStepper, evolve

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
    assert cfg.params == ModelParams()
    assert cfg.ps == PhaseSpaceBasis(order=6, j_coarse=3, j_fine=4, q_min=-4.0,
                                     q_max=4.0, p_min=-4.0, p_max=4.0)
    assert cfg.solver == EvolutionConfig(dt=0.05, t_end=0.1)
    assert cfg.solver.scheme == "implicit_midpoint"
    assert cfg.initial.type == "gaussian"
    assert cfg.thresholds.theta_loc == 0.05
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


@pytest.mark.parametrize("typo,section", [("ensembel", "ensemble"),
                                          ("diagnostcs", "diagnostics"),
                                          ("outptu", "output")])
def test_misspelt_optional_section_gets_a_hint(tmp_path, typo, section):
    text = MINIMAL + f"\n[{typo}]\n"
    hint = f"unknown section [{typo}]; did you mean [{section}]?"
    with pytest.raises(ConfigurationError, match=re.escape(hint)):
        parse_config(_write(tmp_path, text))


def test_readme_config_reference_validates(tmp_path, capsys):
    """The README's config reference documents exactly the known keys:
    ``[run] mode``, ``[model] potential`` and the init fields of each
    section's dataclass.  Its ``mode`` comment lists exactly the run modes."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert main(["validate", _write(tmp_path, block)]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out
    (modes,) = re.findall(r"(?m)^mode = \w+ +# (.*)$", block)
    assert modes.split(" | ") == list(wigner.cli._RUNNERS)

    documented = configparser.ConfigParser(inline_comment_prefixes=("#",))
    documented.read_string(block)
    classes = {"model": ModelParams, "basis": PhaseSpaceBasis,
               "initial": InitialState, "solver": EvolutionConfig,
               "ensemble": EnsembleSettings, "output": OutputSettings,
               "diagnostics": ClassifierThresholds}
    known = {name: {f.name for f in dataclasses.fields(cls) if f.init}
             for name, cls in classes.items()}
    known["run"] = {"mode"}
    known["model"].add("potential")
    assert {name: set(documented[name]) for name in documented.sections()} == known


@pytest.mark.parametrize("section,key", [("solver", "n_max"), ("solver", "pairs"),
                                         ("solver", "n_min"), ("solver", "epsilon"),
                                         ("initial", "norm"), ("ensemble", "u0")])
def test_removed_keys_are_unknown_without_a_hint(tmp_path, capsys, section, key):
    """Refine mode and its levels and tolerance are gone, a stationary run
    lists every pair, and the Gaussian's norm and the ensemble's scale are
    in its formula and in g: these keys are gone, and no near-miss hint
    points elsewhere."""
    # [solver] is the last section of MINIMAL
    text = MINIMAL if section == "solver" else MINIMAL + f"\n[{section}]\n"
    assert main(["validate", _write(tmp_path, text + f"{key} = 1\n")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "invalid configuration:", f"  unknown key {key!r} in [{section}]"]


# ---------------------------------------------------------------------------
# grid dumps
# ---------------------------------------------------------------------------

def _read_wgrid(path):
    """The benchmark's own reader of a ``WGRID 1`` dump, from perfbench."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks",
        Path(__file__).resolve().parent.parent / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.read_wgrid(path)


def test_grid_round_trip(tmp_path, gaussian_field6):
    path = str(tmp_path / "w.wgrid")
    dump_grid(gaussian_field6, 16, path)
    header, data = _read_wgrid(path)
    assert header["nq"] == header["np"] == 16
    assert header["qmin"] == -4.0 and header["qmax"] == 4.0
    assert header["time"] == 0.0
    assert data.shape == (16, 16)
    # compare against direct evaluation at the cell centres
    ps = gaussian_field6.ps
    qs = -4.0 + 8.0 * (np.arange(16) + 0.5) / 16
    vals = ps.evaluate_grid(gaussian_field6.coeffs, qs, qs)
    np.testing.assert_allclose(data, vals.T, atol=1e-15)


def test_dump_grid_rejects_tiny_resolution(tmp_path, gaussian_field6):
    with pytest.raises(ConfigurationError):
        dump_grid(gaussian_field6, 1, str(tmp_path / "w.wgrid"))


def test_output_directory_must_be_a_directory(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    text = MINIMAL + f"\n[output]\ndirectory = {tmp_path / 'afile'}\n"
    path = _write(tmp_path, text)
    assert main(["validate", path]) == EXIT_CONFIG
    assert "exists and is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--out", "$WIGNER_OUT"])
def test_unusable_output_root_is_a_configuration_error(tmp_path, capsys,
                                                       monkeypatch, source):
    (tmp_path / "afile").write_text("")
    argv = ["run", _write(tmp_path, MINIMAL)]
    if source == "--out":
        argv += ["--out", str(tmp_path / "afile")]
    else:
        monkeypatch.setenv("WIGNER_OUT", str(tmp_path / "afile"))
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{source} " in err and "cannot hold a run directory" in err


def test_run_dir_suffixing(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
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
    # the generator conserves the integral, so there is no rescale to ask for
    gone = _write(tmp_path, MINIMAL + "renormalize = true\n", "c.ini")
    assert main(["validate", gone]) == EXIT_CONFIG
    assert "unknown key 'renormalize'" in capsys.readouterr().err


def _unit_box_ensemble(g, weights):
    """Edits for an ensemble under ``g`` with the given Fock ``weights``, on
    8x8 functions on +-1."""
    n_max = len(weights.split()) - 1
    return [("mode = evolve", "mode = ensemble"), ("j_fine = 4", "j_fine = 3"),
            ("q_min = -4", "q_min = -1"), ("q_max = 4", "q_max = 1"),
            ("p_min = -4", "p_min = -1"), ("p_max = 4", "p_max = 1"),
            ("t_end = 0.1", f"t_end = 0.1\n\n[ensemble]\nn_max = {n_max}"
             f"\nweights = {weights}\ng = {g}")]


# Settings that validate accepted, or died on with a traceback, before the
# term, weight, width and step-count checks; "run side" marks those whose
# runs then died, with a traceback or exit 3 after NaN corrections.
_OVERFLOWS = {
    # (hbar/2)^2 of the quartic's hbar^2 correction (validate side)
    "overflowing_hbar": [("potential = 0.5*q^2", "potential = 0.5*q^2 + 0.1*q^4\nhbar = 1e200")],
    # 1/mass of transport, 2 gamma of friction (run side)
    "tiny_mass": [("potential = 0.5*q^2", "potential = 0.5*q^2 + 0.1*q^4\nmass = 1e-320")],
    "huge_dissipators": [("potential = 0.5*q^2", "potential = 0.5*q^2 + 0.1*q^4"
                          "\ngamma = 1e308\ndiffusion = 1e308")],
    # |alpha|^2 overflows, so every Fock weight underflows (validate side)
    "coherent_1e200": [("mode = evolve", "mode = ensemble"),
                       ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 2"
                        "\nweights = coherent:1e200")],
    # W0's peak 1/(2 pi sigma_q sigma_p) divides by 0 (run side)
    "tiny_widths": [("t_end = 0.1",
                     "t_end = 0.1\n\n[initial]\nsigma_q = 1e-300\nsigma_p = 1e-300")],
    # the step count t_end / dt overflows (run side)
    "tiny_dt": [("dt = 0.05", "dt = 1e-320"), ("t_end = 0.1", "t_end = 1")],
    # level 3's force 3e308 q overflows, level 1's 1e308 q does not (run side)
    "ensemble_top_level": _unit_box_ensemble("5e307*q^2", "1 0 0 1"),
}
_RUN_SIDE = ("tiny_mass", "huge_dissipators", "tiny_widths", "tiny_dt",
             "ensemble_top_level")


@pytest.mark.parametrize("edits", [
    [("mode = evolve", "mode = lindblad")],
    [("potential = 0.5*q^2", "potential = p^2")],
    [("potential = 0.5*q^2", "potential = 0.5*q^2 + p^2")],
    [("t_end = 0.1", "t_end = 0.1\nn_states = 0")],
    # n states start from k = n (2n - 1) + 2 eigenpairs, here 1.99999e10,
    # beyond dim = 256 on a 16 x 16 basis
    [("mode = evolve", "mode = stationary"),
     ("t_end = 0.1", "t_end = 0.1\nn_states = 100000")],
    # n_min went with refine mode
    [("t_end = 0.1", "t_end = 0.1\nn_min = 4")],
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 2\nweights = 0.5 0.5")],
    # q^4 needs d^3/dp^3, beyond the regularity of order 4
    [("order = 6", "order = 4"), ("0.5*q^2", "q^4")],
    # q^9 needs d^9/dp^9 (d^7/dp^7 in evolve), beyond order 10
    [("order = 6", "order = 10"), ("0.5*q^2", "q^9"), ("j_fine = 4", "j_fine = 5")],
    [("mode = evolve", "mode = stationary"), ("order = 6", "order = 10"),
     ("0.5*q^2", "q^9"), ("j_fine = 4", "j_fine = 5")],
    # 8 functions per axis: order 10 overhangs the filter support, order 8
    # the moment band (6 > 8 / 2)
    [("order = 6", "order = 10"), ("j_fine = 4", "j_fine = 3")],
    [("order = 6", "order = 8"), ("j_fine = 4", "j_fine = 3")],
    [("t_end = 0.1", "t_end = 0.1\nstore_every = 0")],
    [("t_end = 0.1", "t_end = 0.1\n\n[output]\ncheckpoint_every = 0")],
    [("t_end = 0.1", "t_end = 0.1\n\n[initial]\nsigma_q = 0")],
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 1\nweights = 1.5 -0.5")],
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 1\nweights = 0 0")],
    [("dt = 0.05", "dt = nan")],
    # a non-finite amplitude or weight gives non-finite Fock weights
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 2\nweights = coherent:nan")],
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 2\nweights = coherent:inf")],
    [("mode = evolve", "mode = ensemble"),
     ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 1\nweights = inf 1")],
    # classifier thresholds: top_k >= 1, theta_stab > 0, fractions in (0, 1]
    [("t_end = 0.1", "t_end = 0.1\n\n[diagnostics]\ntop_k = -5")],
    [("t_end = 0.1", "t_end = 0.1\n\n[diagnostics]\ntheta_frac = 7")],
    [("t_end = 0.1", "t_end = 0.1\n\n[diagnostics]\ntheta_loc = 0")],
    [("t_end = 0.1", "t_end = 0.1\n\n[diagnostics]\ntheta_chaos = 1.5")],
    [("t_end = 0.1", "t_end = 0.1\n\n[diagnostics]\ntheta_stab = 0")],
    # a lone % is an interpolation error of the INI reader
    [("potential = 0.5*q^2", "potential = 5%")],
    [("j_coarse = 3", "j_coarse = -1")],
    # a coefficient that is not finite, as written or once summed, and a
    # power longer than int() converts
    [("0.5*q^2", "1e999*q^2")],
    [("0.5*q^2", "1e308*q^4 + 1e308*q^4")],
    [("0.5*q^2", "q^" + "9" * 5000)],
    # a finite coefficient whose force (4e308) or whose moment entries
    # (1e306 q^4 on +-4) overflow double precision
    [("0.5*q^2", "1e308*q^4")],
    [("mode = evolve", "mode = stationary"), ("order = 6", "order = 10"),
     ("0.5*q^2", "1e306*q^4")],
    # a box whose lifted monomials or derivative scales overflow
    [("q_min = -4", "q_min = -1e300"), ("q_max = 4", "q_max = 1e300")],
    [("mode = evolve", "mode = stationary"),
     ("q_min = -4", "q_min = -1e-300"), ("q_max = 4", "q_max = 1e-300")],
] + list(_OVERFLOWS.values()), ids=["lindblad", "pure_p", "p_term", "n_states",
        "too_many_states", "n_min",
        "ensemble_weights", "filter_too_rough", "q9_evolve", "q9_stationary",
        "support_too_coarse", "moment_band_too_coarse",
        "store_every", "checkpoint_every", "sigma_q", "negative_weight",
        "zero_weights", "nan_dt", "coherent_nan",
        "coherent_inf", "inf_weight", "top_k", "theta_frac", "theta_loc",
        "theta_chaos", "theta_stab", "interpolation", "negative_j_coarse",
        "inf_coefficient", "overflowing_sum",
        "5000_digit_power", "overflowing_force", "overflowing_moments",
        "huge_box", "tiny_box"] + list(_OVERFLOWS))
def test_validate_rejects_what_run_would(tmp_path, edits):
    assert main(["validate", _write(tmp_path, _edited(edits))]) == EXIT_CONFIG


def _quartic_on_box(mode, order, j_fine, c, half_width):
    """Edits for ``mode`` on its smallest basis, with c q^4 on +-half_width
    in both axes."""
    w = half_width
    return [("mode = evolve", f"mode = {mode}"), ("order = 6", f"order = {order}"),
            ("j_fine = 4", f"j_fine = {j_fine}"), ("0.5*q^2", f"{c}*q^4"),
            ("t_end = 0.1", "t_end = 0.05"),
            ("q_min = -4", f"q_min = -{w}"), ("q_max = 4", f"q_max = {w}"),
            ("p_min = -4", f"p_min = -{w}"), ("p_max = 4", f"p_max = {w}")]


_QUARTIC_EXTREMES = [(mode, order, j_fine, c, w)
                     for mode, order, j_fine in [("evolve", 6, 3), ("stationary", 10, 4)]
                     for c in ["1", "1e306", "1e308"]
                     for w in ["1e-300", "6", "1e300"]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "edits", [_quartic_on_box(*x) for x in _QUARTIC_EXTREMES]
    + [_OVERFLOWS[k] for k in _RUN_SIDE],
    ids=["-".join(map(str, x)) for x in _QUARTIC_EXTREMES] + list(_RUN_SIDE))
def test_numeric_extremes_end_in_an_exit_code(tmp_path, edits):
    """Each ``_quartic_on_box`` extreme and each run-side ``_OVERFLOWS`` case:
    ``validate`` accepts or rejects the config, and a run of what it
    accepts ends in an exit code and a manifest, never in a traceback or a
    numpy warning."""
    path = _write(tmp_path, _edited(edits))
    code = main(["validate", path])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_OK:
        out = tmp_path / "out"
        code = main(["run", path, "--threads", "1", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_NUMERICAL)
        (run_dir,) = out.iterdir()
        assert (run_dir / "manifest.txt").is_file()


_TAIL = "t_end = 0.1"
_ENSEMBLE = ("mode = evolve", "mode = ensemble")


def _section(name, *lines):
    """An edit that appends ``[name]`` with ``lines`` after [solver]."""
    return (_TAIL, "\n".join((_TAIL, "", f"[{name}]") + lines))


@pytest.mark.parametrize("edits,line", [
    ([_section("initial", "type = cat")],
     "[initial] type must be 'gaussian' (got 'cat')"),
    ([_section("initial", "sigma_q = 0")], "[initial] sigma_q must be positive"),
    ([_section("initial", "sigma_p = -1")], "[initial] sigma_p must be positive"),
    ([_section("initial", "q0 = inf")], "[initial] q0: inf is not a finite number"),
    # epsilon went with refine mode
    ([(_TAIL, _TAIL + "\nepsilon = 1e-4")], "unknown key 'epsilon' in [solver]"),
    ([(_TAIL, _TAIL + "\nn_states = 0")], "[solver] n_states must be >= 1"),
    # 12 (2 12 - 1) + 2 = 278 eigenpairs do not fit in dim = 256
    ([("mode = evolve", "mode = stationary"), (_TAIL, _TAIL + "\nn_states = 12")],
     "[solver] n_states: 12 states start from k = 278 eigenpairs, but the basis "
     "has dim = 256"),
    # a stationary run lists the Moyal pairs, and refine mode is gone
    ([("mode = evolve", "mode = moyal")],
     "[run] mode must be one of ('evolve', 'stationary', 'ensemble') (got 'moyal')"),
    ([("mode = evolve", "mode = refine")],
     "[run] mode must be one of ('evolve', 'stationary', 'ensemble') (got 'refine')"),
    ([_ENSEMBLE, _section("ensemble", "g = q q")],
     "[ensemble] g: missing +/- between terms in potential 'q q' at position 2"),
    ([_ENSEMBLE, _section("ensemble", "n_max = 2", "weights = 0.5 0.5")],
     "[ensemble] weights: expected 3 weights, got 2"),
    ([_ENSEMBLE, _section("ensemble", "n_max = 1", "weights = inf 1")],
     "[ensemble] weights: weights must be finite"),
    ([_ENSEMBLE, _section("ensemble", "n_max = 1", "weights = 1.5 -0.5")],
     "[ensemble] weights: weights must be non-negative with a positive sum"),
    ([_ENSEMBLE, _section("ensemble", "n_max = 2", "weights = coherent:nan")],
     "[ensemble] weights: coherent amplitude must be finite (got nan)"),
    ([_ENSEMBLE], "mode 'ensemble' requires an [ensemble] section"),
    ([_section("ensembel", "n_max = 2")],
     "unknown section [ensembel]; did you mean [ensemble]?"),
    ([_section("output", "directory = {afile}")],
     "[output] directory '{afile}' exists and is not a directory"),
    ([_section("output", "grid_resolution = 1")],
     "[output] grid_resolution must be >= 2 per axis"),
    ([_section("output", "checkpoint_every = 0")],
     "[output] checkpoint_every must be >= 1"),
    ([("0.5*q^2", "1e308*q^4")],
     "[model] potential: the force term overflows: U^(1) or its Galerkin matrix "
     "on q in [-4, 4) exceeds double precision"),
    ([("mode = evolve", "mode = stationary"), ("order = 6", "order = 10"),
      ("0.5*q^2", "1e306*q^4")],
     "[model] potential: the potential term overflows: U^(0) or its Galerkin "
     "matrix on q in [-4, 4) exceeds double precision"),
    ([("q_min = -4", "q_min = -1e300"), ("q_max = 4", "q_max = 1e300")],
     "[basis] q_min, q_max: domain [-1e+300, 1e+300) overflows double precision "
     "in x^9 or in the order-6 derivative scale"),
    (_OVERFLOWS["overflowing_hbar"],
     "[model] hbar: the quantum_l1 term's coefficient -inf, or that times its "
     "p factor, exceeds double precision"),
    (_OVERFLOWS["tiny_mass"],
     "[model] mass: the transport term's coefficient -inf, or that times its "
     "p factor, exceeds double precision"),
    (_OVERFLOWS["huge_dissipators"],
     "[model] gamma: the dissipator_friction term's coefficient inf, or that "
     "times its p factor, exceeds double precision"),
    (_OVERFLOWS["coherent_1e200"],
     "[ensemble] weights: coherent weights vanished after truncation"),
    (_OVERFLOWS["tiny_widths"],
     "[initial] sigma_q, sigma_p: widths 1e-300 and 1e-300 put W0's exponent "
     "or its peak outside double precision"),
    (_OVERFLOWS["tiny_dt"], "[solver] t_end / dt, the step count, exceeds double precision"),
    (_OVERFLOWS["ensemble_top_level"],
     "[ensemble] g: the force term overflows: U^(1) or its Galerkin matrix on "
     "q in [-1, 1) exceeds double precision"),
], ids=["initial_type", "sigma_q", "sigma_p", "q0_inf", "epsilon", "n_states",
        "n_states_beyond_dim", "moyal_mode", "refine_mode", "g_parse", "weights_count",
        "weights_inf", "weights_negative", "coherent_nan", "ensemble_section",
        "ensembel_hint", "directory", "grid_resolution", "checkpoint_every",
        "overflowing_force", "overflowing_moments", "huge_q_box"] + list(_OVERFLOWS))
def test_validate_error_text(tmp_path, capsys, edits, line):
    """Each single error reads as one exact line under the header."""
    afile = tmp_path / "afile"
    afile.write_text("")
    text = _edited(edits).replace("{afile}", str(afile))
    assert main(["validate", _write(tmp_path, text)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "invalid configuration:", "  " + line.replace("{afile}", str(afile))]


@pytest.mark.parametrize("edits,line", [
    ([_section("initial", "sigma_q = 0", "sigma_p = 0")],
     "[initial] sigma_q must be positive; sigma_p must be positive"),
    ([("dt = 0.05", "dt = -1"), (_TAIL, _TAIL + "\nn_states = 0")],
     "[solver] dt must be positive; n_states must be >= 1"),
    ([_ENSEMBLE, _section("ensemble", "g = q q", "weights = 1 1 1")],
     "[ensemble] g: missing +/- between terms in potential 'q q' at position 2; "
     "weights: expected 2 weights, got 3"),
    ([_section("output", "grid_resolution = 1", "checkpoint_every = 0")],
     "[output] grid_resolution must be >= 2 per axis; checkpoint_every must be >= 1"),
], ids=["initial", "solver", "ensemble", "output"])
def test_errors_in_one_section_share_a_line(tmp_path, capsys, edits, line):
    """A section's dataclass reports all its rejections at once, joined by
    "; " on the section's one line."""
    assert main(["validate", _write(tmp_path, _edited(edits))]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["invalid configuration:",
                                                    "  " + line]


@pytest.mark.parametrize("weights", [None, "1"])
def test_negative_n_max_is_blamed_on_n_max(tmp_path, capsys, weights):
    lines = ("n_max = -1",) + ((f"weights = {weights}",) if weights else ())
    text = _edited([_ENSEMBLE, _section("ensemble", *lines)])
    assert main(["validate", _write(tmp_path, text)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "invalid configuration:", "  [ensemble] n_max must be >= 0"]


def _cli_env():
    """The environment for ``python -m wigner.cli``: this package first."""
    src = str(Path(wigner.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_huge_power_is_refused_before_it_is_allocated(tmp_path):
    """A power above 9 is refused while the potential is parsed, before a
    coefficient tuple of that length exists: ``wigner validate`` of
    q^1000000000 stays under a 3 GiB address-space cap."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    path = _write(tmp_path, _edited([("0.5*q^2", "q^1000000000")]))
    done = subprocess.run([sys.executable, "-m", "wigner.cli", "validate", path],
                          env=_cli_env(), capture_output=True, text=True,
                          timeout=300, preexec_fn=cap)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr.splitlines() == [
        "invalid configuration:", "  [model] potential: degree 1000000000 "
        "exceeds 9, the highest the moment tables support"]


_ORDER_10 = [("order = 6", "order = 10"), ("j_fine = 4", "j_fine = 5")]


@pytest.mark.parametrize("edits,key", [
    ([("0.5*q^2", "q^10")], "[model] potential: degree"),
    ([("mode = evolve", "mode = stationary"), ("0.5*q^2", "q^9")],
     "[model] potential: degree"),
    ([("mode = evolve", "mode = ensemble"),
      ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\ng = q^10")], "[ensemble] g: degree"),
    # order 10 has d^5/dp^5 at most: evolve needs d^7 for q^7, stationary
    # d^6 for q^6
    (_ORDER_10 + [("0.5*q^2", "q^7")], "[model] potential: degree"),
    (_ORDER_10 + [("mode = evolve", "mode = stationary"), ("0.5*q^2", "q^6")],
     "[model] potential: degree"),
    (_ORDER_10 + [("mode = evolve", "mode = ensemble"),
                  ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\ng = q^7")],
     "[ensemble] g: degree"),
    # order 6 has the d^3/dp^3 of q^4, order 4 has not
    ([("order = 6", "order = 4"), ("0.5*q^2", "q^4")], "[basis] order 4:"),
    # below order 10's smallest basis, 2^4 functions per axis, the order-10
    # retry still assembles U on a basis of its own size
    ([("order = 6", "order = 4"), ("0.5*q^2", "q^4"), ("j_fine = 4", "j_fine = 3")],
     "[basis] order 4:"),
    ([("mode = evolve", "mode = stationary"), ("0.5*q^2", "0.5*q^2 + 0.1*q^4"),
      ("j_fine = 4", "j_fine = 3")], "[basis] order 6:"),
], ids=["evolve", "stationary", "ensemble", "q7_evolve", "q6_stationary",
        "g7_ensemble", "q4_order4", "q4_order4_j3", "quartic_stationary_j3"])
def test_potential_degree_is_reported_under_its_key(tmp_path, capsys, edits, key):
    """The moment tables end at q^8 and the regularity at order 10's, so a
    potential that needs more is the potential's error, not the filter's;
    the filter is to blame only when a supported order assembles U."""
    assert main(["validate", _write(tmp_path, _edited(edits))]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()[1:]
    assert line.strip().startswith(key)


def test_basis_errors_are_reported_in_one_pass(tmp_path, capsys):
    text = _edited([("j_coarse = 3", "j_coarse = -1"), ("q_min = -4", "q_min = 5"),
                    ("p_min = -4", "p_min = 5"), ("q_max = 4", "q_max = 5"),
                    ("p_max = 4", "p_max = 5")])
    assert main(["validate", _write(tmp_path, text)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("invalid configuration") == 1
    assert err.count("j_coarse must be >= 0") == 1
    assert "q_min" in err and "p_min" in err


@pytest.mark.parametrize("scheme,code", [("implicit_midpoint", EXIT_OK),
                                         ("explicit_rk4", EXIT_CONFIG)])
def test_scheme_has_one_value(tmp_path, capsys, scheme, code):
    """The midpoint stepper is the one integrator; the key stays so that
    configs which name it parse."""
    assert main(["validate", _write(tmp_path, MINIMAL + f"scheme = {scheme}\n")]) \
        == code
    if code == EXIT_CONFIG:
        assert "scheme must be implicit_midpoint" in capsys.readouterr().err


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


@pytest.mark.parametrize("mode, count", [("stationary", "n_states = 2")],
                         ids=["stationary"])
def test_eigen_runs_report_the_ritz_defect(tmp_path, capsys, mode, count):
    """A stationary manifest's [eigenvalues] block lists the states, then
    the pairs, then the split's Ritz-combination defect, and ends with the
    states' purity defect (the 32x32 order-10 quartic)."""
    path = _write(tmp_path, _edited([
        ("mode = evolve", f"mode = {mode}"), ("0.5*q^2", "0.5*q^2 + 0.1*q^4"),
        ("order = 6", "order = 10"), ("j_fine = 4", "j_fine = 5"),
        ("t_end = 0.1", count)]))
    assert main(["run", path, "--threads", "1", "--out", str(tmp_path / "out")]) \
        == EXIT_OK
    run_dir = capsys.readouterr().out.strip()
    block = open(os.path.join(run_dir, "manifest.txt")).read().split(
        "[eigenvalues]\n")[1].split("\n\n")[0].splitlines()
    keys = [line.split(" = ")[0] for line in block]
    n_pairs = len(keys) - 4
    assert n_pairs >= 4
    assert keys == ["eps_0", "eps_1"] + [f"pair_{i}" for i in range(n_pairs)] \
        + ["ritz_defect", "purity_defect"]
    for line in block[-2:]:
        assert 0.0 < float(line.split(" = ")[1]) < 1.0, line


@pytest.mark.parametrize("mode", ["stationary"])
def test_single_state_modes_list_one_checkpoint(tmp_path, capsys, mode):
    text = _edited([("mode = evolve", f"mode = {mode}"),
                    ("t_end = 0.1", "t_end = 0.1\nn_states = 2")])
    out = str(tmp_path / "out")
    assert main(["run", _write(tmp_path, text), "--threads", "1", "--out", out]) \
        == EXIT_OK
    run_dir = capsys.readouterr().out.strip()
    lines = open(os.path.join(run_dir, "checkpoints.txt")).read().splitlines()
    assert lines == ["checkpoint_0000.npy 0"]


def test_stationary_run_evaluates_its_one_grid_once(tmp_path, capsys, monkeypatch):
    """A stationary run stores one state, so its initial grid is its final
    one: the grid is evaluated and written once, as ``w_initial.wgrid``, and
    ``w_final.wgrid`` holds the same bytes."""
    dumped, evaluated = {}, []
    dump, evaluate = wigner.cli.dump_grid, PhaseSpaceBasis.evaluate_grid

    def counted_dump(W, resolution, path):
        before = len(evaluated)
        dump(W, resolution, path)
        dumped[os.path.basename(path)] = len(evaluated) - before

    def counted_evaluate(self, *args, **kwargs):
        evaluated.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(wigner.cli, "dump_grid", counted_dump)
    monkeypatch.setattr(PhaseSpaceBasis, "evaluate_grid", counted_evaluate)
    text = _edited([("mode = evolve", "mode = stationary"),
                    ("t_end = 0.1", "t_end = 0.1\nn_states = 2")])
    assert main(["run", _write(tmp_path, text), "--threads", "1",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    run_dir = capsys.readouterr().out.strip()
    assert dumped["w_initial.wgrid"] == 1 and "w_final.wgrid" not in dumped
    initial, final = (open(os.path.join(run_dir, name), "rb").read()
                      for name in ("w_initial.wgrid", "w_final.wgrid"))
    assert initial == final


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


@pytest.mark.parametrize("edits,code,detail", [
    # U >= 0 on the box, but the cubic's wrap states lie below the shift,
    # so the Cholesky of A_sym - sigma I fails
    ([("mode = evolve", "mode = stationary"), ("order = 6", "order = 10"),
      ("j_fine = 4", "j_fine = 5"), ("0.5*q^2", "0.1*q^3 + 0.5*q^2"),
      ("t_end = 0.1", "t_end = 0.1\nn_states = 2")], EXIT_NUMERICAL,
     "shift=0.246364"),
    # one midpoint step of dt = 1 needs more defect corrections than the cap
    ([("potential = 0.5*q^2", "potential = 0.5*q^2 + 0.1*q^4\ngamma = 0.05\n"
       "diffusion = 0.02"), ("dt = 0.05", "dt = 1.0"),
      ("t_end = 0.1", "t_end = 1.0")], EXIT_NUMERICAL, "dt=1 relative_residual="),
], ids=["cubic_below_shift", "stiff_step"])
def test_run_failure_leaves_manifest(tmp_path, capsys, edits, code, detail):
    """The manifest ends with the error and its diagnostic, keys sorted, and
    stderr carries the same diagnostic line."""
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, _edited(edits)), "--threads", "1",
                 "--out", str(out)]) == code
    (run_dir,) = out.iterdir()
    manifest = (run_dir / "manifest.txt").read_text()
    assert "\nerror = " in manifest
    tail = manifest.split("\nerror = ")[1].splitlines()
    assert len(tail) == 2 and tail[1].startswith("error_diagnostic = " + detail)
    err = capsys.readouterr().err
    assert "error" in err and "\n" + tail[1] + "\n" in err


def test_run_bad_config_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, MINIMAL.replace("order = 6", "order = 5"))
    assert main(["run", bad]) == EXIT_CONFIG
    assert "order" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    for argv in ([], ["run"], ["tables", "--order", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE, argv


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                            threads):
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", _write(tmp_path, MINIMAL), "--threads", threads,
              "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "--threads" in capsys.readouterr().err
    assert not any(var in os.environ for var in _THREAD_VARS)
    assert not out.exists()


def test_threads_caps_loaded_blas_for_the_run(tmp_path, monkeypatch):
    """numpy and scipy have loaded their OpenBLAS builds before ``main`` runs
    here, so the environment no longer reaches them: ``--threads`` caps both
    for the run, then restores their counts and the environment."""
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    controls = wigner.cli._openblas_thread_controls()
    assert len(controls) == 2
    seen = []

    def fake_run(*args, **kwargs):
        seen.append(([get() for _, get in controls],
                     [os.environ.get(var) for var in _THREAD_VARS]))
        return EXIT_OK

    monkeypatch.setattr(wigner.cli, "run", fake_run)
    before = [get() for _, get in controls]
    for set_, _ in controls:
        set_(2)
    try:
        assert main(["run", _write(tmp_path, MINIMAL), "--threads", "1"]) == EXIT_OK
        assert seen == [([1, 1], ["1"] * len(_THREAD_VARS))]
        assert [get() for _, get in controls] == [2, 2]
        assert not any(var in os.environ for var in _THREAD_VARS)
    finally:
        for (set_, _), count in zip(controls, before):
            set_(count)


def test_in_process_run_matches_command_line(tmp_path):
    """``main([... "--threads", "1"])`` in this process, where BLAS loaded
    before the cap, writes the command line's bytes: the 32x32 order-10
    quartic stationary run."""
    path = _write(tmp_path, _edited([("mode = evolve", "mode = stationary")]
                                    + _QUARTIC + [("t_end = 0.1", "n_states = 2")])
                  + "\n[output]\ngrid_resolution = 8\n")
    done = subprocess.run(
        [sys.executable, "-m", "wigner.cli", "run", path, "--threads", "1",
         "--out", str(tmp_path / "cmd")],
        env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == EXIT_OK, done.stderr
    run_dir = _run_dir(tmp_path, open(path).read())
    names = sorted(n for n in os.listdir(run_dir) if n != "timing.txt")
    assert "manifest.txt" in names
    for name in names:
        a = open(os.path.join(done.stdout.strip(), name), "rb").read()
        b = open(os.path.join(run_dir, name), "rb").read()
        assert a == b, name


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
    L = assemble_evolution(cfg.ps, cfg.U, cfg.params)
    fields = []
    evolve(cfg.initial.field(cfg.ps, cfg.params.hbar), L, cfg.solver,
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

    def fail_at_25(self):
        calls.append(step(self))
        return np.full_like(calls[-1], np.inf) if len(calls) == 25 else calls[-1]

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


@pytest.mark.parametrize("initial,purity", [
    ("[initial]\nsigma_q = 1\nsigma_p = 1\n", 0.25),
    ("", 1.0),  # default widths sqrt(hbar / 2)
])
def test_hbar_and_widths_reach_the_run(tmp_path, initial, purity):
    """A Gaussian's purity is hbar / (2 sigma_q sigma_p).  At unit widths a
    dropped hbar would read 0.5 and dropped widths 1.0; default widths that
    ignored hbar would read 0.5."""
    text = _edited([("potential = 0.5*q^2", "potential = 0.5*q^2\nhbar = 0.5"),
                    ("j_fine = 4", "j_fine = 5"), ("t_end = 0.1", "t_end = 0")])
    run_dir = _run_dir(tmp_path, text + "\n" + initial)
    assert abs(_manifest_value(run_dir, "purity") - purity) < 1e-3


_QUARTIC = [("0.5*q^2", "0.5*q^2 + 0.1*q^4"), ("order = 6", "order = 10"),
            ("j_fine = 4", "j_fine = 5")]


@pytest.mark.parametrize("edits,code", [
    ([("t_end = 0.1", "t_end = 0.2")], EXIT_OK),
    ([("mode = evolve", "mode = stationary")] + _QUARTIC
     + [("t_end = 0.1", "n_states = 2")], EXIT_OK),
    ([("mode = evolve", "mode = ensemble"), ("order = 6", "order = 8"),
      ("j_fine = 4", "j_fine = 5"), ("-4", "-5"), ("= 4", "= 5"),
      ("0.5*q^2", "0.5*q^2\ngamma = 0.1\ndiffusion = 0.05"),
      ("dt = 0.05", "dt = 0.02"),
      ("t_end = 0.1", "t_end = 0.4\n\n[initial]\nq0 = 0.3\n\n[ensemble]\n"
       "n_max = 2\nweights = coherent:0.8\ng = 0.03*q^3 + 0.3*q^2")], EXIT_OK),
], ids=["evolve", "stationary", "ensemble"])
def test_manifest_reports_the_last_series_row(tmp_path, edits, code):
    """The manifest's [diagnostics] figures of the final state and the last
    series.txt row are the same numbers: one HealthSeries computes both.
    ``wigner run`` runs in its own process, where ``--threads 1`` caps BLAS
    before numpy loads, so the final field is the command line's."""
    path = _write(tmp_path, _edited(edits) + "\n[output]\ngrid_resolution = 8\n")
    done = subprocess.run(
        [sys.executable, "-m", "wigner.cli", "run", path, "--threads", "1",
         "--out", str(tmp_path / "out")],
        env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == code, done.stderr
    run_dir = done.stdout.strip()
    _, rows = _series(run_dir)
    last = dict(zip(HealthSeries.COLUMNS, rows[-1]))
    assert _manifest_value(run_dir, "total_integral") == last["integral"]
    assert _manifest_value(run_dir, "purity") == last["purity"]
    assert _manifest_value(run_dir, "l2_norm") == last["l2_norm"]


def test_ensemble_series_has_no_energy(tmp_path):
    """Ensemble levels evolve under multiples of g, so no single potential
    gives <H> of the mixture: the [model] potential does not reach
    series.txt, whose energy column is nan."""
    series = []
    for i, potential in enumerate(("0.5*q^2", "5*q^2")):
        text = _edited([("mode = evolve", "mode = ensemble"),
                        ("0.5*q^2", potential),
                        ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 1")])
        (tmp_path / str(i)).mkdir()
        run_dir = _run_dir(tmp_path / str(i), text)
        series.append(open(os.path.join(run_dir, "series.txt"), "rb").read())
    assert series[0] == series[1]
    _, rows = _series(run_dir)
    energy = HealthSeries.COLUMNS.index("energy")
    assert np.isnan(rows[:, energy]).all()
    assert np.isfinite(np.delete(rows, energy, axis=1)).all()


def test_ensemble_validates_only_the_levels_it_evolves(tmp_path, capsys):
    """Under g = 1e308 q^2 with all weight on level 0, only the zero
    potential 0 * g is evolved: validate and run accept what level 1's
    force (2e308 q) would overflow."""
    text = _edited(_unit_box_ensemble("1e308*q^2", "1 0"))
    assert main(["validate", _write(tmp_path, text)]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out
    _run_dir(tmp_path, text)


@pytest.mark.parametrize("alpha", ["0.8", "1.0"])
def test_ensemble_run_starts_from_w0_itself(tmp_path, alpha):
    """An ensemble run's initial state is W0, the field every level starts
    from, bit for bit as an evolve run projects it; not sum_n w_n W0,
    which equals W0 only to roundoff."""
    ensemble = ("t_end = 0.1", "t_end = 0.1\n\n[ensemble]\nn_max = 2\n"
                f"weights = coherent:{alpha}")
    initial = {}
    for mode, edits in (("evolve", []), ("ensemble", [ensemble])):
        text = _edited([("mode = evolve", f"mode = {mode}")] + edits)
        (tmp_path / mode).mkdir()
        run_dir = _run_dir(tmp_path / mode, text)
        initial[mode] = [open(os.path.join(run_dir, name), "rb").read()
                         for name in ("checkpoint_0000.npy", "w_initial.wgrid")]
    assert initial["ensemble"] == initial["evolve"]


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
