"""Command-line entry points: run orchestration, config parsing, grid dumps.

Heavy numerical imports happen inside functions so that ``--threads`` can cap
BLAS worker pools before any thread pool is created.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import os
import sys
import time
from dataclasses import dataclass

from .errors import ConfigurationError, WignerError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NOT_CONVERGED = 4

_MODES = ("evolve", "stationary", "moyal", "ensemble", "refine")

_KNOWN_KEYS = {
    "run": {"mode"},
    "model": {"potential", "mass", "hbar", "gamma", "diffusion"},
    "basis": {"order", "j_coarse", "j_fine", "q_min", "q_max", "p_min", "p_max"},
    "initial": {"type", "q0", "p0", "sigma_q", "sigma_p", "norm"},
    "solver": {"dt", "t_end", "scheme", "renormalize", "epsilon", "n_max",
               "n_min", "n_states", "pairs", "store_every"},
    "ensemble": {"n_max", "weights", "u0", "g"},
    "output": {"directory", "grid_resolution", "checkpoint_every"},
    "diagnostics": {"theta_loc", "theta_chaos", "theta_stab", "theta_frac",
                    "top_k"},
}


@dataclass
class RunConfig:
    mode: str
    potential_text: str
    mass: float
    hbar: float
    gamma: float
    diffusion: float
    order: int
    j_coarse: int
    j_fine: int
    q_box: tuple
    p_box: tuple
    initial: dict
    dt: float
    t_end: float
    scheme: str
    renormalize: bool
    epsilon: float
    n_max: int
    n_min: int
    n_states: int
    pairs: int
    store_every: int
    ensemble: dict
    out_directory: str
    grid_resolution: int
    checkpoint_every: int
    thresholds: dict
    raw_text: str = ""


def parse_config(path) -> RunConfig:
    """Read and validate an INI-like run config; reports ALL errors at once."""
    if not os.path.isfile(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            raw = fh.read()
        parser.read_string(raw, source=str(path))
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from exc

    errors = []

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            close = difflib.get_close_matches(section, _KNOWN_KEYS, n=1)
            hint = f"; did you mean [{close[0]}]?" if close else ""
            errors.append(f"unknown section [{section}]{hint}")
            continue
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                close = difflib.get_close_matches(key, _KNOWN_KEYS[section], n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                errors.append(f"unknown key {key!r} in [{section}]{hint}")

    def get(section, key, default=None, cast=str, required=False):
        try:
            if parser.has_option(section, key):
                return cast(parser.get(section, key))
            if required:
                errors.append(f"missing required key {key!r} in [{section}]")
                return default
            return default
        except (ValueError, ConfigurationError) as exc:
            errors.append(f"[{section}] {key}: {exc}")
            return default

    def as_bool(text):
        t = text.strip().lower()
        if t in ("1", "true", "yes", "on"):
            return True
        if t in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")

    mode = get("run", "mode", required=True, default="evolve")
    if mode not in _MODES:
        errors.append(f"[run] mode must be one of {_MODES} (got {mode!r})")

    potential_text = get("model", "potential", default="0")
    mass = get("model", "mass", 1.0, float)
    hbar = get("model", "hbar", 1.0, float)
    gamma = get("model", "gamma", 0.0, float)
    diffusion = get("model", "diffusion", 0.0, float)
    if mass is not None and mass <= 0:
        errors.append("[model] mass must be positive")
    if hbar is not None and hbar <= 0:
        errors.append("[model] hbar must be positive")
    if gamma is not None and gamma < 0:
        errors.append("[model] gamma must be non-negative")
    if diffusion is not None and diffusion < 0:
        errors.append("[model] diffusion must be non-negative")
    from .model import parse_potential
    try:
        U = parse_potential(potential_text)
    except ConfigurationError as exc:
        U = None
        errors.append(f"[model] potential: {exc}")

    order = get("basis", "order", 6, int)
    j_coarse = get("basis", "j_coarse", 3, int)
    j_fine = get("basis", "j_fine", 6, int)
    q_min = get("basis", "q_min", -5.0, float)
    q_max = get("basis", "q_max", 5.0, float)
    p_min = get("basis", "p_min", -5.0, float)
    p_max = get("basis", "p_max", 5.0, float)
    if order is not None and (order % 2 or not 2 <= order <= 10):
        errors.append("[basis] order must be an even integer in 2..10")
    if None not in (j_coarse, j_fine) and j_coarse > j_fine:
        errors.append("[basis] j_coarse must not exceed j_fine")
    if None not in (q_min, q_max) and q_min >= q_max:
        errors.append("[basis] q_min must be below q_max")
    if None not in (p_min, p_max) and p_min >= p_max:
        errors.append("[basis] p_min must be below p_max")

    initial = {
        "type": get("initial", "type", "gaussian"),
        "q0": get("initial", "q0", 0.0, float),
        "p0": get("initial", "p0", 0.0, float),
        "sigma_q": get("initial", "sigma_q", None, float),
        "sigma_p": get("initial", "sigma_p", None, float),
        "norm": get("initial", "norm", 1.0, float),
    }
    if initial["type"] not in ("gaussian",):
        errors.append(f"[initial] type must be 'gaussian' (got {initial['type']!r})")
    for key in ("sigma_q", "sigma_p"):
        if initial[key] is not None and initial[key] <= 0:
            errors.append(f"[initial] {key} must be positive")

    dt = get("solver", "dt", 0.01, float)
    t_end = get("solver", "t_end", 1.0, float)
    scheme = get("solver", "scheme", "implicit_midpoint")
    renormalize = get("solver", "renormalize", False, as_bool)
    epsilon = get("solver", "epsilon", 1e-4, float)
    n_max = get("solver", "n_max", j_fine if j_fine else 6, int)
    n_min = get("solver", "n_min", 4, int)
    n_states = get("solver", "n_states", 4, int)
    pairs = get("solver", "pairs", 4, int)
    store_every = get("solver", "store_every", 1, int)
    if dt is not None and dt <= 0:
        errors.append("[solver] dt must be positive")
    if t_end is not None and t_end < 0:
        errors.append("[solver] t_end must be non-negative")
    if scheme not in ("implicit_midpoint", "explicit_rk4"):
        errors.append("[solver] scheme must be implicit_midpoint or explicit_rk4")
    if epsilon is not None and epsilon <= 0:
        errors.append("[solver] epsilon must be positive")
    if n_states is not None and n_states < 1:
        errors.append("[solver] n_states must be >= 1")
    if pairs is not None and pairs < 1:
        errors.append("[solver] pairs must be >= 1")
    if store_every is not None and store_every < 1:
        errors.append("[solver] store_every must be >= 1")
    # n_max defaults to j_fine, so only refine runs must order the levels
    if mode == "refine" and None not in (n_min, n_max) and n_min > n_max:
        errors.append("[solver] n_min must not exceed n_max")

    ensemble = g = None
    if parser.has_section("ensemble"):
        ensemble = {
            "n_max": get("ensemble", "n_max", 1, int),
            "weights": get("ensemble", "weights", "coherent:1.0"),
            "u0": get("ensemble", "u0", 1.0, float),
            "g": get("ensemble", "g", "q^2"),
        }
        try:
            g = parse_potential(ensemble["g"])
        except ConfigurationError as exc:
            errors.append(f"[ensemble] g: {exc}")
        if ensemble["n_max"] is not None:
            try:
                ensemble["weights"] = _ensemble_weights(ensemble["weights"],
                                                        ensemble["n_max"])
            except (ValueError, WignerError) as exc:
                errors.append(f"[ensemble] weights: {exc}")
    elif mode == "ensemble":
        errors.append("mode 'ensemble' requires an [ensemble] section")

    # Ensemble levels evolve under multiples of g, every other mode under U.
    U_run = g if mode == "ensemble" else U
    if order in range(2, 11, 2):
        from .basis import WaveletBasis, connection_coefficients, daubechies_filter
        filt = daubechies_filter(order)
        # The coarsest basis the mode builds (refine mode starts at n_min);
        # its size check reads only the order and the finest level.
        key, j = ("[solver] n_min", n_min) if mode == "refine" else \
            ("[basis] j_fine", j_fine)
        if j is not None:
            try:
                WaveletBasis(filter=filt, j_coarse=j, j_fine=j, domain=(0.0, 1.0))
            except ConfigurationError as exc:
                errors.append(f"{key}: {exc}")
        if U_run is not None:
            try:
                for d in sorted(_derivative_orders(mode, U_run, diffusion)):
                    connection_coefficients(filt, 0, d)
            except ConfigurationError as exc:
                errors.append(f"[basis] order {order}: {exc}")

    out_directory = get("output", "directory", None)
    grid_resolution = get("output", "grid_resolution", 128, int)
    checkpoint_every = get("output", "checkpoint_every", 10, int)
    if grid_resolution is not None and grid_resolution < 2:
        errors.append("[output] grid_resolution must be >= 2 per axis")
    if checkpoint_every is not None and checkpoint_every < 1:
        errors.append("[output] checkpoint_every must be >= 1")

    thresholds = {
        "theta_loc": get("diagnostics", "theta_loc", 0.05, float),
        "theta_chaos": get("diagnostics", "theta_chaos", 0.5, float),
        "theta_stab": get("diagnostics", "theta_stab", 1e-3, float),
        "theta_frac": get("diagnostics", "theta_frac", 0.9, float),
        "top_k": get("diagnostics", "top_k", 32, int),
    }

    if errors:
        raise ConfigurationError(
            "invalid configuration:\n  " + "\n  ".join(errors))

    return RunConfig(
        mode=mode, potential_text=potential_text, mass=mass, hbar=hbar,
        gamma=gamma, diffusion=diffusion, order=order, j_coarse=j_coarse,
        j_fine=j_fine, q_box=(q_min, q_max), p_box=(p_min, p_max),
        initial=initial, dt=dt, t_end=t_end, scheme=scheme,
        renormalize=renormalize, epsilon=epsilon, n_max=n_max, n_min=n_min,
        n_states=n_states, pairs=pairs, store_every=store_every,
        ensemble=ensemble, out_directory=out_directory,
        grid_resolution=grid_resolution, checkpoint_every=checkpoint_every,
        thresholds=thresholds, raw_text=raw,
    )


def _derivative_orders(mode, U, diffusion) -> set:
    """Orders of the derivative tables that assembling the mode's operator reads."""
    from .model import moyal_truncation

    if mode in ("evolve", "ensemble"):
        # transport and friction d/dp, force and hbar^2 terms d^(2l+1)/dp^(2l+1),
        # diffusion d^2/dp^2
        orders = {1} | {2 * l + 1 for l in range(moyal_truncation(U) + 1)}
        return orders | {2} if diffusion else orders
    # d/dq, d^2/dq^2 and every d^r/dp^r up to the degree of U
    return set(range(1, max(2, U.degree) + 1))


# ---------------------------------------------------------------------------
# grid dumps
# ---------------------------------------------------------------------------

def dump_grid(W, resolution: int, path) -> None:
    """Write a plain-text W(q,p) grid: WGRID 1 header, p-outer rows."""
    import numpy as np

    if resolution < 2:
        raise ConfigurationError("grid resolution must be >= 2 per axis")
    ps = W.ps
    qmin, qmax = ps.basis_q.domain
    pmin, pmax = ps.basis_p.domain
    qs = qmin + (qmax - qmin) * (np.arange(resolution) + 0.5) / resolution
    ps_ = pmin + (pmax - pmin) * (np.arange(resolution) + 0.5) / resolution
    vals = ps.evaluate_grid(np.real(W.coeffs), qs, ps_)  # [iq, ip]
    with open(path, "w") as fh:
        fh.write("WGRID 1\n")
        fh.write("%d %d %.17g %.17g %.17g %.17g %.17g\n"
                 % (resolution, resolution, qmin, qmax, pmin, pmax, W.time))
        for ip in range(resolution):
            fh.write(" ".join("%.17g" % vals[iq, ip] for iq in range(resolution)))
            fh.write("\n")


def load_grid(path):
    """Read a WGRID 1 file; returns (header dict, 2D array [ip, iq])."""
    import numpy as np

    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != "WGRID 1":
            raise ConfigurationError(f"{path}: not a WGRID 1 file")
        parts = fh.readline().split()
        nq, np_rows = int(parts[0]), int(parts[1])
        header = {
            "nq": nq, "np": np_rows,
            "qmin": float(parts[2]), "qmax": float(parts[3]),
            "pmin": float(parts[4]), "pmax": float(parts[5]),
            "time": float(parts[6]),
        }
        data = np.loadtxt(fh)
    data = np.atleast_2d(data)
    if data.shape != (np_rows, nq):
        raise ConfigurationError(f"{path}: grid shape mismatch")
    return header, data


def _dump_marginal(marg, resolution, path):
    import numpy as np

    a, b = marg.basis.domain
    xs = a + (b - a) * (np.arange(resolution) + 0.5) / resolution
    vals = marg.evaluate(xs)
    with open(path, "w") as fh:
        for x, v in zip(xs, vals):
            fh.write("%.17g %.17g\n" % (x, v))


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _make_run_dir(cfg: RunConfig, override) -> str:
    root = override or cfg.out_directory or os.environ.get("WIGNER_OUT", ".")
    os.makedirs(root, exist_ok=True)
    base = os.path.join(root, f"run-{cfg.mode}")
    candidate = base
    suffix = 0
    while os.path.exists(candidate):
        suffix += 1
        candidate = f"{base}-{suffix}"
    os.makedirs(candidate)
    return candidate


def _build_phase_space(cfg: RunConfig, j_fine=None):
    from .assembly import PhaseSpaceBasis
    from .basis import WaveletBasis, daubechies_filter

    filt = daubechies_filter(cfg.order)
    j = j_fine if j_fine is not None else cfg.j_fine
    bq = WaveletBasis(filter=filt, j_coarse=min(cfg.j_coarse, j), j_fine=j,
                      domain=cfg.q_box)
    bp = WaveletBasis(filter=filt, j_coarse=min(cfg.j_coarse, j), j_fine=j,
                      domain=cfg.p_box)
    return PhaseSpaceBasis(bq, bp)


def _initial_field(cfg: RunConfig, ps):
    import numpy as np

    from .solve import CoefficientField

    ini = cfg.initial
    sq = ini["sigma_q"] if ini["sigma_q"] is not None else (cfg.hbar / 2.0) ** 0.5
    sp_ = ini["sigma_p"] if ini["sigma_p"] is not None else (cfg.hbar / 2.0) ** 0.5
    q0, p0, norm = ini["q0"], ini["p0"], ini["norm"]
    amp = norm / (2.0 * np.pi * sq * sp_)

    def f(q, p):
        return amp * np.exp(-((q - q0) ** 2) / (2 * sq ** 2)
                            - ((p - p0) ** 2) / (2 * sp_ ** 2))

    return CoefficientField(ps=ps, coeffs=ps.project(f))


def _model_params(cfg: RunConfig):
    from .model import ModelParams

    return ModelParams(mass=cfg.mass, hbar=cfg.hbar, gamma=cfg.gamma,
                       diffusion=cfg.diffusion)


def _thresholds(cfg: RunConfig):
    from .diagnostics import ClassifierThresholds

    return ClassifierThresholds(**cfg.thresholds)


def run(cfg: RunConfig, out_override=None, verbose=False) -> int:
    """Execute a validated config; writes manifest and artifacts; exit code.

    Any WignerError ends the run with an ``error =`` line in the manifest and
    exit code 2 for a configuration error, 3 for any other.
    """
    import numpy as np
    import scipy

    from . import __version__

    t_wall = time.time()
    run_dir = _make_run_dir(cfg, out_override)
    manifest = [
        "wigner run manifest",
        f"mode = {cfg.mode}",
        f"package_version = {__version__}",
        f"python_version = {sys.version.split()[0]}",
        f"numpy_version = {np.__version__}",
        f"scipy_version = {scipy.__version__}",
        "",
        "[config]",
        cfg.raw_text.rstrip(),
        "",
    ]
    try:
        report, not_converged = _execute(cfg, run_dir, manifest)
    except WignerError as exc:
        if isinstance(exc, ConfigurationError):
            code, message = EXIT_CONFIG, f"configuration error: {exc}"
        else:
            code, message = EXIT_NUMERICAL, f"numerical error: {exc}"
        _write_failure(run_dir, manifest, message)
        print(message, file=sys.stderr)
        return code

    with open(os.path.join(run_dir, "timing.txt"), "w") as fh:
        fh.write(f"wall_seconds = {time.time() - t_wall:.3f}\n")

    if verbose:
        print(f"run artifacts in {run_dir}")
        print(report.to_text(), end="")
    else:
        print(run_dir)
    return EXIT_NOT_CONVERGED if not_converged else EXIT_OK


def _execute(cfg: RunConfig, run_dir, manifest):
    """Run the configured mode and write its artifacts and manifest."""
    from .diagnostics import diagnostics_report, marginals
    from .model import parse_potential

    not_converged = False
    U = parse_potential(cfg.potential_text)
    params = _model_params(cfg)

    # every mode hands the states it computes to one writer, the last one final
    store = _CheckpointWriter(cfg, U, run_dir)
    if cfg.mode == "evolve":
        _run_evolution(cfg, U, params, store)
    elif cfg.mode == "ensemble":
        _run_ensemble(cfg, params, store)
    elif cfg.mode == "stationary":
        _run_stationary(cfg, U, params, manifest, store)
    elif cfg.mode == "moyal":
        _run_moyal(cfg, U, params, manifest, store)
    elif cfg.mode == "refine":
        not_converged = _run_refine(cfg, U, params, manifest, store)
    else:  # pragma: no cover - parse_config rejects unknown modes
        raise ConfigurationError(f"unhandled mode {cfg.mode!r}")
    store.finish()

    final = store.last
    dump_grid(store.first, cfg.grid_resolution,
              os.path.join(run_dir, "w_initial.wgrid"))
    dump_grid(final, cfg.grid_resolution,
              os.path.join(run_dir, "w_final.wgrid"))
    _dump_scale_parts(cfg, final, run_dir)

    dq, dp = marginals(final)
    _dump_marginal(dq, cfg.grid_resolution,
                   os.path.join(run_dir, "marginal_q.txt"))
    _dump_marginal(dp, cfg.grid_resolution,
                   os.path.join(run_dir, "marginal_p.txt"))

    report = diagnostics_report(final, store.previous, hbar=cfg.hbar,
                                thresholds=_thresholds(cfg))
    manifest += ["", "[diagnostics]", report.to_text().rstrip(), ""]
    manifest.append(f"converged = {not not_converged}")

    with open(os.path.join(run_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    return report, not_converged


def _evolution_config(cfg: RunConfig):
    from .solve import EvolutionConfig

    return EvolutionConfig(dt=cfg.dt, t_end=cfg.t_end, scheme=cfg.scheme,
                           renormalize=cfg.renormalize,
                           store_every=cfg.store_every)


def _run_evolution(cfg, U, params, store):
    from .assembly import assemble_evolution
    from .solve import evolve

    ps = _build_phase_space(cfg)
    W0 = _initial_field(cfg, ps)
    evolve(W0, assemble_evolution(ps, U, params), _evolution_config(cfg),
           store=store)


def _ensemble_weights(text, n_max):
    """Normalized Fock weights from ``coherent:<alpha>`` or n_max + 1 numbers."""
    import numpy as np

    from .ensemble import coherent_weights

    text = text.strip()
    if text.startswith("coherent:"):
        return coherent_weights(float(text.split(":", 1)[1]), n_max)
    weights = np.array([float(tok) for tok in text.replace(",", " ").split()])
    if weights.size != n_max + 1:
        raise ConfigurationError(f"expected {n_max + 1} weights, got {weights.size}")
    if np.any(weights < 0) or not weights.sum() > 0:
        raise ConfigurationError("weights must be non-negative with a positive sum")
    return weights / weights.sum()


def _run_ensemble(cfg, params, store):
    """Stores the initial and the final superposed field."""
    from .ensemble import (FockEnsemble, evolve_fock_hierarchy,
                           incoherent_superpose)
    from .model import parse_potential

    ps = _build_phase_space(cfg)
    W0 = _initial_field(cfg, ps)
    spec = cfg.ensemble
    ens = FockEnsemble(weights=spec["weights"], U0=spec["u0"],
                       g=parse_potential(spec["g"]),
                       fields=[W0.copy() for _ in spec["weights"]])
    store(incoherent_superpose(ens))
    evolved = evolve_fock_hierarchy(ens, params, _evolution_config(cfg))
    store(incoherent_superpose(evolved))


def _run_stationary(cfg, U, params, manifest, store):
    from .assembly import assemble_stationary_pair
    from .solve import stationary_eigen

    ps = _build_phase_space(cfg)
    A_sym, A_anti = assemble_stationary_pair(ps, U, params)
    states = stationary_eigen(A_sym, A_anti, cfg.n_states)
    manifest.append("[eigenvalues]")
    for i, (eps, _) in enumerate(states):
        manifest.append(f"eps_{i} = {eps:.12g}")
    store(states[0][1])


def _run_moyal(cfg, U, params, manifest, store):
    import numpy as np

    from .assembly import assemble_stationary_pair
    from .solve import CoefficientField, moyal_eigen

    ps = _build_phase_space(cfg)
    A_sym, A_anti = assemble_stationary_pair(ps, U, params)
    pairs = moyal_eigen(A_sym, A_anti, cfg.pairs, hbar=params.hbar)
    manifest.append("[eigenvalues]")
    for i, (e_lo, e_hi, _) in enumerate(pairs):
        manifest.append(f"pair_{i} = {e_lo:.12g} {e_hi:.12g}")
    W = pairs[0][2]
    store(CoefficientField(ps=W.ps, coeffs=np.real(W.coeffs), time=W.time))


def _run_refine(cfg, U, params, manifest, store):
    """Stores the accepted field; returns True when refinement did not converge."""
    from .assembly import assemble_stationary_pair
    from .solve import refine_until, stationary_eigen

    def solve_at_level(N):
        ps = _build_phase_space(cfg, j_fine=N)
        A_sym, A_anti = assemble_stationary_pair(ps, U, params)
        return stationary_eigen(A_sym, A_anti, 1)[0][1]

    W, report = refine_until(solve_at_level, cfg.epsilon, cfg.n_max,
                             n_min=cfg.n_min)
    manifest.append("[refinement]")
    for N, diff in report.levels_tried:
        manifest.append(f"level_{N}_difference = {diff:.12g}")
    manifest.append(f"accepted_level = {report.accepted_level}")
    manifest.append(f"refine_converged = {report.converged}")
    manifest.append(f"monotone = {report.monotone}")
    store(W)
    return not report.converged


def _dump_scale_parts(cfg, final, run_dir):
    from .solve import reconstruct_by_scale

    bq = final.ps.basis_q
    cut = min(bq.j_coarse + 1, bq.j_fine)
    slow, fast = reconstruct_by_scale(final, cut)
    dump_grid(slow, cfg.grid_resolution,
              os.path.join(run_dir, "scale_slow.wgrid"))
    for i, part in enumerate(fast):
        dump_grid(part, cfg.grid_resolution,
                  os.path.join(run_dir, f"scale_fast_{cut + i}.wgrid"))


class _CheckpointWriter:
    """The sink for the states every mode computes, in order.

    Stored state i goes to ``checkpoint_{k:04d}.npy`` when i is a multiple
    of ``checkpoint_every``, and ``finish`` writes the last state if it was
    not.  Each checkpoint appends its line to ``checkpoints.txt`` and its
    ``HealthSeries`` row to ``series.txt`` at once, so a run that fails
    midway lists exactly the checkpoints it wrote.  Only the first, the
    previous and the last state are kept: the initial dump, ``classify`` and
    the final dumps read them.
    """

    def __init__(self, cfg: RunConfig, U, run_dir):
        self.cfg, self.U, self.run_dir = cfg, U, run_dir
        self.first = self.previous = self.last = None
        self.stored = self.written = 0
        self._series = None

    def __call__(self, W):
        if self.first is None:
            from .diagnostics import HealthSeries

            self.first = W
            self._series = HealthSeries(W.ps, self.U, mass=self.cfg.mass,
                                        hbar=self.cfg.hbar)
            self._append("series.txt", "# " + " ".join(HealthSeries.COLUMNS))
        self.previous, self.last = self.last, W
        if self.stored % self.cfg.checkpoint_every == 0:
            self._write(W)
        self.stored += 1

    def finish(self):
        if (self.stored - 1) % self.cfg.checkpoint_every:
            self._write(self.last)

    def _write(self, W):
        import numpy as np

        name = f"checkpoint_{self.written:04d}.npy"
        np.save(os.path.join(self.run_dir, name), W.coeffs)
        self._append("checkpoints.txt", "%s %.17g" % (name, W.time))
        self._append("series.txt",
                     " ".join("%.17g" % x for x in self._series.row(W)))
        self.written += 1

    def _append(self, name, line):
        with open(os.path.join(self.run_dir, name), "a") as fh:
            fh.write(line + "\n")


def _write_failure(run_dir, manifest, message):
    manifest += ["", f"error = {message}"]
    with open(os.path.join(run_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _cap_threads(n):
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _cmd_run(args) -> int:
    _cap_threads(args.threads)
    try:
        cfg = parse_config(args.config)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, out_override=args.out, verbose=args.verbose)


def _cmd_validate(args) -> int:
    try:
        parse_config(args.config)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def _cmd_tables(args) -> int:
    _cap_threads(args.threads)
    from .basis import connection_coefficients, daubechies_filter

    try:
        filt = daubechies_filter(args.order)
    except (ConfigurationError, WignerError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    print(f"filter order {args.order}:")
    print("  taps:", " ".join("%.17g" % h for h in filt.taps))
    for d in range(1, args.max_deriv + 1):
        try:
            table = connection_coefficients(filt, 0, d)
        except ConfigurationError as exc:
            print(f"  derivative {d}: {exc}")
            continue
        print(f"  derivative {d} offsets {table.offsets.min()}..{table.offsets.max()}:")
        print("   ", " ".join("%.12g" % v for v in table.values))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wigner",
        description="Wavelet-Galerkin Wigner-function solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, default=None,
                       help="cap BLAS/worker threads (1 for determinism)")
    p_run.add_argument("--out", default=None, help="output root directory")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a run config")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_tab = sub.add_parser("tables", help="precompute/inspect basis tables")
    p_tab.add_argument("--order", type=int, required=True)
    p_tab.add_argument("--max-deriv", type=int, default=2)
    p_tab.add_argument("--threads", type=int, default=None)
    p_tab.set_defaults(func=_cmd_tables)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WignerError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
