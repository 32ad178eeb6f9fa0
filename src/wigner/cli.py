"""Command-line entry points: run orchestration, config parsing, grid dumps.

Heavy numerical imports happen inside functions so that ``--threads`` can cap
BLAS worker pools before any thread pool is created; an OpenBLAS loaded
before ``main`` runs is capped for the run through its own thread setter.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import difflib
import math
import numbers
import os
import shutil
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigurationError, WignerError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _exit_code(exc: WignerError) -> int:
    """2 for a ConfigurationError, 3 for any other WignerError."""
    return EXIT_CONFIG if isinstance(exc, ConfigurationError) else EXIT_NUMERICAL


@dataclass(frozen=True)
class InitialState:
    """The ``[initial]`` Gaussian W0; a width of None is sqrt(hbar/2), the
    coherent state's."""

    type: str = "gaussian"
    q0: float = 0.0
    p0: float = 0.0
    sigma_q: float | None = None
    sigma_p: float | None = None

    def __post_init__(self):
        bad = []
        if self.type not in ("gaussian",):
            bad.append(f"type must be 'gaussian' (got {self.type!r})")
        bad += [f"{name} must be positive" for name in ("sigma_q", "sigma_p")
                if getattr(self, name) is not None and not getattr(self, name) > 0]
        if bad:
            raise ConfigurationError("; ".join(bad))

    def widths(self, hbar):
        """(sigma_q, sigma_p) at ``hbar``; a ConfigurationError when W0's
        exponent or its peak 1/(2 pi sigma_q sigma_p) leaves double precision."""
        sq, sp_ = ((hbar / 2.0) ** 0.5 if s is None else s
                   for s in (self.sigma_q, self.sigma_p))
        with contextlib.suppress(OverflowError):  # a width's square
            if min(sq ** 2, sp_ ** 2) > 0 and 0 < 2.0 * math.pi * sq * sp_ < math.inf:
                return sq, sp_
        raise ConfigurationError(f"sigma_q, sigma_p: widths {sq:g} and {sp_:g} put "
                                 "W0's exponent or its peak outside double precision")

    def field(self, ps, hbar):
        """W0 projected onto ``ps``."""
        import numpy as np

        from .solve import CoefficientField

        sq, sp_ = self.widths(hbar)
        amp = 1.0 / (2.0 * np.pi * sq * sp_)

        def f(q, p):
            return amp * np.exp(-((q - self.q0) ** 2) / (2 * sq ** 2)
                                - ((p - self.p0) ** 2) / (2 * sp_ ** 2))

        return CoefficientField(ps=ps, coeffs=ps.project(f))


@dataclass(frozen=True)
class EnsembleSettings:
    """The ``[ensemble]`` Fock levels 0..n_max, level n evolving under n * g.
    ``fock_weights`` and ``coupling`` are built from ``weights`` and ``g``."""

    n_max: int = 1
    weights: str = "coherent:1.0"
    g: str = "q^2"
    fock_weights: object = field(init=False, repr=False, compare=False)
    coupling: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from .model import parse_potential

        bad = []
        try:
            object.__setattr__(self, "coupling", parse_potential(self.g))
        except ConfigurationError as exc:
            bad.append(f"g: {exc}")
        if self.n_max < 0:
            bad.append("n_max must be >= 0")
        else:
            try:
                object.__setattr__(self, "fock_weights", self._fock_weights())
            except (ValueError, ConfigurationError) as exc:
                bad.append(f"weights: {exc}")
        if bad:
            raise ConfigurationError("; ".join(bad))

    def _fock_weights(self):
        """Normalized weights from ``coherent:<alpha>`` or n_max + 1 numbers."""
        import numpy as np

        from .ensemble import coherent_weights

        text = self.weights.strip()
        if text.startswith("coherent:"):
            return coherent_weights(float(text.split(":", 1)[1]), self.n_max)
        weights = np.array([float(tok) for tok in text.replace(",", " ").split()])
        if weights.size != self.n_max + 1:
            raise ConfigurationError(f"expected {self.n_max + 1} weights, "
                                     f"got {weights.size}")
        if not np.all(np.isfinite(weights)):
            raise ConfigurationError("weights must be finite")
        if np.any(weights < 0) or not weights.sum() > 0:
            raise ConfigurationError("weights must be non-negative with a positive sum")
        return weights / weights.sum()


@dataclass(frozen=True)
class OutputSettings:
    """The ``[output]`` settings; ``directory`` None falls back to
    ``$WIGNER_OUT``, then the working directory, and ``--out`` overrides it."""

    directory: str | None = None
    grid_resolution: int = 128
    checkpoint_every: int = 10

    def __post_init__(self):
        bad = []
        if self.directory is not None and os.path.exists(self.directory) \
                and not os.path.isdir(self.directory):
            bad.append(f"directory {self.directory!r} exists and is not a directory")
        if not self.grid_resolution >= 2:
            bad.append("grid_resolution must be >= 2 per axis")
        if not self.checkpoint_every >= 1:
            bad.append("checkpoint_every must be >= 1")
        if bad:
            raise ConfigurationError("; ".join(bad))


@dataclass
class RunConfig:
    """A validated run: the potential U and one built object per config
    section, so no run step parses or builds them again."""

    mode: str
    U: object
    params: object
    ps: object
    initial: InitialState
    solver: object
    ensemble: EnsembleSettings
    output: OutputSettings
    thresholds: object
    raw_text: str = ""


def parse_config(path) -> RunConfig:
    """Read and validate an INI-like run config; reports ALL errors at once.

    The keys read here are the known keys: any other section or key in the
    file is an error, with a spelling hint.
    """
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
    known = {}

    def get(section, key, default=None, cast=str, required=False):
        known.setdefault(section, set()).add(key)
        if not parser.has_option(section, key):
            if required:
                errors.append(f"missing required key {key!r} in [{section}]")
            return default
        try:
            value = cast(parser.get(section, key))
            if cast is float and not math.isfinite(value):
                raise ValueError(f"{value} is not a finite number")
            return value
        except (ValueError, configparser.Error) as exc:
            errors.append(f"[{section}] {key}: {exc}")
            return default

    def build(cls, section):
        """``cls`` from the [section] keys named after its fields: a missing
        key takes the field's default, a key is cast to the field's type, T
        for ``T | None``.  None if ``cls`` rejects the values."""
        types = {name: next((t for t in typing.get_args(hint) if t is not type(None)),
                            hint) for name, hint in typing.get_type_hints(cls).items()}
        try:
            return cls(**{f.name: get(section, f.name, f.default, types[f.name])
                          for f in fields(cls) if f.init})
        except ConfigurationError as exc:
            errors.append(f"[{section}] {exc}")
            return None

    mode = get("run", "mode", required=True, default="evolve")
    if mode not in _RUNNERS:
        errors.append(f"[run] mode must be one of {tuple(_RUNNERS)} "
                      f"(got {mode!r})")

    from .assembly import PhaseSpaceBasis
    from .basis import MAX_MOMENT_POWER
    from .diagnostics import ClassifierThresholds
    from .ensemble import WEIGHT_FLOOR
    from .model import ModelParams, parse_potential
    from .solve import EvolutionConfig, first_subspace

    params = build(ModelParams, "model")
    try:
        U = parse_potential(get("model", "potential", default="0"))
    except ConfigurationError as exc:
        U = None
        errors.append(f"[model] potential: {exc}")

    ps = build(PhaseSpaceBasis, "basis")
    initial = build(InitialState, "initial")
    if None not in (initial, params):
        try:
            initial.widths(params.hbar)
        except ConfigurationError as exc:
            errors.append(f"[initial] {exc}")
    solver = build(EvolutionConfig, "solver")
    # the first eigen subspace must fit in the basis; k growing past dim
    # later in a run is a numerical failure
    if mode == "stationary" and None not in (ps, solver):
        k = first_subspace(solver.n_states)
        if k >= ps.dim:
            errors.append(f"[solver] n_states: {solver.n_states} states start "
                          f"from k = {k} eigenpairs, but the basis has dim = {ps.dim}")

    # built even without the section, so that a misspelt one gets its hint
    ensemble = build(EnsembleSettings, "ensemble")
    if mode == "ensemble" and not parser.has_section("ensemble"):
        errors.append("mode 'ensemble' requires an [ensemble] section")

    # Every other mode evolves under U, an ensemble's levels under n * g, of
    # which the top level whose weight clears the floor has the largest terms.
    U_run, U_key = U, "[model] potential"
    if mode == "ensemble":
        U_key = "[ensemble] g"
        U_run = ensemble and ensemble.coupling * max(
            (n for n, w in enumerate(ensemble.fock_weights) if w >= WEIGHT_FLOOR),
            default=0)
    # The generator multiplies by U' at most, the stationary pair by U; the
    # moment tables end at MAX_MOMENT_POWER whatever the filter order.
    max_degree = MAX_MOMENT_POWER + (mode in ("evolve", "ensemble"))
    if U_run is not None and U_run.degree() > max_degree:
        errors.append(f"{U_key}: degree {U_run.degree()} exceeds {max_degree}, "
                      f"the highest the moment tables support in {mode} mode")
        U_run = None
    if None not in (U_run, params, ps):
        try:
            _assemble_smallest(mode, ps.order, ps, U_run, params)
        except ConfigurationError as exc:
            # blame the filter only when a supported order assembles U, and
            # U's degree only when that order fails for want of regularity
            try:
                _assemble_smallest(mode, 10, ps, U_run, params)
                errors.append(f"[basis] order {ps.order}: {exc}")
            except ConfigurationError as exc10:
                if isinstance(exc10.__cause__, FloatingPointError):  # overflow
                    errors.append(f"{U_key}: {exc10}")
                elif isinstance(exc10.__cause__, ConfigurationError):  # a table
                    errors.append(f"{U_key}: degree {U_run.degree()} needs a "
                                  "derivative beyond the regularity of every "
                                  f"filter order in {mode} mode")
                else:  # a term's coefficient, whose error names its [model] key
                    errors.append(str(exc10))

    output = build(OutputSettings, "output")
    thresholds = build(ClassifierThresholds, "diagnostics")

    for section in parser.sections():
        if section not in known:
            close = difflib.get_close_matches(section, known, n=1, cutoff=0.7)
            hint = f"; did you mean [{close[0]}]?" if close else ""
            errors.append(f"unknown section [{section}]{hint}")
            continue
        for key in parser[section]:
            if key not in known[section]:
                close = difflib.get_close_matches(key, known[section], n=1,
                                                  cutoff=0.7)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                errors.append(f"unknown key {key!r} in [{section}]{hint}")

    if errors:
        raise ConfigurationError(
            "invalid configuration:\n  " + "\n  ".join(errors))

    return RunConfig(
        mode=mode, U=U, params=params, ps=ps, initial=initial, solver=solver,
        ensemble=ensemble, output=output, thresholds=thresholds, raw_text=raw,
    )


def _assemble_smallest(mode, order, ps, U, params):
    """Assemble the mode's operator on ``ps``'s boxes at the filter ``order``
    and its smallest basis, whatever the levels of ``ps``.

    Which tables an operator reads depends on the mode, U and the filter
    order, not on the basis size, so this raises the ConfigurationError that
    the run's own assembly would.
    """
    from .assembly import assemble_evolution, assemble_stationary_pair
    from .basis import smallest_level

    j = smallest_level(order)
    assemble = assemble_evolution if mode in ("evolve", "ensemble") \
        else assemble_stationary_pair
    assemble(replace(ps, order=order, j_coarse=j, j_fine=j), U, params)


# ---------------------------------------------------------------------------
# grid dumps
# ---------------------------------------------------------------------------

def dump_grid(W, resolution: int, path) -> None:
    """Write a plain-text W(q,p) grid: WGRID 1 header, p-outer rows."""
    import numpy as np

    if resolution < 2:
        raise ConfigurationError("grid resolution must be >= 2 per axis")
    ps = W.ps
    vals = ps.evaluate_grid(W.coeffs,
                            ps.basis_q.cell_centres(resolution),
                            ps.basis_p.cell_centres(resolution))  # [iq, ip]
    with open(path, "w") as fh:
        fh.write("WGRID 1\n")
        fh.write("%d %d %.17g %.17g %.17g %.17g %.17g\n"
                 % (resolution, resolution, ps.q_min, ps.q_max, ps.p_min,
                    ps.p_max, W.time))
        np.savetxt(fh, vals.T, fmt="%.17g")


def _dump_marginal(basis, coeffs, resolution, path):
    import numpy as np

    xs = basis.cell_centres(resolution)
    np.savetxt(path, np.column_stack([xs, basis.evaluation_matrix(xs) @ coeffs]),
               fmt="%.17g")


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _make_run_dir(cfg: RunConfig, override) -> str:
    """A fresh ``run-<mode>[-k]`` directory under the output root, or a
    ConfigurationError naming where the unusable root came from."""
    root = override or cfg.output.directory or os.environ.get("WIGNER_OUT", ".")
    base = os.path.join(root, f"run-{cfg.mode}")
    candidate = base
    suffix = 0
    try:
        os.makedirs(root, exist_ok=True)
        while os.path.exists(candidate):
            suffix += 1
            candidate = f"{base}-{suffix}"
        os.makedirs(candidate)
    except OSError as exc:
        source = "--out" if override else "[output] directory" \
            if cfg.output.directory else "$WIGNER_OUT"
        raise ConfigurationError(
            f"{source} {root!r} cannot hold a run directory: {exc}") from exc
    return candidate


def _diagnostic_line(diagnostic: dict) -> str:
    """``error_diagnostic = key=value ...`` with the keys sorted, numbers in
    %.6g and an array's entries joined by commas."""
    import numpy as np

    def text(value):
        return ",".join("%.6g" % v if isinstance(v, numbers.Real) else str(v)
                        for v in np.ravel(value))

    return "error_diagnostic = " + " ".join(
        f"{key}={text(diagnostic[key])}" for key in sorted(diagnostic))


def run(cfg: RunConfig, out_override=None) -> int:
    """Execute a validated config; writes manifest and artifacts; exit code.

    Any WignerError ends the run with an ``error =`` line in the manifest and
    exit code 2 for a configuration error, 3 for any other; an error that
    carries a ``diagnostic`` adds an ``error_diagnostic =`` line, and stderr
    gets the same lines without ``error =``.  An output root
    that cannot hold the run directory raises ConfigurationError, as no
    manifest can be written.
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
    code = None
    try:
        _execute(cfg, run_dir, manifest)
    except WignerError as exc:
        code = _exit_code(exc)
        kind = "configuration" if code == EXIT_CONFIG else "numerical"
        message = f"{kind} error: {exc}"
        manifest += ["", f"error = {message}"]
        if getattr(exc, "diagnostic", None):
            detail = _diagnostic_line(exc.diagnostic)
            manifest.append(detail)
            message += "\n" + detail
    with open(os.path.join(run_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    if code is not None:
        print(message, file=sys.stderr)
        return code

    with open(os.path.join(run_dir, "timing.txt"), "w") as fh:
        fh.write(f"wall_seconds = {time.time() - t_wall:.3f}\n")

    print(run_dir)
    return EXIT_OK


def _execute(cfg: RunConfig, run_dir, manifest):
    """Run the configured mode, write its artifacts and fill ``manifest``."""
    from .diagnostics import diagnostics_report, marginals

    # every mode hands the states it computes to one writer, the last one final
    store = _CheckpointWriter(cfg, run_dir)
    _RUNNERS[cfg.mode](cfg, manifest, store)
    store.finish()

    final = store.last
    initial = os.path.join(run_dir, "w_initial.wgrid")
    dump_grid(store.first, cfg.output.grid_resolution, initial)
    if final is store.first:
        # a stationary run stores one state: its final grid is its initial one
        shutil.copyfile(initial, os.path.join(run_dir, "w_final.wgrid"))
    else:
        dump_grid(final, cfg.output.grid_resolution,
                  os.path.join(run_dir, "w_final.wgrid"))
    _dump_scale_parts(cfg, final, run_dir)

    dq, dp = marginals(final)
    _dump_marginal(final.ps.basis_q, dq, cfg.output.grid_resolution,
                   os.path.join(run_dir, "marginal_q.txt"))
    _dump_marginal(final.ps.basis_p, dp, cfg.output.grid_resolution,
                   os.path.join(run_dir, "marginal_p.txt"))

    report = diagnostics_report(final, store.previous, store.series,
                                cfg.thresholds)
    manifest += ["", "[diagnostics]", report.to_text().rstrip(), ""]
    manifest.append("converged = True")


def _run_evolution(cfg, manifest, store):
    from .assembly import assemble_evolution
    from .solve import evolve

    W0 = cfg.initial.field(cfg.ps, cfg.params.hbar)
    evolve(W0, assemble_evolution(cfg.ps, cfg.U, cfg.params), cfg.solver,
           store=store)


def _run_ensemble(cfg, manifest, store):
    """Stores W0, the state every level starts from, and the final
    superposed field."""
    from .ensemble import evolve_ensemble

    W0 = cfg.initial.field(cfg.ps, cfg.params.hbar)
    store(W0)
    store(evolve_ensemble(W0, cfg.ensemble.fock_weights, cfg.ensemble.coupling,
                          cfg.params, cfg.solver))


def _run_stationary(cfg, manifest, store):
    from .assembly import assemble_stationary_pair
    from .solve import stationary_eigen

    states = stationary_eigen(*assemble_stationary_pair(cfg.ps, cfg.U, cfg.params),
                              cfg.solver.n_states)
    manifest.append("[eigenvalues]")
    for i, (eps, _) in enumerate(states):
        manifest.append(f"eps_{i} = {eps:.12g}")
    for i, (e_lo, e_hi) in enumerate(states.pairs(cfg.params.hbar)):
        manifest.append(f"pair_{i} = {e_lo:.12g} {e_hi:.12g}")
    manifest.append(f"ritz_defect = {states.ritz_defect(cfg.params.hbar):.6g}")
    manifest.append(f"purity_defect = {states.purity_defect(cfg.params.hbar):.6g}")
    store(states[0][1])


# mode -> runner(cfg, manifest, store)
_RUNNERS = {"evolve": _run_evolution, "stationary": _run_stationary,
            "ensemble": _run_ensemble}


def _dump_scale_parts(cfg, final, run_dir):
    from .solve import reconstruct_by_scale

    slow, fast = reconstruct_by_scale(final)
    dump_grid(slow, cfg.output.grid_resolution,
              os.path.join(run_dir, "scale_slow.wgrid"))
    for j, part in enumerate(fast, start=final.ps.scale_cut):
        dump_grid(part, cfg.output.grid_resolution,
                  os.path.join(run_dir, f"scale_fast_{j}.wgrid"))


class _CheckpointWriter:
    """The sink for the states every mode computes, in order.

    Stored state i goes to ``checkpoint_{k:04d}.npy`` when i is a multiple
    of ``checkpoint_every``, and ``finish`` writes the last state if it was
    not.  Each checkpoint appends its line to ``checkpoints.txt`` and its
    ``HealthSeries`` row to ``series.txt`` at once, so a run that fails
    midway lists exactly the checkpoints it wrote.  Only the first, the
    previous and the last state are kept: the initial dump, ``classify`` and
    the final dumps read them.  ``series``, built on the first state, is
    the run's one ``HealthSeries``: its rows and the diagnostics report read
    the same functionals.
    """

    def __init__(self, cfg: RunConfig, run_dir):
        self.cfg, self.run_dir = cfg, run_dir
        self.first = self.previous = self.last = None
        self.stored = self.written = 0
        self.series = None

    def __call__(self, W):
        if self.first is None:
            from .diagnostics import HealthSeries

            self.first = W
            # ensemble levels evolve under different potentials: no energy
            U = None if self.cfg.mode == "ensemble" else self.cfg.U
            self.series = HealthSeries(W.ps, U, self.cfg.params)
            self._append("series.txt", "# " + " ".join(HealthSeries.COLUMNS))
        self.previous, self.last = self.last, W
        if self.stored % self.cfg.output.checkpoint_every == 0:
            self._write(W)
        self.stored += 1

    def finish(self):
        if (self.stored - 1) % self.cfg.output.checkpoint_every:
            self._write(self.last)

    def _write(self, W):
        import numpy as np

        name = f"checkpoint_{self.written:04d}.npy"
        np.save(os.path.join(self.run_dir, name), W.coeffs)
        self._append("checkpoints.txt", "%s %.17g" % (name, W.time))
        self._append("series.txt",
                     " ".join("%.17g" % x for x in self.series.row(W)))
        self.written += 1

    def _append(self, name, line):
        with open(os.path.join(self.run_dir, name), "a") as fh:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _thread_count(text):
    """The ``--threads`` value: an integer of at least 1."""
    n = int(text) if text.strip().lstrip("+").isdigit() else 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

# The thread-count functions of the OpenBLAS builds that numpy and scipy
# link, as (extension module, setter, getter): dlsym on the module finds
# them in the library it depends on.
_OPENBLAS_THREADS = (
    ("numpy._core._multiarray_umath", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    ("scipy.linalg._flapack", "scipy_openblas_set_num_threads",
     "scipy_openblas_get_num_threads"),
)


def _openblas_thread_controls() -> list:
    """(set, get) of each OpenBLAS build that numpy and scipy link; a build
    without these symbols (another BLAS) is left out."""
    import ctypes
    import importlib

    controls = []
    for module, set_name, get_name in _OPENBLAS_THREADS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            set_, get = getattr(lib, set_name), getattr(lib, get_name)
        except (ImportError, OSError, AttributeError):
            continue
        set_.argtypes, set_.restype = [ctypes.c_int], None
        get.argtypes, get.restype = [], ctypes.c_int
        controls.append((set_, get))
    return controls


@contextlib.contextmanager
def _capped_threads(n):
    """Cap BLAS at n threads while the block runs, then restore the counts.

    The environment variables reach a BLAS that is not loaded yet, which reads
    them once, at load time; an OpenBLAS that is already loaded (numpy
    imported before ``main``) is capped through its own set_num_threads.
    """
    if n is None:
        yield
        return
    env = {var: os.environ.get(var) for var in _THREAD_VARS}
    os.environ.update({var: str(n) for var in _THREAD_VARS})
    controls = [(set_, get()) for set_, get in _openblas_thread_controls()]
    for set_, _ in controls:
        set_(n)
    try:
        yield
    finally:
        for set_, previous in controls:
            set_(previous)
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _cmd_run(args) -> int:
    with _capped_threads(args.threads):
        return run(parse_config(args.config), out_override=args.out)


def _cmd_validate(args) -> int:
    parse_config(args.config)
    print("config ok")
    return EXIT_OK


def _cmd_tables(args) -> int:
    from .basis import connection_coefficients, daubechies_filter

    filt = daubechies_filter(args.order)
    print(f"filter order {args.order}:")
    print("  taps:", " ".join("%.17g" % h for h in filt.taps))
    for d in range(1, args.max_deriv + 1):
        try:
            table = connection_coefficients(filt, d)
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
    p_run.add_argument("--threads", type=_thread_count, default=None,
                       help="cap BLAS/worker threads (1 for determinism)")
    p_run.add_argument("--out", default=None, help="output root directory")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a run config")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_tab = sub.add_parser("tables",
                           help="print a filter's taps and connection tables")
    p_tab.add_argument("--order", type=int, required=True)
    p_tab.add_argument("--max-deriv", type=int, default=2)
    p_tab.set_defaults(func=_cmd_tables)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is EXIT_CONFIG here
        raise SystemExit(exc.code and EXIT_USAGE) from None
    try:
        return args.func(args)
    except WignerError as exc:
        print(str(exc), file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
