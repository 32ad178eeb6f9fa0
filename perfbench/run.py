"""Benchmark of ``wigner run --threads 1``, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed picks the inputs (the
initial Gaussian's centre, or the quartic coefficient); the program sees only
the config file generated from them.  Runs form a closed loop: one child
process at a time, each started when the last has exited, BLAS capped at one
thread.  With ``--trace 0`` the loop repeats whole runs while the next one is
expected to end within ``--seconds`` (at least one), and prints the medians of
the end-to-end metrics.  With ``--trace 1`` it makes one untraced and one
traced run of the same config and prints the per-layer metrics of the traced
one.  Every run's artifacts are checked; a run that exits nonzero or fails a
check counts in ``failed``.  The last line of stdout is one JSON object.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402

DEADLINE_S = 170.0
RESOLUTION = 128
WORK_DIR = ".perfbench_runs"

WORKLOADS = {
    "evolve_long": {"mode": "evolve", "order": 6, "j_fine": 6, "box": 6.0,
                    "steps": 1500},
    "stationary_quartic": {"mode": "stationary", "order": 10, "j_fine": 6,
                           "box": 4.0, "n_states": 4},
}
DT = 0.01

LAYERS = ("basis", "assembly", "solve", "diagnostics", "cli")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def make_config(name: str, seed: int):
    """Config text and the facts its outputs are checked against."""
    w = WORKLOADS[name]
    rng = random.Random(seed)
    spec = {"mode": w["mode"], "resolution": RESOLUTION,
            "dofs": 4 ** w["j_fine"]}
    box = w["box"]
    lines = [
        "[run]", f"mode = {w['mode']}",
        "[basis]", f"order = {w['order']}", f"j_fine = {w['j_fine']}",
        f"q_min = {-box:g}", f"q_max = {box:g}",
        f"p_min = {-box:g}", f"p_max = {box:g}",
        "[output]", f"grid_resolution = {RESOLUTION}",
    ]
    if w["mode"] == "evolve":
        # Narrow ranges: the mass drift changes by about 4% per 1% of q0.
        q0 = 0.495 + 0.01 * rng.random()
        p0 = -0.005 + 0.01 * rng.random()
        spec["t_end"] = w["steps"] * DT
        spec["steps"] = w["steps"]
        lines += [
            "[model]", "potential = 0.5*q^2 + 0.1*q^4",
            "gamma = 0.05", "diffusion = 0.02",
            "[initial]", "type = gaussian", f"q0 = {q0:.6f}", f"p0 = {p0:.6f}",
            "[solver]", "scheme = implicit_midpoint", f"dt = {DT:g}",
            f"t_end = {spec['t_end']:g}", "store_every = 1",
        ]
    else:
        lam = float(f"{0.09 + 0.02 * rng.random():.6f}")
        spec["n_states"] = w["n_states"]
        spec["reference"] = reference.quartic_levels(lam, w["n_states"]).tolist()
        lines += [
            "[model]", f"potential = 0.5*q^2 + {lam:.6f}*q^4",
            "[solver]", f"n_states = {w['n_states']}",
        ]
    return "\n".join(lines) + "\n", spec


class Child:
    """Spawns one launcher process and reaps it, killing it at a deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.proc is not None:
            self.proc.kill()

    def run(self, make_cmd, log_path):
        """Runs ``make_cmd(spawn time)``; returns (exit code, wall s, peak RSS MB)."""
        with open(log_path, "w") as log:
            spawn = now()
            self.proc = subprocess.Popen(make_cmd(spawn), stdout=log,
                                         stderr=subprocess.STDOUT)
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - now(), 0.01))
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = now() - spawn
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        self.proc = None
        return code, wall, usage.ru_maxrss / 1024.0


def attempt(child, work, cfg_path, spec, mode):
    """One ``wigner run`` of ``cfg_path``; returns a dict with ``problems``."""
    out = tempfile.mkdtemp(prefix=f"{mode}-", dir=work)
    report_path = os.path.join(out, "report.json")

    def make_cmd(spawn):
        return [sys.executable, os.path.join(HERE, "launch.py"), mode,
                repr(spawn), report_path,
                "run", cfg_path, "--threads", "1", "--out", out]

    code, wall, rss = child.run(make_cmd, os.path.join(out, "log.txt"))
    run_dir = os.path.join(out, f"run-{spec['mode']}")
    problems, facts = checks.check_run(run_dir, code, spec)
    result = {"run_dir": run_dir, "log": os.path.join(out, "log.txt"),
              "wall": wall, "rss": rss, "facts": facts, "problems": problems}
    try:
        with open(report_path) as fh:
            result["report"] = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"no launcher report: {exc}")
        return result
    problems.extend(_probe_metrics(result, spec))
    return result


def _probe_metrics(result, spec) -> list:
    """Fill setup/solve times from the probe; returns problems found."""
    rep, problems = result["report"], []
    if rep["threads"] != 1:
        problems.append(f"{rep['threads']} threads at exit, want 1")
    if spec["mode"] == "evolve":
        stored = rep["stored"]
        if not stored:
            return problems + ["evolve stored no fields"]
        stepped = [t for t, field_time in stored if field_time != stored[0][1]]
        if len(stepped) != spec["steps"]:
            return problems + [f"evolve stored {len(stepped)} stepped states, "
                               f"want {spec['steps']}"]
        result["setup"] = stepped[0] - rep["spawn"]
        result["solve"] = stepped[-1] - stepped[0]
        result["stepped"] = stepped
        result["ref_err"] = result["facts"].get("mass_drift")
    else:
        if len(rep["eigen"]) != 1:
            return problems + [f"stationary_eigen called {len(rep['eigen'])} times"]
        entry, done = rep["eigen"][0]
        result["setup"] = entry - rep["spawn"]
        result["solve"] = done - entry
        eps = result["facts"].get("eigenvalues")
        if eps and len(eps) == len(spec["reference"]):
            result["ref_err"] = float(np.max(np.abs(np.subtract(eps, spec["reference"]))))
    if result.get("ref_err") is None:
        problems.append("no accuracy figure")
    return problems


def end_to_end(runs) -> dict:
    values = {
        "wall_s": ("s", [r["wall"] for r in runs]),
        "setup_s": ("s", [r["setup"] for r in runs]),
        "solve_s": ("s", [r["solve"] for r in runs]),
        "peak_rss_mb": ("MB", [r["rss"] for r in runs]),
        "ref_err": ("1", [r["ref_err"] for r in runs]),
    }
    return {k: {"value": statistics.median(v), "unit": u}
            for k, (u, v) in values.items()}


def per_layer(traced, untraced, spec) -> dict:
    """Per-layer figures of one traced run (0 where a layer was not reached)."""
    rep = traced["report"]
    spans = rep["spans"]
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    top = 0.0
    for s, d in zip(spans, dur):
        if s[4] is None:
            top += d
        else:
            covered[s[4]] += d
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, d, c in zip(spans, dur, covered):
        self_s[s[1]] += d - c
    main = rep["main_end"] - rep["main_start"]
    self_s["cli"] += main - top

    def outermost(*names):
        """Spans of the given names that no span of those names encloses."""
        keep = []
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            parent = s[4]
            while parent is not None and spans[parent][0] not in names:
                parent = spans[parent][4]
            if parent is None:
                keep.append(i)
        return keep

    def total(*names):
        return sum(dur[i] for i in outermost(*names))

    def info(key, *names, reduce=sum):
        return reduce([spans[i][5].get(key, 0) for i in outermost(*names)] or [0])

    assemble = tuple(f"assembly.assemble_{t}" for t in (
        "transport", "quantum_correction", "dissipator", "evolution",
        "stationary_pair", "stationary_cnumber"))
    tables = ("basis.daubechies_filter", "basis.WaveletBasis.derivative_matrix",
              "basis.WaveletBasis.moment_matrix")
    matrix = ("assembly.AssembledOperator.matrix",)
    project = ("assembly.PhaseSpaceBasis.project",)
    stepped = traced.get("stepped", [])
    intervals = np.diff(stepped) if len(stepped) > 1 else [0.0]
    factor = (rep["stored"][0][0] - rep["evolve_start"][0]
              if rep["evolve_start"] and rep["stored"] else 0.0)
    eigsh = [s for s in spans if s[0] == "solve.eigsh"]
    figures = {
        "basis.tables_s": ("s", total(*tables)),
        "basis.table_calls": ("count", sum(s[0] in tables for s in spans)),
        "assembly.project_s": ("s", total(*project)),
        "assembly.project_points": ("count", info("points", *project)),
        "assembly.assemble_s": ("s", total(*assemble)),
        "assembly.terms": ("count", info("terms", *assemble)),
        "assembly.matrix_s": ("s", total(*matrix)),
        "assembly.nnz": ("count", info("nnz", *matrix, reduce=max)),
        "assembly.dofs": ("count", spec["dofs"]),
        "solve.factor_s": ("s", factor),
        "solve.factor_fill": ("count", info("fill", "solve.splu")),
        "solve.step_ms": ("ms", 1e3 * float(np.median(intervals))),
        "solve.steps": ("count", len(stepped)),
        "solve.eigen_s": ("s", total("solve.stationary_eigen")),
        "solve.arpack_calls": ("count", len(eigsh)),
        "solve.arpack_k_max": ("count", max([s[5]["k"] for s in eigsh] or [0])),
        "diagnostics.report_s": ("s", total("diagnostics.diagnostics_report")),
        "cli.startup_s": ("s", rep["main_start"] - rep["spawn"]),
        "cli.exit_s": ("s", traced["wall"] - (rep["main_end"] - rep["spawn"])),
        "cli.artifacts_s": ("s", total("cli.dump_grid", "cli.save")),
        "cli.artifact_bytes": ("bytes", traced["facts"]["artifact_bytes"]),
        "cli.checkpoints": ("count", traced["facts"]["checkpoints"]),
        "cli.threads": ("count", rep["threads"]),
        "cli.threads_untraced": ("count", untraced["report"]["threads"]),
        "trace.overhead_s": ("s", traced["wall"] - untraced["wall"]),
    }
    for layer in LAYERS:
        figures[f"{layer}.self_s"] = ("s", self_s[layer])
    return {k: {"value": v, "unit": u} for k, (u, v) in figures.items()}


def differences(untraced, traced, spec) -> list:
    """Ways in which tracing changed the run's results.

    Evolve runs must be byte-identical.  Stationary runs are compared by
    eigenvalue only: ``eigsh`` starts from a random vector drawn from fresh
    entropy, so two untraced stationary runs already differ in the last
    digits of their eigenfields.
    """
    if spec["mode"] != "evolve":
        a, b = (r["facts"].get("eigenvalues") for r in (untraced, traced))
        if a is None or b is None or not np.allclose(a, b, rtol=1e-9, atol=0):
            return [f"traced eigenvalues {b} differ from untraced {a}"]
        return []
    problems = []
    for name in ("manifest.txt", "w_final.wgrid"):
        paths = [os.path.join(r["run_dir"], name) for r in (untraced, traced)]
        if not all(map(os.path.isfile, paths)) or len(set(map(_read_bytes, paths))) != 1:
            problems.append(f"traced {name} differs from untraced")
    return problems


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def self_test(child, work, good, spec) -> list:
    """Show that a corrupted artifact and a nonzero exit each count as failed."""
    problems = []
    copy = os.path.join(work, "corrupted")
    shutil.copytree(good["run_dir"], copy)
    with open(os.path.join(copy, "w_final.wgrid")) as fh:
        lines = fh.readlines()
    with open(os.path.join(copy, "w_final.wgrid"), "w") as fh:
        fh.writelines(lines[:-1])
    if not checks.check_run(copy, 0, spec)[0]:
        problems.append("a truncated w_final.wgrid passed the checks")
    bad_cfg = os.path.join(work, "bad.ini")
    with open(bad_cfg, "w") as fh:
        fh.write("[run]\nmode = evolve\n[basis]\norder = 7\n")
    bad = attempt(child, work, bad_cfg, spec, "probe")
    if not bad["problems"]:
        problems.append("a run that exited nonzero passed the checks")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = now()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wigner", "cli.py")):
        print("perfbench: run from a checkout that has src/wigner", file=sys.stderr)
        return 2
    broken = reference.self_check()
    if broken:
        print("perfbench: reference self-check failed: " + "; ".join(broken),
              file=sys.stderr)
        return 1

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        text, spec = make_config(args.workload, args.seed)
        cfg_path = os.path.join(work, f"{args.workload}.ini")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        child = Child(start + DEADLINE_S)

        runs = []
        if args.trace:
            runs = [attempt(child, work, cfg_path, spec, m) for m in ("probe", "trace")]
            runs[1]["problems"].extend(differences(*runs, spec))
        else:
            measure = now()
            while True:
                runs.append(attempt(child, work, cfg_path, spec, "probe"))
                expected = statistics.median(r["wall"] for r in runs)
                if (now() - measure + expected > args.seconds
                        or now() + 2 * expected > child.deadline):
                    break
        for r in runs:
            state = "; ".join(r["problems"]) or "ok"
            print(f"{args.workload} seed {args.seed}: wall {r['wall']:.3f} s, "
                  f"{state}", file=sys.stderr)
        good = [r for r in runs if not r["problems"]]
        if not good or (args.trace and len(good) != 2):
            print("perfbench: no usable run; see the logs above", file=sys.stderr)
            for r in runs:
                if r["problems"] and os.path.isfile(r["log"]):
                    print(_read_bytes(r["log"])[-2000:].decode(errors="replace"),
                          file=sys.stderr)
            return 1
        broken = self_test(child, work, good[-1], spec)
        if broken:
            print("perfbench: self-test failed: " + "; ".join(broken),
                  file=sys.stderr)
            return 1

        metrics = per_layer(runs[1], runs[0], spec) if args.trace else end_to_end(good)
        failed = len(runs) - len(good)
        print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
