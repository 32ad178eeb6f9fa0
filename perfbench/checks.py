"""Output checks for one ``wigner run`` directory.

Every check here reads the documented artifacts with the benchmark's own
parsers; a non-empty problem list means the run counts as failed.
"""

from __future__ import annotations

import glob
import math
import os

import numpy as np


class ArtifactError(ValueError):
    """An artifact is missing or does not parse."""


def read_wgrid(path):
    """Parse a ``WGRID 1`` dump; returns (header dict, values[ip, iq])."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "WGRID 1":
        raise ArtifactError(f"{path}: first line is not 'WGRID 1'")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 7:
        raise ArtifactError(f"{path}: header needs 7 fields, has {len(head)}")
    nq, n_p = int(head[0]), int(head[1])
    qmin, qmax, pmin, pmax, time = (float(x) for x in head[2:])
    rows = lines[2:]
    if len(rows) != n_p:
        raise ArtifactError(f"{path}: {len(rows)} rows, header says {n_p}")
    values = np.array([[float(x) for x in row.split()] for row in rows])
    if values.shape != (n_p, nq) or not np.all(np.isfinite(values)):
        raise ArtifactError(f"{path}: values are not {n_p}x{nq} finite numbers")
    header = {"nq": nq, "np": n_p, "qmin": qmin, "qmax": qmax,
              "pmin": pmin, "pmax": pmax, "time": time}
    return header, values


def grid_integral(header, values) -> float:
    """Riemann sum of a cell-centred grid dump over its box."""
    cell = ((header["qmax"] - header["qmin"]) / header["nq"]
            * (header["pmax"] - header["pmin"]) / header["np"])
    return float(values.sum() * cell)


def _read_table(path, columns, rows):
    with open(path) as fh:
        table = [line.split() for line in fh.read().splitlines()]
    if len(table) != rows or any(len(r) != columns for r in table):
        raise ArtifactError(f"{path}: expected {rows} rows of {columns} fields")
    values = np.array(table, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ArtifactError(f"{path}: non-finite values")
    return values


def _manifest_fields(path) -> dict:
    fields = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                fields[key.strip()] = value.strip()
    return fields


def check_run(run_dir, exit_code, spec) -> tuple:
    """Check a run directory against what its config promises.

    ``spec`` holds ``mode``, ``resolution`` and ``dofs``, plus ``t_end`` for
    evolve or ``n_states`` for stationary runs.  Returns (problems, facts):
    facts holds the parsed figures the metrics use (``mass_drift`` or
    ``eigenvalues``, ``artifact_bytes``, ``checkpoints``).
    """
    problems, facts = [], {}
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if not os.path.isdir(run_dir):
        return problems + [f"run directory {run_dir} missing"], facts
    try:
        manifest = _manifest_fields(os.path.join(run_dir, "manifest.txt"))
        if manifest.get("converged") != "True":
            problems.append("manifest lacks 'converged = True'")
        timing = _manifest_fields(os.path.join(run_dir, "timing.txt"))
        if not math.isfinite(float(timing["wall_seconds"])):
            problems.append("timing.txt wall_seconds is not finite")

        res = spec["resolution"]
        grids = {}
        fast = sorted(glob.glob(os.path.join(run_dir, "scale_fast_*.wgrid")))
        if not fast:
            problems.append("no scale_fast_<j>.wgrid dumps")
        names = ["w_initial.wgrid", "w_final.wgrid", "scale_slow.wgrid"]
        for name in names + [os.path.basename(p) for p in fast]:
            header, values = read_wgrid(os.path.join(run_dir, name))
            if (header["nq"], header["np"]) != (res, res):
                problems.append(f"{name}: grid is not {res}x{res}")
            grids[name] = (header, values)
        for name in ("marginal_q.txt", "marginal_p.txt"):
            _read_table(os.path.join(run_dir, name), 2, res)

        with open(os.path.join(run_dir, "checkpoints.txt")) as fh:
            entries = [line.split() for line in fh.read().splitlines()]
        if not entries:
            problems.append("checkpoints.txt is empty")
        for entry in entries:
            if len(entry) != 2 or not math.isfinite(float(entry[1])):
                raise ArtifactError(f"checkpoints.txt: bad line {entry}")
            path = os.path.join(run_dir, entry[0])
            if not os.path.isfile(path):
                problems.append(f"checkpoints.txt names missing {entry[0]}")
                continue
            coeffs = np.load(path, allow_pickle=False)
            if coeffs.shape != (spec["dofs"],) or not np.all(np.isfinite(coeffs)):
                problems.append(f"{entry[0]}: not {spec['dofs']} finite values")
        facts["checkpoints"] = len(entries)

        if spec["mode"] == "evolve":
            t_final = grids["w_final.wgrid"][0]["time"]
            if abs(t_final - spec["t_end"]) > 1e-9 * max(1.0, spec["t_end"]):
                problems.append(f"final dump time {t_final} != t_end {spec['t_end']}")
            start = grid_integral(*grids["w_initial.wgrid"])
            end = grid_integral(*grids["w_final.wgrid"])
            facts["mass_drift"] = abs(end - start) / abs(start)
        else:
            eps = [float(manifest[f"eps_{i}"]) for i in range(spec["n_states"])
                   if f"eps_{i}" in manifest]
            if len(eps) != spec["n_states"] or f"eps_{len(eps)}" in manifest:
                problems.append(f"manifest lists {len(eps)} eigenvalues, "
                                f"want {spec['n_states']}")
            if not all(map(math.isfinite, eps)) or any(
                    b < a for a, b in zip(eps, eps[1:])):
                problems.append(f"eigenvalues not finite and non-decreasing: {eps}")
            facts["eigenvalues"] = eps
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"artifact check failed: {exc}")
    facts["artifact_bytes"] = sum(
        os.path.getsize(p) for p in glob.glob(os.path.join(run_dir, "*")))
    return problems, facts
