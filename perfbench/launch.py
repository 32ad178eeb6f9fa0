"""Child process of the benchmark: one ``wigner run`` with probes installed.

    python3 perfbench/launch.py probe|trace <spawn_time> <report.json> <wigner args...>

``<spawn_time>`` is the parent's CLOCK_MONOTONIC reading just before it
started this process.  Both modes record the monotonic time at which each
field stored by ``evolve`` is created, the entry to and return from
``stationary_eigen``, and the thread count from /proc/self/status.  ``trace``
mode also records a span around each public call into the package's layers
(basis, assembly, solve, diagnostics, cli).  Spans stay in memory and the
report is written once, after ``wigner.cli.main`` returns.
"""

import os
import sys

# Must precede the first numpy import: BLAS reads these once, at load time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import functools  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import wigner.assembly  # noqa: E402
import wigner.basis  # noqa: E402
import wigner.cli  # noqa: E402
import wigner.diagnostics  # noqa: E402
import wigner.ensemble  # noqa: E402
import wigner.solve  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def rebind(original, replacement) -> None:
    """Point every global of the package that holds ``original`` elsewhere."""
    for name, module in list(sys.modules.items()):
        if name == "wigner" or name.startswith("wigner."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Recorder:
    """Timestamps and spans of one run, kept in memory until exit."""

    def __init__(self):
        self.stored = []      # [monotonic time, field.time] of evolve's fields
        self.evolve_start = []
        self.eigen = []       # [entry, return] of stationary_eigen
        self.spans = []       # [name, layer, start, end, parent, info]
        self._open = []
        self._in_evolve = 0

    # -- the probe both modes install ---------------------------------------

    def install_probe(self):
        field_cls = wigner.solve.CoefficientField
        post_init = field_cls.__post_init__

        def probed_post_init(field):
            post_init(field)
            if self._in_evolve:
                self.stored.append([now(), float(field.time)])

        field_cls.__post_init__ = probed_post_init

        evolve = wigner.solve.evolve

        @functools.wraps(evolve)
        def probed_evolve(*args, **kwargs):
            self.evolve_start.append(now())
            self._in_evolve += 1
            try:
                return evolve(*args, **kwargs)
            finally:
                self._in_evolve -= 1

        rebind(evolve, probed_evolve)

        eigen = wigner.solve.stationary_eigen

        @functools.wraps(eigen)
        def probed_eigen(*args, **kwargs):
            entry = now()
            try:
                return eigen(*args, **kwargs)
            finally:
                self.eigen.append([entry, now()])

        rebind(eigen, probed_eigen)

    # -- spans for the traced run -------------------------------------------

    def span(self, name, layer, fn, note=None, wrap_args=None):
        """Wrap ``fn`` so each call records a span; ``note`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = {}
            if wrap_args is not None:
                args = wrap_args(args, info)
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, layer, now(), None, parent, info])
            self._open.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = now()
                self._open.pop()
            if note is not None:
                info.update(note(out, args, kwargs))
            return out

        return traced

    def install_spans(self):
        def trace_function(module, attr, layer, **opts):
            fn = getattr(module, attr)
            rebind(fn, self.span(f"{layer}.{attr}", layer, fn, **opts))

        def trace_method(cls, attr, layer, **opts):
            fn = getattr(cls, attr)
            setattr(cls, attr, self.span(f"{layer}.{cls.__name__}.{attr}",
                                         layer, fn, **opts))

        trace_function(wigner.basis, "daubechies_filter", "basis")
        for attr in ("derivative_matrix", "moment_matrix"):
            trace_method(wigner.basis.WaveletBasis, attr, "basis")

        def count_points(args, info):
            f = args[1]

            def sampled(*xs):
                info["points"] = info.get("points", 0) + np.broadcast(*xs).size
                return f(*xs)

            return (args[0], sampled) + tuple(args[2:])

        trace_method(wigner.assembly.PhaseSpaceBasis, "project", "assembly",
                     wrap_args=count_points)
        for attr in ("assemble_transport", "assemble_quantum_correction",
                     "assemble_dissipator", "assemble_evolution",
                     "assemble_stationary_pair", "assemble_stationary_cnumber"):
            trace_function(wigner.assembly, attr, "assembly",
                           note=lambda out, a, k: {"terms": _term_count(out)})
        trace_method(wigner.assembly.AssembledOperator, "matrix", "assembly",
                     note=lambda out, a, k: {"nnz": int(out.nnz)})

        trace_function(wigner.solve, "evolve", "solve")
        trace_function(wigner.solve, "stationary_eigen", "solve")
        trace_function(wigner.solve, "reconstruct_by_scale", "solve")
        self._trace_scipy()

        trace_function(wigner.diagnostics, "diagnostics_report", "diagnostics")
        trace_function(wigner.diagnostics, "marginals", "diagnostics")

        trace_function(wigner.cli, "dump_grid", "cli")
        np.save = self.span("cli.save", "cli", np.save)

    def _trace_scipy(self):
        """Spans for the sparse LU and ARPACK calls made from wigner.solve."""

        def from_solve(name, note):
            fn = getattr(spla, name)
            traced = self.span(f"solve.{name}", "solve", fn, note=note)

            @functools.wraps(fn)
            def dispatch(*args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__")
                target = traced if caller == "wigner.solve" else fn
                return target(*args, **kwargs)

            setattr(spla, name, dispatch)

        from_solve("splu", lambda lu, a, k: {"fill": int(lu.L.nnz + lu.U.nnz)})
        from_solve("eigsh", lambda out, a, k: {"k": int(k.get("k", 6))})


def _term_count(op) -> int:
    if isinstance(op, tuple):
        return sum(len(part.terms) for part in op)
    return len(op.terms)


def main(argv) -> int:
    mode, spawn_time, report_path, wigner_args = argv[0], argv[1], argv[2], argv[3:]
    recorder = Recorder()
    recorder.install_probe()
    if mode == "trace":
        recorder.install_spans()
    report = {"spawn": float(spawn_time)}
    report["main_start"] = now()
    try:
        report["exit_code"] = wigner.cli.main(wigner_args)
    finally:
        report["main_end"] = now()
        report["threads"] = thread_count()
        report.update(stored=recorder.stored, evolve_start=recorder.evolve_start,
                      eigen=recorder.eigen, spans=recorder.spans)
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
