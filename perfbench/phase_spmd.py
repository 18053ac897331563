"""Phase ``spmd`` of every workload: the paper's Table 2.

The family's SPMD system (fixed: its structure sets the cliques,
colours and messages, so every seed measures the same problem) is
solved by ``parallel_cg`` on 4 simulated ranks with ``niter=10`` and
``tol=0``, as in the paper.  One operation is one row of the table:
each of the hand-written ``blocksolve`` baseline and the compiled
``mixed-bs``, ``global-bs``, ``mixed`` and ``global`` variants once,
each on a fresh right-hand side drawn from the seed.  The
``BlockSolveMatrix`` is built during set-up.  ``repro.parallel``,
``repro.runtime`` (machine, inspector, communication) and
``repro.distribution`` do the work; each rank's compile is a warm
plan-cache hit.
"""

from __future__ import annotations

import time

import numpy as np

from checks import PCG_RTOL, check_close, pcg_reference
from common import Outcome, median

NPROCS = 4
NITER = 10
VARIANTS = ("blocksolve", "mixed-bs", "global-bs", "mixed", "global")


class State:
    pass


def setup(seed: int, clock, fam):
    from repro.compiler import kernels as ck
    from repro.formats import BlockSolveMatrix, CRSMatrix, DenseVector
    from repro.kernels.spmv import SPMV_SRC

    st = State()
    st.rng = np.random.default_rng([seed, 1])
    with clock.phase("inputs"):
        st.coo = fam.spmd_matrix()
    n = st.coo.shape[0]
    with clock.phase("builds"):
        st.bs = BlockSolveMatrix.from_coo(st.coo)
        crs = CRSMatrix.from_coo(st.coo)
    with clock.phase("first_compile"):
        ck.compile_kernel(
            SPMV_SRC, {"A": crs, "X": DenseVector.zeros(n), "Y": DenseVector.zeros(n)}
        )
    with clock.phase("warmup"):
        for v in VARIANTS:
            _solve(st, v, np.ones(n), niter=1)
    return st


def teardown(st) -> None:
    pass


def _solve(st, variant: str, b, niter: int = NITER):
    from importlib import import_module

    cg = import_module("repro.solvers.cg")  # looked up per call: tracing rebinds it
    A = st.bs if variant in ("blocksolve", "mixed-bs", "global-bs") else st.coo
    return cg.parallel_cg(A, b, nprocs=NPROCS, variant=variant, niter=niter, tol=0.0)


def _rows(st, seconds: float, out: Outcome, rows: list, recorder=None) -> None:
    """Whole rows until ``seconds`` have passed.  Each row records, per
    variant, (wall seconds, RunStats, b, x); checked after the window."""
    n = st.coo.shape[0]
    t_end = time.perf_counter() + seconds
    while True:
        row = {}
        rid = len(rows)
        for v in VARIANTS:
            b = st.rng.standard_normal(n)
            t0 = time.perf_counter()
            if recorder is None:
                res = _solve(st, v, b)
            else:
                with recorder.request(rid):
                    res = _solve(st, v, b)
            row[v] = (time.perf_counter() - t0, res.stats, b, res.x)
            out.attempted += 1
        rows.append(row)
        if time.perf_counter() >= t_end:
            return


def _check(st, rows, out: Outcome) -> None:
    c = st.coo
    for row in rows:
        for v, (_, _, b, x) in row.items():
            ref = pcg_reference(c.row, c.col, c.vals, b, NITER)
            problem = check_close(x, ref, PCG_RTOL, f"parallel_cg {v}")
            if problem:
                out.failures.append(problem)


def begin(st, seconds: float, cycles: int) -> dict:
    """Untraced measurement, in slices the run interleaves with the
    other phases."""
    return {"out": Outcome(), "rows": []}


def measure(st, acc: dict, seconds: float) -> None:
    if seconds > 0:
        _rows(st, seconds, acc["out"], acc["rows"])


def finish(st, acc: dict) -> Outcome:
    out, rows = acc["out"], acc["rows"]
    _check(st, rows, out)
    out.metrics["row_ms"] = (
        1e3 * median([sum(r[v][0] for v in VARIANTS) for r in rows]), "ms",
    )
    out.metrics["parallel_ms"] = (
        1e3 * median([sum(r[v][1].parallel_time() for v in VARIANTS) for r in rows]),
        "ms",
    )
    return out


def run(st, seconds: float, recorder) -> Outcome:
    """Traced measurement: half untraced, half with every layer wrapped,
    same operations."""
    out = Outcome()
    rows: list = []
    import tracing_install
    from repro.formats import BlockSolveMatrix

    _rows(st, seconds / 2, out, rows)
    plain = median([sum(r[v][0] for v in VARIANTS) for r in rows])
    n_plain = len(rows)
    tracing_install.install(recorder)
    _rows(st, seconds / 2, out, rows, recorder)
    for _ in range(3):  # traced builds, off the clock
        BlockSolveMatrix.from_coo(st.coo)
    recorder.uninstall()
    _check(st, rows, out)
    traced = rows[n_plain:]

    L = out.layers
    for v in VARIANTS:
        L[f"spmd.solve_ms.{v}"] = (1e3 * median([r[v][0] for r in traced]), "ms")
        L[f"spmd.parallel_ms.{v}"] = (
            1e3 * median([r[v][1].parallel_time() for r in traced]), "ms",
        )
    per_row = lambda f: median([sum(f(r[v][1]) for v in VARIANTS) for r in traced])
    L["runtime.inspector_compute_ms"] = (
        1e3 * per_row(lambda s: s.window("inspector").total_compute().sum()), "ms",
    )
    L["runtime.executor_compute_ms"] = (
        1e3 * per_row(lambda s: s.window("executor").total_compute().sum()), "ms",
    )
    L["runtime.comm_modeled_ms"] = (1e3 * per_row(lambda s: s.comm_time()), "ms")
    L["runtime.msgs"] = (per_row(lambda s: s.total_msgs()), "count")
    L["runtime.bytes"] = (per_row(lambda s: s.total_nbytes()), "bytes")

    run_s, solve_s = {}, {}
    for s in recorder.by_name("runtime.machine_run"):
        run_s[s[5]] = run_s.get(s[5], 0.0) + (s[3] - s[2])
    for s in recorder.by_name("solvers.parallel_cg"):
        solve_s[s[5]] = solve_s.get(s[5], 0.0) + (s[3] - s[2])
    rids = sorted(k for k in solve_s if k >= 0)
    L["runtime.machine_run_ms"] = (1e3 * median([run_s[k] for k in rids]), "ms")
    L["runtime.outside_run_ms"] = (
        1e3 * median([solve_s[k] - run_s[k] for k in rids]), "ms",
    )
    L["formats.blocksolve_build_ms"] = (
        1e3 * median(recorder.durations("formats.from_coo.BlockSolveMatrix")), "ms",
    )
    L["trace.overhead_ms.spmd"] = (
        1e3 * (median([sum(r[v][0] for v in VARIANTS) for r in traced]) - plain), "ms",
    )
    L["trace.uncovered_ms.spmd"] = (1e3 * recorder.uncovered_seconds() / len(traced), "ms")
    return out
