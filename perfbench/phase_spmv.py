"""Phase ``spmv`` of every workload: the paper's Table 1 at scale.

The family's Table-1 matrix (~1M stored entries, ~17–28 MB per format:
above the 4 MiB L2, inside a 300 MiB L3) is stored in each compiled
Table-1 format.  One operation is one pre-bound ``y += A·x`` call; a
round calls every format once, and successive rounds rotate the order.
The generated kernels do almost all the work and the compile front end
none, so this is where a change to ``repro.compiler.codegen``/``backends``
or a format's emit hooks shows.
"""

from __future__ import annotations

import time

import numpy as np

from checks import check_spmv, spmv_reference
from common import Outcome, median, timed

FORMATS = ("CRS", "CCS", "Coordinate", "ITPACK", "JDiag", "Diagonal")
#: formats with an end-to-end ``spmv_ms`` figure, the ones the untraced
#: rounds call.  CCS runs one Python iteration per column; its median
#: moved by 22% between two ten-run sets with nothing changed, beyond any
#: bound, so it is reported per layer (``kernel.gflops.CCS``), called and
#: checked in every round of the traced run.  Untraced, its ~0.2–0.6 s
#: call would take most of the phase's time from the gated formats.
GATED = tuple(f for f in FORMATS if f != "CCS")


class State:
    pass


def setup(seed: int, clock, fam):
    from repro.compiler import kernels as ck
    from repro.formats import DenseVector, matrix_format_by_name
    from repro.kernels.spmv import SPMV_SRC

    st = State()
    with clock.phase("inputs"):
        st.coo = fam.table1()
        n = st.coo.shape[0]
        rng = np.random.default_rng(seed)
        # integer-valued x keeps every partial sum exact (see check_spmv)
        st.x = DenseVector(rng.integers(-4, 5, n).astype(np.float64))
        st.ref = spmv_reference(st.coo.row, st.coo.col, st.coo.vals, st.x.vals, n)
    with clock.phase("builds"):
        st.mats = {f: matrix_format_by_name(f).from_coo(st.coo) for f in FORMATS}
    st.ys = {f: DenseVector.zeros(n) for f in FORMATS}
    st.kernels = {}
    for i, f in enumerate(FORMATS):
        with clock.phase("first_compile" if i == 0 else "warmup"):
            st.kernels[f] = ck.compile_kernel(
                SPMV_SRC, {"A": st.mats[f], "X": st.x, "Y": st.ys[f]}
            )
    with clock.phase("warmup"):
        st.calls = _bind(st)
        for f in FORMATS:
            st.calls[f]()
            st.ys[f].vals[:] = 0.0
    return st


def teardown(st) -> None:
    pass


def _bind(st) -> dict:
    return {
        f: st.kernels[f].bind(A=st.mats[f], X=st.x, Y=st.ys[f]) for f in FORMATS
    }


def _rounds(st, seconds: float, out: Outcome, times: dict, formats=FORMATS) -> None:
    """Whole rounds over ``formats`` until ``seconds`` have passed;
    checks every call."""
    t_end = time.perf_counter() + seconds
    r = 0
    while True:
        order = formats[r % len(formats):] + formats[: r % len(formats)]
        for f in order:
            y = st.ys[f].vals
            y[:] = 0.0
            times[f].append(timed(st.calls[f]))
            out.attempted += 1
            problem = check_spmv(y, st.ref, f)
            if problem:
                out.failures.append(problem)
        r += 1
        if time.perf_counter() >= t_end:
            return


def begin(st, seconds: float, cycles: int) -> dict:
    """Untraced measurement, in slices the run interleaves with the
    other phases."""
    return {"out": Outcome(), "times": {f: [] for f in GATED}}


def measure(st, acc: dict, seconds: float) -> None:
    if seconds > 0:
        _rounds(st, seconds, acc["out"], acc["times"], GATED)


def finish(st, acc: dict) -> Outcome:
    out = acc["out"]
    for f in GATED:
        out.metrics[f"spmv_ms.{f}"] = (1e3 * median(acc["times"][f]), "ms")
    return out


def run(st, seconds: float, recorder) -> Outcome:
    """Traced measurement: half untraced, half with every layer wrapped,
    same operations."""
    import tracing_install

    out = Outcome()
    times = {f: [] for f in FORMATS}

    _rounds(st, seconds / 2, out, times)
    plain = {f: median(v) for f, v in times.items()}
    n_plain = out.attempted
    tracing_install.install(recorder)
    st.calls = _bind(st)  # re-bind so the calls go through the wrapper
    traced = {f: [] for f in FORMATS}
    _rounds(st, seconds / 2, out, traced)
    from repro.formats import matrix_format_by_name

    for f in FORMATS:  # three traced builds per format, off the clock
        for _ in range(3):
            matrix_format_by_name(f).from_coo(st.coo)
    recorder.uninstall()
    n_traced = out.attempted - n_plain

    nnz = st.coo.nnz
    L = out.layers
    for f in FORMATS:
        t = median(traced[f])
        L[f"kernel.gflops.{f}"] = (2.0 * nnz / t / 1e9, "GFLOP/s")
        L[f"kernel.gbs_computed.{f}"] = (_bytes(st, f) / t / 1e9, "GB/s")
        L[f"formats.build_ms.{f}"] = (
            1e3 * median(recorder.durations(f"formats.from_coo.{_cls(f)}")),
            "ms",
        )
    L["trace.overhead_ms.spmv"] = (
        1e3 * (sum(median(traced[f]) for f in FORMATS) - sum(plain.values()))
        / len(FORMATS),
        "ms",
    )
    L["trace.uncovered_ms.spmv"] = (1e3 * recorder.uncovered_seconds() / n_traced, "ms")
    L.update(_floors(st))
    return out


def _cls(fmt: str) -> str:
    from repro.formats import matrix_format_by_name

    return matrix_format_by_name(fmt).__name__


def _bytes(st, fmt: str) -> float:
    """Bytes one call must move at minimum, computed from array sizes:
    every storage array of A and x read once, y read and written once."""
    a = sum(
        v.nbytes for v in st.mats[fmt].storage("A").values() if isinstance(v, np.ndarray)
    )
    return float(a + st.x.vals.nbytes + 2 * st.ys[fmt].vals.nbytes)


def _floors(st) -> dict:
    """Reference SpMV floors on the same matrix, timed here and nowhere
    in the library: scipy's CSR matvec and an ``np.add.reduceat`` row
    reduction over CRS arrays.  Both are checked against the reference."""
    import scipy.sparse as sp

    coo, x = st.coo, st.x.vals
    n = coo.shape[0]
    csr = sp.csr_matrix((coo.vals, (coo.row, coo.col)), shape=coo.shape)
    order = np.lexsort((coo.col, coo.row))
    col, val = coo.col[order], coo.vals[order]
    starts = np.searchsorted(coo.row[order], np.arange(n))  # no empty rows here

    def reduceat():
        return np.add.reduceat(val * x[col], starts)

    out = {}
    for name, fn in (("scipy_csr", lambda: csr @ x), ("reduceat", reduceat)):
        if not np.array_equal(fn(), st.ref):
            raise AssertionError(f"floor {name} disagrees with the COO reference")
        t = median([timed(fn) for _ in range(31)])
        out[f"floor.{name}_gflops"] = (2.0 * coo.nnz / t / 1e9, "GFLOP/s")
    return out
