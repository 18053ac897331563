"""Correctness checks computed apart from the program under test.

Every reference here is plain numpy over COO triplets or dense arrays;
none calls the compiler, the kernels or the solvers.  Each ``check_*``
returns ``None`` when the output is right and a one-line description of
the fault otherwise.  They run outside the timed windows.
"""

from __future__ import annotations

import numpy as np

#: relative 2-norm tolerance of an SPMD CG iterate against the numpy
#: reference.  Both run 10 Jacobi-preconditioned CG steps from x0 = 0;
#: they differ only in summation order (per-rank partial dot products,
#: the BlockSolve reordering), which moves the iterate by ~1e-13 here.
PCG_RTOL = 1e-9


def spmv_reference(row, col, vals, x, n) -> np.ndarray:
    """``A·x`` from COO triplets."""
    return np.bincount(row, weights=vals * x[col], minlength=n)


def check_spmv(y, ref, label: str) -> str | None:
    """Exact equality: integer-valued stencil entries and ``x`` make
    every partial sum an exactly representable integer, so any format
    and any summation order must reproduce the reference bit for bit."""
    if y.shape != ref.shape or not np.array_equal(y, ref):
        bad = int(np.count_nonzero(y != ref)) if y.shape == ref.shape else -1
        return f"{label}: y differs from the COO reference in {bad} entries"
    return None


def check_residual(row, col, vals, x, b, tol: float, label: str) -> str | None:
    """``‖b − A·x‖ ≤ tol·‖b‖`` with the residual formed in numpy.

    CG stops on its recurrence residual; the true residual differs from
    it by rounding of order eps·cond(A)·‖b‖, which is ~1e-13·‖b‖ for the
    grid systems served here — five orders below ``tol`` — so the
    bound is applied with no slack."""
    r = b - spmv_reference(row, col, vals, x, len(b))
    rn, bn = float(np.linalg.norm(r)), float(np.linalg.norm(b))
    if not np.isfinite(rn) or rn > tol * bn:
        return f"{label}: residual {rn:.3e} > tol·‖b‖ = {tol * bn:.3e}"
    return None


def pcg_reference(row, col, vals, b, niter: int) -> np.ndarray:
    """``niter`` steps of Jacobi-preconditioned CG from x0 = 0."""
    n = len(b)
    d = np.zeros(n)
    on_diag = row == col
    np.add.at(d, row[on_diag], vals[on_diag])
    dinv = 1.0 / d
    x = np.zeros(n)
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = r @ z
    for _ in range(niter):
        q = spmv_reference(row, col, vals, p, n)
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        z = dinv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def check_close(x, ref, rtol: float, label: str) -> str | None:
    err = float(np.linalg.norm(x - ref))
    scale = float(np.linalg.norm(ref))
    if not np.isfinite(err) or err > rtol * scale:
        return f"{label}: ‖x − x_ref‖ = {err:.3e} > {rtol:g}·‖x_ref‖ = {rtol * scale:.3e}"
    return None


# ----------------------------------------------------------------------
# dense evaluation of the example kernels
# ----------------------------------------------------------------------
def dense_kernel(name: str, A, stored, arrays: dict, scalars: dict) -> dict:
    """What kernel ``name`` (``examples/kernels/<name>.loop``) leaves in
    its output arrays, evaluated densely in numpy.

    ``A`` is the matrix operand as a dense array and ``stored`` the mask
    of its stored entries: the ``min``/``max``/``*`` reductions combine
    over stored entries only (the compiler's sparse-reduction semantics),
    so their identity fills the unstored positions.  ``arrays`` holds the
    dense operands before the call.
    """
    a = arrays
    if name == "axpy":
        return {"Y": a["Y"] + scalars["alpha"] * a["X"]}
    if name == "dot":
        return {"S": a["S"] + a["X"] @ a["Y"]}
    if name == "spmv":
        return {"Y": a["Y"] + A @ a["X"]}
    if name == "spmv_t":
        return {"Y": a["Y"] + A.T @ a["X"]}
    if name == "spmm":
        return {"C": a["C"] + A @ a["B"]}
    if name == "entrywise":
        return {"C": a["C"] + A * a["B"]}
    if name == "rowprod":
        return {"Y": a["Y"] * np.where(stored, A, 1.0).prod(axis=1)}
    if name == "rowmin":
        return {"M": np.minimum(a["M"], np.where(stored, A, np.inf).min(axis=1))}
    if name == "colmax":
        return {"M": np.maximum(a["M"], np.where(stored, A, -np.inf).max(axis=0))}
    raise KeyError(f"no dense evaluation for kernel {name!r}")


def check_arrays(got: dict, want: dict, label: str) -> str | None:
    for name, ref in want.items():
        if got[name].shape != ref.shape or not np.array_equal(got[name], ref):
            return f"{label}: output {name} differs from the dense evaluation"
    return None


def check_compiled_once(outcomes: dict, misses_delta: int, label: str) -> str | None:
    """Each never-seen key must be built by exactly one request: every
    such request reports ``compiled`` and the plan cache counted one
    miss per key and no other."""
    wrong = {k: o for k, o in outcomes.items() if o != "compiled"}
    if wrong:
        return f"{label}: {len(wrong)} never-seen keys not compiled by their request"
    if misses_delta != len(outcomes):
        return (
            f"{label}: plan cache counted {misses_delta} misses for "
            f"{len(outcomes)} never-seen keys"
        )
    return None
