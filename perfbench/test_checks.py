"""Each correctness check passes a right output and fails a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import phase_service  # noqa: E402
from repro.matrices import fem_matrix, grid_laplacian  # noqa: E402


@pytest.fixture(scope="module")
def lap():
    return grid_laplacian((12, 12))


def test_spmv_check(lap):
    x = np.arange(lap.shape[0], dtype=np.float64) % 7 - 3
    ref = checks.spmv_reference(lap.row, lap.col, lap.vals, x, lap.shape[0])
    assert ref.any()
    assert checks.check_spmv(lap.to_dense() @ x, ref, "CRS") is None
    bad = ref.copy()
    bad[5] += 1.0
    assert checks.check_spmv(bad, ref, "CRS")
    assert checks.check_spmv(ref[:-1], ref, "CRS")


def test_residual_check(lap):
    b = np.random.default_rng(0).standard_normal(lap.shape[0])
    x = np.linalg.solve(lap.to_dense(), b)
    assert checks.check_residual(lap.row, lap.col, lap.vals, x, b, 1e-8, "solve") is None
    x[3] *= 1.0 + 1e-6
    assert checks.check_residual(lap.row, lap.col, lap.vals, x, b, 1e-8, "solve")
    x[3] = np.nan
    assert checks.check_residual(lap.row, lap.col, lap.vals, x, b, 1e-8, "solve")


def test_pcg_check():
    from repro.solvers import parallel_cg

    coo = fem_matrix(60, dof=3, rng=4)
    b = np.random.default_rng(1).standard_normal(coo.shape[0])
    ref = checks.pcg_reference(coo.row, coo.col, coo.vals, b, 10)
    for variant in ("blocksolve", "mixed"):
        x = parallel_cg(coo, b, nprocs=4, variant=variant, niter=10, tol=0.0).x
        assert checks.check_close(x, ref, checks.PCG_RTOL, variant) is None
        x[0] += 1e-6 * np.linalg.norm(ref)
        assert checks.check_close(x, ref, checks.PCG_RTOL, variant)
    # the reference is 10 steps of CG, not a converged solve
    nine = checks.pcg_reference(coo.row, coo.col, coo.vals, b, 9)
    assert checks.check_close(nine, ref, checks.PCG_RTOL, "9 steps")


@pytest.mark.parametrize("kernel", sorted(phase_service.admitted_kernels()))
def test_kernel_checks(kernel):
    """The dense evaluation agrees with every compiled pair the service
    phase sends, and catches a single wrong output entry."""
    from repro.compiler import compile_kernel, parse
    from repro.formats import COOMatrix, matrix_format_by_name

    text = phase_service.admitted_kernels()[kernel]
    prog = parse(text)
    rng = np.random.default_rng(2)
    dense = np.zeros(phase_service.SMALL)
    stored = rng.random(dense.shape) < 0.5
    stored[np.arange(dense.shape[0]), np.arange(dense.shape[0]) % dense.shape[1]] = True
    dense[stored] = rng.integers(1, 4, int(stored.sum()))
    coo = COOMatrix.from_dense(dense)
    has_matrix = "A" in phase_service._operands(prog)
    for fmt in phase_service.FORMATS if has_matrix else ("dense",):
        if (kernel, fmt) in phase_service.EXCLUDED:
            continue
        A = matrix_format_by_name(fmt).from_coo(coo) if has_matrix else None
        formats, before, scalars = phase_service.bindings(prog, A, rng)
        compile_kernel(text, formats)(**formats, **scalars)
        got = {n: f.vals for n, f in formats.items() if n != "A"}
        want = checks.dense_kernel(kernel, dense, stored, before, scalars)
        assert checks.check_arrays(got, want, f"{kernel}×{fmt}") is None
        name = next(iter(want))
        got[name].flat[0] += 1.0
        assert checks.check_arrays(got, want, f"{kernel}×{fmt}")


def test_excluded_entrywise_diagonal_is_still_wrong():
    """Drop the exclusion once the Diagonal lowering writes the diagonal."""
    from repro.compiler import compile_kernel
    from repro.formats import COOMatrix, DenseMatrix, DiagonalMatrix

    dense = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]])
    A = DiagonalMatrix.from_coo(COOMatrix.from_dense(dense))
    B = np.full((3, 3), 2.0)
    C = DenseMatrix(np.zeros((3, 3)))
    text = phase_service.admitted_kernels()["entrywise"]
    compile_kernel(text, {"A": A, "B": DenseMatrix(B), "C": C})(
        A=A, B=DenseMatrix(B), C=C
    )
    want = checks.dense_kernel("entrywise", dense, dense != 0, {"C": np.zeros((3, 3)), "B": B}, {})
    assert checks.check_arrays({"C": C.vals}, want, "entrywise×Diagonal")


def test_compiled_once_check():
    keys = {("k", i): "compiled" for i in range(3)}
    assert checks.check_compiled_once(keys, 3, "phase") is None
    assert checks.check_compiled_once(keys, 4, "phase")
    keys[("k", 1)] = "hit"
    assert checks.check_compiled_once(keys, 3, "phase")
