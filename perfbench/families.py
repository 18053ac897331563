"""The input families the two workloads are made of.

Every workload runs the same three phases (Table-1 SpMV per format,
service traffic, Table-2 SPMD CG) on the matrices of one family, so each
prints every end-to-end metric and each metric is measured on two kinds
of structure.  A family fixes the matrices; the seed only draws vectors,
schedules and right-hand sides.

``laplace``: 2-D 5-point Laplacians, one unknown per grid point, where
the Diagonal format stores nothing extra and BlockSolve finds no
i-nodes to exploit.  ``blocked``: three unknowns per point coupled by a
dense 3×3 block (i-nodes and cliques of size 3), the structure
BlockSolve was written for, where Diagonal stores one diagonal per
coupling offset; its Table-2 system is the FEM matrix of the paper's
Figure 2 kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Family:
    name: str
    #: the Table-1 matrix: ~1M stored entries with small integer values,
    #: so every format's ``A·x`` is exact (see ``checks.check_spmv``)
    table1: Callable
    #: the systems ``solve_cg`` requests are made on, by label
    solve_labels: tuple
    solve_system: Callable
    #: the matrix operand of the compile requests' format bindings
    key_matrix: Callable
    #: the Table-2 system ``parallel_cg`` solves
    spmd_matrix: Callable


def _laplacian(side: int):
    from repro.matrices import grid_laplacian

    return grid_laplacian((side, side))


#: the coupling of the three unknowns at a point: dense, so every point's
#: rows share one column pattern (an i-node of 3), and positive definite
#: (eigenvalues 5, 2, 2), so ``L ⊗ COUPLING`` is too
COUPLING = np.array([[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]])


def _coupled(side: int):
    """``L ⊗ COUPLING`` for the side² grid Laplacian ``L``: the sparsity
    of a 3-unknown 5-point stencil, integer values, positive definite."""
    from repro.formats import COOMatrix

    lap = _laplacian(side)
    a, b = (m.ravel() for m in np.meshgrid(np.arange(3), np.arange(3), indexing="ij"))
    row = (3 * lap.row[:, None] + a).ravel()
    col = (3 * lap.col[:, None] + b).ravel()
    vals = (lap.vals[:, None] * COUPLING.ravel()).ravel()
    n = 3 * lap.shape[0]
    return COOMatrix.from_entries((n, n), row, col, vals)


def _fem():
    from repro.matrices import fem_matrix

    return fem_matrix(1500, dof=3, rng=1997)


FAMILIES = {
    # 448² grid: 200 704 rows, 1 001 728 entries
    "laplace": Family(
        name="laplace",
        table1=lambda: _laplacian(448),
        # every second side from 24 to 48, in equal numbers: with five
        # sizes ~12 ms apart, a few more small solves delayed behind
        # others moved the median from one size to the next (p50 spread
        # 0.26 over five seeds); with 13 the latencies form one hump
        solve_labels=tuple(range(24, 49, 2)),
        solve_system=_laplacian,
        key_matrix=lambda: _laplacian(32),
        spmd_matrix=lambda: _laplacian(48),
    ),
    # 150² grid × 3 unknowns: 67 500 rows, 1 007 100 entries
    "blocked": Family(
        name="blocked",
        table1=lambda: _coupled(150),
        solve_labels=tuple(range(14, 27)),
        solve_system=_coupled,
        key_matrix=lambda: _coupled(11),
        spmd_matrix=_fem,
    ),
}
