"""Wall-clock sanity benchmarks of the actual kernels.

The evaluation figures use the machine model (see DESIGN.md); this file
keeps the library honest by timing the real kernels on the host
(compiled sparsetools routines for CSR/SSS, numpy for CSX/CSX-Sym):
serial SpM×V per format, the two-phase parallel symmetric kernel, the
three reduction phases in isolation, and a CG solve. Relative costs
here are host-specific and not the paper's — correctness of execution
is the point.
"""

import numpy as np
import pytest

from common import suite_matrix
from repro.formats import CSRMatrix, CSXMatrix, CSXSymMatrix, SSSMatrix
from repro.parallel import (
    ParallelSymmetricSpMV,
    make_reduction,
    partition_nnz_balanced,
)
from repro.solvers import conjugate_gradient

MATRIX = "bmw7st_1"


@pytest.fixture(scope="module")
def coo():
    return suite_matrix(MATRIX)


@pytest.fixture(scope="module")
def x(coo):
    return np.random.default_rng(0).standard_normal(coo.n_cols)


def test_spmv_csr(benchmark, coo, x):
    csr = CSRMatrix.from_coo(coo)
    y = benchmark(csr.spmv, x)
    assert y.shape == (coo.n_rows,)


def test_spmv_sss(benchmark, coo, x):
    sss = SSSMatrix.from_coo(coo)
    y = benchmark(sss.spmv, x)
    assert np.allclose(y, CSRMatrix.from_coo(coo).spmv(x))


def test_spmv_csx(benchmark, coo, x):
    csx = CSXMatrix(coo)
    y = benchmark(csx.spmv, x)
    assert np.allclose(y, CSRMatrix.from_coo(coo).spmv(x))


def test_spmv_csx_sym(benchmark, coo, x):
    csxs = CSXSymMatrix(coo)
    y = benchmark(csxs.spmv, x)
    assert np.allclose(y, CSRMatrix.from_coo(coo).spmv(x))


@pytest.mark.parametrize("method", ["naive", "effective", "indexed"])
def test_parallel_symmetric_spmv(benchmark, coo, x, method):
    sss = SSSMatrix.from_coo(coo)
    parts = partition_nnz_balanced(sss.expanded_row_nnz(), 8)
    kernel = ParallelSymmetricSpMV(sss, parts, method)
    y = benchmark(kernel, x)
    assert np.allclose(y, CSRMatrix.from_coo(coo).spmv(x))


@pytest.mark.parametrize("method", ["naive", "effective", "indexed"])
def test_reduction_phase_only(benchmark, coo, method):
    """Isolated reduction phase cost (the Fig. 10 quantity, on-host)."""
    sss = SSSMatrix.from_coo(coo)
    parts = partition_nnz_balanced(sss.expanded_row_nnz(), 8)
    red = make_reduction(method, sss, parts)
    locals_ = red.allocate_locals()
    rng = np.random.default_rng(1)
    for buf in locals_:
        if buf is not None:
            buf[:] = rng.standard_normal(buf.size)
    y = np.zeros(sss.n_rows)

    def run():
        y[:] = 0.0
        red.reduce(y, locals_)
        return y

    benchmark(run)


def test_cg_solve(benchmark, coo):
    csr = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(2)
    b = csr.spmv(rng.standard_normal(coo.n_rows))
    result = benchmark.pedantic(
        lambda: conjugate_gradient(csr.spmv, b, tol=1e-8),
        rounds=3, iterations=1,
    )
    assert result.converged
