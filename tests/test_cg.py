"""Unit tests for the instrumented Conjugate Gradient solver."""

import gc
import warnings

import numpy as np
import pytest

from repro.formats import COOMatrix, CSRMatrix, CSXSymMatrix, SSSMatrix
from repro.parallel import ParallelSymmetricSpMV, partition_rows_equal
from repro.obs import reset_warning_counts, warning_counts
from repro.solvers import (
    OpCounter,
    bind_operator,
    block_conjugate_gradient,
    conjugate_gradient,
    preconditioned_conjugate_gradient,
)
from repro.solvers.pcg import jacobi_preconditioner


@pytest.fixture(scope="session")
def spd_system(sym_dense_medium, ):
    rng = np.random.default_rng(42)
    x_true = rng.standard_normal(sym_dense_medium.shape[0])
    b = sym_dense_medium @ x_true
    return sym_dense_medium, x_true, b


def test_converges_on_spd(spd_system):
    dense, x_true, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(csr.spmv, b, tol=1e-12)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6)
    assert res.residual_norm <= 1e-12 * np.linalg.norm(b)


def test_iteration_count_reasonable(spd_system):
    """Diagonally dominant fixtures are well conditioned: far fewer
    iterations than the dimension."""
    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(csr.spmv, b, tol=1e-10)
    assert res.iterations < dense.shape[0] / 2


def test_spmv_count_matches_iterations(spd_system):
    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(csr.spmv, b, tol=1e-10)
    assert res.n_spmv == res.iterations  # zero x0: no initial SpM×V


def test_nonzero_initial_guess(spd_system):
    dense, x_true, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    x0 = x_true + 0.01 * np.ones_like(x_true)
    res = conjugate_gradient(csr.spmv, b, x0=x0, tol=1e-12)
    assert res.converged
    assert res.n_spmv == res.iterations + 1  # one extra for r0
    assert np.allclose(res.x, x_true, atol=1e-6)


def test_exact_initial_guess_returns_immediately(spd_system):
    dense, x_true, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(csr.spmv, b, x0=x_true, tol=1e-8)
    assert res.converged and res.iterations == 0


def test_max_iter_cap(spd_system):
    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(csr.spmv, b, tol=1e-300, max_iter=3)
    assert not res.converged
    assert res.iterations == 3


def test_residual_history_monotone_overall(spd_system):
    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(csr.spmv, b, tol=1e-10, record_history=True)
    hist = res.residual_history
    assert hist is not None and hist[-1] < hist[0] * 1e-8


def test_counter_accumulates(spd_system):
    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    counter = OpCounter()
    res = conjugate_gradient(csr.spmv, b, tol=1e-10, counter=counter)
    assert counter.flops == res.vector_flops > 0
    assert counter.bytes == res.vector_bytes > 0


def test_vector_counts_match_closed_form(spd_system):
    """Per-iteration vector flops must match the Fig. 14 closed form."""
    from repro.analysis import cg_vector_counts_per_iter

    dense, _, b = spd_system
    n = dense.shape[0]
    csr = CSRMatrix.from_dense(dense)
    r5 = conjugate_gradient(csr.spmv, b, tol=1e-300, max_iter=5)
    r10 = conjugate_gradient(csr.spmv, b, tol=1e-300, max_iter=10)
    flops_per_iter = (r10.vector_flops - r5.vector_flops) / 5
    bytes_per_iter = (r10.vector_bytes - r5.vector_bytes) / 5
    cf_flops, cf_bytes = cg_vector_counts_per_iter(n)
    assert flops_per_iter == pytest.approx(cf_flops)
    assert bytes_per_iter == pytest.approx(cf_bytes)


def test_works_with_parallel_symmetric_kernel(spd_system):
    dense, x_true, b = spd_system
    coo = COOMatrix.from_dense(dense)
    sss = SSSMatrix.from_coo(coo)
    parts = partition_rows_equal(coo.n_rows, 4)
    kernel = ParallelSymmetricSpMV(sss, parts, "indexed")
    res = conjugate_gradient(kernel, b, tol=1e-12)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6)


def test_works_with_csx_sym(spd_system):
    dense, x_true, b = spd_system
    coo = COOMatrix.from_dense(dense)
    parts = partition_rows_equal(coo.n_rows, 3)
    csxs = CSXSymMatrix(coo, partitions=parts)
    kernel = ParallelSymmetricSpMV(csxs, parts, "indexed")
    res = conjugate_gradient(kernel, b, tol=1e-12)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6)


def test_solves_through_a_driver_leave_no_unclosed_operator(spd_system):
    """Each solve used to bind a fresh operator it never closed (one
    ``bound_operator.unclosed_gc`` and one ResourceWarning per solve);
    solves now apply the driver's own cached operator."""
    dense, x_true, b = spd_system
    coo = COOMatrix.from_dense(dense)
    parts = partition_rows_equal(coo.n_rows, 3)
    driver = ParallelSymmetricSpMV(SSSMatrix.from_coo(coo), parts, "indexed")
    B = np.stack([b, 2.0 * b], axis=1)
    reset_warning_counts()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            assert conjugate_gradient(driver, b, tol=1e-12).converged
        assert preconditioned_conjugate_gradient(
            driver, b, jacobi_preconditioner(np.diag(dense)),
            tol=1e-12,
        ).converged
        assert block_conjugate_gradient(driver, B, tol=1e-12).converged.all()
        gc.collect()
    assert "bound_operator.unclosed_gc" not in warning_counts()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert bind_operator(driver) is driver.operator()
    assert bind_operator(driver, 2) is driver.operator(2)
    driver.close()


def test_same_answer_across_formats(spd_system):
    dense, _, b = spd_system
    coo = COOMatrix.from_dense(dense)
    csr = CSRMatrix.from_coo(coo)
    sss = SSSMatrix.from_coo(coo)
    ra = conjugate_gradient(csr.spmv, b, tol=1e-12)
    rb = conjugate_gradient(sss.spmv, b, tol=1e-12)
    assert np.allclose(ra.x, rb.x, atol=1e-8)


def test_indefinite_direction_bails():
    dense = np.array([[1.0, 0.0], [0.0, -1.0]])  # not SPD
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(csr.spmv, np.array([0.0, 1.0]), tol=1e-12)
    assert not res.converged


# ----------------------------------------------------------------------
# Breakdown guards (repro.solvers.guards): faults stop the iteration
# with a typed diagnosis instead of burning max_iter.
# ----------------------------------------------------------------------
def _faulty_after(spmv, n_clean, fail_times=None):
    """Operator returning NaN on selected applications (all past
    ``n_clean`` by default, or exactly the 1-based calls in
    ``fail_times``)."""
    calls = {"n": 0}

    def apply(x):
        calls["n"] += 1
        y = np.asarray(spmv(x))
        bad = (
            calls["n"] in fail_times
            if fail_times is not None
            else calls["n"] > n_clean
        )
        return np.full_like(y, np.nan) if bad else y

    return apply


def test_nan_operator_breaks_down_within_two_iterations(spd_system):
    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    fault_at = 4  # the 4th SpM×V returns NaN
    res = conjugate_gradient(
        _faulty_after(csr.spmv, fault_at - 1), b, tol=1e-12, max_iter=500
    )
    assert not res.converged
    assert res.breakdown is not None
    assert res.breakdown.kind == "nonfinite"
    # Detection within two iterations of the fault, not at max_iter.
    assert res.iterations <= fault_at + 2
    assert res.n_spmv <= fault_at + 2
    assert "iteration" in res.breakdown.describe()


def test_nan_rhs_breaks_down_before_iterating(spd_system):
    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    bad_b = b.copy()
    bad_b[0] = np.nan
    res = conjugate_gradient(csr.spmv, bad_b, tol=1e-12)
    assert not res.converged
    assert res.breakdown is not None
    assert res.breakdown.kind == "nonfinite"
    assert res.iterations == 0
    assert res.n_spmv == 0


def test_indefinite_breakdown_is_typed():
    dense = np.array([[1.0, 0.0], [0.0, -1.0]])  # not SPD
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(
        csr.spmv, np.array([0.0, 1.0]), tol=1e-12, max_iter=200
    )
    assert not res.converged
    assert res.breakdown is not None
    assert res.breakdown.kind == "indefinite"
    assert res.iterations <= 2
    assert res.breakdown.value <= 0


def test_stagnation_detected(spd_system):
    # A non-symmetric perturbation keeps pᵀAp > 0 (SPD symmetric part)
    # while destroying CG's convergence: the residual stops improving
    # and the stagnation window fires instead of burning max_iter.
    dense, _, b = spd_system
    n = dense.shape[0]
    rng = np.random.default_rng(5)
    skew = rng.standard_normal((n, n))
    skew = (skew - skew.T) * np.abs(dense).max()
    A = dense + skew

    res = conjugate_gradient(
        lambda x: A @ x, b, tol=1e-14, max_iter=5000,
        stagnation_window=25,
    )
    assert not res.converged
    assert res.breakdown is not None
    assert res.breakdown.kind == "stagnation"
    assert res.iterations < 5000


def test_restart_recovers_from_transient_fault(spd_system):
    dense, x_true, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    # Exactly one application (the 3rd) is faulted; restart re-seeds
    # r = b - A·x from the still-finite iterate and converges.
    res = conjugate_gradient(
        _faulty_after(csr.spmv, 0, fail_times={3}),
        b, tol=1e-10, restart=True,
    )
    assert res.converged
    assert res.breakdown is None
    assert np.allclose(res.x, x_true, atol=1e-5)


def test_second_breakdown_is_final_even_with_restart(spd_system):
    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    res = conjugate_gradient(
        _faulty_after(csr.spmv, 2), b, tol=1e-12, restart=True,
        max_iter=500,
    )
    assert not res.converged
    assert res.breakdown is not None
    assert res.breakdown.kind == "nonfinite"


def test_breakdown_counts_warning(spd_system):
    from repro.obs import reset_warning_counts, warning_counts

    dense, _, b = spd_system
    csr = CSRMatrix.from_dense(dense)
    reset_warning_counts()
    conjugate_gradient(_faulty_after(csr.spmv, 1), b, max_iter=50)
    assert warning_counts().get("resilience.cg_breakdown") == 1
