"""TIMES has a terminal (0) only where 0 annihilates: integer and BOOL.

0 * NaN and 0 * inf are NaN, so an early exit at 0 over a float domain
returns a wrong 0.0.  Every computing backend must give NaN there, and
the compiled tier — the one that really exits early — is checked on
whatever toolchain exists, the interpreted one when there is no C
compiler.
"""

import warnings

import numpy as np
import pytest

from repro.graphblas import Matrix, Vector, compiled, monoid
from repro.graphblas import operations as ops
from repro.graphblas.types import BOOL, FP32, FP64, INT8, INT64, UINT16

BACKENDS = ("optimized", "reference", "compiled")
ROWS = ([0.0, np.nan], [0.0, np.inf], [0.0, -np.inf], [np.nan, 0.0])


@pytest.fixture(autouse=True)
def _compiled_tier():
    compiled.reset()
    if not compiled.available():
        compiled.set_config(toolchain="python")
    assert compiled.available()
    yield
    compiled.reset()


@pytest.mark.parametrize("dtype", [INT8, INT64, UINT16, BOOL])
def test_integer_and_bool_terminal_is_zero(dtype):
    assert monoid("TIMES").terminal(dtype) == 0


@pytest.mark.parametrize("dtype", [FP32, FP64])
def test_float_times_has_no_terminal(dtype):
    assert monoid("TIMES").terminal(dtype) is None


def _run(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ["push", "pull"])
@pytest.mark.parametrize("row", ROWS, ids=str)
def test_fp64_times_times_mxv_propagates_nan(backend, method, row):
    A = Matrix.from_dense(np.array([row]))
    u = Vector.from_dense(np.ones(len(row)))
    w = Vector("FP64", 1)
    _run(lambda: ops.mxv(w, A, u, "TIMES_TIMES", method=method, backend=backend))
    assert w.nvals == 1 and np.isnan(w[0])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("row", ROWS, ids=str)
def test_fp64_times_times_dot_mxm_propagates_nan(backend, row):
    A = Matrix.from_dense(np.array([row]))
    B = Matrix.from_dense(np.ones((len(row), 1)))
    C = Matrix("FP64", 1, 1)
    _run(lambda: ops.mxm(C, A, B, "TIMES_TIMES", method="dot", backend=backend))
    assert C.nvals == 1 and np.isnan(C[0, 0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_int64_times_times_still_reaches_zero(backend):
    A = Matrix.from_dense(np.array([[3, 0, 5, 7]], dtype=np.int64), missing=None)
    u = Vector.from_dense(np.ones(4, dtype=np.int64))
    w = Vector("INT64", 1)
    ops.mxv(w, A, u, "TIMES_TIMES", method="pull", backend=backend)
    assert w[0] == 0
