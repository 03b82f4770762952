"""Property test: the dual-orientation twin can never be served stale.

Hypothesis drives random interleavings of ``set_element`` /
``remove_element`` / ``wait`` / pull-phase ``mxv`` against a matrix in
each of the four storage formats.  After every step where a twin is
cached, it must equal a fresh conversion of the primary store; and the
pull ``mxv`` (which reads through the orientation cache) must equal a
dense-matvec oracle computed from the current entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphblas import Matrix, Vector, engine
from repro.graphblas import operations as ops

N = 8

FORMATS = ("csr", "csc", "hypercsr", "hypercsc")

_action = st.one_of(
    st.tuples(
        st.just("set"),
        st.integers(0, N - 1),
        st.integers(0, N - 1),
        st.integers(-5, 5),
    ),
    st.tuples(st.just("remove"), st.integers(0, N - 1), st.integers(0, N - 1)),
    st.tuples(st.just("wait")),
    st.tuples(st.just("mxv_pull")),
)


@pytest.fixture(autouse=True)
def _engine_on():
    engine.reset()
    yield
    engine.reset()


def _assert_twin_fresh(A: Matrix) -> None:
    """The cached twin (if any) must be a faithful conversion of _store.

    While updates are pending the twin is allowed to survive with a stale
    epoch mark (``wait()`` will patch or drop it, and ``_oriented`` never
    serves it before waiting) — it must still flip the *settled* store.
    """
    if A._alt is None:
        return
    if not A.has_pending:
        assert A._alt_epoch == A._epoch, "stale twin is being retained as current"
    fresh = A._store.with_orientation(A._store.orientation.flipped)
    assert A._alt.orientation == fresh.orientation
    assert A._alt.hyper == fresh.hyper
    assert np.array_equal(A._alt.indptr, fresh.indptr)
    assert np.array_equal(A._alt.minor, fresh.minor)
    assert np.array_equal(A._alt.values, fresh.values)
    if fresh.hyper:
        assert np.array_equal(A._alt.h, fresh.h)


@settings(max_examples=50, deadline=None)
@given(
    fmt=st.sampled_from(FORMATS),
    actions=st.lists(_action, min_size=1, max_size=12),
)
def test_twin_never_stale_under_interleaved_mutation(fmt, actions):
    A = Matrix("FP64", N, N)
    A.set_format(fmt)
    u = Vector("FP64", N)
    for k in range(0, N, 2):
        u.set_element(k, float(k + 1))
    shadow = np.zeros((N, N))  # dense oracle of A's current contents

    for act in actions:
        if act[0] == "set":
            _, i, j, v = act
            A.set_element(i, j, float(v))
            shadow[i, j] = float(v)
        elif act[0] == "remove":
            _, i, j = act
            A.remove_element(i, j)
            shadow[i, j] = 0.0
        elif act[0] == "wait":
            A.wait()
        else:  # mxv_pull reads A through the orientation cache
            w = Vector("FP64", N)
            ops.mxv(w, A, u, "PLUS_TIMES", method="pull")
            dense_u = u.to_dense()
            expect = shadow @ dense_u
            got = w.to_dense()
            # positions where every product is absent stay unstored; the
            # oracle's zeros there match to_dense's fill
            assert np.allclose(got, expect)
        _assert_twin_fresh(A)

    # final consistency: both orientations agree with the shadow
    A.wait()
    _assert_twin_fresh(A)
    r, c, vals = A.extract_tuples()
    dense = np.zeros((N, N))
    dense[r, c] = vals
    assert np.array_equal(dense, shadow)
