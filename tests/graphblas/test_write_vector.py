"""The vector write's contract: sorted-unique input, owned output.

``mask.write_vector`` installs its result arrays into ``w`` without a
rebuild, so it checks what the rebuild used to enforce: indices strictly
increasing and in range.  Every vector Table-I op must hand it arrays
that belong to no operand — ``export_vector`` gives those buffers to a
caller who may write to them, and that must never reach an operand.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphblas import Matrix, Vector, export_vector, faults
from repro.graphblas import operations as ops
from repro.graphblas.descriptor import Descriptor
from repro.graphblas.errors import IndexOutOfBounds, InvalidValue
from repro.graphblas.mask import write_vector
from repro.graphblas.ops import binary


def _w():
    return Vector.from_coo([1, 3], [10.0, 30.0], size=6)


class TestInputChecks:
    @pytest.mark.parametrize("idx", [[3, 1], [0, 2, 1], [2, 2], [0, 4, 4, 5]])
    def test_unsorted_or_duplicate_raises(self, idx):
        w = _w()
        with pytest.raises(InvalidValue):
            write_vector(w, np.asarray(idx), np.ones(len(idx)))
        assert w.extract_tuples()[0].tolist() == [1, 3]

    @pytest.mark.parametrize("idx", [[-1, 2], [0, 6], [7]])
    def test_out_of_range_raises(self, idx):
        w = _w()
        with pytest.raises(IndexOutOfBounds):
            write_vector(w, np.asarray(idx), np.ones(len(idx)))
        assert w.extract_tuples()[1].tolist() == [10.0, 30.0]

    def test_length_mismatch_raises(self):
        with pytest.raises(InvalidValue):
            write_vector(_w(), np.array([0, 1]), np.ones(3))

    def test_sorted_input_installed_as_is(self):
        w = _w()
        ti, tv = np.array([0, 2, 5]), np.array([1.0, 2.0, 3.0])
        write_vector(w, ti, tv)
        assert w.indices is ti and w.values is tv

    @pytest.mark.parametrize("accum", [None, "PLUS"])
    @pytest.mark.parametrize("replace", [False, True])
    def test_build_fault_fires_and_leaves_w_intact(self, accum, replace):
        w = _w()
        mask = Vector.from_coo([0, 1, 2], [True, False, True], size=6)
        with faults.inject("build", MemoryError) as plan:
            with pytest.raises(MemoryError):
                write_vector(
                    w, np.array([0, 2, 3]), np.ones(3), mask=mask,
                    accum=None if accum is None else binary(accum),
                    desc=Descriptor(replace=replace),
                )
        assert plan.fires == 1
        i, v = w.extract_tuples()
        assert i.tolist() == [1, 3] and v.tolist() == [10.0, 30.0]

    def test_kept_entries_merge_in_order(self):
        # no replace, a mask that keeps w entries between admitted ones
        w = Vector.from_coo([1, 3, 5], [1.0, 3.0, 5.0], size=6)
        mask = Vector.from_coo([0, 2, 4], [True, True, True], size=6)
        write_vector(w, np.array([0, 2, 4]), np.array([7.0, 8.0, 9.0]), mask=mask)
        i, v = w.extract_tuples()
        assert i.tolist() == [0, 1, 2, 3, 4, 5]
        assert v.tolist() == [7.0, 1.0, 8.0, 3.0, 9.0, 5.0]


# -- no output shares a buffer with an operand -------------------------------

N = 7
entries = st.dictionaries(
    st.integers(0, N - 1), st.floats(-4, 4, allow_nan=False), max_size=N
)


def _vec(d, dtype=np.float64):
    idx = np.asarray(sorted(d), dtype=np.int64)
    vals = np.asarray([d[i] for i in sorted(d)], dtype=dtype)
    return Vector.from_coo(idx, vals, size=N, dtype=dtype, dup=None)


@st.composite
def matrices(draw):
    d = draw(st.dictionaries(
        st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
        st.floats(-4, 4, allow_nan=False), max_size=20,
    ))
    if d:
        r, c = map(np.asarray, zip(*d))
        v = np.asarray(list(d.values()))
    else:
        r = c = np.empty(0, dtype=np.int64)
        v = np.empty(0)
    return Matrix.from_coo(r, c, v, nrows=N, ncols=N, dtype="FP64")


MASKS = ["none", "value", "structural", "complement", "structural_complement"]


def _op_calls(u, v, A, I):
    """op name -> callable(w, mask, accum, desc) over operands (u, v, A)."""
    return {
        "apply": lambda w, **k: ops.apply(w, u, "IDENTITY", **k),
        "apply_bind2nd": lambda w, **k: ops.apply(w, u, "FIRST", right=1.0, **k),
        "apply_indexunary": lambda w, **k: ops.apply(w, u, "ROWINDEX", thunk=0, **k),
        "select": lambda w, **k: ops.select(w, u, "VALUEGE", 0.0, **k),
        "ewise_add": lambda w, **k: ops.ewise_add(w, u, v, "PLUS", **k),
        "ewise_mult": lambda w, **k: ops.ewise_mult(w, u, v, "FIRST", **k),
        "assign": lambda w, **k: ops.assign(w, u, **k),
        "assign_scalar": lambda w, **k: ops.assign(w, 2.5, I, **k),
        "extract": lambda w, **k: ops.extract(w, u, **k),
        "mxv_push": lambda w, **k: ops.mxv(w, A, u, "PLUS_TIMES", method="push", **k),
        "mxv_pull": lambda w, **k: ops.mxv(w, A, u, "PLUS_TIMES", method="pull", **k),
        "vxm": lambda w, **k: ops.vxm(w, u, A, "PLUS_SECOND", **k),
    }


OPS = sorted(_op_calls(None, None, None, None))


def _operand_arrays(objs):
    out = []
    for o in objs:
        if isinstance(o, Vector):
            out += [o.indices, o.values]
        else:
            for store in (o._store, o._alt):
                if store is not None:
                    out += [a for a in (store.h, store.indptr, store.minor,
                                        store.values) if a is not None]
    return out


def _snapshot(objs):
    return [o.extract_tuples() for o in objs]


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=25, deadline=None)
@given(
    du=entries, dv=entries, dw=entries, dm=entries, A=matrices(),
    mask_kind=st.sampled_from(MASKS), replace=st.booleans(),
    accum=st.sampled_from([None, "PLUS"]),
)
def test_outputs_own_their_buffers(op, du, dv, dw, dm, A, mask_kind, replace, accum):
    u, v, w = _vec(du), _vec(dv), _vec(dw)
    I = np.asarray(sorted(dm), dtype=np.int64) if dm else np.array([0])
    mask = None
    if mask_kind != "none":
        mask = Vector.from_coo(
            sorted(dm), [dm[i] > 0 for i in sorted(dm)], size=N, dtype="BOOL"
        )
    desc = Descriptor(
        replace=replace,
        structural_mask="structural" in mask_kind,
        complement_mask="complement" in mask_kind,
    )
    operands = [x for x in (u, v, A, mask) if x is not None]
    before = _snapshot(operands)

    _op_calls(u, v, A, I)[op](w, mask=mask, accum=accum, desc=desc)

    w.wait()
    theirs = _operand_arrays(operands)
    for mine in (w.indices, w.values):
        assert not any(np.shares_memory(mine, a) for a in theirs)
    _, wi, wv = export_vector(w)
    for mine in (wi, wv):
        assert not any(np.shares_memory(mine, a) for a in theirs)
    # a caller owns the exported buffers: writing to them reaches no operand
    wi[:] = -1
    wv[:] = 123.0
    for obj, (bi, *bv) in zip(operands, before):
        now = obj.extract_tuples()
        assert np.array_equal(now[0], bi)
        for x, y in zip(now[1:], bv):
            assert np.array_equal(x, y)
