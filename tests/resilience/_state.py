"""Bit-identical state capture for Matrix/Vector/Scalar operands.

The transactional guarantee under test is *bit-identical* rollback — not
just semantic equality.  ``deep_state`` copies every observable array and
field (primary store, cached dual-orientation twin, the full pending log)
and ``assert_same_state`` re-compares them exactly, dtypes included.

One deliberate carve-out: the performance engine may cache a
dual-orientation twin while merely *reading* a matrix, so a twin that
appears after the snapshot is accepted iff it is an epoch-current,
faithful conversion of the (unchanged) primary store.
"""

from __future__ import annotations

import numpy as np

from repro.graphblas import Matrix, Scalar, Vector


def _arr(a: np.ndarray):
    return (a.dtype, a.copy())


def _arr_same(before, now: np.ndarray, what: str):
    dtype, vals = before
    assert now.dtype == dtype, f"{what}: dtype {now.dtype} != {dtype}"
    assert np.array_equal(vals, now, equal_nan=True), f"{what}: contents changed"


def _store_state(s):
    if s is None:
        return None
    return {
        "orientation": s.orientation,
        "hyper": s.hyper,
        "n_major": s.n_major,
        "n_minor": s.n_minor,
        "indptr": _arr(s.indptr),
        "minor": _arr(s.minor),
        "values": _arr(s.values),
        "h": _arr(s.h) if s.hyper else None,
    }


def _store_same(before, s, what: str):
    if before is None:
        assert s is None, f"{what}: twin appeared"
        return
    assert s is not None, f"{what}: store vanished"
    _store_equal(before, s, what)


def _store_equal(before, s, what: str) -> None:
    for key in ("orientation", "hyper", "n_major", "n_minor"):
        assert before[key] == getattr(s, key), f"{what}.{key} changed"
    _arr_same(before["indptr"], s.indptr, f"{what}.indptr")
    _arr_same(before["minor"], s.minor, f"{what}.minor")
    _arr_same(before["values"], s.values, f"{what}.values")
    if before["h"] is not None:
        _arr_same(before["h"], s.h, f"{what}.h")


def deep_state(obj):
    """Full copy of an opaque object's observable state."""
    if isinstance(obj, Matrix):
        return {
            "kind": "Matrix",
            "dtype": obj.dtype,
            "nrows": obj.nrows,
            "ncols": obj.ncols,
            "store": _store_state(obj._store),
            "alt": _store_state(obj._alt),
            "pend": (
                list(obj._pend_i),
                list(obj._pend_j),
                list(obj._pend_v),
                list(obj._pend_del),
            ),
            "valid": obj._valid,
        }
    if isinstance(obj, Vector):
        return {
            "kind": "Vector",
            "dtype": obj.dtype,
            "size": obj.size,
            "indices": _arr(obj.indices),
            "values": _arr(obj.values),
            "pend": (list(obj._pend_i), list(obj._pend_v), list(obj._pend_del)),
            "valid": obj._valid,
        }
    if isinstance(obj, Scalar):
        return {"kind": "Scalar", "dtype": obj.dtype, "value": obj._value, "has": obj._has}
    raise TypeError(f"unsupported: {type(obj).__name__}")


def assert_same_state(obj, before) -> None:
    """Assert ``obj`` is bit-identical to its captured ``deep_state``."""
    if before["kind"] == "Matrix":
        assert isinstance(obj, Matrix)
        assert obj.dtype == before["dtype"]
        assert (obj.nrows, obj.ncols) == (before["nrows"], before["ncols"])
        assert obj._valid == before["valid"]
        _store_same(before["store"], obj._store, "store")
        if before["alt"] is None and obj._alt is not None:
            # A dual-format twin may legitimately appear during an op that
            # read the matrix (the engine caches the opposite orientation of
            # the unchanged primary store).  Accept it only when it is an
            # epoch-current, faithful conversion of that store — a stale or
            # corrupt twin still fails.
            assert obj._alt_epoch == obj._epoch, "alt: stale twin appeared"
            fresh = obj._store.with_orientation(obj._store.orientation.flipped)
            _store_equal(_store_state(fresh), obj._alt, "alt")
        else:
            _store_same(before["alt"], obj._alt, "alt")
        assert (
            list(obj._pend_i),
            list(obj._pend_j),
            list(obj._pend_v),
            list(obj._pend_del),
        ) == before["pend"], "pending log changed"
    elif before["kind"] == "Vector":
        assert isinstance(obj, Vector)
        assert obj.dtype == before["dtype"]
        assert obj.size == before["size"]
        assert obj._valid == before["valid"]
        _arr_same(before["indices"], obj.indices, "indices")
        _arr_same(before["values"], obj.values, "values")
        assert (
            list(obj._pend_i),
            list(obj._pend_v),
            list(obj._pend_del),
        ) == before["pend"], "pending log changed"
    elif before["kind"] == "Scalar":
        assert isinstance(obj, Scalar)
        assert obj.dtype == before["dtype"]
        assert obj._has == before["has"]
        assert obj._value == before["value"] or (
            obj._value is None and before["value"] is None
        )
    else:  # pragma: no cover - defensive
        raise AssertionError(before["kind"])
