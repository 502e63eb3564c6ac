"""The overview kernel against the block reduction it replaced.

``_reshape_oracle`` is the earlier 6-D reshape formula of
``pipelines.pyramid._downsample2``, kept here verbatim as the oracle.
Every comparison is bitwise (floats through ``.view``), so archives
built by either kernel are byte-identical.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mapchete_xarray_ray.pipelines.pyramid import _clip_to_dtype, _downsample2


def _reshape_oracle(arr: np.ndarray, how: str = "sum", nodata=0) -> np.ndarray:
    *lead, h, w = arr.shape
    acc_dtype = np.float64 if np.issubdtype(arr.dtype, np.floating) else np.int64
    r = arr.reshape(*lead, h // 2, 2, w // 2, 2).astype(acc_dtype)
    nd = r == nodata
    all_nd = nd.all(axis=(-3, -1))
    if how == "sum":
        out = np.where(nd, 0, r).sum(axis=(-3, -1))
    elif how == "max":
        lowest = np.finfo(acc_dtype).min if acc_dtype is np.float64 \
            else np.iinfo(np.int64).min
        out = np.where(nd, lowest, r).max(axis=(-3, -1))
    else:
        raise ValueError(how)
    out[all_nd] = nodata
    return out


def _oracle_clip(arr: np.ndarray, dtype) -> np.ndarray:
    dt = np.dtype(dtype)
    if np.issubdtype(dt, np.integer):
        info = np.iinfo(dt)
        arr = arr.clip(info.min, info.max)
    return arr.astype(dt)


def _assert_bitwise(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _random(dtype, shape, rng):
    dt = np.dtype(dtype)
    if np.issubdtype(dt, np.floating):
        return (rng.standard_normal(shape) * 1000).astype(dt)
    info = np.iinfo(dt)
    return rng.integers(info.min, info.max, shape, endpoint=True).astype(dt)


CASES = [
    (dtype, nodata)
    for dtype in ("uint8", "uint16", "uint32", "int16", "float32", "float64")
    for nodata in (0, 7 if dtype != "float32" else 7.25)
] + [("int16", -9999)]


@pytest.mark.parametrize("dtype,nodata", CASES)
@pytest.mark.parametrize("how", ["sum", "max"])
@pytest.mark.parametrize("shape", [(3, 32, 48), (2, 5, 16, 16)],
                         ids=["3d", "4d"])
@pytest.mark.parametrize("coverage", ["absent", "partial", "total"])
def test_quarters_match_reshape_bitwise(dtype, nodata, how, shape, coverage):
    rng = np.random.default_rng(zlib.crc32(repr((dtype, nodata, how, shape,
                                                 coverage)).encode()))
    arr = _random(dtype, shape, rng)
    if coverage == "absent":
        arr[arr == nodata] = nodata + 1
    elif coverage == "partial":
        arr[rng.random(shape) < 0.4] = nodata
        arr[..., :4, :6] = nodata            # whole blocks of nodata
        corner = arr[..., -4:, -6:]          # whole blocks of data
        corner[corner == nodata] = nodata + 1
    else:
        arr[...] = nodata
    # nodata children per parent pixel: 0..4
    n_nd = (arr == nodata).reshape(*shape[:-2], shape[-2] // 2, 2,
                                   shape[-1] // 2, 2).sum(axis=(-3, -1))
    if coverage == "absent":
        assert (n_nd == 0).all()
    elif coverage == "partial":
        assert {0, 1, 2, 3, 4} <= set(np.unique(n_nd).tolist())
    else:
        assert (n_nd == 4).all()

    want = _reshape_oracle(arr, how, nodata)
    got = _downsample2(arr, how, nodata)
    _assert_bitwise(got, want)
    out_dtype = dtype if how == "max" else (
        "float64" if np.dtype(dtype).kind == "f" else "uint32")
    _assert_bitwise(_clip_to_dtype(got, out_dtype),
                    _oracle_clip(want, out_dtype))


def test_integer_sum_overflows_source_dtype_exactly():
    arr = np.full((1, 4, 4), np.iinfo(np.uint32).max, dtype=np.uint32)
    arr[0, 0, 0] = 7
    got = _downsample2(arr, "sum", nodata=7)
    assert got.dtype == np.int64
    assert got[0, 0, 0] == 3 * int(np.iinfo(np.uint32).max)
    _assert_bitwise(got, _reshape_oracle(arr, "sum", 7))
    _assert_bitwise(_clip_to_dtype(got, "uint32"),
                    _oracle_clip(_reshape_oracle(arr, "sum", 7), "uint32"))


def test_unknown_reduction_rejected():
    with pytest.raises(ValueError):
        _downsample2(np.zeros((1, 2, 2), np.uint8), "mean")


@st.composite
def _windows(draw):
    dtype = draw(st.sampled_from(["uint8", "uint16", "uint32", "int16",
                                  "float32", "float64"]))
    nodata = draw(st.sampled_from([0, 3] + ([-2] if dtype == "int16" else [])))
    lead = draw(st.sampled_from([(1,), (3,), (2, 1), (2, 3)]))
    # a window is two output tiles wide, so at least 4 px for any tile
    # of 2 px or more; at exactly 2 px numpy merges the two reduced
    # axes into one run and sums the children in another order
    h, w = 2 * draw(st.integers(1, 6)), 2 * draw(st.integers(2, 6))
    dt = np.dtype(dtype)
    if dt.kind == "f":
        # finite values, no -0.0: the reductions agree on those bitwise
        values = st.floats(-1e6, 1e6, width=dt.itemsize * 8,
                           allow_nan=False, allow_infinity=False).map(
                               lambda x: x + 0.0)
    else:
        info = np.iinfo(dt)
        values = st.integers(int(info.min), int(info.max))
    values = st.one_of(st.just(nodata), values)
    arr = draw(hnp.arrays(dt, (*lead, h, w), elements=values))
    return arr, nodata


@settings(max_examples=300, deadline=None)
@given(_windows(), st.sampled_from(["sum", "max"]))
def test_quarters_match_reshape_property(window, how):
    arr, nodata = window
    _assert_bitwise(_downsample2(arr, how, nodata),
                    _reshape_oracle(arr, how, nodata))
