"""Zarr-layout store conformance (FIXTURES.md F4, mirrors reference
tests/test_zarr_creation.py + test_driver.py storage assertions)."""

import json
import os
import zlib

import numpy as np
import pytest

from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
from mapchete_xarray_ray.spec import JobSpec, JobSpecError

BOUNDS_3D = (-180.0, 45.0, -135.0, 90.0)


def make_spec(tmp_path, time=None, **kw):
    return JobSpec(
        path=str(tmp_path / "out.zarr"),
        zoom=5,
        bounds=BOUNDS_3D,
        bands=kw.pop("bands", 3),
        dtype=kw.pop("dtype", "uint8"),
        time=time,
        **kw,
    )


TIME = {"start": "2022-06-01", "end": "2022-06-11",
        "steps": ["2022-06-01", "2022-06-04", "2022-06-06", "2022-06-09", "2022-06-11"]}


def test_initialize_layout_3d(tmp_path):
    spec = make_spec(tmp_path)
    store = ZarrTileStore(spec)
    store.initialize()
    p = spec.path
    # required members (test_zarr_creation.py:12-45)
    for member in [".zgroup", ".zattrs", ".zmetadata", "X", "Y", "Band1", "Band2", "Band3"]:
        assert os.path.exists(os.path.join(p, member)), member
    za = json.load(open(os.path.join(p, "Band1", ".zarray")))
    assert za["shape"] == [2048, 2048]          # test_zarr_creation.py:46-51
    assert za["chunks"] == [256, 256]
    assert za["dtype"] == "|u1"
    attrs = json.load(open(os.path.join(p, "Band1", ".zattrs")))
    assert attrs["_ARRAY_DIMENSIONS"] == ["Y", "X"]
    assert "wkt" in attrs["_CRS"]
    assert attrs["AREA_OR_POINT"] == "Area"
    # global metadata round-trip (test_zarr_creation.py:122-134)
    g = json.load(open(os.path.join(p, ".zattrs")))
    assert "pyramid" in g["mapchete"] and "driver" in g["mapchete"]
    # coord values strictly inside bounds (test_zarr_creation.py:52-57)
    za_x = json.load(open(os.path.join(p, "X", ".zarray")))
    comp = za_x["compressor"]
    buf = open(os.path.join(p, "X", "0"), "rb").read()
    if comp:
        buf = zlib.decompress(buf)
    x = np.frombuffer(buf, dtype="<f8")
    assert x.min() > -180 and x.max() < -135
    assert len(x) == 2048
    assert x[0] == -180 + 0.02197265625 / 2


def test_initialize_layout_4d(tmp_path):
    spec = make_spec(tmp_path, time=dict(TIME, chunksize=10))
    store = ZarrTileStore(spec)
    store.initialize()
    za = json.load(open(os.path.join(spec.path, "Band1", ".zarray")))
    assert za["shape"] == [5, 2048, 2048]
    # configured chunksize even though n_time < chunksize: zarr
    # edge-chunk convention, matching the reference s2_stack.zarr layout
    # (shape [5,...] with chunks [8,...])
    assert za["chunks"] == [10, 256, 256]
    t_attrs = json.load(open(os.path.join(spec.path, "time", ".zattrs")))
    assert t_attrs["units"] == "days since 2022-06-01"
    assert t_attrs["calendar"] == "proleptic_gregorian"
    buf = zlib.decompress(open(os.path.join(spec.path, "time", "0"), "rb").read())
    np.testing.assert_array_equal(np.frombuffer(buf, "<i8"), [0, 3, 5, 8, 10])


def test_time_coord_subdaily_units(tmp_path):
    # an hourly pattern must NOT encode as 'days since' (offsets would
    # all truncate to 0 for any standard zarr/xarray consumer)
    spec = make_spec(tmp_path, time={
        "start": "2022-06-01", "end": "2022-06-01T05:00:00",
        "pattern": "0 * * * *"})
    store = ZarrTileStore(spec)
    store.initialize()
    t_attrs = json.load(open(os.path.join(spec.path, "time", ".zattrs")))
    assert t_attrs["units"] == "hours since 2022-06-01 00:00:00"
    buf = zlib.decompress(open(os.path.join(spec.path, "time", "0"), "rb").read())
    np.testing.assert_array_equal(np.frombuffer(buf, "<i8"), [0, 1, 2, 3, 4, 5])


def test_reference_shaped_trailing_chunk_decodes(tmp_path):
    # a chunk file padded to the configured time chunksize (what the
    # reference writes for shape [5,...] chunks [8,...]) must decode
    spec = make_spec(tmp_path, time=dict(TIME, chunksize=8), dtype="uint16")
    store = ZarrTileStore(spec)
    store.prepare()
    rng = np.random.default_rng(7)
    data = rng.integers(0, 500, (3, 5, 256, 256), dtype=np.uint16)
    ts = np.array(TIME["steps"], dtype="datetime64[us]")
    store.write_tile(1, 1, data, timestamps=ts)
    import glob
    (f,) = glob.glob(os.path.join(spec.path, "Band1", "0.1.1"))
    raw = zlib.decompress(open(f, "rb").read())
    # on-disk chunk holds 8 padded slices, not 5
    assert len(raw) == 8 * 256 * 256 * 2
    got = store.read_tile(1, 1)
    np.testing.assert_array_equal(got, data)


def test_write_read_roundtrip_3d(tmp_path):
    spec = make_spec(tmp_path, dtype="uint16")
    store = ZarrTileStore(spec)
    store.prepare()
    rng = np.random.default_rng(1)
    data = rng.integers(0, 1000, (3, 256, 256), dtype=np.uint16)
    assert store.write_tile(2, 3, data) == 3
    got = store.read_tile(2, 3)
    np.testing.assert_array_equal(got, data)
    # unwritten tile reads back all-nodata (test_driver.py:39-46)
    empty = store.read_tile(4, 4)
    assert (empty == spec.nodata).all()
    # band select by index / by name (test_driver.py:137-150)
    sel = store.read_tile(2, 3, bands=store.resolve_bands([0, 2]))
    np.testing.assert_array_equal(sel, data[[0, 2]])
    sel = store.read_tile(2, 3, bands=store.resolve_bands(["Band2"]))
    np.testing.assert_array_equal(sel[0], data[1])


def test_write_read_roundtrip_4d_time_select(tmp_path):
    spec = make_spec(tmp_path, time=dict(TIME), dtype="uint16")
    store = ZarrTileStore(spec)
    store.prepare()
    rng = np.random.default_rng(2)
    # write three of the five timestamps
    ts = np.array(["2022-06-01", "2022-06-06", "2022-06-11"], dtype="datetime64[us]")
    data = rng.integers(0, 500, (3, 3, 256, 256), dtype=np.uint16)
    store.write_tile(1, 1, data, timestamps=ts)
    # full read: 5 slices, unwritten ones nodata
    full = store.read_tile(1, 1)
    assert full.shape == (3, 5, 256, 256)
    np.testing.assert_array_equal(full[:, [0, 2, 4]], data)
    assert (full[:, [1, 3]] == 0).all()
    # time range select (test_driver.py:153-161 cardinality pattern)
    assert len(store.resolve_time(start_time="2022-06-05")) == 3
    assert len(store.resolve_time(start_time="2022-06-05", end_time="2022-06-09")) == 2
    assert len(store.resolve_time(end_time="2022-06-09")) == 4
    # explicit timestamps (test_driver.py:164-167)
    idx = store.resolve_time(timestamps=["2022-06-01", "2022-06-06"])
    got = store.read_tile(1, 1, time_idxs=idx)
    np.testing.assert_array_equal(got, data[:, [0, 1]])


def test_empty_write_is_noop(tmp_path):
    spec = make_spec(tmp_path)
    store = ZarrTileStore(spec)
    store.prepare()
    assert store.write_tile(0, 0, np.empty((3, 0, 0), dtype="uint8")) == 0
    assert not store.tile_exists(0, 0)


def test_prepare_validates_metadata_compat(tmp_path):
    spec = make_spec(tmp_path)
    ZarrTileStore(spec).prepare()
    # same spec: fine
    ZarrTileStore(make_spec(tmp_path)).prepare()
    # incompatible dtype: raises (reference _output.py:250-261)
    with pytest.raises(ValueError, match="incompatible"):
        ZarrTileStore(make_spec(tmp_path, dtype="uint16")).prepare()


def test_spec_validation_guards(tmp_path):
    # mirrors reference tests/test_driver.py:220-245
    with pytest.raises(JobSpecError, match="pixelbuffer"):
        JobSpec(path=str(tmp_path / "x.zarr"), zoom=5, bounds=BOUNDS_3D,
                bands=1, pixelbuffer=5)
    with pytest.raises(JobSpecError, match="must end with"):
        JobSpec(path=str(tmp_path / "x.tif"), zoom=5, bounds=BOUNDS_3D, bands=1)
    with pytest.raises(JobSpecError, match="single zoom"):
        JobSpec(path=str(tmp_path / "x.zarr"), zoom=[5, 6], bounds=BOUNDS_3D, bands=1)
    with pytest.raises(JobSpecError, match="pattern"):
        JobSpec(path=str(tmp_path / "x.zarr"), zoom=5, bounds=BOUNDS_3D, bands=1,
                time={"start": "2022-06-01", "end": "2022-06-02"})
    with pytest.raises(JobSpecError, match="band"):
        JobSpec(path=str(tmp_path / "x.zarr"), zoom=5, bounds=BOUNDS_3D)


def test_cron_pattern_expansion(tmp_path):
    spec = make_spec(tmp_path, time={"start": "2022-06-01", "end": "2022-06-05",
                                     "pattern": "0 0 * * *"})
    assert len(spec.timestamps) == 5
    assert str(spec.timestamps[0])[:10] == "2022-06-01"


def test_prepare_rejects_shifted_bounds(tmp_path):
    """A resumed job with different delimiters (bounds/zoom) must be
    rejected — otherwise chunks land at wrong addresses."""
    spec = make_spec(tmp_path)
    ZarrTileStore(spec).prepare()
    shifted = JobSpec(path=spec.path, zoom=5,
                      bounds=(-174.375, 45.0, -129.375, 90.0), bands=3)
    with pytest.raises(ValueError, match="delimiters"):
        ZarrTileStore(shifted).prepare()


def test_tile_exists_probes_all_time_chunks(tmp_path):
    """A tile whose only written slices live in a later time chunk must
    still report as existing (resume probe consistency)."""
    time = {"start": "2022-06-01", "end": "2022-06-11", "chunksize": 2,
            "steps": ["2022-06-01", "2022-06-04", "2022-06-06",
                      "2022-06-09", "2022-06-11"]}
    spec = make_spec(tmp_path, time=time, dtype="uint16")
    store = ZarrTileStore(spec)
    store.prepare()
    data = np.ones((3, 1, 256, 256), dtype=np.uint16)
    # timestamp index 4 -> time chunk 2 only; no "0.r.c" file exists
    store.write_tile(2, 2, data, timestamps=["2022-06-11"])
    assert store.tile_exists(2, 2)
    assert (2, 2) in store.existing_tiles()


def test_assume_fresh_deletes_untouched_time_chunks(tmp_path):
    """Repair semantics must cover the WHOLE tile: an assume_fresh
    rewrite whose slices touch only some time chunks deletes the
    others — stale/corrupt bytes at positions the new derivation does
    not cover must not survive (they would evade the audit, whose
    time_idxs re-read covers only the written slices, and make the
    diff/refresh loop non-convergent). The merge path (default) keeps
    them: incremental time-slice appends stay incremental."""
    time = {"start": "2022-06-01", "end": "2022-06-11", "chunksize": 2,
            "steps": ["2022-06-01", "2022-06-04", "2022-06-06",
                      "2022-06-09", "2022-06-11"]}
    spec = make_spec(tmp_path, time=time, dtype="uint16", bands=1)
    store = ZarrTileStore(spec)
    store.prepare()
    ts = np.array(time["steps"], dtype="datetime64[us]")
    full = np.full((1, 5, 256, 256), 7, dtype=np.uint16)
    store.write_tile(2, 2, full, timestamps=ts)
    band = spec.band_names[0]
    assert os.path.exists(os.path.join(spec.path, band, "0.2.2"))
    assert os.path.exists(os.path.join(spec.path, band, "2.2.2"))

    # merge rewrite of slice 0 only: later chunks untouched
    one = np.full((1, 1, 256, 256), 9, dtype=np.uint16)
    store.write_tile(2, 2, one, timestamps=ts[:1])
    assert os.path.exists(os.path.join(spec.path, band, "2.2.2"))

    # fresh rewrite of slice 0 only: chunks 1 and 2 are deleted and
    # their positions read back as fill
    store.write_tile(2, 2, one, timestamps=ts[:1], assume_fresh=True)
    assert not os.path.exists(os.path.join(spec.path, band, "1.2.2"))
    assert not os.path.exists(os.path.join(spec.path, band, "2.2.2"))
    back = store.read_tile(2, 2)
    assert back.shape == (1, 5, 256, 256)
    assert (back[0, 0] == 9).all()
    assert (back[0, 1:] == spec.nodata).all()


def test_write_tile_rejects_band_mismatch(tmp_path):
    spec = make_spec(tmp_path, bands=2)
    store = ZarrTileStore(spec)
    store.prepare()
    with pytest.raises(ValueError, match="2"):
        store.write_tile(0, 0, np.ones((3, 256, 256), dtype="uint8"))


def test_cron_expansion_general_patterns():
    """Full 5-field cron (croniter_range parity, _output.py:641-649)."""
    from datetime import datetime

    from mapchete_xarray_ray.spec import _expand_pattern

    s, e = datetime(2022, 1, 1), datetime(2022, 12, 31)
    monthly = _expand_pattern(s, e, "0 0 1 * *")
    assert len(monthly) == 12 and monthly[2] == datetime(2022, 3, 1)
    weekly = _expand_pattern(datetime(2022, 6, 1), datetime(2022, 6, 30),
                             "0 12 * * 1")
    assert [d.day for d in weekly] == [6, 13, 20, 27]  # Mondays
    lists = _expand_pattern(datetime(2022, 6, 1), datetime(2022, 6, 3),
                            "30 6,18 * * *")
    # end = Jun 3 00:00, so Jun 3's two fires fall outside the range
    assert len(lists) == 4 and lists[0] == datetime(2022, 6, 1, 6, 30)
    steps = _expand_pattern(datetime(2022, 6, 1), datetime(2022, 6, 2),
                            "*/20 0 * * *")
    assert len(steps) == 4  # 00:00/:20/:40 day1 + 00:00 day2
    # standard cron OR rule: dom AND dow both restricted -> either matches
    both = _expand_pattern(datetime(2022, 6, 1), datetime(2022, 6, 30),
                           "0 0 1 * 1")
    assert [d.day for d in both] == [1, 6, 13, 20, 27]


@pytest.mark.parametrize("pattern", [
    "not a cron",
    "0 0 32 * *",     # out of range
    "0 0 L * *",      # last day of month
    "0 0 15W * *",    # nearest weekday
    "0 0 * * 1#2",    # nth weekday
    "0 0 ? * *",      # no-specific-value
    "0 0 1 JAN *",    # month name
    "0 0 * * MON",    # day name
    "@daily",         # macro
])
def test_cron_rejects_unsupported_forms(pattern):
    """Forms outside the README's supported cron subset raise."""
    from datetime import datetime

    from mapchete_xarray_ray.spec import _expand_pattern

    with pytest.raises(JobSpecError, match="unsupported"):
        _expand_pattern(datetime(2022, 6, 1), datetime(2022, 6, 30), pattern)


def test_monthly_pattern_archive_reopen(tmp_path):
    """A monthly cron spec initializes, and the SAME pattern reopens the
    archive (metadata compat) while another pattern is rejected."""
    time = {"start": "2022-01-01", "end": "2022-06-30",
            "pattern": "0 0 1 * *", "chunksize": 4}
    spec = make_spec(tmp_path, time=dict(time))
    assert len(spec.timestamps) == 6
    ZarrTileStore(spec).prepare()
    ZarrTileStore(make_spec(tmp_path, time=dict(time))).prepare()  # reopen ok
    with pytest.raises(ValueError, match="incompatible"):
        ZarrTileStore(make_spec(
            tmp_path, time=dict(time, pattern="0 0 * * *"))).prepare()


def test_legacy_time_chunk_layout_decodes(tmp_path):
    """Archives written under the old min(n_time, chunksize) layout
    (pre-r2) must still decode: the store syncs its decode layout from
    the stored .zarray chunks, not from what it would write today."""
    spec = make_spec(tmp_path, time=dict(TIME, chunksize=10), dtype="uint16")
    store = ZarrTileStore(spec)
    store.prepare()
    rng = np.random.default_rng(11)
    data = rng.integers(0, 500, (3, 5, 256, 256), dtype=np.uint16)
    ts = np.array(TIME["steps"], dtype="datetime64[us]")
    store.write_tile(1, 1, data, timestamps=ts)
    # rewrite to the legacy layout: 5-slice chunks + matching .zarray
    for b in spec.band_names:
        zp = os.path.join(spec.path, b, ".zarray")
        za = json.load(open(zp))
        full = np.frombuffer(
            zlib.decompress(open(os.path.join(spec.path, b, "0.1.1"),
                                 "rb").read()),
            dtype="<u2").reshape(10, 256, 256)
        za["chunks"][0] = 5
        json.dump(za, open(zp, "w"))
        open(os.path.join(spec.path, b, "0.1.1"), "wb").write(
            zlib.compress(full[:5].tobytes(), 1))
    legacy = ZarrTileStore(make_spec(tmp_path, time=dict(TIME, chunksize=10),
                                     dtype="uint16"))
    got = legacy.read_tile(1, 1)
    np.testing.assert_array_equal(got, data)


def test_compression_configurable_and_decoded_from_metadata(tmp_path):
    """Compression breadth (reference tests/compression_tests.py:27-56
    sweeps blosc codecs; here the surface is the stdlib codecs every
    numcodecs reader decodes — raw / zlib / bz2 / lzma): the spec's
    ``compression`` field drives the per-band .zarray with the exact
    numcodecs config layout, chunk bytes decode with the stdlib
    counterpart, and a READER with a different spec setting still
    decodes correctly because the on-disk metadata wins."""
    import bz2 as _bz2
    import lzma as _lzma

    data = (np.arange(3 * 256 * 256, dtype=np.uint8)
            .reshape(3, 256, 256) % 251)
    cases = (
        (0, None, None, None),
        (9, ("zlib", 9), {"id": "zlib", "level": 9},
         zlib.decompress),
        ("bz2:5", ("bz2", 5), {"id": "bz2", "level": 5},
         _bz2.decompress),
        ("lzma", ("lzma", 1),
         {"id": "lzma", "format": _lzma.FORMAT_XZ, "check": -1,
          "preset": 1, "filters": None},
         _lzma.decompress),
    )
    for i, (setting, norm, codec, decomp) in enumerate(cases):
        spec = make_spec(tmp_path / f"c{i}", compression=setting)
        os.makedirs(tmp_path / f"c{i}")
        store = ZarrTileStore(spec)
        assert store.compressor == norm
        store.initialize()
        za = json.load(open(os.path.join(spec.path, "Band1", ".zarray")))
        assert za["compressor"] == codec
        store.write_tile(0, 0, data)
        raw = open(os.path.join(spec.path, "Band1", "0.0"), "rb").read()
        if decomp is None:
            assert raw == data[0].tobytes()
        else:
            assert decomp(raw) == data[0].tobytes()
        # reader configured the OTHER way decodes by archive metadata
        other = make_spec(tmp_path / f"c{i}",
                          compression="bz2:1" if norm else 0)
        back = ZarrTileStore(other).read_tile(0, 0)
        np.testing.assert_array_equal(back, data)


def test_compression_validation():
    for bad in (10, -1, "snappy", "zlib:17", "bz2:x", True):
        with pytest.raises(JobSpecError, match="compression|invalid"):
            JobSpec(path="/tmp/x.zarr", zoom=5,
                    bounds=(-180.0, -90.0, 180.0, 90.0),
                    bands=1, compression=bad)


def test_unknown_stored_compressor_fails_loud(tmp_path):
    """An archive written with a codec this engine can't decode (e.g.
    blosc from a reference-written store) raises at metadata sync
    instead of mis-decoding chunk bytes."""
    spec = make_spec(tmp_path, compression=1)
    store = ZarrTileStore(spec)
    store.initialize()
    zp = os.path.join(spec.path, "Band1", ".zarray")
    za = json.load(open(zp))
    za["compressor"] = {"id": "blosc", "cname": "zstd", "clevel": 3}
    json.dump(za, open(zp, "w"))
    with pytest.raises(ValueError, match="unsupported chunk compressor"):
        ZarrTileStore(make_spec(tmp_path)).read_tile(0, 0)
