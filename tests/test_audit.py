"""Lineage audit (CLI `verify`): re-derived crc32 vs lineage records.

Covers every verdict the audit can emit: clean archive all-ok,
deliberately corrupted chunk (checksum_mismatch for a valid-zlib
overwrite, unreadable for garbage bytes), record deleted
(missing_record), chunks deleted under a live record (missing_chunks),
a time-axis archive whose records carry ``time_idxs`` so partial
time writes re-verify exactly, and a legacy time-axis record without
``time_idxs`` (inconclusive ``legacy_unverifiable``, not corruption).
"""

import json
import os
import zlib

import numpy as np
import pyarrow as pa
import ray

from mapchete_xarray_ray import cli
from mapchete_xarray_ray.collect import collect_table
from mapchete_xarray_ray.fixtures import TIME_STEPS, make_pages
from mapchete_xarray_ray.pipelines.audit import audit_summary
from mapchete_xarray_ray.pipelines.flagship import default_spec, run_pipeline
from mapchete_xarray_ray.state.lineage import record_path


def _build(tmp_path, n=300, time=None):
    spec = default_spec(str(tmp_path / "out.zarr"), time=time)
    collect_table(run_pipeline(ray.data.from_arrow(make_pages(n=n)), spec))
    return spec


def test_audit_clean_archive_all_ok(tmp_path):
    spec = _build(tmp_path)
    res = audit_summary(spec.path)
    assert res["ok"] and res["bad"] == []
    assert res["counts"] == {"ok": res["tiles"]}
    assert res["tiles"] > 0


def _first_chunk(spec, band="count"):
    d = os.path.join(spec.path, band)
    fn = sorted(f for f in os.listdir(d) if not f.startswith("."))[0]
    return os.path.join(d, fn), fn


def test_audit_flags_corrupted_chunk(tmp_path):
    spec = _build(tmp_path)
    path, fn = _first_chunk(spec)
    row0, _r1, col0, _c1 = spec.tile_range()
    r, c = (int(x) for x in fn.split("."))
    victim = (r + row0, c + col0)

    # valid zlib stream, wrong data -> checksum_mismatch
    fake = np.ones(spec.chunk_px * spec.chunk_px, dtype=spec.dtype)
    open(path, "wb").write(zlib.compress(fake.tobytes(), 1))
    res = audit_summary(spec.path)
    assert not res["ok"]
    assert res["counts"]["checksum_mismatch"] == 1
    assert [victim[0], victim[1], "checksum_mismatch"] in res["bad"]

    # garbage bytes -> unreadable
    open(path, "wb").write(b"\x00garbage")
    res = audit_summary(spec.path)
    assert res["counts"]["unreadable"] == 1
    assert res["counts"].get("checksum_mismatch") is None


def test_audit_flags_missing_record_and_chunks(tmp_path):
    spec = _build(tmp_path)
    res0 = audit_summary(spec.path)
    tiles = [tuple(b) for b in res0["bad"]]
    assert tiles == []

    # drop one record -> missing_record (continue mode would recompute)
    recs = sorted(os.listdir(os.path.join(spec.path, "_lineage")))
    z, r, c = (int(x) for x in recs[0].removesuffix(".json").split("-"))
    os.unlink(record_path(spec.path, z, r, c))
    res = audit_summary(spec.path)
    assert res["counts"]["missing_record"] == 1

    # drop another tile's chunks entirely -> missing_chunks (continue
    # mode would SKIP it forever; only the audit catches this)
    z2, r2, c2 = (int(x) for x in recs[1].removesuffix(".json").split("-"))
    row0, _r1, col0, _c1 = spec.tile_range()
    for band in spec.band_names:
        p = os.path.join(spec.path, band, f"{r2 - row0}.{c2 - col0}")
        if os.path.exists(p):
            os.unlink(p)
    res = audit_summary(spec.path)
    assert res["counts"]["missing_chunks"] == 1
    assert [r2, c2, "missing_chunks"] in res["bad"]


def test_audit_time_axis_partial_writes(tmp_path):
    # tiles see only the timestamps of their own pages, so records
    # carry time_idxs subsets; the audit must re-read exactly those
    spec = _build(tmp_path, n=400,
                  time={"start": "2022-06-01", "end": "2022-06-11",
                        "steps": [str(t) for t in
                                  TIME_STEPS.astype("datetime64[D]")]})
    res = audit_summary(spec.path)
    assert res["ok"], res["bad"]
    assert res["tiles"] > 0


def test_audit_catches_corruption_on_full_coverage_time_records(tmp_path):
    # the process-hook 4-D path covers the FULL time coordinate and
    # records time_idxs accordingly, so real silent corruption reports
    # checksum_mismatch — not the inconclusive legacy_unverifiable
    TIME = {"start": "2022-06-01", "end": "2022-06-03",
            "steps": ["2022-06-01", "2022-06-02", "2022-06-03"]}

    def full_time_process(tile, pages, spec_):
        if pages.num_rows == 0:
            return "empty"
        base = np.full((len(spec_.band_names), 3,
                        spec_.chunk_px, spec_.chunk_px),
                       pages.num_rows % 251, dtype=spec_.dtype)
        return base

    spec = default_spec(str(tmp_path / "out.zarr"), time=TIME)
    collect_table(run_pipeline(ray.data.from_arrow(make_pages(n=300)),
                               spec, process_fn=full_time_process))
    res = audit_summary(spec.path)
    assert res["ok"], res["bad"]

    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore

    tc = ZarrTileStore(spec).time_chunk
    path, _fn = _first_chunk(spec)
    arr = np.zeros(tc * spec.chunk_px * spec.chunk_px, dtype=spec.dtype)
    arr[0] = 7  # valid zlib, wrong content: silent bit rot
    open(path, "wb").write(zlib.compress(arr.tobytes(), 1))
    res = audit_summary(spec.path)
    assert res["counts"]["checksum_mismatch"] == 1
    assert res["counts"].get("legacy_unverifiable") is None


def test_audit_legacy_time_record_is_inconclusive_not_corrupt(tmp_path):
    # a record that predates ``time_idxs`` (simulated by stripping the
    # key) whose checksum covers only the written slices CANNOT be
    # re-derived from a full-range read: the audit must say
    # ``legacy_unverifiable``, not ``checksum_mismatch`` — the chunk
    # bytes are healthy and must not be flagged for recompute
    spec = _build(tmp_path, n=400,
                  time={"start": "2022-06-01", "end": "2022-06-11",
                        "steps": [str(t) for t in
                                  TIME_STEPS.astype("datetime64[D]")]})
    n_steps = len(TIME_STEPS)
    victim = None
    for fn in sorted(os.listdir(os.path.join(spec.path, "_lineage"))):
        p = os.path.join(spec.path, "_lineage", fn)
        rec = json.load(open(p))
        if len(rec.get("time_idxs") or []) < n_steps:
            del rec["time_idxs"]
            json.dump(rec, open(p, "w"))
            z, r, c = (int(x) for x in fn.removesuffix(".json").split("-"))
            victim = (r, c)
            break
    assert victim is not None, "fixture produced no partial-time tile"
    res = audit_summary(spec.path)
    assert res["counts"]["legacy_unverifiable"] == 1
    assert res["counts"].get("checksum_mismatch") is None
    assert [victim[0], victim[1], "legacy_unverifiable"] in res["bad"]


def test_corrupt_bz2_chunk_is_unreadable_and_changed(tmp_path):
    # bz2 reports garbage as a plain OSError; the store maps every
    # codec's decode failure to one ChunkDecodeError, so a corrupt bz2
    # chunk is one bad tile, not a failed audit or diff
    import shutil

    from mapchete_xarray_ray.pipelines.diff import archive_diff_ds

    spec = default_spec(str(tmp_path / "out.zarr"), compression="bz2")
    collect_table(run_pipeline(ray.data.from_arrow(make_pages(n=200)), spec))
    prev = str(tmp_path / "prev.zarr")
    shutil.copytree(spec.path, prev)
    path, fn = _first_chunk(spec)
    row0, _r1, col0, _c1 = spec.tile_range()
    r, c = (int(x) for x in fn.split("."))
    victim = [r + row0, c + col0]
    open(path, "wb").write(b"\x00garbage")

    res = audit_summary(spec.path)
    assert res["counts"]["unreadable"] == 1
    assert res["bad"] == [victim + ["unreadable"]]
    diff = collect_table(archive_diff_ds(spec.path, prev))
    changed = [[r_, c_] for r_, c_, ch in zip(
        *(diff.column(k).to_pylist() for k in ("tile_row", "tile_col",
                                               "changed"))) if ch]
    assert changed == [victim]


def test_cli_verify(tmp_path, capsys):
    spec = _build(tmp_path, n=200)
    cli.main(["verify", spec.path])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["ok"] and out["tiles"] > 0
