"""E1 — the flagship pipeline: pages -> assign -> extract -> per-tile
rasterize -> zarr-layout tile archive (+ lineage), Ray-Data-first.

Shape (SURVEY.md §3 E1):

    read pages (parquet fragments / in-memory table)
    -> map_batches(assign)                   # lon/lat + tile_id/cell_id
    -> [continue mode] filter out done tiles # broadcast done-set
    -> map_batches(extract_stage)            # html->text, html dropped
    -> map_batches(compact)                  # NARROW the shuffle rows
    -> groupby(tile_id).map_groups(tile_writer)   # dedup+rasterize+commit
    -> Dataset of per-tile summaries

One tile = one group = one chunk file per band, so concurrent writers
never share a chunk (the reference's safe_chunks invariant,
_output.py:365-382). Exact url-dedup is free inside the group: the
geocode key IS the url, so all re-crawls of a url land in the same
tile group and are dropped there — no extra shuffle.

Scale decisions measured at 2-4M pages (see BASELINE.md):
- the compact stage precomputes band masks + the flat local pixel
  index so a shuffled row is (url, ts, 2 bools, tile_id, pix:int32) —
  the all-to-all never carries text/html/geo floats (2x end-to-end);
- block count into the groupby ~1.5-3x the CPU count (Ray's sort
  exchange cost is per-block; see run_pipeline's repartition_blocks);
- the done-tile set is a ray.put broadcast, computed once on the
  driver from the lineage records and chunk listings.

There is one physical plan and no tile salting: the geocode places
every page by a uniform hash of its url, so a host that dominates the
input makes no hot tile (kNN places points by their coordinates and
salts hot cells instead — stages/knn.py). The writer is the shared
:func:`~mapchete_xarray_ray.pipelines.commit.tile_writer`, which ends
every tile in ``finalize_tile``; this module only supplies the tile
builder (:func:`_tile_builder`).

A user ``process_fn(tile, pages, spec)`` (SURVEY §2.10) replaces the
default count-rasterize per tile; its return value is normalized per
the reference's output_cleaned (2-D/3-D/4-D numpy, "empty" sentinel).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from mapchete_xarray_ray.fixtures import DEFAULT_BOUNDS, DEFAULT_ZOOM, make_pages
from mapchete_xarray_ray.nputil import segments
from mapchete_xarray_ray.pipelines.commit import tile_writer
from mapchete_xarray_ray.spec import JobSpec, JobSpecError
from mapchete_xarray_ray.sinks.zarr import ZarrTileStore, _rmtree
from mapchete_xarray_ray.stages.assign import assign_pages_fn
from mapchete_xarray_ray.stages.rasterize import count_tensor, local_pixel_indices
from mapchete_xarray_ray.stages.text import extract_stage
from mapchete_xarray_ray.state.lineage import completed_tiles


def default_spec(out_path: str, time: dict | None = None, **kw) -> JobSpec:
    return JobSpec(
        path=out_path,
        zoom=kw.pop("zoom", DEFAULT_ZOOM),
        bounds=kw.pop("bounds", tuple(DEFAULT_BOUNDS)),
        band_names=kw.pop("band_names", ["count", "count_en", "count_long"]),
        dtype=kw.pop("dtype", "uint16"),
        time=time,
        **kw,
    )


class TileContext:
    """The per-tile surface a user process sees (the reference's
    ``mp.tile`` BufferedTile: .id/.bounds/.shape — tests/conftest.py:38,
    tests/testdata/generate_array.py:26)."""

    def __init__(self, spec: JobSpec, zoom: int, row: int, col: int):
        self.zoom, self.row, self.col = zoom, row, col
        self.id = (zoom, row, col)
        tb = spec.pyramid.tile_bounds(zoom, row, col)
        self.bounds = (float(tb.left), float(tb.bottom),
                       float(tb.right), float(tb.top))
        self.shape = (spec.chunk_px, spec.chunk_px)


# metadata keys the reference's output_cleaned strips from Dataset
# returns before writing (_output.py:467-481): the archive's own
# attrs would clash with stale copies coming back from a process
_RESERVED_ATTRS = ("mapchete", "_FillValue", "AREA_OR_POINT", "_CRS", "attrs")


def output_cleaned(data, spec: JobSpec) -> np.ndarray:
    """Normalize a process return value (reference output_cleaned,
    _output.py:441-492, M1-M3): (bands,h,w) passes; (h,w) promotes to
    one band; with a time axis a 4-D array is interpreted as
    ``(time, bands, h, w)`` — time and band cardinalities must match
    the archive exactly (_output.py:420-430) — and transposed to
    band-first (_output.py:432); other types raise.

    A dict return is the engine's ``xr.Dataset`` analogue (no xarray in
    this stack): ``{band_name: (h, w) | (T, h, w) array}``. Reserved
    metadata keys (``mapchete``, ``_FillValue``, ``AREA_OR_POINT``,
    ``_CRS``, ``attrs``) are stripped exactly like the reference strips
    Dataset/DataArray attrs (_output.py:467-481); the remaining keys
    must equal the archive's band names and are stacked band-first.

    True xarray returns are accepted by DUCK TYPE (xarray isn't in
    this stack, so there is no import to gate on): any object with a
    ``.data_vars`` mapping (``xr.Dataset``) routes through the dict
    path with per-variable ``.values`` extracted, and any non-ndarray
    with ``.dims`` + ``.values`` (``xr.DataArray``) routes through the
    ndarray path — so a process written against the reference driver
    (_output.py:455-492) returns its Dataset/DataArray unchanged.
    """
    if hasattr(data, "data_vars"):  # xr.Dataset (or any lookalike)
        data = {str(k): np.asarray(getattr(v, "values", v))
                for k, v in dict(data.data_vars).items()}
    elif (not isinstance(data, (np.ndarray, dict))
          and hasattr(data, "dims") and hasattr(data, "values")):
        data = np.asarray(data.values)  # xr.DataArray
    if isinstance(data, dict):
        bands = {k: v for k, v in data.items() if k not in _RESERVED_ATTRS}
        if set(bands) != set(spec.band_names):
            raise ValueError(
                f"process output bands {sorted(bands)} do not match archive "
                f"band names {spec.band_names}"
            )
        stacked = np.stack([np.asarray(bands[b]) for b in spec.band_names])
        if stacked.ndim == 4:
            # dict values carried a (T, h, w) time axis -> already
            # band-first after the stack; route through the 4-D check
            # in (time, bands, h, w) order like an ndarray return
            return output_cleaned(np.transpose(stacked, (1, 0, 2, 3)), spec)
        return output_cleaned(stacked, spec)
    if not isinstance(data, np.ndarray):
        raise TypeError(
            f"process output must be a numpy array, a {{band: array}} dict "
            f"or 'empty', not {type(data)}"
        )
    if data.ndim == 2:
        data = data[None, ...]
    if data.ndim == 4:
        if spec.time is None:
            raise ValueError("4-D process output requires a time axis in the spec")
        slices, bands = data.shape[:2]
        if slices != len(spec.timestamps):
            raise ValueError(
                f"NumPy array ({slices} slices) does not fit into archive "
                f"on time axis ({len(spec.timestamps)} slices)."
            )
        if bands != len(spec.band_names):
            raise ValueError(
                f"NumPy array ({bands} bands) does not fit into archive "
                f"on band axis ({len(spec.band_names)} bands)."
            )
        return np.transpose(data, (1, 0, 2, 3)).astype(spec.dtype)
    if data.ndim != 3:
        raise ValueError(f"expected (bands, h, w) or (h, w), got {data.shape}")
    if data.shape[0] != len(spec.band_names):
        raise ValueError(
            f"process output has {data.shape[0]} bands, spec declares "
            f"{len(spec.band_names)}"
        )
    return data.astype(spec.dtype)


def _narrow_compact(spec: JobSpec):
    """The narrow shuffle projection (url, warc_ts, band masks,
    tile_id, pix) of the default process: the writer needs no
    string or geo work after the shuffle."""
    if len(spec.band_names) != 3:
        raise JobSpecError(
            "the default process writes exactly 3 bands (count, en count, "
            "long-text count); declare 3 band_names or pass a process_fn"
        )
    if not np.issubdtype(np.dtype(spec.dtype), np.integer):
        raise JobSpecError(
            f"the default process writes integer counts, not {spec.dtype!r}; "
            "declare an integer dtype or pass a process_fn"
        )

    def compact(batch: pa.Table) -> pa.Table:
        tl = pc.utf8_length(batch.column("text")).cast(pa.int64())
        iy, ix = local_pixel_indices(
            batch.column("lon").to_numpy(zero_copy_only=False),
            batch.column("lat").to_numpy(zero_copy_only=False),
            batch.column("tile_row").to_numpy(zero_copy_only=False),
            batch.column("tile_col").to_numpy(zero_copy_only=False),
            spec)
        return pa.table({
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "is_en": pc.equal(batch.column("lang"), "en"),
            "long_text": pc.greater_equal(tl, 80),
            "tile_id": batch.column("tile_id"),
            "pix": pa.array((iy * spec.chunk_px + ix).astype(np.int32)),
        })

    return compact


def _process_compact(spec: JobSpec):
    """Projection for user-process runs: keeps ``text`` (the documented
    hook contract gives the process the page content) plus geometry."""
    cols = ["url", "warc_ts", "lang", "text", "lon", "lat",
            "tile_row", "tile_col", "tile_id", "cell_id"]

    def compact(batch: pa.Table) -> pa.Table:
        tl = pc.utf8_length(batch.column("text")).cast(pa.int64())
        return batch.select(cols).append_column("text_len", tl)

    return compact


def _first_crawls(tbl: pa.Table) -> pa.Table:
    """Exact url dedup: the earliest crawl (by warc_ts) of each url.
    Every re-crawl of a url lands in the same tile group (the geocode
    key IS the url), so the dedup stays exact. Rows come back sorted
    by url."""
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("warc_ts", "ascending")]))
    order, starts, _ = segments(tbl.column("url").to_numpy(zero_copy_only=False))
    return tbl.take(order[starts])


def _tile_builder(spec: JobSpec, process_fn=None):
    """:func:`~mapchete_xarray_ray.pipelines.commit.tile_writer` builder:
    one tile's pages -> url dedup -> process (default: count rasterize)
    -> tensor. The default process counts (pages, English pages,
    long-text pages) per pixel, and on a time-axis archive per time
    slice present, labelled by the store's own time mapping.
    ``process_fn(tile, pages, spec)`` is the user-extension hook
    (SURVEY.md §2.10); returning "empty" skips the tile (no chunk
    written — reference tests/test_driver.py:39-46 semantics)."""

    def build(store: ZarrTileStore, row: int, col: int, rows: pa.Table):
        rows = _first_crawls(rows)
        if process_fn is not None:
            data = process_fn(TileContext(spec, spec.zoom, row, col), rows, spec)
            if isinstance(data, str) and data == "empty":
                return None
            return output_cleaned(data, spec), None, rows.num_rows
        # masks and flat pixel index were precomputed BEFORE the
        # shuffle (see _narrow_compact): no string/geo work here
        if store.has_time:
            ts, inv = np.unique(
                rows.column("warc_ts").to_numpy(zero_copy_only=False),
                return_inverse=True)
            tidx = np.asarray(store.time_indices(ts), dtype=np.int64)[inv]
        else:
            tidx = np.zeros(rows.num_rows, dtype=np.int64)
        weights = [np.ones(rows.num_rows, dtype=np.int64)] + [
            rows.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
            for c in ("is_en", "long_text")]
        tensor, present = count_tensor(
            rows.column("pix").to_numpy(zero_copy_only=False).astype(np.int64),
            tidx, weights, store.chunk_px, spec.dtype)
        if not store.has_time:
            return tensor[:, 0], None, rows.num_rows
        return tensor, spec.timestamps[present], rows.num_rows

    return build


def run_pipeline(ds: ray.data.Dataset, spec: JobSpec, mode: str = "continue",
                 process_fn=None,
                 repartition_blocks: int | None = None) -> ray.data.Dataset:
    """Run E1 over a pages Dataset. ``mode``: 'continue' (skip complete
    tiles — reference tests/test_driver.py:107-118 semantics) or
    'overwrite' (recompute all). ``process_fn``: optional user process
    (see processes/convert.py) applied per tile instead of the default
    count rasterize. ``repartition_blocks``: block count going into the
    groupby shuffle — None picks ~3x the cluster CPUs; pass 0 to skip
    (when the caller already sized blocks, e.g. via
    ``read_parquet(override_num_blocks=...)``, skipping avoids the
    repartition barrier entirely)."""
    # the default path precomputes everything the writer needs — band
    # masks as bools and the flat local pixel index — so a shuffled row
    # is (url, warc_ts, 2 bools, tile_id, pix:int32): measured 2x faster
    # end-to-end than shipping lon/lat/lang/text_len at 2M pages.
    compact = (_process_compact(spec) if process_fn is not None
               else _narrow_compact(spec))
    store = ZarrTileStore(spec)
    store.prepare()
    ds = ds.map_batches(
        assign_pages_fn(spec.snapped_bounds, spec.zoom, spec.grid, spec.cell_zoom,
                        pyramid=spec.pyramid),
        batch_format="pyarrow",
    )
    # a row's tile depends only on its url, so the rows of complete
    # tiles are dropped before any html is turned into text
    if mode == "continue":
        done = completed_tiles(store)
        if done:
            done_ref = ray.put(np.array(sorted(done), dtype=np.int64))

            def drop_done(batch: pa.Table) -> pa.Table:
                keep = ~np.isin(batch.column("tile_id").to_numpy(),
                                ray.get(done_ref))
                return batch.filter(pa.array(keep))

            ds = ds.map_batches(drop_done, batch_format="pyarrow")
    ds = ds.map_batches(extract_stage, batch_format="pyarrow")
    # project rows down BEFORE the shuffle (SURVEY.md §7 hard part 6):
    # text/html never enter the all-to-all exchange
    ds = ds.map_batches(compact, batch_format="pyarrow")

    # consolidate blocks before the groupby shuffle: the sort's cost is
    # dominated by per-block overhead (S blocks -> S^2 shuffle objects);
    # ~3 blocks per CPU keeps the sort parallel without drowning the
    # object store in tiny transfers (measured 40s -> 7s at 200k pages)
    if repartition_blocks is None:
        from mapchete_xarray_ray.scale import nblocks_for_cluster

        repartition_blocks = nblocks_for_cluster(3.0, lo=8)
    if repartition_blocks:
        ds = ds.repartition(repartition_blocks)

    return ds.groupby("tile_id").map_groups(
        tile_writer(spec, _tile_builder(spec, process_fn)),
        batch_format="pyarrow")


def run_flagship(sf_dir: str, out_path: str | None = None, n_pages: int = 2000,
                 mode: str = "overwrite") -> ray.data.Dataset:
    """Driver entry: deterministic pages table (input_hint shape) ->
    full E1 -> per-tile summary Dataset. ``sf_dir`` only scales n."""
    if out_path is None:
        out_path = f"/tmp/mxr_flagship_{os.getpid()}.zarr"
    if mode == "overwrite":
        _rmtree(out_path)
    pages = make_pages(n=n_pages)
    spec = default_spec(out_path)
    ds = ray.data.from_arrow(pages)
    return run_pipeline(ds, spec, mode="continue")
