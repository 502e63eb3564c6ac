"""Zarr-v2-layout tile archive: pure stdlib + numpy, no zarr/xarray dep.

Reimplements the reference output driver's storage contract
(mapchete_xarray/_output.py:594-710 ``initialize_zarr``, :250-279
``prepare``, :353-390 ``write``, :281-328 ``tiles_exist``) from the
layout spec visible in the reference fixtures
(tests/testdata/s2_stack.zarr/.zmetadata) and the zarr v2 format spec:

- one archive per job over the snapped process bounds at ONE zoom;
- per band a 2-D ``(H, W)`` or 3-D ``(T, H, W)`` array dir named
  ``Band1..N`` (or custom), chunked ``([time_chunk,] tile_px, tile_px)``
  with ``tile_px = tile_size * metatiling`` — chunk == tile, so one
  writer task owns each chunk file and concurrent writers never touch
  the same chunk (the reference's ``safe_chunks=True`` invariant);
- coordinate arrays ``X``/``Y`` = pixel centers (_output.py:619-620),
  optional ``time`` encoded int64 "<unit> since <start>" (coarsest
  exact CF unit) with
  proleptic_gregorian calendar (fixture time/.zattrs);
- per-array attrs ``_ARRAY_DIMENSIONS``, ``_CRS {wkt}``,
  ``AREA_OR_POINT`` (_output.py:697-700); global ``mapchete`` job
  metadata (_output.py:702-704); consolidated ``.zmetadata``.

Storage backend: every archive byte goes through the path's fsspec
filesystem (``fsspec.core.url_to_fs``: ``LocalFileSystem`` for plain
paths and file://, s3fs for s3://, memory:// in tests), one body per
``_put_bytes``/``_get_bytes``/``_delete_bytes``/``_listdir`` helper —
the reference's single ``MPath`` -> ``FSStore`` route (_output.py:253,
377,681,689). Chunk and metadata writes stage a ``.tmp-`` sibling and
move it into place, so a killed task never leaves a torn chunk and the
resume probe (chunk existence, like the reference's ``tiles_exist``)
stays truthful. A missing object is an exception caught by the reader,
not an existence probe issued before every GET and DELETE (tested
against memory:// and file:// in tests/test_remote_store.py; the
reference tests the same contract against S3, tests/conftest.py:11-20).
"""

from __future__ import annotations

import bz2
import json
import lzma
import math
import os
import zlib

import numpy as np

from mapchete_xarray_ray.spec import JobSpec, parse_compression

WKT_4326 = (
    'GEOGCS["WGS 84",DATUM["WGS_1984",SPHEROID["WGS 84",6378137,298.257223563,'
    'AUTHORITY["EPSG","7030"]],AUTHORITY["EPSG","6326"]],PRIMEM["Greenwich",0,'
    'AUTHORITY["EPSG","8901"]],UNIT["degree",0.0174532925199433,'
    'AUTHORITY["EPSG","9122"]],AUTHORITY["EPSG","4326"]]'
)
WKT_3857 = (
    'PROJCS["WGS 84 / Pseudo-Mercator",GEOGCS["WGS 84",DATUM["WGS_1984",'
    'SPHEROID["WGS 84",6378137,298.257223563]],PRIMEM["Greenwich",0],'
    'UNIT["degree",0.0174532925199433]],PROJECTION["Mercator_1SP"],'
    'UNIT["metre",1],AUTHORITY["EPSG","3857"]]'
)


def _fs(path: str):
    import fsspec

    return fsspec.core.url_to_fs(str(path))[0]


def _put_bytes(path: str, data: bytes) -> None:
    """Atomic write — readers must NEVER see a torn object. Ray Data
    re-executes lazy plans for schema/limit probes and CANCELS the
    in-flight tasks once the probe is satisfied; a writer stage killed
    mid-write through a plain ``fs.open(path, "wb")`` leaves an
    empty/truncated chunk in place of a good one (observed: zlib
    "truncated stream" / lineage JSONDecodeError). So every backend
    writes a ``.tmp-`` sibling and then moves it onto ``path``: a
    rename on local disk, a server-side copy on object stores (where a
    single PUT is already object-atomic but s3 multipart is not).
    Stale ``.tmp-`` leftovers from killed tasks are ignored by
    ``_listdir``."""
    fs = _fs(path)
    fs.makedirs(path.rsplit("/", 1)[0], exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
    try:
        with fs.open(tmp, "wb") as f:
            f.write(data)
        fs.mv(tmp, path)
    except BaseException:
        try:
            fs.rm(tmp)
        except OSError:
            pass
        raise


def _get_bytes(path: str) -> bytes | None:
    """Read a file/object; None if it does not exist (one GET, no
    existence probe first)."""
    try:
        with _fs(path).open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def _exists(path: str) -> bool:
    return _fs(path).exists(path)


def _delete_bytes(path: str) -> None:
    """Remove a file/object if present: idempotent, one DELETE and no
    existence probe."""
    try:
        _fs(path).rm(path)
    except FileNotFoundError:
        pass


def _listdir(path: str) -> list[str]:
    """Base names under a directory/prefix; [] if absent. ``.tmp-``
    in-flight/stale atomic-write siblings (see _put_bytes) are never
    part of the archive and are filtered here so metadata/lineage
    consumers don't try to parse them."""
    try:
        paths = _fs(path).ls(path, detail=False)
    except FileNotFoundError:
        return []
    names = (p.rstrip("/").rsplit("/", 1)[-1] for p in paths)
    return [n for n in names if ".tmp-" not in n]


def _makedirs(path: str) -> None:
    _fs(path).makedirs(path, exist_ok=True)


def _rmtree(path: str) -> None:
    try:
        _fs(path).rm(path, recursive=True)
    except FileNotFoundError:
        pass


def _put_json(path: str, obj) -> None:
    _put_bytes(path, json.dumps(obj, indent=1, sort_keys=True).encode())


def _compressor_config(compressor: tuple[str, int] | None):
    """Normalized (codec, level) -> the numcodecs config stored in
    ``.zarray`` — the exact field layout numcodecs itself writes, so
    any standard zarr v2 reader decodes these archives."""
    if compressor is None:
        return None
    codec, level = compressor
    if codec == "lzma":
        return {"id": "lzma", "format": lzma.FORMAT_XZ, "check": -1,
                "preset": level, "filters": None}
    return {"id": codec, "level": level}


def _parse_stored_compressor(cfg) -> tuple[str, int] | None:
    """The inverse: an archive's ``.zarray`` compressor config -> the
    normalized (codec, level). Unknown codecs (e.g. a blosc-written
    archive) fail loud rather than mis-decode."""
    if cfg is None:
        return None
    cid = cfg.get("id")
    if cid in ("zlib", "bz2"):
        return (cid, int(cfg.get("level", 1)))
    if cid == "lzma":
        if cfg.get("format", lzma.FORMAT_XZ) != lzma.FORMAT_XZ or cfg.get("filters"):
            raise ValueError(
                f"unsupported lzma chunk-compressor config: {cfg!r}")
        preset = cfg.get("preset")
        return ("lzma", 1 if preset is None else int(preset))
    raise ValueError(
        f"archive uses unsupported chunk compressor {cid!r} "
        f"(supported: zlib/bz2/lzma/raw)")


def _zarray_meta(shape, chunks, dtype, fill_value, compressor):
    dt = np.dtype(dtype)
    return {
        "zarr_format": 2,
        "shape": list(shape),
        "chunks": list(chunks),
        "dtype": dt.str,
        "fill_value": fill_value,
        "order": "C",
        "filters": None,
        "compressor": _compressor_config(compressor),
    }


def _encode_chunk(arr: np.ndarray, compressor: tuple[str, int] | None) -> bytes:
    raw = np.ascontiguousarray(arr).tobytes()
    if compressor is None:
        return raw
    codec, level = compressor
    if codec == "zlib":
        return zlib.compress(raw, level)
    if codec == "bz2":
        return bz2.compress(raw, level)
    return lzma.compress(raw, format=lzma.FORMAT_XZ, preset=level)


def load_consolidated(path: str) -> dict | None:
    """The zarr v2 consolidated ``.zmetadata`` blob (the reference
    always opens with ``consolidated=True``, _input.py:55,147 /
    _output.py:102): one GET holding every metadata key. Returns the
    key -> parsed-object map, or ``None`` when absent OR unparseable —
    a torn ``.zmetadata`` from a non-atomic writer must degrade to the
    per-key files, not fail the open."""
    buf = _get_bytes(os.path.join(path, ".zmetadata"))
    if buf is None:
        return None
    try:
        doc = json.loads(buf)
    except ValueError:
        return None
    meta = doc.get("metadata") if isinstance(doc, dict) else None
    return meta if isinstance(meta, dict) else None


def read_meta_json(path: str, key: str,
                   consolidated: dict | None = None):
    """Metadata lookup with ONE coherent policy repo-wide: the PER-KEY
    file is authoritative (a tool editing an archive in place need not
    re-consolidate — stale ``.zmetadata`` must never override it), and
    the consolidated map serves archives where the per-key file is
    absent. Returns the parsed JSON object or ``None``."""
    buf = _get_bytes(os.path.join(path, key))
    if buf is not None:
        return json.loads(buf)
    if consolidated is not None:
        return consolidated.get(key)
    return None


class ChunkDecodeError(ValueError):
    """A chunk's bytes do not decode into its declared shape (truncated
    write, bit rot, foreign garbage). The one type every codec's decode
    failure maps to, so callers split "divergent chunk" from transient
    I/O errors with one ``except`` on every codec."""


def _decode_chunk(buf: bytes, shape, dtype,
                  compressor: tuple[str, int] | None) -> np.ndarray:
    # only in-memory work happens here, so every error below is a decode
    # error (bz2 reports garbage as a plain OSError)
    try:
        if compressor is not None:
            codec = compressor[0]
            if codec == "zlib":
                buf = zlib.decompress(buf)
            elif codec == "bz2":
                buf = bz2.decompress(buf)
            else:
                buf = lzma.decompress(buf, format=lzma.FORMAT_XZ)
        return np.frombuffer(buf, dtype=dtype).reshape(shape)
    except (ValueError, OSError, EOFError, zlib.error, lzma.LZMAError) as ex:
        raise ChunkDecodeError(f"chunk does not decode: {ex!r}") from ex


class ZarrTileStore:
    """Open/create a zarr-layout tile archive for a :class:`JobSpec`."""

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.path = str(spec.path)
        # write-time encoding for NEW archives: the spec's compression
        # field; an EXISTING archive's on-disk .zarray always wins
        # (synced before any read/write). Held normalized as
        # (codec, level) | None — see parse_compression.
        self.compressor = parse_compression(spec.compression)
        b = spec.snapped_bounds
        self.height, self.width = spec.shape
        self.chunk_px = spec.chunk_px
        self.n_chunk_rows = math.ceil(self.height / self.chunk_px)
        self.n_chunk_cols = math.ceil(self.width / self.chunk_px)
        self.px_x = (b.right - b.left) / self.width
        self.px_y = (b.top - b.bottom) / self.height
        self.has_time = spec.time is not None
        self.n_time = len(spec.timestamps) if self.has_time else 0
        # zarr edge-chunk convention: chunks keep the CONFIGURED size
        # even when n_time < chunksize (trailing chunk padded on disk) —
        # matches the reference layout (s2_stack.zarr: shape [5,...],
        # chunks [8,...]), so reference-written chunk files decode here
        self.time_chunk = spec.time_chunksize if self.has_time else 0
        # time coordinate -> position (first one on duplicate steps)
        self._time_pos = ({t: i for i, t in reversed(list(enumerate(
            spec.timestamps.tolist())))} if self.has_time else {})
        self._layout_synced = False
        self._cmeta: dict | None = None
        self._cmeta_loaded = False

    def _meta_json(self, key: str):
        """Archive metadata lookup: per-key file first (authoritative —
        see read_meta_json), then the consolidated map, loaded lazily
        at most once per store so consolidated-only archives cost one
        extra GET total, not one per key."""
        buf = _get_bytes(os.path.join(self.path, key))
        if buf is not None:
            return json.loads(buf)
        if not self._cmeta_loaded:
            self._cmeta_loaded = True
            self._cmeta = load_consolidated(self.path)
        return None if self._cmeta is None else self._cmeta.get(key)

    def _sync_time_chunk(self) -> None:
        """Align the decode layout with the STORED ``.zarray``: an
        existing archive written under another time-chunk layout (e.g.
        the pre-r2 min(n_time, chunksize) convention) or another
        compressor (e.g. raw bench archives) must be decoded by its
        on-disk metadata, not by what the spec would write today. One
        metadata read, cached."""
        if self._layout_synced:
            return
        self._layout_synced = True
        meta = self._meta_json(f"{self.spec.band_names[0]}/.zarray")
        if meta is not None:
            chunks = meta.get("chunks")
            if (self.has_time and chunks and len(chunks) == 3
                    and int(chunks[0]) > 0):
                self.time_chunk = int(chunks[0])
            self.compressor = _parse_stored_compressor(
                meta.get("compressor"))

    # --- S1: initialize --------------------------------------------------
    def initialize(self) -> None:
        """Create the empty archive (mirrors _output.py:594-710); rolls
        back partial output on failure."""
        if _exists(self.path):
            raise IOError(
                f"cannot initialize zarr storage as path already exists: {self.path}"
            )
        spec, b = self.spec, self.spec.snapped_bounds
        try:
            _makedirs(self.path)
            _put_json(os.path.join(self.path, ".zgroup"), {"zarr_format": 2})
            global_attrs = {"mapchete": spec.metadata()}
            _put_json(os.path.join(self.path, ".zattrs"), global_attrs)

            consolidated = {".zgroup": {"zarr_format": 2}, ".zattrs": global_attrs}
            wkt = WKT_4326 if spec.grid == "geodetic" else WKT_3857

            # pixel-center coordinate arrays (_output.py:616-620)
            coord_x = b.left + self.px_x / 2 + np.arange(self.width) * self.px_x
            coord_y = b.top - self.px_y / 2 - np.arange(self.height) * self.px_y
            self._write_coord(spec.x_axis_name, coord_x, consolidated)
            self._write_coord(spec.y_axis_name, coord_y, consolidated)

            axis_names = [spec.y_axis_name, spec.x_axis_name]
            if self.has_time:
                axis_names = [spec.time_axis_name] + axis_names
                self._write_time_coord(consolidated)

            band_shape = (self.height, self.width)
            band_chunks = (self.chunk_px, self.chunk_px)
            if self.has_time:
                band_shape = (self.n_time, *band_shape)
                band_chunks = (self.time_chunk, self.chunk_px, self.chunk_px)
            for band in spec.band_names:
                zarray = _zarray_meta(band_shape, band_chunks, spec.dtype,
                                      spec.nodata, self.compressor)
                zattrs = {
                    "_ARRAY_DIMENSIONS": axis_names,
                    "_CRS": {"wkt": wkt},
                    "AREA_OR_POINT": spec.area_or_point,
                }
                _put_json(os.path.join(self.path, band, ".zarray"), zarray)
                _put_json(os.path.join(self.path, band, ".zattrs"), zattrs)
                consolidated[f"{band}/.zarray"] = zarray
                consolidated[f"{band}/.zattrs"] = zattrs

            _put_json(os.path.join(self.path, ".zmetadata"),
                      {"zarr_consolidated_format": 1, "metadata": consolidated})
            # the archive's metadata just changed under us — drop any
            # cached (possibly absent) consolidated map
            self._cmeta_loaded = False
        except BaseException:
            # cleanup leftovers (reference _output.py:707-710)
            _rmtree(self.path)
            raise

    def _write_coord(self, name: str, values: np.ndarray, consolidated: dict):
        values = values.astype("<f8")
        zarray = _zarray_meta((len(values),), (max(len(values), 1),), "<f8",
                              None, self.compressor)
        zattrs = {"_ARRAY_DIMENSIONS": [name]}
        _put_json(os.path.join(self.path, name, ".zarray"), zarray)
        _put_json(os.path.join(self.path, name, ".zattrs"), zattrs)
        _put_bytes(os.path.join(self.path, name, "0"),
                   _encode_chunk(values, self.compressor))
        consolidated[f"{name}/.zarray"] = zarray
        consolidated[f"{name}/.zattrs"] = zattrs

    def _write_time_coord(self, consolidated: dict):
        spec = self.spec
        ts = spec.timestamps
        start = ts[0]
        # pick the coarsest CF unit that represents every offset exactly
        # (an hourly pattern encoded as 'days since' would truncate all
        # offsets to 0 — any non-mapchete zarr/xarray consumer of the
        # archive would see duplicate timestamps)
        us = (ts - start).astype("timedelta64[us]").astype("<i8")
        for unit, div in (("days", 86_400_000_000), ("hours", 3_600_000_000),
                          ("seconds", 1_000_000), ("microseconds", 1)):
            if (us % div == 0).all():
                break
        vals = (us // div).astype("<i8")
        # the BASE must carry start's full precision too: a day-unit
        # archive starting at 12:00, or a second-unit one starting at
        # .5 s, decodes shifted if the base string truncates
        start_us = start.astype("datetime64[us]").astype("<i8")
        if unit == "days" and start_us % 86_400_000_000 == 0:
            start_str = np.datetime_as_string(start, unit="D")
        elif start_us % 1_000_000 == 0:
            start_str = np.datetime_as_string(start, unit="s").replace("T", " ")
        else:
            start_str = np.datetime_as_string(start, unit="us").replace("T", " ")
        zarray = _zarray_meta((len(ts),), (len(ts),), "<i8", None, self.compressor)
        zattrs = {
            "_ARRAY_DIMENSIONS": [spec.time_axis_name],
            "units": f"{unit} since {start_str}",
            "calendar": "proleptic_gregorian",
        }
        name = spec.time_axis_name
        _put_json(os.path.join(self.path, name, ".zarray"), zarray)
        _put_json(os.path.join(self.path, name, ".zattrs"), zattrs)
        _put_bytes(os.path.join(self.path, name, "0"),
                   _encode_chunk(vals, self.compressor))
        consolidated[f"{name}/.zarray"] = zarray
        consolidated[f"{name}/.zattrs"] = zattrs

    # --- S2: prepare (open-or-create + metadata compat) ------------------
    def prepare(self) -> None:
        if _exists(self.path):
            attrs = self._meta_json(".zattrs")
            if attrs is None:
                raise TypeError(
                    f"zarr archive at {self.path} exists but does not hold "
                    "mapchete metadata"
                )
            stored = attrs.get("mapchete")
            if stored is None:
                raise TypeError(
                    f"zarr archive at {self.path} exists but does not hold "
                    "mapchete metadata"
                )
            current = json.loads(json.dumps(self.spec.metadata()))
            # delimiters matter as much as driver params: a resumed job
            # with shifted bounds or another zoom would write chunks whose
            # addresses don't match the stored coordinate arrays
            for section in ("driver", "pyramid", "delimiters"):
                if stored.get(section) != current.get(section):
                    raise ValueError(
                        f"existing archive incompatible with job spec: "
                        f"{section} {stored.get(section)} != {current.get(section)}"
                    )
        else:
            self.initialize()

    # --- chunk addressing -------------------------------------------------
    def tile_to_chunk(self, tile_row: int, tile_col: int) -> tuple[int, int]:
        """Process tile -> chunk indices relative to the snapped region.

        Chunk == tile, so this is the tile's offset from the region's
        north-west tile (reference derives it via centroid floor-divide,
        _output.py:281-297 — same result for interior tiles).
        """
        row0, _r1, col0, _c1 = self.spec.tile_range()
        return tile_row - row0, tile_col - col0

    def time_indices(self, timestamps) -> list[int]:
        """Positions of ``timestamps`` in the archive's time coordinate
        — THE mapping that decides where written slices land. Lineage
        records must use this same method for their ``time_idxs`` so
        the audit re-reads exactly what was written (a second copy of
        this logic could silently diverge)."""
        try:
            return [self._time_pos[t] for t in
                    np.asarray(timestamps, "datetime64[us]").tolist()]
        except KeyError as ex:
            raise ValueError(
                f"time slice {ex.args[0]} not available in archive time "
                f"coordinate: {list(self.spec.timestamps)}") from None

    def chunk_files(self, band: str, crow: int, ccol: int) -> list[str]:
        self._sync_time_chunk()
        if self.has_time:
            n_tchunks = math.ceil(self.n_time / self.time_chunk)
            return [os.path.join(self.path, band, f"{t}.{crow}.{ccol}")
                    for t in range(n_tchunks)]
        return [os.path.join(self.path, band, f"{crow}.{ccol}")]

    # --- S3: per-tile write ----------------------------------------------
    def write_tile(self, tile_row: int, tile_col: int, data: np.ndarray,
                   timestamps=None, assume_fresh: bool = False) -> int:
        """Write one tile's tensor into its chunk file(s).

        ``data``: ``(bands, h, w)`` or ``(bands, T, h, w)`` (band-first,
        the canonical order of the reference's ``output_cleaned``,
        _output.py:392-439). Zero-length data is a no-op
        (_output.py:362-364). With a time axis, ``timestamps`` labels
        ``data``'s time slices; they must exist in the archive's time
        coordinate (_output.py:213-217) and are written into the right
        positions of the (possibly larger) time chunks; missing
        positions fill with nodata. Returns number of chunk files
        written.

        ``assume_fresh``: the time path normally MERGES into an existing
        chunk (incremental time-slice appends through the store API).
        The pipeline writer only ever runs for tiles WITHOUT a valid
        lineage record (fresh, torn write, or invalidated), where
        existing chunk bytes are untrusted — it passes True so touched
        chunks are rebuilt from nodata fill instead of merged, and the
        tile's UNtouched time-chunk files are deleted (they'd otherwise
        preserve stale/corrupt bytes at positions the new input doesn't
        cover, invisible to the audit). This is what lets ``refresh``
        repair a corrupt or stale time chunk rather than crash on (or
        preserve garbage from) its bytes.
        """
        if data is None or data.size == 0:
            return 0
        self._sync_time_chunk()
        spec = self.spec
        dt = np.dtype(spec.dtype)
        crow, ccol = self.tile_to_chunk(tile_row, tile_col)
        if not (0 <= crow < self.n_chunk_rows and 0 <= ccol < self.n_chunk_cols):
            raise ValueError(f"tile ({tile_row},{tile_col}) outside snapped bounds")
        written = 0
        if data.shape[0] != len(spec.band_names):
            raise ValueError(
                f"data has {data.shape[0]} bands but the archive declares "
                f"{len(spec.band_names)} ({spec.band_names})"
            )
        if not self.has_time:
            if data.ndim != 3:
                raise ValueError(f"expected (bands, h, w), got {data.shape}")
            for band_name, band_arr in zip(spec.band_names, data):
                _put_bytes(
                    os.path.join(self.path, band_name, f"{crow}.{ccol}"),
                    _encode_chunk(band_arr.astype(dt), self.compressor),
                )
                written += 1
            return written
        # time axis: place labeled slices into time-chunked files
        if data.ndim != 4:
            raise ValueError(f"expected (bands, T, h, w), got {data.shape}")
        if timestamps is None:
            raise ValueError("timestamps required for time-axis writes")
        idxs = self.time_indices(timestamps)
        tc = self.time_chunk
        # group written slices by their target time chunk
        by_chunk: dict[int, list[tuple[int, int]]] = {}
        for data_pos, coord_idx in enumerate(idxs):
            by_chunk.setdefault(coord_idx // tc, []).append((data_pos, coord_idx))
        n_tchunks = math.ceil(self.n_time / tc)
        for band_i, band_name in enumerate(spec.band_names):
            if assume_fresh:
                # the fresh derivation DEFINES the tile's complete
                # content: time chunks it does not touch must not
                # survive from the untrusted previous state (stale or
                # corrupt bytes at positions the new input doesn't
                # cover would evade the audit — the new record's
                # time_idxs covers only the written slices — and make
                # the diff/refresh loop non-convergent). Deleted
                # positions read back as fill, like a fresh build.
                for t in range(n_tchunks):
                    if t not in by_chunk:
                        _delete_bytes(os.path.join(
                            self.path, band_name, f"{t}.{crow}.{ccol}"))
            for tchunk, positions in by_chunk.items():
                fname = os.path.join(self.path, band_name, f"{tchunk}.{crow}.{ccol}")
                buf = None if assume_fresh else _get_bytes(fname)
                if buf is not None:
                    try:
                        chunk = _decode_chunk(
                            buf, (tc, self.chunk_px, self.chunk_px), dt,
                            self.compressor).copy()
                    except ChunkDecodeError as ex:
                        raise ChunkDecodeError(
                            f"existing time chunk {fname} is undecodable "
                            f"({ex!r}); run `cli verify` + `cli invalidate` "
                            "(or refresh) to rebuild it from input"
                        ) from ex
                else:
                    chunk = np.full((tc, self.chunk_px, self.chunk_px),
                                    spec.nodata, dtype=dt)
                for data_pos, coord_idx in positions:
                    chunk[coord_idx - tchunk * tc] = data[band_i, data_pos].astype(dt)
                _put_bytes(fname, _encode_chunk(chunk, self.compressor))
                written += 1
        return written

    # --- resume probes (reference tiles_exist, _output.py:299-328) --------
    def tile_exists(self, tile_row: int, tile_col: int) -> bool:
        crow, ccol = self.tile_to_chunk(tile_row, tile_col)
        for band in self.spec.band_names:
            for f in self.chunk_files(band, crow, ccol):
                if _exists(f):
                    return True
        return False

    def existing_tiles(self) -> set[tuple[int, int]]:
        """All (tile_row, tile_col) with any chunk present — one listdir
        per band (cheap driver-side probe for continue mode; at object-
        store scale this is one LIST per band prefix)."""
        row0, _r1, col0, _c1 = self.spec.tile_range()
        out: set[tuple[int, int]] = set()
        for band in self.spec.band_names:
            band_dir = os.path.join(self.path, band)
            for fn in _listdir(band_dir):
                if fn.startswith("."):
                    continue
                parts = fn.split(".")
                if self.has_time and len(parts) == 3:
                    _t, r, c = parts
                elif not self.has_time and len(parts) == 2:
                    r, c = parts
                else:
                    continue
                out.add((int(r) + row0, int(c) + col0))
        return out

    # --- S4/S7: windowed read --------------------------------------------
    def read_tile(self, tile_row: int, tile_col: int, bands=None,
                  time_idxs=None) -> np.ndarray:
        """Read one tile back: ``(bands, h, w)`` or ``(bands, T', h, w)``.

        Missing chunks yield fill_value (reference test_driver.py:39-46).
        ``bands``: list of band names (already resolved). ``time_idxs``:
        indices into the time coordinate.
        """
        self._sync_time_chunk()
        spec = self.spec
        dt = np.dtype(spec.dtype)
        bands = bands or spec.band_names
        crow, ccol = self.tile_to_chunk(tile_row, tile_col)
        hw = (self.chunk_px, self.chunk_px)
        if not self.has_time:
            out = np.full((len(bands), *hw), spec.nodata, dtype=dt)
            for i, band in enumerate(bands):
                buf = _get_bytes(os.path.join(self.path, band, f"{crow}.{ccol}"))
                if buf is not None:
                    out[i] = _decode_chunk(buf, hw, dt, self.compressor)
            return out
        time_idxs = list(time_idxs) if time_idxs is not None else list(range(self.n_time))
        tc = self.time_chunk
        out = np.full((len(bands), len(time_idxs), *hw), spec.nodata, dtype=dt)
        for i, band in enumerate(bands):
            cache: dict[int, np.ndarray | None] = {}
            for j, ti in enumerate(time_idxs):
                tchunk = ti // tc
                if tchunk not in cache:
                    buf = _get_bytes(
                        os.path.join(self.path, band, f"{tchunk}.{crow}.{ccol}"))
                    cache[tchunk] = (None if buf is None else
                                     _decode_chunk(buf, (tc, *hw), dt,
                                                   self.compressor))
                chunk = cache[tchunk]
                if chunk is not None:
                    out[i, j] = chunk[ti - tchunk * tc]
        return out

    def resolve_bands(self, indexes=None) -> list[str]:
        """Band selector normalization (M7, _output.py:569-583): None ->
        all; int -> positional name; str -> name, order-preserving."""
        if indexes is None:
            return list(self.spec.band_names)
        if not isinstance(indexes, list):
            indexes = [indexes]
        out = []
        for i in indexes:
            if isinstance(i, int):
                out.append(self.spec.band_names[i])
            elif isinstance(i, str):
                out.append(i)
            else:
                raise TypeError(
                    f"band indexes must either be integers or strings, not: {i}"
                )
        return out

    def resolve_time(self, start_time=None, end_time=None, timestamps=None):
        """Time selector -> coordinate indices (reference _input.py:174-201
        label-slice semantics: inclusive start/end)."""
        if not self.has_time:
            return None
        coord = self.spec.timestamps
        if timestamps is not None:
            return self.time_indices(timestamps)
        if start_time is not None or end_time is not None:
            lo = np.datetime64(start_time, "us") if start_time is not None else coord[0]
            hi = np.datetime64(end_time, "us") if end_time is not None else coord[-1]
            return [i for i, t in enumerate(coord) if lo <= t <= hi]
        return list(range(self.n_time))
