"""Resumable partitioned-Parquet sink (brief: "write partitioned
Parquet (one directory per input shard / key range) so a failed run
can skip finished partitions; never one giant file").

Layout is hive-style — ``out_dir/<col>=<value>/part-0.parquet`` — with
a ``_SUCCESS`` marker per partition directory written AFTER the data
file (both written atomically by ``sinks.zarr._put_bytes``), so:

- a partition is complete iff its marker exists; a torn write (file
  without marker, or vice versa) is detected and redone;
- ``mode="continue"`` broadcasts the completed-partition set once
  (``ray.put``) and drops those rows inside the first map stage — the
  resumed run never re-shuffles or rewrites finished partitions;
- writers are ``groupby(partition-hash bucket).map_groups`` tasks:
  each partition's rows land in exactly one bucket, so one task owns
  each partition directory (no write contention), while the task count
  stays at the bucket count, not the partition count.

At 100 TB the partition column is a shard/key-range id with thousands
of values; the bucket count bounds task-dispatch overhead and each
task streams multiple partition files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from mapchete_xarray_ray.nputil import segments
from mapchete_xarray_ray.sinks.zarr import _put_bytes, _rmtree


def _partition_dir(out_dir: str, col: str, value) -> str:
    """Directory for one partition value, hive-style percent-encoded:
    a value containing '/', '=', '%' or other path-unsafe characters
    must not escape the partition directory or break the
    completed-partition matching on resume."""
    from urllib.parse import quote

    return os.path.join(out_dir, f"{col}={quote(str(value), safe='')}")


def completed_partitions(out_dir: str, col: str) -> set:
    """Partition values (DECODED, i.e. the raw column values) that are
    COMPLETE: _SUCCESS marker AND at least one data file (a marker
    whose data file was lost must be redone, not silently skipped).
    One listdir of the root + one per candidate directory."""
    from urllib.parse import unquote

    out = set()
    if not os.path.isdir(out_dir):
        return out
    prefix = f"{col}="
    for name in os.listdir(out_dir):
        if not name.startswith(prefix):
            continue
        pdir = os.path.join(out_dir, name)
        if os.path.exists(os.path.join(pdir, "_SUCCESS")) and any(
                f.endswith(".parquet") for f in os.listdir(pdir)):
            out.add(unquote(name[len(prefix):]))
    return out


def write_partitioned(ds: ray.data.Dataset, out_dir: str, partition_col: str,
                      mode: str = "continue",
                      buckets: int = 16) -> pa.Table:
    """Write ``ds`` as hive-partitioned parquet; returns the summary
    table (partition, n_rows) of partitions written THIS run. Rows of
    already-completed partitions are dropped at the first map stage in
    continue mode."""
    if mode == "overwrite":
        # stale partitions (absent from the new dataset) must not
        # survive an overwrite with valid markers
        _rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    done = completed_partitions(out_dir, partition_col) \
        if mode == "continue" else set()
    done_ref = ray.put(np.array(sorted(done), dtype=object))

    def bucket_stage(batch: pa.Table) -> pa.Table:
        vals = batch.column(partition_col).to_numpy(zero_copy_only=False)
        done_vals = ray.get(done_ref)
        if len(done_vals):
            keep = ~np.isin(vals.astype(str), done_vals)
            batch = batch.filter(pa.array(keep))
            vals = vals[keep]
        import zlib

        # stable across workers (python hash() is seed-randomized per
        # process, which would split one partition over several buckets
        # and break the one-writer-per-directory invariant); crc only
        # the UNIQUE values, then scatter via the inverse index
        uniq, inv = np.unique(vals.astype(str), return_inverse=True)
        codes = np.array([zlib.crc32(u.encode()) % buckets for u in uniq],
                         dtype=np.int64)
        h = codes[inv] if len(uniq) else np.empty(0, dtype=np.int64)
        return batch.append_column("__pb", pa.array(h))

    def write_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["__pb"])
        vals = group.column(partition_col).to_numpy(
            zero_copy_only=False).astype(str)
        order, starts, ends = segments(vals)
        group = group.take(pa.array(order))
        svals = vals[order]
        parts, counts = [], []
        for s, e in zip(starts, ends):
            seg = group.slice(s, e - s)
            pdir = _partition_dir(out_dir, partition_col, svals[s])
            import io

            buf = io.BytesIO()
            pq.write_table(seg, buf)
            _put_bytes(os.path.join(pdir, "part-0.parquet"), buf.getvalue())
            _put_bytes(os.path.join(pdir, "_SUCCESS"), b"")
            parts.append(str(svals[s]))
            counts.append(e - s)
        return pa.table({"partition": pa.array(parts, pa.string()),
                         "n_rows": pa.array(counts, pa.int64())})

    from mapchete_xarray_ray.collect import collect_table

    out = (ds.map_batches(bucket_stage, batch_format="pyarrow")
           .groupby("__pb")
           .map_groups(write_bucket, batch_format="pyarrow"))
    # exactly ONE execution of the writes: collect_table collects off
    # the ref-bundle iterator, never Ray's schema probe (which would
    # re-run the side-effecting pipeline a second time — collect.py)
    res = collect_table(out)
    return (res if res.num_rows else
            pa.table({"partition": pa.array([], pa.string()),
                      "n_rows": pa.array([], pa.int64())}))


def read_partitioned(out_dir: str) -> ray.data.Dataset:
    """Read back only COMPLETE partitions (marker present)."""
    files = []
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            pdir = os.path.join(out_dir, name)
            if os.path.exists(os.path.join(pdir, "_SUCCESS")):
                files.extend(
                    os.path.join(pdir, f) for f in sorted(os.listdir(pdir))
                    if f.endswith(".parquet"))
    if not files:
        raise FileNotFoundError(f"no complete partitions under {out_dir}")
    return ray.data.read_parquet(files)
