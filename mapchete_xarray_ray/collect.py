"""Probe-free driver-side collection of SMALL Dataset results.

Ray 2.49's ``Dataset.to_arrow_refs()`` calls
``schema(fetch_if_missing=True)`` AFTER consuming the stream; with the
streaming executor the consumed plan's schema is not cached, so that
call launches a SECOND execution of the whole plan with
``LimitOperator[limit=1]`` appended. For map-only plans the probe
touches one block, but any all-to-all (sort/groupby) upstream must run
to completion before the limit — i.e. nearly a full re-execution per
collect — and for pipelines with write side effects the probe's
mid-write task cancellation is what motivated the atomic
``_put_bytes`` (sinks/zarr.py). Collecting through
``iter_internal_ref_bundles()`` executes exactly once.

Only FINAL, small results come through here (driver hash-compare
tables, bounded partials such as k x dim centroid sums or per-lang
histograms); pipelines themselves stay streaming.

The UDF contract the package relies on: Ray Data never calls a
pyarrow ``map_batches`` or ``map_groups`` function on a zero-row block
(``plan_udf_map_op`` passes such blocks through unchanged, and
``map_groups`` yields no group for them), so UDFs carry no empty-block
entry guard. Those passed-through blocks can be zero-column, which is
why :func:`collect_table` drops them. ``tests/test_ray_contract.py``
pins the contract.
"""

from __future__ import annotations

import pyarrow as pa
import ray


def arrow_block_refs(ds: ray.data.Dataset) -> list:
    """Block object refs of an executed Dataset — single execution, no
    schema probe (the ``to_arrow_refs`` replacement)."""
    return [r for bundle in ds.iter_internal_ref_bundles()
            for r in bundle.block_refs]


def collect_table(res) -> pa.Table:
    """Collect a SMALL Dataset result into one clean Arrow table.

    Ray's sort-based groupby/map_groups can emit zero-column blocks for
    empty partitions; concatenating those breaks schema-sensitive
    consumers, so they are dropped. So are zero-row blocks when any
    block holds rows: Ray passes a zero-row block by a UDF uncalled, so
    it keeps the UDF's INPUT schema and would not concatenate with the
    UDF's output. Non-Dataset inputs (already a Table / DataFrame) pass
    through unchanged.
    """
    if not isinstance(res, ray.data.Dataset):
        return res
    tabs = []
    for t in (ray.get(r) for r in arrow_block_refs(res)):
        if not isinstance(t, pa.Table):  # defensive: pandas block
            t = pa.Table.from_pandas(t)
        if t.num_columns > 0:
            tabs.append(t)
    tabs = [t for t in tabs if t.num_rows] or tabs[:1]
    return pa.concat_tables(tabs) if tabs else pa.table({})
