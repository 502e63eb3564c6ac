"""The Ray Data contract the package's pyarrow UDFs rely on: a function
passed to ``map_batches`` / ``map_groups`` is never called on a zero-row
block, so UDFs carry no empty-block entry guard (see ``collect.py``).

Every UDF here raises if it is handed a zero-row block; each case feeds
Ray a plan that produces empty blocks upstream of the UDF."""

import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
from ray import cloudpickle

from mapchete_xarray_ray.collect import collect_table

# workers cannot import this test module: ship its UDFs by value
cloudpickle.register_pickle_by_value(sys.modules[__name__])


def _no_empty(batch: pa.Table) -> pa.Table:
    if batch.num_rows == 0:
        raise AssertionError("UDF handed a zero-row block")
    return batch.append_column(
        "seen", pa.array(np.ones(batch.num_rows, dtype=np.int64)))


def _group_sum(group: pa.Table) -> pa.Table:
    if group.num_rows == 0:
        raise AssertionError("UDF handed a zero-row group")
    return pa.table({"k": group.column("k").slice(0, 1),
                     "n": pa.array([group.num_rows], pa.int64())})


class _NoEmptyStage:
    def __call__(self, batch: pa.Table) -> pa.Table:
        return _no_empty(batch)


def _keys(n: int = 40, nkeys: int = 3, blocks: int = 12):
    k = np.arange(n, dtype=np.int64) % nkeys
    return ray.data.from_arrow(pa.table({
        "k": pa.array(k), "v": pa.array(np.arange(n, dtype=np.int64))})
    ).repartition(blocks)


def _keep_v_at_least(lo: int):
    """A stage that returns 0 rows for every block holding only v < lo."""
    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("v"), lo))
    return fn


def _rows(ds) -> list:
    t = collect_table(ds)
    return sorted(t.column("v").to_pylist()) if t.num_rows else []


def test_map_groups_with_more_blocks_than_keys():
    out = collect_table(_keys().groupby("k").map_groups(
        _group_sum, batch_format="pyarrow"))
    got = dict(zip(out.column("k").to_pylist(), out.column("n").to_pylist()))
    assert got == {0: 14, 1: 13, 2: 13}


@pytest.mark.parametrize("batch_size", [None, 4])
def test_map_batches_after_a_stage_that_returns_zero_rows(batch_size):
    ds = _keys().map_batches(_keep_v_at_least(30), batch_format="pyarrow")
    out = ds.map_batches(_no_empty, batch_format="pyarrow",
                         batch_size=batch_size)
    assert _rows(out) == list(range(30, 40))
    nothing = ds.map_batches(_keep_v_at_least(10**6),
                             batch_format="pyarrow")
    assert _rows(nothing.map_batches(_no_empty, batch_format="pyarrow",
                                     batch_size=batch_size)) == []


def test_filter_that_leaves_nothing():
    ds = _keys().filter(lambda r: r["v"] < 0)
    assert _rows(ds.map_batches(_no_empty, batch_format="pyarrow")) == []
    assert collect_table(ds.groupby("k").map_groups(
        _group_sum, batch_format="pyarrow")).num_rows == 0


def test_from_arrow_of_a_zero_row_table():
    ds = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                       "v": pa.array([], pa.int64())}))
    assert _rows(ds.map_batches(_no_empty, batch_format="pyarrow")) == []
    assert collect_table(ds.groupby("k").map_groups(
        _group_sum, batch_format="pyarrow")).num_rows == 0


def test_callable_class_udf_in_an_actor_pool():
    ds = _keys().map_batches(_keep_v_at_least(35), batch_format="pyarrow")
    out = ds.map_batches(_NoEmptyStage, concurrency=1,
                         batch_format="pyarrow")
    assert _rows(out) == list(range(35, 40))
