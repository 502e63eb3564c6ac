"""Stateful streaming-shaped operator: keyed running aggregates held in
an actor pool.

The reference has no event-time streaming (SURVEY.md §2.9); this is
the graft's stream-shaped extension beyond the windowed groupbys in
pipelines/queries.py: when semantics need *incremental per-key state
across batches* (running totals, sessionization with carry-over,
dedup-within-horizon), Ray Data's stateless operators don't fit — the
state lives in a fixed pool of actors, one per key-hash bucket, fed
batches whose keys route to their owning actor.

Pattern (the guide's "one actor per key-hash bucket"):

1. ``repartition``-by-bucket via ``groupby(bucket).map_groups`` so each
   bucket's rows arrive together and internally ts-sorted;
2. the map_groups task feeds its bucket's rows through a
   :class:`KeyedRunningState` (plain object here — the per-group task
   IS the bucket's single writer, so no cross-task mutable state is
   needed; an ``@ray.remote`` actor variant is only required when state
   must outlive one Dataset pass, e.g. a continuous ingest loop);
3. emits the final state snapshot per key (and could emit per-event
   deltas — same loop).

Ordering contract: within a bucket, rows are processed in
``(ts, event_id)`` order — the same ORDER BY the SQL twin uses.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


class KeyedRunningState:
    """Incremental per-key state: count, sum(value), last_ts, and the
    longest gap between consecutive events (a genuinely order-dependent
    statistic — it cannot be computed by a commutative aggregate, which
    is what makes it a fair test of the stateful path).

    State is parallel numpy arrays sorted by key; each ``update`` is a
    segment-vectorized merge (lexsort + reduceat + searchsorted align),
    never a per-row python loop — millions of events per bucket cost
    O(n log n) numpy work, not n interpreter iterations.
    """

    def __init__(self):
        self.keys = np.empty(0, dtype=np.int64)
        self.n = np.empty(0, dtype=np.int64)
        self.sum = np.empty(0, dtype=np.int64)
        self.last_ts = np.empty(0, dtype=np.int64)
        self.max_gap = np.empty(0, dtype=np.int64)

    def update(self, keys, ts_us, values):
        """Fold one chunk (rows in event order; ts ascending per key)."""
        keys = np.asarray(keys, dtype=np.int64)
        ts = np.asarray(ts_us, dtype=np.int64)
        vals = np.asarray(values, dtype=np.int64)
        if len(keys) == 0:
            return
        # stable key-sort preserving arrival order within each key
        order = np.argsort(keys, kind="stable")
        k, t, v = keys[order], ts[order], vals[order]
        new = np.ones(len(k), dtype=bool)
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(k))
        ck = k[starts]
        cn = ends - starts
        csum = np.add.reduceat(v, starts)
        cfirst, clast = t[starts], t[ends - 1]
        # per-row gap to the previous row of the SAME key (-1 at key
        # boundary), then segment-max via reduceat: boundary -1s are
        # absorbed by the max
        g = np.full(len(k), -1, dtype=np.int64)
        if len(k) > 1:
            same = k[1:] == k[:-1]
            g[:-1][same] = t[1:][same] - t[:-1][same]
        cgap = np.maximum(np.maximum.reduceat(g, starts), 0)

        # align with existing state
        pos = np.searchsorted(self.keys, ck)
        hit = (pos < len(self.keys))
        hit[hit] = self.keys[pos[hit]] == ck[hit]
        # cross-chunk boundary gap for keys already tracked
        bgap = np.zeros(len(ck), dtype=np.int64)
        bgap[hit] = cfirst[hit] - self.last_ts[pos[hit]]
        cgap = np.maximum(cgap, bgap)

        hp = pos[hit]
        self.n[hp] += cn[hit]
        self.sum[hp] += csum[hit]
        self.last_ts[hp] = clast[hit]
        self.max_gap[hp] = np.maximum(self.max_gap[hp], cgap[hit])

        if (~hit).any():
            miss = ~hit
            all_keys = np.concatenate([self.keys, ck[miss]])
            o = np.argsort(all_keys, kind="stable")
            self.keys = all_keys[o]
            self.n = np.concatenate([self.n, cn[miss]])[o]
            self.sum = np.concatenate([self.sum, csum[miss]])[o]
            self.last_ts = np.concatenate([self.last_ts, clast[miss]])[o]
            self.max_gap = np.concatenate([self.max_gap, cgap[miss]])[o]

    def snapshot(self) -> pa.Table:
        return pa.table({
            "user_id": pa.array(self.keys, pa.int64()),
            "n_events": pa.array(self.n, pa.int64()),
            "sum_value_milli": pa.array(self.sum, pa.int64()),
            "last_ts_us": pa.array(self.last_ts, pa.int64()),
            "max_gap_us": pa.array(self.max_gap, pa.int64()),
        })


class _StateShard:
    """One shard of cross-pass keyed state (plain object; wrapped by
    ``ray.remote`` in :func:`state_actor_pool`). Holds a
    :class:`KeyedRunningState` plus a seen-key set for
    dedup-across-passes.

    ``horizon_us`` bounds the seen-set: a key re-arriving more than the
    horizon after its last arrival counts as fresh again, and entries
    older than (watermark - horizon - late_bound) are evicted — so
    shard memory is O(keys active within one horizon + lateness
    window), not O(all keys ever), the 100 TB continuous-ingest
    requirement. ``late_bound_us`` is the allowed out-of-orderness
    (default: one horizon): dedup stays EXACT for rows arriving at
    most that far behind the watermark; later stragglers may be
    re-admitted (the standard watermark/allowed-lateness contract —
    eviction at watermark - horizon alone would re-admit in-horizon
    duplicates as soon as arrivals interleave across keys). Without a
    horizon the set is exact and unbounded (the original semantics)."""

    def __init__(self, horizon_us: int | None = None,
                 late_bound_us: int | None = None):
        self.state = KeyedRunningState()
        self.horizon_us = horizon_us
        self.late_bound_us = (late_bound_us if late_bound_us is not None
                              else (horizon_us or 0))
        self._seen = np.empty(0, dtype=np.int64)
        self._seen_ts = np.empty(0, dtype=np.int64)
        self._watermark = np.int64(-(2**62))

    def update(self, keys, ts_us, values):
        self.state.update(keys, ts_us, values)

    def filter_unseen(self, keys, ts_us=None):
        """Return the boolean keep-mask of keys NOT seen within the
        horizon in any prior call (then mark them seen) —
        continuous-ingest dedup where the horizon spans Dataset
        passes. Within one call only the first occurrence of a key is
        fresh; callers feed batches in arrival order."""
        keys = np.asarray(keys, dtype=np.int64)
        if self.horizon_us is not None and ts_us is None:
            raise ValueError(
                "a horizon-bounded shard needs per-row timestamps")
        pos = np.searchsorted(self._seen, keys)
        hit = pos < len(self._seen)
        hit[hit] = self._seen[pos[hit]] == keys[hit]
        if self.horizon_us is None:
            unseen = ~hit
        else:
            ts = np.asarray(ts_us, dtype=np.int64)
            safe = np.minimum(pos, max(len(self._seen) - 1, 0))
            last = np.where(hit, self._seen_ts[safe]
                            if len(self._seen) else np.int64(0),
                            np.int64(-(2**62)))
            # re-emerged after the horizon -> fresh again
            unseen = ~hit | (last < ts - self.horizon_us)
        # within-call duplicates: only the FIRST occurrence is fresh
        _u, first_idx = np.unique(keys, return_index=True)
        first = np.zeros(len(keys), dtype=bool)
        first[first_idx] = True
        keep = unseen & first
        if self.horizon_us is None:
            fresh = keys[keep]
            if len(fresh):
                self._seen = np.unique(np.concatenate([self._seen, fresh]))
            return keep
        # record the max arrival ts per key (every arrival refreshes
        # the suppression window), then evict entries past the horizon
        uk, inv = np.unique(keys, return_inverse=True)
        mx = np.full(len(uk), -(2**62), dtype=np.int64)
        np.maximum.at(mx, inv, ts)
        allk = np.concatenate([self._seen, uk])
        allt = np.concatenate([self._seen_ts, mx])
        o = np.lexsort((allt, allk))
        allk, allt = allk[o], allt[o]
        last_per_key = np.ones(len(allk), dtype=bool)
        last_per_key[:-1] = allk[1:] != allk[:-1]
        self._seen, self._seen_ts = allk[last_per_key], allt[last_per_key]
        if len(ts):
            self._watermark = max(self._watermark, np.int64(ts.max()))
        live = (self._seen_ts
                >= self._watermark - self.horizon_us - self.late_bound_us)
        self._seen, self._seen_ts = self._seen[live], self._seen_ts[live]
        return keep

    def seen_size(self) -> int:
        return int(len(self._seen))

    def snapshot(self):
        return self.state.snapshot()


def state_actor_pool(n_shards: int = 8, horizon_us: int | None = None,
                     late_bound_us: int | None = None):
    """Cross-pass keyed state as a FIXED pool of Ray actors, one per
    key-hash shard (``key % n_shards`` routes every batch of a key to
    its owning actor). This is the variant the per-pass map_groups
    pattern can't cover: the state must OUTLIVE one Dataset execution
    (continuous ingest, incremental batches arriving across separate
    pipeline runs). Call ``actors[k % n](...)`` from map_batches tasks;
    shard ownership makes the single-writer rule hold without locks."""
    import ray as _ray

    Shard = _ray.remote(_StateShard)
    return [Shard.options(num_cpus=0.25).remote(
        horizon_us=horizon_us, late_bound_us=late_bound_us)
        for _ in range(n_shards)]


def dedup_across_passes(ds, actors, id_col: str = "event_id",
                        ts_col: str | None = None):
    """Filter a Dataset to rows whose ``id_col`` was not seen (within
    the pool's horizon, if one is configured — pass ``ts_col``) by the
    actor pool — including in PREVIOUS calls with other Datasets (the
    dedup-within-horizon op extended across pipeline runs). Each batch
    routes its ids to the owning shards and keeps only fresh rows."""
    import ray as _ray

    n = len(actors)

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        ts = (batch.column(ts_col).cast(pa.int64())
              .to_numpy(zero_copy_only=False) if ts_col else None)
        shard = ids % n
        keep = np.zeros(len(ids), dtype=bool)
        # one RPC per shard present in the batch, not per row
        present = np.unique(shard)
        masks = _ray.get([
            actors[s].filter_unseen.remote(
                ids[shard == s],
                ts[shard == s] if ts is not None else None)
            for s in present])
        for s, m in zip(present, masks):
            keep[shard == s] = m
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def running_totals_group(group: pa.Table) -> pa.Table:
    """map_groups fn over a key-hash bucket: ts-order the bucket, stream
    it through KeyedRunningState, emit final snapshots."""
    order = pa.compute.sort_indices(
        group, sort_keys=[("ts", "ascending"), ("event_id", "ascending")])
    group = group.take(order)
    ts = group.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    keys = group.column("user_id").to_numpy(zero_copy_only=False)
    vals = np.floor(
        group.column("value").to_numpy(zero_copy_only=False) * 1000
    ).astype(np.int64)
    st = KeyedRunningState()
    # feed in chunks to mimic batch arrival (state carries across chunks)
    for lo in range(0, len(ts), 100_000):
        st.update(keys[lo:lo + 100_000], ts[lo:lo + 100_000],
                  vals[lo:lo + 100_000])
    return st.snapshot()
