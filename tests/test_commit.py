"""The one commit step and the one count kernel.

Every archive the package writes commits its tiles through
``pipelines/commit.py:finalize_tile``, so every tile has a lineage
record the audit can re-derive; ``stages/rasterize.count_tensor`` is
the one per-pixel count kernel.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import mapchete_xarray_ray
from mapchete_xarray_ray.pipelines import queries
from mapchete_xarray_ray.pipelines.audit import audit_summary
from mapchete_xarray_ray.stages.rasterize import count_tensor

PKG = Path(mapchete_xarray_ray.__file__).parent


def _commit_calls():
    """``(module, line, name)`` of every call of ``.write_tile(`` or
    ``write_record(`` in the package."""
    out = []
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.attr if isinstance(f, ast.Attribute)
                    else f.id if isinstance(f, ast.Name) else None)
            if (name == "write_record"
                    or (name == "write_tile" and isinstance(f, ast.Attribute))):
                out.append((path.relative_to(PKG).as_posix(), node.lineno, name))
    return out


def test_only_commit_module_writes_tiles_and_records():
    calls = _commit_calls()
    assert {n for m, _, n in calls if m == "pipelines/commit.py"} == {
        "write_tile", "write_record"}
    assert [c for c in calls if c[0] != "pipelines/commit.py"] == []


@pytest.mark.parametrize("time", [
    None,
    {"start": "2024-01-01", "end": "2024-01-03", "chunksize": 2,
     "steps": ["2024-01-01", "2024-01-02", "2024-01-03"]},
], ids=["plain", "time"])
def test_roundtrip_archive_audits_clean(sf_dir, time):
    """The store-roundtrip archives carry one lineage record per tile
    whose checksum the audit re-derives from the chunks."""
    spec, written = queries._write_counts_archive(sf_dir, time=time)
    res = audit_summary(spec.path)
    assert res["counts"] == {"ok": written.num_rows}
    assert written.num_rows > 0


def test_count_tensor_matches_add_at():
    """Sparse group-sum-then-scatter equals a dense ``np.add.at`` over
    every (band, slice, pixel), clipped to the dtype, over the slices
    present only."""
    rng = np.random.default_rng(5)
    n, px = 5000, 16
    pix = rng.integers(0, 40, n)
    tidx = rng.choice([2, 5, 7], n)
    pix[:1000], tidx[:1000] = 3, 5  # one hot pixel passes uint8's max
    weights = [np.ones(n, np.int64), rng.integers(0, 2, n)]
    tensor, present = count_tensor(pix, tidx, weights, px, "uint8")
    np.testing.assert_array_equal(present, [2, 5, 7])
    dense = np.zeros((2, 8, px * px), np.int64)
    for b, w in enumerate(weights):
        np.add.at(dense[b], (tidx, pix), w)
    want = dense[:, present].clip(0, 255).reshape(2, 3, px, px)
    assert tensor.dtype == np.uint8 and (want == 255).any()
    np.testing.assert_array_equal(tensor, want)
