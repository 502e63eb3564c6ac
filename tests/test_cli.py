"""CLI surface (§2.10): execute (fresh + resume), pyramid, overviews,
export (fresh + resume) — driven in-process via cli.main, which leaves
the session's Ray alone (ownership semantics)."""

import json
import os

import pytest
import ray

from mapchete_xarray_ray import cli
from mapchete_xarray_ray.fixtures import write_pages


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_pages")
    write_pages(str(d / "pages"), n=200)
    return str(d / "pages")


def _run(capsys, argv):
    cli.main(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out)


def test_cli_execute_resume_pyramid_overviews(tmp_path, capsys, pages_dir):
    spec = {"path": str(tmp_path / "out.zarr"), "zoom": 5,
            "bounds": [-180.0, 45.0, -135.0, 90.0],
            "band_names": ["count", "count_en", "count_long"],
            "dtype": "uint16", "input": {"path": pages_dir}}
    spec_path = str(tmp_path / "job.json")
    json.dump(spec, open(spec_path, "w"))

    first = _run(capsys, ["execute", spec_path])
    assert first["tiles_written"] > 0
    # continue mode: nothing to redo
    again = _run(capsys, ["execute", spec_path])
    assert again["tiles_written"] == 0
    # the CLI must not have torn down the session's Ray
    assert ray.is_initialized()

    pyr = _run(capsys, ["pyramid", spec["path"], str(tmp_path / "z4.zarr")])
    assert pyr["tiles_written"] > 0

    ov = _run(capsys, ["overviews", spec["path"], "--min-zoom", "3"])
    zooms = [lvl["zoom"] for lvl in ov["levels"]]
    assert zooms == [4, 3]
    assert all(os.path.isdir(lvl["path"]) for lvl in ov["levels"])


@pytest.mark.parametrize("scheme", ["", "file://"], ids=["plain", "file_uri"])
def test_cli_execute_incompatible_archive_fails_loud(tmp_path, capsys,
                                                    pages_dir, scheme):
    """A dtype change fails loud on an existing archive; ``--overwrite``
    then replaces it, on plain paths and URIs alike."""
    from mapchete_xarray_ray.sources.zarr_input import spec_from_archive

    path = f"{scheme}{tmp_path / 'o.zarr'}"
    spec = {"path": path, "zoom": 5,
            "bounds": [-180.0, 45.0, -135.0, 90.0],
            "band_names": ["count", "count_en", "count_long"],
            "dtype": "uint16", "input": {"path": pages_dir}}
    spec_path = str(tmp_path / "job.json")
    json.dump(spec, open(spec_path, "w"))
    _run(capsys, ["execute", spec_path])
    spec["dtype"] = "uint8"
    json.dump(spec, open(spec_path, "w"))
    with pytest.raises(ValueError, match="incompatible"):
        cli.main(["execute", spec_path])
    assert _run(capsys, ["execute", spec_path, "--overwrite"])["tiles_written"] > 0
    assert spec_from_archive(path).dtype == "uint8"


def test_cli_export_resume(tmp_path, capsys, sf_dir):
    src = f"{sf_dir}/documents.parquet"
    dst = str(tmp_path / "corpus")
    first = _run(capsys, ["export", src, dst])
    assert first["rows"] > 0 and first["partitions_written"]
    again = _run(capsys, ["export", src, dst])
    assert again["rows"] == 0 and again["partitions_written"] == []


def test_cli_diff_two_generations(tmp_path, capsys):
    """diff: identical archives -> 0 changed; mutate one tile + add one
    tile in the newer generation -> exactly those two report changed
    (creation surfaces via the union work list + fill read-back)."""
    import numpy as np

    from mapchete_xarray_ray.pipelines.flagship import default_spec
    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore

    paths = [str(tmp_path / "gen_a.zarr"), str(tmp_path / "gen_b.zarr")]
    stores = []
    for p in paths:
        store = ZarrTileStore(default_spec(p, dtype="uint16"))
        store.prepare()
        for r, c in [(1, 1), (2, 3)]:
            store.write_tile(r, c, np.full((3, 256, 256), r + c, np.uint16))
        stores.append(store)

    same = _run(capsys, ["diff", paths[0], paths[1]])
    assert same == {"tiles_compared": 2, "tiles_changed": 0, "changed": []}

    data = stores[0].read_tile(1, 1)
    data[0, 5, 7] += 1
    stores[0].write_tile(1, 1, data)                  # mutation
    stores[0].write_tile(0, 0, np.ones((3, 256, 256), np.uint16))  # creation
    out = _run(capsys, ["diff", paths[0], paths[1]])
    assert out["tiles_compared"] == 3
    assert out["tiles_changed"] == 2
    assert out["changed"] == [[0, 0], [1, 1]]

    # incompatible generations refuse loudly
    import pytest as _pytest

    from mapchete_xarray_ray.pipelines.diff import archive_diff_ds

    other = ZarrTileStore(default_spec(str(tmp_path / "gen_c.zarr"),
                                       dtype="uint8"))
    other.prepare()
    with _pytest.raises(ValueError, match="incompatible"):
        archive_diff_ds(paths[0], str(tmp_path / "gen_c.zarr"))


def test_diff_nan_tiles_compare_equal(tmp_path):
    """Byte-compare, not np.array_equal: byte-identical float tiles
    containing NaN must NOT report changed (array_equal's NaN != NaN
    would re-derive every NaN-bearing tile forever)."""
    import numpy as np

    from mapchete_xarray_ray.collect import collect_table
    from mapchete_xarray_ray.pipelines.diff import archive_diff_ds
    from mapchete_xarray_ray.pipelines.flagship import default_spec
    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore

    data = np.full((3, 256, 256), 1.5, np.float64)
    data[0, 0, 0] = np.nan
    paths = [str(tmp_path / "na.zarr"), str(tmp_path / "nb.zarr")]
    for p in paths:
        store = ZarrTileStore(default_spec(p, dtype="float64"))
        store.prepare()
        store.write_tile(2, 2, data)
    out = collect_table(archive_diff_ds(paths[0], paths[1]))
    assert out.num_rows == 1
    assert out.column("changed").to_pylist() == [0]


def test_cli_diff_empty_archives(tmp_path, capsys):
    """Two prepared-but-empty archives: diff prints zeros instead of
    crashing on the zero-column collected table."""
    from mapchete_xarray_ray.pipelines.flagship import default_spec
    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore

    paths = [str(tmp_path / "ea.zarr"), str(tmp_path / "eb.zarr")]
    for p in paths:
        ZarrTileStore(default_spec(p, dtype="uint16")).prepare()
    out = _run(capsys, ["diff", paths[0], paths[1]])
    assert out == {"tiles_compared": 0, "tiles_changed": 0, "changed": []}


def test_incremental_loop_diff_invalidate_execute(tmp_path, capsys,
                                                  pages_dir):
    """The full incremental-recompute loop: execute -> invalidate two
    tiles (one via --tiles, one via --from-diff) -> continue-mode
    execute re-derives EXACTLY those; the recomputed archive is
    byte-identical to the original (diff vs a pristine copy -> 0)."""
    import shutil

    spec = {"path": str(tmp_path / "inc.zarr"), "zoom": 5,
            "bounds": [-180.0, 45.0, -135.0, 90.0],
            "band_names": ["count", "count_en", "count_long"],
            "dtype": "uint16", "input": {"path": pages_dir}}
    spec_path = str(tmp_path / "inc.json")
    json.dump(spec, open(spec_path, "w"))

    first = _run(capsys, ["execute", spec_path])
    assert first["tiles_written"] >= 2
    pristine = str(tmp_path / "pristine.zarr")
    shutil.copytree(spec["path"], pristine)

    from mapchete_xarray_ray.sinks.zarr import ZarrTileStore
    from mapchete_xarray_ray.sources.zarr_input import spec_from_archive

    tiles = sorted(ZarrTileStore(spec_from_archive(spec["path"]))
                   .existing_tiles())[:2]
    diff_file = str(tmp_path / "d.json")
    json.dump({"changed": [list(tiles[1])]}, open(diff_file, "w"))
    inv = _run(capsys, ["invalidate", spec["path"],
                        "--tiles", f"{tiles[0][0]},{tiles[0][1]}",
                        "--from-diff", diff_file])
    assert inv["invalidated"] == 2
    # a second invalidate of the same tiles is a no-op
    again = _run(capsys, ["invalidate", spec["path"],
                          "--tiles", f"{tiles[0][0]},{tiles[0][1]}"])
    assert again["invalidated"] == 0

    redo = _run(capsys, ["execute", spec_path])
    assert redo["tiles_written"] == 2
    out = _run(capsys, ["diff", spec["path"], pristine])
    assert out["tiles_changed"] == 0
