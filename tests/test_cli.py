import csv

import numpy as np
import pytest

from greencross import assembly, cli, gca
from greencross import quadrature as quad
from greencross.errors import SizeLimitError
from greencross.geometry import read_mesh


@pytest.fixture(scope="module")
def mesh2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "sphere2.txt"
    assert cli.main(["mesh", "--level", "2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def mesh2_curved_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "sphere2c.txt"
    rc = cli.main(["mesh", "--level", "2", "--geometry", "curved",
                   "--out", str(path)])
    assert rc == 0
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_mesh_writes_readable_file(mesh2_file):
    mesh = read_mesh(mesh2_file)
    assert mesh.nt == 128 and mesh.nv == 66
    assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 1.0)


def test_mesh_curved_has_midpoints(mesh2_curved_file):
    mesh = read_mesh(mesh2_curved_file)
    assert mesh.midpoints is not None
    assert len(mesh.midpoints) == mesh.ne
    assert np.allclose(np.linalg.norm(mesh.midpoints, axis=1), 1.0)


def test_mesh_level_cap(tmp_path):
    out = str(tmp_path / "m.txt")
    assert cli.main(["mesh", "--level", "9", "--out", out]) == 3
    assert cli.main(["mesh", "--level", "-1", "--out", out]) == 3


def test_compress_report(mesh2_file, tmp_path):
    out = str(tmp_path / "report.csv")
    rc = cli.main(["compress", "--mesh", mesh2_file, "--out", out,
                   "--threads", "2"])
    assert rc == 0
    rows = _read_csv(out)
    assert list(rows[0].keys()) == cli.REPORT_COLUMNS
    assert [r["method"] for r in rows] == ["dense", "green", "gca", "h2"]
    n = 128
    for r in rows:
        assert r["n"] == str(n)
        assert r["level"] == "2"  # inferred from the file
        assert r["basis"] == "constant" and r["disc"] == "galerkin"
    assert int(rows[0]["storage_bytes"]) == 8 * n * n
    assert float(rows[0]["rel_spec_err"]) == 0.0
    for r in rows[1:]:
        assert float(r["setup_s"]) > 0.0
        assert int(r["storage_bytes"]) > 0
    # the rank-revealing variants track the dense operator closely
    assert float(rows[2]["rel_spec_err"]) < 1e-2
    assert float(rows[3]["rel_spec_err"]) < 1e-2


def test_compress_reproducible(mesh2_file, tmp_path):
    outs = [str(tmp_path / ("r%d.csv" % i)) for i in (0, 1)]
    for out in outs:
        assert cli.main(["compress", "--mesh", mesh2_file, "--out", out]) == 0
    a, b = (_read_csv(out) for out in outs)
    timing = {"setup_s", "solve_s"}
    for ra, rb in zip(a, b):
        for key in cli.REPORT_COLUMNS:
            if key not in timing:
                assert ra[key] == rb[key], key


def test_compress_no_dense(mesh2_file, tmp_path):
    out = str(tmp_path / "nodense.csv")
    rc = cli.main(["compress", "--mesh", mesh2_file, "--out", out,
                   "--no-dense"])
    assert rc == 0
    rows = _read_csv(out)
    assert [r["method"] for r in rows] == ["green", "gca", "h2"]
    assert all(r["rel_spec_err"] == "" for r in rows)


def test_compress_builds_trees_once(mesh2_file, tmp_path, monkeypatch):
    """The h2 row reuses the block tree compress built for the baselines,
    so its setup time counts the tree build once."""
    calls = []
    real = cli.build_cluster_tree

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_cluster_tree", counting)
    out = str(tmp_path / "once.csv")
    assert cli.main(["compress", "--mesh", mesh2_file, "--out", out,
                     "--no-dense"]) == 0
    assert len(calls) == 1


def test_compress_dense_guard(tmp_path):
    mesh6 = str(tmp_path / "sphere6.txt")
    assert cli.main(["mesh", "--level", "6", "--out", mesh6]) == 0
    out = str(tmp_path / "big.csv")
    assert cli.main(["compress", "--mesh", mesh6, "--out", out]) == 3


def test_compress_dense_guard_is_a_memory_estimate(mesh2_file, tmp_path,
                                                   monkeypatch, capsys):
    """The oracle is refused from its estimated bytes, before any dense
    matrix is built; --no-dense still runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(cli, "assemble_dense", refuse)
    monkeypatch.setattr(cli, "DENSE_BYTES", 8 * 128 * 128 - 1)
    out = str(tmp_path / "guard.csv")
    assert cli.main(["compress", "--mesh", mesh2_file, "--out", out]) == 3
    assert "--no-dense" in capsys.readouterr().err
    assert cli.main(["compress", "--mesh", mesh2_file, "--out", out,
                     "--no-dense"]) == 0


@pytest.mark.parametrize("command", [["solve"], ["compress", "--no-dense"]])
def test_compressed_build_refused_over_its_byte_budget(mesh2_file, tmp_path,
                                                       monkeypatch, capsys,
                                                       command):
    """A build whose packed blocks exceed gca.PACK_BYTES is refused with
    exit 3 before any pair integral is evaluated (at this budget already
    by its nearfield bytes, see
    test_oversized_build_refused_before_its_bases)."""
    def refuse(*args, **kwargs):
        raise AssertionError("pair evaluator built")

    monkeypatch.setattr(assembly, "pair_evaluator", refuse)
    monkeypatch.setattr(gca, "PACK_BYTES", 1024)
    out = str(tmp_path / "refused.csv")
    assert cli.main([command[0], "--mesh", mesh2_file, "--out", out]
                    + command[1:]) == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("dlp", [False, True])
def test_oversized_build_refused_before_its_bases(mesh2_file, tmp_path,
                                                  monkeypatch, capsys, dlp):
    """A build whose nearfield leaves alone exceed gca.PACK_BYTES is
    refused (SizeLimitError; exit 3 from solve) from the block tree, before
    any cluster basis is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("cluster basis built")

    monkeypatch.setattr(gca, "build_cluster_basis", refuse)
    monkeypatch.setattr(gca, "PACK_BYTES", 1024)
    cfg = cli.config_from_args(cli.build_parser().parse_args(
        ["solve", "--mesh", mesh2_file, "--out", "unused.csv"]))
    with pytest.raises(SizeLimitError, match="nearfield"):
        cli.build_h2_operator(read_mesh(mesh2_file), cfg, dlp=dlp)
    out = str(tmp_path / "refused.csv")
    assert cli.main(["solve", "--mesh", mesh2_file, "--out", out]) == 3
    assert "nearfield blocks alone" in capsys.readouterr().err


def test_solve_galerkin_constant(mesh2_file, tmp_path):
    out = str(tmp_path / "solve.csv")
    rc = cli.main(["solve", "--mesh", mesh2_file, "--out", out])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == "h2"
    assert int(row["cg_iters"]) > 0
    # the default point source sits close to the surface; at level 2 the
    # density is badly resolved, so this is only a smoke band
    assert 0.0 < float(row["l2_err"]) < 0.5
    assert float(row["solve_s"]) >= 0.0
    assert row["eta"] == "1.0" and row["m"] == "3"


def test_solve_collocation(mesh2_curved_file, tmp_path):
    out = str(tmp_path / "colloc.csv")
    rc = cli.main(["solve", "--mesh", mesh2_curved_file, "--out", out,
                   "--geometry", "curved", "--basis", "linear",
                   "--disc", "collocation"])
    assert rc == 0
    row = _read_csv(out)[0]
    assert int(row["cg_iters"]) > 0
    assert 0.0 < float(row["l2_err"]) < 0.2
    assert row["disc"] == "collocation"


@pytest.mark.parametrize("basis,disc", [("constant", "galerkin"),
                                        ("linear", "galerkin"),
                                        ("linear", "collocation")])
def test_solve_has_no_dense_step(mesh2_file, tmp_path, monkeypatch, basis,
                                 disc):
    """solve builds V and K compressed and applies M by triangles: every
    dense assembly path raises, and it still runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense step in solve")

    for owner, name in ((cli, "assemble_dense"),
                        (cli.assembly, "assemble_galerkin_block"),
                        (cli.assembly, "assemble_collocation_block"),
                        (cli.assembly, "mass_block")):
        monkeypatch.setattr(owner, name, refuse)
    out = str(tmp_path / "solve.csv")
    assert cli.main(["solve", "--mesh", mesh2_file, "--out", out, "--basis",
                     basis, "--disc", disc]) == 0
    row = _read_csv(out)[0]
    assert int(row["cg_iters"]) > 0 and 0.0 < float(row["l2_err"]) < 0.5


@pytest.mark.parametrize("extra", [
    ["--source", "0.5,0,0"],          # source inside the unit ball
    ["--source", "1,0"],              # malformed vector
    ["--lambda", "1.5"],              # lambda outside (0, 1)
    ["--geometry", "curved"],         # plane mesh file declared curved
    ["--disc", "collocation"],        # collocation needs the linear basis
    ["--eta", "0"],
    ["--aca-eps", "-1"],
    ["--cg-max-iter", "-3"],          # CG iteration cap below 1
    ["--cg-max-iter", "0"],
    ["--cg-tol", "-1"],               # CG tolerance not positive
    ["--cg-tol", "nan"],
    ["--eta", "nan"],                 # non-finite GCA parameters
    ["--eta", "inf"],
    ["--aca-eps", "nan"],
    ["--aca-eps", "inf"],
    ["--delta-factor", "nan"],
    ["--delta-factor", "inf"],
    ["--source", "nan,0,0"],
    ["--source", "inf,0,0"],
    ["--source", "2,-inf,nan"],
    ["--q-sing", "33"],               # Gauss orders above 32
    ["--q-reg", "33"],
    ["--green-order", "33"],
    ["--seed", "-1"],                 # negative seed
])
def test_config_errors_exit_2(mesh2_file, tmp_path, extra):
    """A bad flag exits 2; one that compress shares with solve does so
    on compress too, before any build."""
    out = str(tmp_path / "bad.csv")
    commands = [["solve"]]
    if not extra[0].startswith("--cg-"):
        commands.append(["compress", "--no-dense"])
    for command in commands:
        assert cli.main(command[:1] + ["--mesh", mesh2_file, "--out", out]
                        + command[1:] + extra) == 2


def test_stats_report(mesh2_file, tmp_path):
    out = str(tmp_path / "stats.csv")
    assert cli.main(["stats", "--mesh", mesh2_file, "--out", out]) == 0
    rows = _read_csv(out)
    assert list(rows[0].keys()) == cli.STATS_COLUMNS
    assert [r["case"] for r in rows] == list(quad.KIND_NAMES)
    assert all(int(r["tasks"]) > 0 for r in rows)
    assert all(int(r["batches"]) >= 1 for r in rows)
    assert all(float(r["wall_s"]) >= 0.0 for r in rows)


def test_malformed_mesh_file_exit_2(mesh2_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1 0\n0 0 1\n")
    out = str(tmp_path / "lv.csv")
    rc = cli.main(["solve", "--mesh", str(bad), "--out", out])
    assert rc == 2
    # a vertex coordinate that is not finite, on the level 2 sphere
    with open(mesh2_file) as fh:
        lines = fh.read().splitlines()
    for command, value in (("solve", "nan"), ("compress", "inf")):
        x, y, _ = lines[5].split()
        bad.write_text("\n".join(lines[:5] + ["%s %s %s" % (x, y, value)]
                                 + lines[6:]) + "\n")
        assert cli.main([command, "--mesh", str(bad), "--out", out]) == 2


@pytest.mark.parametrize("command", ["compress", "solve", "stats"])
def test_unreadable_mesh_file_exit_2(tmp_path, command):
    """A mesh path that is missing, a directory or not UTF-8 text exits 2."""
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"6 8 12\n\xff\xfe 0 0\n")
    out = str(tmp_path / "r.csv")
    for mesh in (tmp_path / "missing.txt", tmp_path, binary):
        assert cli.main([command, "--mesh", str(mesh), "--out", out]) == 2


@pytest.fixture
def no_work(monkeypatch):
    """The mesh readers and builders of the command line, spied to raise:
    a command that gets past its argument checks fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were "
                             "checked")

    for owner, name in ((cli.geometry, "read_mesh"),
                        (cli.geometry, "build_sphere_mesh"),
                        (cli, "assemble_dense"), (cli, "build_trees"),
                        (cli, "build_h2_operator")):
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("command", ["mesh", "compress", "solve", "stats"])
def test_out_in_missing_directory_exit_2_before_any_work(
        mesh2_file, tmp_path, no_work, command):
    """An --out whose directory does not exist, or that names a
    directory, exits 2 before the mesh is read or built and before any
    operator is built."""
    args = ["--level", "2"] if command == "mesh" else ["--mesh", mesh2_file]
    for out in (tmp_path / "missing" / "r.csv", tmp_path):
        assert cli.main([command, "--out", str(out)] + args) == 2
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["compress", "solve", "stats"])
def test_threads_and_capacity_out_of_range_exit_2_before_any_work(
        mesh2_file, tmp_path, no_work, command):
    """--threads outside [1, MAX_THREADS] and --capacity below 1 exit 2
    before any work; the bounds themselves pass the check (and reach the
    spied mesh reader, so no worker pool starts)."""
    args = [command, "--mesh", mesh2_file, "--out", str(tmp_path / "r.csv")]
    for flags in (["--threads", "0"], ["--capacity", "0"],
                  ["--threads", str(cli.MAX_THREADS + 1)]):
        assert cli.main(args + flags) == 2
    for flags in (["--threads", "1", "--capacity", "1"],
                  ["--threads", str(cli.MAX_THREADS)]):
        with pytest.raises(AssertionError, match="work started"):
            cli.main(args + flags)
