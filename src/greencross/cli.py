"""Experiment driver: mesh generation, compression reports, Dirichlet solve.

Subcommands
-----------
mesh      write a sphere mesh (plane or curved) in the text format
compress  build Green / flat GCA / GCA-H2 approximations, report per-method
          storage, setup time and spectral error against the dense oracle
solve     assemble and solve the single-layer Dirichlet system with the
          compressed operator, its double-layer right-hand side from a
          compressed K built in the same pass, report the surface L2 error
stats     batch-executor statistics for one compressed build, per
          singularity case: batches, tasks (pair integrals evaluated;
          an unordered pair, shared by several blocks or in both
          orientations, is evaluated and counted once) and evaluator
          wall time

Quadrature orders: ``--q-reg`` q picks the rule of the disjoint triangle
pairs, the bulk of every build's integrals, on each triangle of a pair:
the centroid (1 point) for q 1, the symmetric 3-point rule for q 2,
Radon's 7-point rule for q 3 and the collapsed q^2-point rule for q >= 4
(``quadrature.symmetric_rule``). The Green factors take the collapsed
q^2-point rule at every q; the mass matrices, the areas and the solution
error keep their own fixed collapsed rules. ``--q-sing`` is the order of
the regularized rules of the singular pairs.

All reports are RFC 4180 CSV with one fixed column set, so rows from
different runs concatenate cleanly.  Every row echoes the full experiment
configuration; re-running with the same config and seed reproduces all
non-timing columns.  Exit codes: 0 success, 2 invalid configuration,
3 size guard refusal (a mesh level out of range, a dense oracle whose
matrix would not fit its memory budget, or a compressed build whose
packed blocks exceed ``gca.PACK_BYTES``; one whose dense nearfield
leaves alone exceed it is refused before its cluster bases).
"""

import argparse
import csv
import os
import sys
import time
from collections import namedtuple

import numpy as np

from .errors import ConfigError, GreencrossError, SizeLimitError
from . import assembly, gca, geometry, h2
from .batchexec import DEFAULT_CAPACITY
from .clustering import build_block_tree, build_cluster_tree
from .quadrature import KIND_NAMES

# memory budget of compress's dense oracle matrix (n = 8192)
DENSE_BYTES = 1 << 29

# most worker threads a command takes: the executor submits one work item
# per worker and window, and its pool starts one OS thread per submit
MAX_THREADS = 256

REPORT_COLUMNS = ["method", "basis", "geometry", "disc", "level", "n",
                  "eta", "m", "eps", "storage_bytes", "setup_s", "solve_s",
                  "rel_spec_err", "l2_err", "cg_iters"]

STATS_COLUMNS = ["case", "batches", "tasks", "wall_s"]


ExperimentConfig = namedtuple("ExperimentConfig", [
    "level", "geometry", "basis", "disc", "eta", "m", "delta_factor",
    "eps", "leaf_size", "q_reg", "q_sing", "lam", "source", "seed"])


def validate_config(cfg):
    if not 0.0 < cfg.lam < 1.0:
        raise ConfigError("lambda must lie in (0, 1), got %g" % cfg.lam)
    if not np.all(np.isfinite(cfg.source)):
        raise ConfigError("source point must be finite, got %s"
                          % (list(cfg.source),))
    if np.linalg.norm(cfg.source) <= 1.0:
        raise ConfigError("source point must lie strictly outside the "
                          "closed unit ball, got %s" % (list(cfg.source),))
    for name, value in (("eta", cfg.eta), ("aca eps", cfg.eps),
                        ("delta factor", cfg.delta_factor)):
        if not 0.0 < value < np.inf:
            raise ConfigError("%s must be positive and finite, got %g"
                              % (name, value))
    orders = cfg.m, cfg.q_reg, cfg.q_sing
    if not all(1 <= q <= 32 for q in orders):
        raise ConfigError("Gauss orders m, q_reg and q_sing must lie in "
                          "[1, 32], got %d, %d, %d" % orders)
    if cfg.leaf_size < 1:
        raise ConfigError("leaf size must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative, got %d" % cfg.seed)
    if cfg.disc == "collocation" and cfg.basis != "linear":
        raise ConfigError("collocation pairs with the linear basis only")
    return cfg


def _parse_source(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("source must be three comma-separated floats, "
                          "got %r" % text)
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError("source must be three comma-separated floats, "
                          "got %r" % text)


def config_from_args(args):
    return validate_config(ExperimentConfig(
        level=args.level, geometry=args.geometry, basis=args.basis,
        disc=args.disc, eta=args.eta, m=args.green_order,
        delta_factor=args.delta_factor, eps=args.aca_eps,
        leaf_size=args.leaf_size, q_reg=args.q_reg, q_sing=args.q_sing,
        lam=args.lam, source=_parse_source(args.source), seed=args.seed))


def load_mesh(path, cfg):
    mesh = geometry.read_mesh(path)
    curved = mesh.midpoints is not None
    if cfg.geometry == "curved" and not curved:
        raise ConfigError("config wants curved geometry but %s has no "
                          "midpoints; regenerate with mesh --geometry "
                          "curved" % path)
    if cfg.geometry == "plane" and curved:
        raise ConfigError("config wants plane geometry but %s is curved"
                          % path)
    return mesh


def infer_level(mesh):
    """Subdivision level when the triangle count matches a sphere mesh."""
    nt = mesh.nt
    level = 0
    while 8 * 4 ** level < nt:
        level += 1
    return level if 8 * 4 ** level == nt else -1


def _config_and_mesh(args):
    """The config of a subcommand's flags and its mesh; an omitted level
    is inferred from the mesh."""
    cfg = config_from_args(args)
    mesh = load_mesh(args.mesh, cfg)
    if cfg.level < 0:
        cfg = cfg._replace(level=infer_level(mesh))
    return cfg, mesh


def dof_count(mesh, basis):
    return mesh.nt if basis == "constant" else mesh.nv


def dof_points(mesh, basis):
    return mesh.centroids() if basis == "constant" else mesh.vertices


# ---------------------------------------------------------------------------
# report plumbing


def report_row(cfg, method, n, **cols):
    row = {"method": method, "basis": cfg.basis, "geometry": cfg.geometry,
           "disc": cfg.disc, "level": cfg.level, "n": n, "eta": cfg.eta,
           "m": cfg.m, "eps": cfg.eps}
    for key in REPORT_COLUMNS:
        row.setdefault(key, "")
    for key, val in cols.items():
        row[key] = val
    return row


def _fmt(val):
    # plain floats stringify via shortest repr: deterministic and readable
    if isinstance(val, np.floating):
        return float(val)
    return val


def write_report(path, rows, columns=REPORT_COLUMNS):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


# ---------------------------------------------------------------------------
# operator construction shared by compress/solve/stats


def build_trees(mesh, cfg):
    """Cluster tree and block tree for one config."""
    tree = build_cluster_tree(mesh, basis_kind=cfg.basis,
                              leaf_size=cfg.leaf_size)
    return tree, build_block_tree(tree, eta=cfg.eta)


def build_h2_operator(mesh, cfg, kind="slp", capacity=DEFAULT_CAPACITY,
                      threads=None, btree=None, dlp=False):
    """Cluster tree, block tree and GCA-H2 matrix for one config; a block
    tree built before (by :func:`build_trees`) is reused.  A Galerkin
    build has one basis for both sides (see ``gca.build_cluster_basis``).
    With ``dlp``, it also builds the double-layer operator as ``dlp``.

    A build whose nearfield alone exceeds ``gca.PACK_BYTES`` is refused
    before any basis: the dense leaves' bytes, sum |tau| |sigma| 8 per
    operator, follow from the block tree and bound the packed bytes from
    below, so this never refuses a build that fits.
    """
    if btree is None:
        tree, btree = build_trees(mesh, cfg)
    else:
        tree = btree.row
    gca.check_pack_bytes((1 + dlp) * 8 * sum(
        b.row.size * b.col.size for b in btree.inadmissible_leaves()),
        "its nearfield blocks alone")
    orders = (cfg.q_reg, cfg.q_sing)
    rmarks, cmarks = gca.coupling_marks(btree)

    def basis(kind, side, marks):
        return gca.build_cluster_basis(tree, mesh, kind, cfg.m,
                                       cfg.delta_factor, cfg.eps, side=side,
                                       orders=orders, marks=marks)

    if cfg.disc == "collocation":
        row_basis = basis("collocation", "row", rmarks)
        col_basis = basis(cfg.basis, "col", cmarks)
    else:
        row_basis = col_basis = basis(cfg.basis, "row", rmarks | cmarks)
    dlp_basis = None
    if dlp:
        dlp_basis = gca.build_cluster_basis(
            tree, mesh, cfg.basis, cfg.m, cfg.delta_factor, cfg.eps,
            side="col", orders=orders, marks=cmarks, kind="dlp")
    hm = gca.build_h2(btree, row_basis, col_basis, mesh, kind=kind,
                      basis=cfg.basis, disc=cfg.disc, orders=orders,
                      capacity=capacity, threads=threads, dlp_basis=dlp_basis)
    return hm, tree, btree


def assemble_dense(kind, mesh, cfg, capacity=DEFAULT_CAPACITY, threads=None):
    n = dof_count(mesh, cfg.basis)
    dofs = np.arange(n)
    orders = (cfg.q_reg, cfg.q_sing)
    if cfg.disc == "collocation":
        block = assembly.assemble_collocation_block(
            kind, mesh, cfg.basis, dofs, dofs, orders, capacity, threads)
    else:
        block = assembly.assemble_galerkin_block(
            kind, mesh, cfg.basis, dofs, dofs, orders, capacity, threads)
    return block.values


# ---------------------------------------------------------------------------
# mesh


def cmd_mesh(args):
    mesh = geometry.build_sphere_mesh(args.level)
    if args.geometry == "curved":
        mesh = geometry.to_curved(mesh, project_to_unit_sphere=True)
    geometry.write_mesh(mesh, args.out)
    extra = ", %d midpoints" % mesh.ne if args.geometry == "curved" else ""
    print("wrote %s: level %d sphere, %d triangles, %d vertices%s"
          % (args.out, args.level, mesh.nt, mesh.nv, extra))
    return 0


# ---------------------------------------------------------------------------
# compress


def cmd_compress(args):
    cfg, mesh = _config_and_mesh(args)
    n = dof_count(mesh, cfg.basis)
    want_dense = not args.no_dense
    if want_dense and 8 * n * n > DENSE_BYTES:
        raise SizeLimitError(
            "dense oracle refused for n=%d: its matrix takes %d MiB, over "
            "the %d MiB budget; pass --no-dense to compress without the "
            "error column" % (n, 8 * n * n >> 20, DENSE_BYTES >> 20))

    rows = []
    dense = None
    if want_dense:
        t0 = time.perf_counter()
        dense = assemble_dense("slp", mesh, cfg, args.capacity, args.threads)
        dt = time.perf_counter() - t0
        rows.append(report_row(cfg, "dense", n, storage_bytes=8 * n * n,
                               setup_s=dt, rel_spec_err=0.0))
        ref = lambda x, trans=False: (dense.T if trans else dense) @ x
        # the reference norm of every method's h2.spectral_error_estimate,
        # estimated once
        ref_norm = h2.operator_norm(ref, n, seed=cfg.seed)

    def spec_err(apply_fn):
        if dense is None:
            return ""
        return h2.operator_norm(
            lambda x, trans=False: ref(x, trans) - apply_fn(x, trans), n,
            seed=cfg.seed) / ref_norm

    t0 = time.perf_counter()
    _, btree = build_trees(mesh, cfg)
    t_tree = time.perf_counter() - t0
    orders = (cfg.q_reg, cfg.q_sing)

    builds = (
        ("green", lambda: gca.build_green(
            btree, mesh, kind="slp", basis=cfg.basis, disc=cfg.disc,
            m=cfg.m, delta_factor=cfg.delta_factor, orders=orders,
            capacity=args.capacity, threads=args.threads)),
        ("gca", lambda: gca.build_flat_gca(
            btree, mesh, kind="slp", basis=cfg.basis, disc=cfg.disc,
            m=cfg.m, delta_factor=cfg.delta_factor, eps=cfg.eps,
            orders=orders, capacity=args.capacity, threads=args.threads)),
        ("h2", lambda: build_h2_operator(
            mesh, cfg, capacity=args.capacity, threads=args.threads,
            btree=btree)[0]))
    for method, build in builds:
        t0 = time.perf_counter()
        op = build()
        dt = t_tree + time.perf_counter() - t0
        rows.append(report_row(cfg, method, n,
                               storage_bytes=h2.storage_report(op)["total"],
                               setup_s=dt,
                               rel_spec_err=spec_err(h2.as_operator(op))))
        op = None  # freed before the next build

    write_report(args.out, rows)
    for row in rows:
        err = row["rel_spec_err"]
        print("%-6s setup %7.2fs  storage %11d B%s"
              % (row["method"], row["setup_s"], row["storage_bytes"],
                 "" if err == "" else "  rel err %.3e" % err))
    print("report: %s" % args.out)
    return 0


# ---------------------------------------------------------------------------
# solve


def point_source(points, source):
    return 1.0 / (assembly.FOUR_PI
                  * np.linalg.norm(points - source, axis=-1))


def point_source_gradient(points, source):
    d = points - source
    r = np.linalg.norm(d, axis=-1, keepdims=True)
    return -d / (assembly.FOUR_PI * r ** 3)


def solution_l2_error(mesh, basis, u_dofs, source, q=4):
    """Surface L2 distance between u_h and the exact Neumann trace.

    The reference is the unit-sphere solution grad h . n lifted to the
    discrete surface by radial projection, so plane meshes pay their
    geometry error.
    """
    rule = assembly.surface_rule(mesh, q)
    xq = np.ascontiguousarray(np.moveaxis(rule.x, 0, -1))
    proj = xq / np.linalg.norm(xq, axis=-1, keepdims=True)
    u_ex = np.einsum("tmc,tmc->tm", point_source_gradient(proj, source),
                     proj)
    if basis == "constant":
        u_h = u_dofs[:, None]
    else:
        u_h = np.einsum("ma,ta->tm", assembly._bary(rule.pts),
                        u_dofs[mesh.triangles])
    return np.sqrt(np.einsum("tm,tm->", rule.gram * rule.wts,
                             (u_h - u_ex) ** 2))


def dirichlet_rhs(hm, mesh, cfg, v_h):
    """b = lam M v + K v, with K v the product of ``hm.dlp`` (see
    :func:`build_h2_operator`), which it then drops, and M v (collocation:
    v) summed over triangles."""
    kv = h2.mvm(hm.dlp, v_h)
    hm.dlp = None
    if cfg.disc == "collocation":
        return cfg.lam * v_h + kv
    return cfg.lam * assembly.mass_apply(mesh, cfg.basis, v_h) + kv


def cmd_solve(args):
    if not (np.isfinite(args.cg_tol) and args.cg_tol > 0.0):
        raise ConfigError("cg tolerance must be finite and positive, got %g"
                          % args.cg_tol)
    if args.cg_max_iter is not None and args.cg_max_iter < 1:
        raise ConfigError("cg iteration cap must be at least 1, got %d"
                          % args.cg_max_iter)
    cfg, mesh = _config_and_mesh(args)
    n = dof_count(mesh, cfg.basis)
    source = np.asarray(cfg.source)
    points = dof_points(mesh, cfg.basis)
    v_h = point_source(points, source)

    t0 = time.perf_counter()
    hm, _, _ = build_h2_operator(mesh, cfg, capacity=args.capacity,
                                 threads=args.threads, dlp=True)
    b = dirichlet_rhs(hm, mesh, cfg, v_h)
    setup_s = time.perf_counter() - t0

    op = h2.as_operator(hm)
    solver = h2.cgnr_solve if cfg.disc == "collocation" else h2.cg_solve
    t0 = time.perf_counter()
    result = solver(op, b, tol=args.cg_tol, max_iter=args.cg_max_iter or n)
    solve_s = time.perf_counter() - t0
    iters = len(result.residuals) - 1
    if not result.converged:
        iters = -iters  # row flag: CG stopped at the iteration cap

    l2 = solution_l2_error(mesh, cfg.basis, result.x, source)
    row = report_row(cfg, "h2", n,
                     storage_bytes=h2.storage_report(hm)["total"],
                     setup_s=setup_s, solve_s=solve_s, l2_err=l2,
                     cg_iters=iters)
    write_report(args.out, [row])
    print("n=%d  setup %.2fs  solve %.2fs  cg %d  L2 err %.6e"
          % (n, setup_s, solve_s, iters, l2))
    print("report: %s" % args.out)
    # CG non-convergence is flagged in the row (negative cg_iters), not an
    # exit failure
    return 0


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args):
    cfg, mesh = _config_and_mesh(args)
    hm, _, _ = build_h2_operator(mesh, cfg, capacity=args.capacity,
                                 threads=args.threads)
    rows = [{"case": KIND_NAMES[st["case"]], "batches": st["batches"],
             "tasks": st["tasks"], "wall_s": st["wall_s"]}
            for st in hm.exec_stats]
    write_report(args.out, rows, columns=STATS_COLUMNS)
    for row in rows:
        print("%-9s %6d batches  %9d tasks  %8.3fs"
              % (row["case"], row["batches"], row["tasks"], row["wall_s"]))
    print("report: %s" % args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(p):
    p.add_argument("--level", type=int, default=-1,
                   help="mesh subdivision level (report column; inferred "
                        "from the triangle count when omitted)")
    p.add_argument("--geometry", choices=("plane", "curved"),
                   default="plane")
    p.add_argument("--basis", choices=("constant", "linear"),
                   default="constant")
    p.add_argument("--disc", choices=("galerkin", "collocation"),
                   default="galerkin")
    p.add_argument("--eta", type=float, default=1.0,
                   help="admissibility parameter (default 1.0)")
    p.add_argument("--green-order", type=int, default=3, metavar="M",
                   help="Green quadrature order m, rank 2k=12m^2 "
                        "(default 3)")
    p.add_argument("--delta-factor", type=float, default=0.5,
                   help="Green boundary distance as a fraction of the box "
                        "diameter (default 0.5)")
    p.add_argument("--aca-eps", type=float, default=1e-4,
                   help="cross approximation stopping tolerance "
                        "(default 1e-4)")
    p.add_argument("--leaf-size", type=int, default=16,
                   help="cluster tree leaf size (default 16)")
    p.add_argument("--q-reg", type=int, default=3,
                   help="regular quadrature order: disjoint pairs take 1, "
                        "3 or 7 points per triangle for q 1, 2, 3, q^2 "
                        "for q >= 4; the Green factors q^2 (default 3)")
    p.add_argument("--q-sing", type=int, default=5,
                   help="singular quadrature order (default 5)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="double-layer jump factor in (0,1) (default 0.5)")
    p.add_argument("--source", default="1.2,0,0",
                   help="point-source location x,y,z outside the unit "
                        "ball (default 1.2,0,0)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the spectral error estimate (default 0)")
    p.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                   help="tasks per evaluation batch (default %d)"
                        % DEFAULT_CAPACITY)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads, at most %d (default: hardware "
                        "count)" % MAX_THREADS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="greencross",
        description="Green cross approximation experiments on triangulated "
                    "surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="write a sphere mesh file")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--geometry", choices=("plane", "curved"),
                   default="plane")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("compress",
                       help="compare compression methods against the dense "
                            "oracle")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-dense", action="store_true",
                   help="skip the dense oracle (required when its n x n "
                        "matrix exceeds %d MiB)" % (DENSE_BYTES >> 20))
    _add_config_flags(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("solve",
                       help="solve the Dirichlet problem via the "
                            "single-layer equation; V and the double-layer "
                            "K of the right-hand side are built compressed, "
                            "in one pass, with no n x n step")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cg-tol", type=float, default=1e-8)
    p.add_argument("--cg-max-iter", type=int, default=None,
                   help="iteration cap (default: system size)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("stats",
                       help="batch executor statistics for one H2 build: "
                            "per singularity case, the batches, the pair "
                            "integrals evaluated (tasks; an unordered pair "
                            "counts once) and the evaluator wall time")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        folder = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(folder):
            raise ConfigError("--out directory %s does not exist" % folder)
        if os.path.isdir(args.out):
            raise ConfigError("--out %s is a directory" % args.out)
        if getattr(args, "capacity", 1) < 1:
            raise ConfigError("--capacity %d is below 1" % args.capacity)
        threads = getattr(args, "threads", None)
        if threads is not None and not 1 <= threads <= MAX_THREADS:
            raise ConfigError("--threads must lie in [1, %d], got %d"
                              % (MAX_THREADS, threads))
        return args.func(args)
    except SizeLimitError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 3
    except GreencrossError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
