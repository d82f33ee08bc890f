"""Command-line interface.

Exit codes: 0 all requested checks passed, 1 usage error, 2 at least one
exact identity / law / relation check failed, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .charwalk import (occupancy_scaling, level_stats, projection_profile, psi_walk,
                       verify_projection_laws)
from .construct import (ConstructionError, ParabolaParams, rational_to_element,
                        build_construction, parse_construction, pointset_from_json,
                        pointset_to_json)
from .ecurve import CurveError, curve_count, ec_spectrum_scan
from .field import FieldError
from .harness import exhaustive_minmax, local_search, run_sweep, sweep_to_csv
from .legit import (BLUE, GENERATOR_MODES, RED, LegitError, LinearHypergraph,
                    generate_linear_hypergraph, two_phase_coloring, verify_legitimate)
from .plane import PlaneError, build_plane
from .spectrum import bounds_report, compute_spectrum, cor_bound_ceiling, \
    verify_counting_identities

OK, USAGE_ERROR, CHECK_FAILED, INTERNAL_ERROR = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """No abbreviated flags: `sweep --seed 5` must not run as `--seeds 5`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _common_flags(parser, seed: bool = False):
    """--threads and --out on every subcommand; --seed where it is read."""
    if seed:
        parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", metavar="PATH", default=None)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- subcommands -----------------------------------------------------------------

def cmd_plane(args) -> int:
    plane = build_plane(args.q)     # points and lines share one indexing
    rows = np.column_stack([np.arange(plane.N), plane.triples()])
    _emit(args, _csv_text(("idx", "x", "y", "z"), rows.tolist()))
    return OK


def cmd_spectrum(args) -> int:
    plane = build_plane(args.q)
    if args.set_file:
        with open(args.set_file) as fh:
            pset = pointset_from_json(plane, json.load(fh))
    elif args.construction:
        pset = build_construction(plane, args.construction, seed=args.seed)
    else:
        print("error: spectrum needs --set-file or --construction", file=sys.stderr)
        return USAGE_ERROR
    if args.emit_set:
        with open(args.emit_set, "w") as fh:
            json.dump(pointset_to_json(pset), fh, sort_keys=True)
            fh.write("\n")
    spec = compute_spectrum(plane, pset)
    ident = verify_counting_identities(spec)
    bounds = bounds_report(plane.q, pset.size)
    if args.format == "csv":
        rows = [(k, int(c)) for k, c in enumerate(spec.histogram)]
        _emit(args, _csv_text(("k", "count"), rows))
    else:
        _emit_json(args, {
            "q": plane.q, "N": plane.N, "set_size": pset.size,
            "histogram": [{"k": k, "count": int(c)}
                          for k, c in enumerate(spec.histogram)],
            "mode_k": spec.mode_k, "mode_count": spec.mode_count,
            "checks": {"eq1": ident.eq1, "eq2": ident.eq2, "var": ident.var_ok},
            "bounds": {"prop": bounds.prop_bound, "cor": bounds.cor_bound,
                       "thm_lower": bounds.thm_lower},
            "meta": pset.meta,
        })
    cor_ok = spec.mode_count >= cor_bound_ceiling(plane.q)
    return OK if ident.ok and cor_ok else CHECK_FAILED


def cmd_sweep(args) -> int:
    primes = [int(tok) for tok in args.primes.split(",") if tok]
    if not primes:
        raise ValueError("--primes lists no prime")
    parse_construction(args.construction)
    rows = run_sweep(primes, args.construction, args.seeds, threads=args.threads)
    _emit(args, sweep_to_csv(rows))
    return OK if all(row.checks_ok for row in rows) else CHECK_FAILED


def cmd_exhaustive(args) -> int:
    plane = build_plane(args.q)
    return _emit_search(args, plane, exhaustive_minmax(plane, threads=args.threads))


def cmd_search(args) -> int:
    plane = build_plane(args.q)
    return _emit_search(args, plane, local_search(plane, iters=args.iters, seed=args.seed,
                                                  restarts=args.restarts))


def _emit_search(args, plane, res) -> int:
    _emit_json(args, {
        "q": res.q, "best_mode_count": res.best_mode_count,
        "witness_points": [int(i) for i in res.witness_set(plane).indices()],
        "subsets_examined": res.subsets_examined, "method": res.method,
        "cor_ceiling": cor_bound_ceiling(res.q),
    })
    return OK if res.best_mode_count >= cor_bound_ceiling(res.q) else CHECK_FAILED


def cmd_charwalk(args) -> int:
    walk = psi_walk(args.p, args.a)
    if args.levels:
        stats = level_stats(walk)
        payload = occupancy_scaling(stats, args.a)
        payload["counts"] = {str(k): v for k, v in stats.counts.items()}
        payload["range_within_sqrt_log"] = stats.range_within_sqrt_log
        payload["zeros_within_sqrt_log2"] = stats.zeros_within_sqrt_log2
        _emit_json(args, payload)
    else:
        _emit(args, _csv_text(("t", "psi"), list(enumerate(walk.values))))
    return OK


def cmd_projection(args) -> int:
    plane = build_plane(args.p)
    params = ParabolaParams(
        rational_to_element(args.p, args.alpha),
        rational_to_element(args.p, args.beta),
        rational_to_element(args.p, args.gamma))
    if args.d is not None:
        prof = projection_profile(plane, params, args.d)
        _emit(args, _csv_text(("b", "pr"), list(enumerate(prof.pr.tolist()))))
        return OK
    report = verify_projection_laws(plane, params)
    _emit_json(args, report.as_dict())
    return OK if report.all_ok else CHECK_FAILED


def cmd_ec(args) -> int:
    if args.ec_cmd == "count":
        curve = curve_count(args.p, args.a, args.b)
        _emit_json(args, {"p": curve.p, "a": curve.a, "b": curve.b,
                          "count": curve.count, "trace": curve.trace,
                          "hasse_ok": curve.hasse_ok})
        return OK if curve.hasse_ok else CHECK_FAILED
    report = ec_spectrum_scan(build_plane(args.p))
    _emit_json(args, report.as_dict())
    ok = (report.relation_violations == 0
          and report.spectrum.mode_count >= report.cor_ceiling)
    return OK if ok else CHECK_FAILED


def _read_coloring(path, num_vertices: int) -> list:
    """A coloring file: {"colors": [...]} or a bare list with exactly one
    entry per vertex, each "red", "blue", 0 or 1."""
    with open(path) as fh:
        doc = json.load(fh)
    names = doc.get("colors") if isinstance(doc, dict) else doc
    if not isinstance(names, list) or len(names) != num_vertices:
        raise LegitError(f"coloring file must list exactly {num_vertices} colors")
    codes = {"red": RED, "blue": BLUE}
    for v, c in enumerate(names):
        if c not in ("red", "blue") and not (type(c) is int and c in (RED, BLUE)):
            raise LegitError(f"vertex {v} has color {c!r}; expected red, blue, 0 or 1")
    return [codes.get(c, c) for c in names]


def cmd_legit(args) -> int:
    if args.legit_cmd == "gen":
        hg = generate_linear_hypergraph(args.n, args.seed, args.mode)
        _emit_json(args, hg.to_json())
        return OK
    with open(args.infile) as fh:
        hg = LinearHypergraph.from_json(json.load(fh))
    if args.legit_cmd == "color":
        if args.permute_seed is not None:
            hg = hg.permuted(args.permute_seed)
        coloring = two_phase_coloring(hg)
        legitimate, pair = verify_legitimate(hg, coloring)
        _emit_json(args, {
            "n": hg.n,
            "colors": coloring.color_names(),
            "blue_counts": coloring.blue_counts,
            "targets": coloring.targets,
            "legitimate": legitimate,
            "diagnostics": [{
                "edge": d.position, "target": d.target,
                "phase1_blue": d.phase1_blue, "recolored": d.recolored,
                "private": d.private, "captured": d.captured,
                "disjoint": d.disjoint, "feasible": d.feasible,
            } for d in coloring.diagnostics],
        })
        return OK if legitimate else CHECK_FAILED
    legitimate, pair = verify_legitimate(hg, _read_coloring(args.coloring, hg.num_vertices))
    _emit_json(args, {"legitimate": legitimate, "violating_pair": pair})
    return OK if legitimate else CHECK_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="secants", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plane", help="dump the normalized point or line triples")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dump", choices=("points", "lines"), default="points")
    _common_flags(p)
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("spectrum", help="secant spectrum of a set")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--set-file", dest="set_file")
    p.add_argument("--construction")
    p.add_argument("--emit-set", dest="emit_set", metavar="PATH",
                   help="also write the constructed set as a set-file")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    _common_flags(p, seed=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="construction sweep over a prime list")
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--construction", required=True)
    p.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per prime")
    _common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exhaustive", help="exact min-max search (q <= 4)")
    p.add_argument("--q", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_exhaustive)

    p = sub.add_parser("search", help="hill-descent probe of the min-max value")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--restarts", type=int, default=5)
    _common_flags(p, seed=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("charwalk", help="character prefix-sum walk")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--levels", action="store_true",
                   help="emit level-occupancy statistics instead of the walk")
    _common_flags(p)
    p.set_defaults(func=cmd_charwalk)

    p = sub.add_parser("projection", help="parallel-class profiles of the "
                                          "under-parabola region")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--beta", default="0")
    p.add_argument("--gamma", default="0")
    p.add_argument("--d", type=int, default=None,
                   help="single slope: emit its profile as CSV; omit to "
                        "verify the projection laws across all slopes")
    _common_flags(p)
    p.set_defaults(func=cmd_projection)

    p = sub.add_parser("ec", help="elliptic curve point counts and region scan")
    ec_sub = p.add_subparsers(dest="ec_cmd", required=True)
    pc = ec_sub.add_parser("count")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--a", type=int, required=True)
    pc.add_argument("--b", type=int, required=True)
    _common_flags(pc)
    pc.set_defaults(func=cmd_ec)
    ps = ec_sub.add_parser("scan")
    ps.add_argument("--p", type=int, required=True)
    _common_flags(ps)
    ps.set_defaults(func=cmd_ec)

    p = sub.add_parser("legit", help="linear hypergraphs and two-phase coloring")
    lg_sub = p.add_subparsers(dest="legit_cmd", required=True)
    pg = lg_sub.add_parser("gen")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--mode", choices=GENERATOR_MODES, default="pairwise")
    _common_flags(pg, seed=True)
    pg.set_defaults(func=cmd_legit)
    pc = lg_sub.add_parser("color")
    pc.add_argument("--in", dest="infile", required=True)
    pc.add_argument("--permute-seed", dest="permute_seed", type=int, default=None)
    _common_flags(pc)
    pc.set_defaults(func=cmd_legit)
    pv = lg_sub.add_parser("verify")
    pv.add_argument("--in", dest="infile", required=True)
    pv.add_argument("--coloring", required=True)
    _common_flags(pv)
    pv.set_defaults(func=cmd_legit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        for flag, least in (("threads", 1), ("iters", 0), ("restarts", 1), ("seeds", 1)):
            value = getattr(args, flag, least)
            if value < least:
                raise ValueError(f"--{flag} must be at least {least}, got {value}")
        seed = getattr(args, "seed", 0)
        if not 0 <= seed < 2 ** 128:
            raise ValueError(f"--seed must be in [0, 2**128), got {seed}")
        return args.func(args)
    except (FieldError, PlaneError, ConstructionError, CurveError, LegitError,
            ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:     # a fault of the program, not of its input
        msg = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {msg}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
