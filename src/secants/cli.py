"""Command-line interface.

Exit codes: 0 all requested checks passed, 1 usage error, 2 at least one
exact identity / law / relation check failed, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .charwalk import level_stats, projection_profile, psi_walk, verify_projection_laws
from .construct import (rational_to_element, build_construction, parse_construction,
                        pointset_from_json, pointset_to_json)
from .ecurve import curve_count, ec_spectrum_scan
from .field import factor_prime_power
from .harness import exhaustive_minmax, local_search, run_sweep, sweep_to_csv
from .legit import (BLUE, GENERATOR_MODES, RED, LegitError, LinearHypergraph,
                    generate_linear_hypergraph, two_phase_coloring, verify_legitimate)
from .plane import build_plane
from .spectrum import compute_spectrum, cor_bound_ceiling

OK, USAGE_ERROR, CHECK_FAILED, INTERNAL_ERROR = 0, 1, 2, 3

# The most worker threads that --threads may ask for.
MAX_THREADS = 64

# The largest --p of charwalk, projection and ec count, which build tables
# of length p: an int64 table of that length takes at most 32 MiB, and
# p^2 < 2^44, so every product that is reduced mod p fits an int64 exactly.
MAX_PRIME_ORDER = 1 << 22

# The largest plane order: --q, each of sweep's --primes, and --p of
# projection without --d and ec scan.  The spectrum and ec scan hold the
# transform and its blocks, 9.3 q^2 bytes (149 MiB) and 2 s at q = 4093;
# projection does O(p^2) work in O(p) memory, a block of slopes at a time:
# at p = 4093 the whole command takes 0.8-1.1 s and 31.5 MB RSS on a
# 2-core Xeon.
MAX_SQUARE_ORDER = 1 << 12

# The largest --n of legit gen, which builds (n, n) tables: about 60 n^2
# bytes in all, 1 GiB at n^2 = 2^24.
MAX_LEGIT_N = 1 << 12


class _Parser(argparse.ArgumentParser):
    """No abbreviated flags: `sweep --seed 5` must not run as `--seeds 5`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


class _Command(_Parser):
    """A subcommand's parser: an argument it does not know is reported with
    this subcommand's usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _write(path, chunks) -> None:
    """Write the text chunks, one after another, to the file at path, or
    to stdout when path is None or empty."""
    if path:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(args, obj, ok: bool = True) -> int:
    """Write obj as JSON to --out or stdout; the exit code of a run whose
    checks came out ok."""
    _write(args.out, (_json_text(obj), "\n"))
    return OK if ok else CHECK_FAILED


def _json_text(obj, pad: str = "\n") -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), without the
    pure-Python encoder that json runs whenever indent is set: a list of
    ints or of strs is one join, a list of dicts with one set of str keys
    and only int values (a histogram) is one %-template, an integer array
    is %-formatted a block of rows at a time (json.dumps of its tolist()),
    and only dicts and other lists recurse.  pad is the line break and
    indentation that obj's own line starts with."""
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is True or obj is False:
        return "true" if obj else "false"
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {str}:        # each distinct str encoded once
            items = map({s: encode_basestring_ascii(s) for s in set(obj)}.__getitem__, obj)
        elif kinds == {dict} and (records := _int_records(obj, inner)):
            row, values = records
            items = [("," + inner).join([row] * len(obj)) % values]
        else:
            items = (_json_text(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, np.ndarray) and obj.ndim and obj.dtype.kind in "iu":
        if not len(obj):
            return "[]"
        # blocks of about 1 << 12 entries: only one block's ints are alive
        row = _array_template(obj.shape[1:], inner)
        step = max(1, (1 << 12) // max(1, obj[0].size))
        blocks = ((("," + inner).join([row] * len(block))) % tuple(block.ravel().tolist())
                  for block in (obj[lo:lo + step] for lo in range(0, len(obj), step)))
        return "[" + inner + ("," + inner).join(blocks) + pad + "]"
    return json.dumps(obj)     # floats, None; raises on what json rejects


def _int_records(records, pad: str):
    """(template, values) of a list of dicts that each have the str keys of
    the first and only values of type int (not bool), such as a histogram:
    the %d template of one dict as _json_text writes it on a line that
    starts with pad, and the tuple of all values in that order.  None for
    any other list of dicts."""
    if not all(type(k) is str for k in records[0]):
        return None
    keys = sorted(records[0])
    # a missing key reads None; with equal sizes, no key is missing or extra
    values = tuple([record.get(k) for record in records for k in keys])
    if set(map(len, records)) != {len(keys)} or not set(map(type, values)) <= {int}:
        return None
    inner = pad + "  "
    fields = ("," + inner).join([encode_basestring_ascii(k).replace("%", "%%") + ": %d"
                                 for k in keys])
    return ("{" + inner + fields + pad + "}" if keys else "{}"), values


def _array_template(shape, pad: str) -> str:
    """The %d template of an integer array of this shape, as _json_text
    writes it on a line that starts with pad."""
    if not shape:
        return "%d"
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    items = [_array_template(shape[1:], inner)] * shape[0]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _json_key(key) -> str:
    """A dict key as json writes it: str, or the quoted text of an int,
    float, bool or None."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _csv_blocks(header, table):
    """CSV of an int array (1-D, or 2-D with a row per line) under header,
    each line led by its row index, as a stream of text blocks of about
    1 << 16 entries each: the writer holds one block, never the file."""
    line = ",".join(["%d"] * len(header)) + "\n"
    step = (1 << 16) // len(header)
    yield ",".join(header) + "\n"
    for lo in range(0, len(table), step):
        block = table[lo:lo + step]
        block = np.column_stack([np.arange(lo, lo + len(block)), block])
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _load_json(path, flag: str):
    """The JSON document in the file that --flag names.  A file that json
    cannot decode (malformed, not UTF-8, an integer past Python's digit
    limit, nested past the recursion limit) is bad input of that flag."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:     # JSONDecodeError is a ValueError
            raise ValueError(f"--{flag} {path} is not JSON: {exc}") from None


def _plane(args, flag: str = "q", bound: int = MAX_SQUARE_ORDER):
    """The plane whose order the flag gives, which must be a prime power
    of at most bound; checked before any field or plane is built."""
    q = getattr(args, flag)
    if factor_prime_power(q) is None:
        raise ValueError(f"--{flag} must be a prime power, got {q}")
    if q > bound:
        raise ValueError(f"--{flag} must be at most {bound}, got {q}")
    return build_plane(q)


def _bounded_p(args, bound: int = MAX_PRIME_ORDER) -> int:
    """--p of a command that builds tables of length p, at most
    MAX_PRIME_ORDER, or does O(p^2) work, at most MAX_SQUARE_ORDER."""
    if args.p > bound:
        raise ValueError(f"--p must be at most {bound}, got {args.p}")
    return args.p


def _orders(text: str) -> list:
    """The comma-separated prime powers of sweep's --primes, each at most
    MAX_SQUARE_ORDER."""
    orders = []
    for tok in filter(None, text.split(",")):
        try:
            q = int(tok)
        except ValueError:
            raise ValueError(f"--primes must list integers, got {tok!r}") from None
        if factor_prime_power(q) is None:
            raise ValueError(f"--primes must list prime powers, got {q}")
        if q > MAX_SQUARE_ORDER:
            raise ValueError(f"--primes must list orders of at most {MAX_SQUARE_ORDER}, got {q}")
        orders.append(q)
    if not orders:
        raise ValueError("--primes lists no prime")
    return orders


# -- subcommands -----------------------------------------------------------------

def cmd_plane(args) -> int:
    plane = _plane(args)     # points and lines share one indexing
    _write(args.out, _csv_blocks(("idx", "x", "y", "z"), plane.triples()))
    return OK


def cmd_spectrum(args) -> int:
    plane = _plane(args)
    if args.set_file is not None and args.construction is not None:
        raise ValueError("spectrum takes --set-file or --construction, not both")
    if args.set_file:
        mask, meta = pointset_from_json(plane, _load_json(args.set_file, "set-file"))
    elif args.construction:
        mask, meta = build_construction(plane, args.construction, seed=args.seed)
    else:
        raise ValueError("spectrum needs --set-file or --construction")
    if args.emit_set:
        _write(args.emit_set, (json.dumps(pointset_to_json(plane, mask), sort_keys=True), "\n"))
    doc = compute_spectrum(plane, mask, meta)
    ok = all(doc["checks"].values()) and doc["mode_count"] >= cor_bound_ceiling(plane.q)
    if args.format == "json":
        return _emit_json(args, doc, ok)
    _write(args.out, _csv_blocks(("k", "count"), [e["count"] for e in doc["histogram"]]))
    return OK if ok else CHECK_FAILED


def cmd_sweep(args) -> int:
    primes = _orders(args.primes)
    parse_construction(args.construction, seed_flag="--seeds")
    rows = run_sweep(primes, args.construction, args.seeds, threads=args.threads)
    _write(args.out, (sweep_to_csv(rows),))
    ok = all(row["eq1"] and row["eq2"] and row["var_ok"] and row["cor_ok"] for row in rows)
    return OK if ok else CHECK_FAILED


def cmd_exhaustive(args) -> int:
    return _emit_search(args, exhaustive_minmax(_plane(args), threads=args.threads))


def cmd_search(args) -> int:
    return _emit_search(args, local_search(_plane(args), iters=args.iters, seed=args.seed,
                                           restarts=args.restarts))


def _emit_search(args, doc) -> int:
    return _emit_json(args, doc, doc["best_mode_count"] >= doc["cor_ceiling"])


def cmd_charwalk(args) -> int:
    walk = psi_walk(_bounded_p(args), args.a)
    if args.levels:
        return _emit_json(args, level_stats(walk, args.a))
    _write(args.out, _csv_blocks(("t", "psi"), walk))
    return OK


def cmd_projection(args) -> int:
    bound = MAX_PRIME_ORDER if args.d is not None else MAX_SQUARE_ORDER
    _bounded_p(args)
    _bounded_p(args, bound)
    plane = _plane(args, "p", bound)
    coeffs = [rational_to_element(args.p, c) for c in (args.alpha, args.beta, args.gamma)]
    if args.d is None:
        doc = verify_projection_laws(plane, *coeffs)
        return _emit_json(args, doc, doc["all_ok"])
    _write(args.out, _csv_blocks(("b", "pr"), projection_profile(plane, *coeffs, args.d)))
    return OK


def cmd_ec_count(args) -> int:
    doc = curve_count(_bounded_p(args), args.a, args.b)
    return _emit_json(args, doc, doc["hasse_ok"])


def cmd_ec_scan(args) -> int:
    _bounded_p(args, MAX_SQUARE_ORDER)
    doc, ok = ec_spectrum_scan(_plane(args, "p"))
    return _emit_json(args, doc, ok)


def _read_coloring(path, num_vertices: int) -> np.ndarray:
    """A coloring file: {"colors": [...]} or a bare list with exactly one
    entry per vertex, each "red", "blue", 0 or 1."""
    doc = _load_json(path, "coloring")
    names = doc.get("colors") if isinstance(doc, dict) else doc
    if not isinstance(names, list) or len(names) != num_vertices:
        raise LegitError(f"coloring file must list exactly {num_vertices} colors")
    codes = {"red": RED, "blue": BLUE}
    if set(map(type, names)) == {str}:      # names only (so hashable), typed in C
        try:
            return np.fromiter(map(codes.__getitem__, names), np.int64, len(names))
        except KeyError:
            pass
    # codes, or a bad entry to name (a JSON true is not the code 1)
    for v, c in enumerate(names):
        if c not in ("red", "blue") and not (type(c) is int and c in (RED, BLUE)):
            raise LegitError(f"vertex {v} has color {c!r}; expected red, blue, 0 or 1")
    return np.array([codes.get(c, c) for c in names], dtype=np.int64)


def cmd_legit_gen(args) -> int:
    if args.n > MAX_LEGIT_N:
        raise ValueError(f"--n must be at most {MAX_LEGIT_N}, got {args.n}")
    return _emit_json(args, generate_linear_hypergraph(args.n, args.seed, args.mode).to_json())


def cmd_legit_color(args) -> int:
    hg = LinearHypergraph.from_json(_load_json(args.infile, "in"))
    if args.permute_seed is not None:
        hg = hg.permuted(args.permute_seed)
    doc, color = two_phase_coloring(hg)
    doc["legitimate"], _ = verify_legitimate(hg, color)
    return _emit_json(args, doc, doc["legitimate"])


def cmd_legit_verify(args) -> int:
    hg = LinearHypergraph.from_json(_load_json(args.infile, "in"))
    legitimate, pair = verify_legitimate(hg, _read_coloring(args.coloring, hg.num_vertices))
    return _emit_json(args, {"legitimate": legitimate, "violating_pair": pair}, legitimate)


# -- parser --------------------------------------------------------------------
# Each function adds only its command's own arguments; _add_commands adds
# the shared flags and --out after them.

def _q_arg(p):
    p.add_argument("--q", type=int, required=True)


def _p_arg(p):
    p.add_argument("--p", type=int, required=True)


def _plane_args(p):
    _q_arg(p)
    p.add_argument("--dump", choices=("points", "lines"), default="points")


def _spectrum_args(p):
    _q_arg(p)
    p.add_argument("--set-file", dest="set_file")
    p.add_argument("--construction")
    p.add_argument("--emit-set", dest="emit_set", metavar="PATH",
                   help="also write the constructed set as a set-file")
    p.add_argument("--format", choices=("csv", "json"), default="json")


def _sweep_args(p):
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--construction", required=True)
    p.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per prime")


def _search_args(p):
    _q_arg(p)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--restarts", type=int, default=5)


def _charwalk_args(p):
    _p_arg(p)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--levels", action="store_true",
                   help="emit level-occupancy statistics instead of the walk")


def _projection_args(p):
    _p_arg(p)
    p.add_argument("--alpha", default="1")
    p.add_argument("--beta", default="0")
    p.add_argument("--gamma", default="0")
    p.add_argument("--d", type=int, default=None,
                   help="single slope: emit its profile as CSV; omit to "
                        "verify the projection laws across all slopes")


def _ec_count_args(p):
    _p_arg(p)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)


def _legit_gen_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=GENERATOR_MODES, default="pairwise")


def _legit_color_args(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--permute-seed", dest="permute_seed", type=int, default=None)


def _legit_verify_args(p):
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--coloring", required=True)


# A leaf command is (help, the function that adds its own arguments, the
# shared flags it reads, its handler); a group is (help, the table of its
# subcommands).  `secants --help` lists them in this order.
_COMMANDS = {
    "plane": ("dump the normalized point or line triples", _plane_args, (), cmd_plane),
    "spectrum": ("secant spectrum of a set", _spectrum_args, ("seed",), cmd_spectrum),
    "sweep": ("construction sweep over a prime list", _sweep_args, ("threads",), cmd_sweep),
    "exhaustive": ("exact min-max search (q <= 4)", _q_arg, ("threads",), cmd_exhaustive),
    "search": ("hill-descent probe of the min-max value", _search_args, ("seed",),
               cmd_search),
    "charwalk": ("character prefix-sum walk", _charwalk_args, (), cmd_charwalk),
    "projection": ("parallel-class profiles of the under-parabola region",
                   _projection_args, (), cmd_projection),
    "ec": ("elliptic curve point counts and region scan", {
        "count": (None, _ec_count_args, (), cmd_ec_count),
        "scan": (None, _p_arg, (), cmd_ec_scan)}),
    "legit": ("linear hypergraphs and two-phase coloring", {
        "gen": (None, _legit_gen_args, ("seed",), cmd_legit_gen),
        "color": (None, _legit_color_args, (), cmd_legit_color),
        "verify": (None, _legit_verify_args, (), cmd_legit_verify)}),
}


def _add_commands(parser, dest: str, commands: dict, argv) -> None:
    """Only the command that argv[0] names gets a parser, with its
    arguments; when argv names none, every command does, so that help and
    the invalid-choice error list them all."""
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Command)
    if argv and argv[0] in commands:
        commands, argv = {argv[0]: commands[argv[0]]}, argv[1:]
    else:
        argv = ()
    for name, (help_text, *row) in commands.items():
        p = sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
        if isinstance(row[0], dict):
            _add_commands(p, f"{name}_cmd", row[0], argv)
            continue
        arguments, flags, handler = row
        arguments(p)
        for flag in flags:      # --seed and --threads where they are read
            p.add_argument(f"--{flag}", type=int, default=0 if flag == "seed" else 1)
        p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(func=handler)


def build_parser(argv=()) -> _Parser:
    """The parser for argv: the subcommand that argv chooses, at each
    level, or the whole tree where it chooses none."""
    parser = _Parser(prog="secants", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    _add_commands(parser, "command", _COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        for flag, least in (("threads", 1), ("iters", 0), ("restarts", 1), ("seeds", 1)):
            value = getattr(args, flag, least)
            if value < least:
                raise ValueError(f"--{flag} must be at least {least}, got {value}")
        if getattr(args, "threads", 1) > MAX_THREADS:
            raise ValueError(f"--threads must be at most {MAX_THREADS}, got {args.threads}")
        for flag in ("seed", "permute-seed"):
            seed = getattr(args, flag.replace("-", "_"), None)
            if seed is not None and not 0 <= seed < 2 ** 128:
                raise ValueError(f"--{flag} must be in [0, 2**128), got {seed}")
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:  # library errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:     # a fault of the program, not of its input
        msg = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {msg}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
