"""Point-set constructions over PG(2,p).

Three deterministic families live in the affine part of the plane: the
region strictly under a parabola in the integer-lift order, a stack of
vertically shifted parabolas, and the region where a depressed cubic in
the line coordinates is a square.  The fourth construction samples every
point of the plane (infinite line included) independently at a rational
density, using a counter-based generator so the decision for point i
depends only on (seed, i).

None of the deterministic constructions contains infinite points; the
infinite line simply shows up as a 0-secant in their spectra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

import numpy as np

from .field import legendre_table
from .plane import _SOLVE_BLOCK_ENTRIES, ProjectivePlane


class ConstructionError(ValueError):
    pass


def require_prime_plane(plane: ProjectivePlane, min_p: int) -> int:
    """The order p of a prime plane PG(2,p) with p > min_p (the field has
    already checked that its characteristic is prime)."""
    F = plane.field
    if F.k != 1 or F.p <= min_p:
        raise ConstructionError(f"requires a prime plane with p > {min_p}, got q={F.q}")
    return F.p


def _from_affine_grid(plane, grid, meta):
    """(mask, meta) of the set of the affine points (x, y) with grid[x, y] set."""
    mask = np.zeros(plane.N, dtype=bool)
    mask[plane.affine_points()] = grid
    mask.flags.writeable = False
    return mask, meta


def _shifted_rows(pattern: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """(len(shifts), p) grid whose row i is the length-p pattern shifted
    cyclically by shifts[i]: row[y] = pattern[(y - shifts[i]) mod p].
    Each row is a window of the doubled pattern."""
    p = pattern.size
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(pattern, 2), p)
    return windows[(p - shifts) % p]


def random_set(plane: ProjectivePlane, density, seed: int):
    """(mask, meta) of a Bernoulli sample of all N plane points at an exact
    rational density.

    Point i is kept iff the i-th draw of a Philox stream keyed by the seed
    lands below density, so membership is reproducible point by point.  The
    draws are taken in blocks of _SOLVE_BLOCK_ENTRIES points, which continue
    one stream: the mask equals that of a single draw of all N.
    """
    density = Fraction(density)
    if not 0 <= density <= 1:
        raise ConstructionError("density must lie in [0, 1]")
    num, den = density.numerator, density.denominator
    if den > 2 ** 63:               # the draws are int64 integers below den
        raise ConstructionError(f"density {num}/{den} has a denominator past 2^63")
    meta = {"construction": "random", "density": f"{num}/{den}",
            "generator": "philox4x64", "seed": int(seed)}
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    mask = np.empty(plane.N, dtype=bool)
    for lo in range(0, plane.N, _SOLVE_BLOCK_ENTRIES):
        block = mask[lo:lo + _SOLVE_BLOCK_ENTRIES]
        block[:] = rng.integers(0, den, size=block.size, dtype=np.int64) < num
    mask = mask.copy()      # frees the draw buffer: large-prime peak RSS 4.5 MB lower
    mask.flags.writeable = False
    return mask, meta


def under_parabola(plane: ProjectivePlane, alpha: int, beta: int, gamma: int):
    """((alpha, beta, gamma) mod p, f) of the parabola y = alpha*x^2 +
    beta*x + gamma, alpha != 0 mod p, on the prime plane PG(2,p), p > 3:
    f[x] = alpha*x^2 + beta*x + gamma, in O(p).  Horner's rule with a
    reduction after each product keeps every int64 term below p^2."""
    p = require_prime_plane(plane, 3)
    alpha, beta, gamma = alpha % p, beta % p, gamma % p
    if alpha == 0:
        raise ConstructionError("parabola needs alpha != 0")
    x = np.arange(p, dtype=np.int64)
    return (alpha, beta, gamma), ((alpha * x + beta) % p * x + gamma) % p


def parabola_region(plane: ProjectivePlane, alpha: int, beta: int, gamma: int):
    """(mask, meta) of the affine points strictly under the parabola in the
    integer-lift order: S = {(x, y) : lift(alpha*x^2 + beta*x + gamma) < lift(y)}."""
    (alpha, beta, gamma), f = under_parabola(plane, alpha, beta, gamma)
    meta = {"construction": "parabola", "alpha": alpha, "beta": beta, "gamma": gamma}
    return _from_affine_grid(plane, np.arange(f.size) > f[:, None], meta)


def parabola_family(plane: ProjectivePlane, c):
    """(mask, meta) of the union of the first a = floor(c*p) vertical shifts
    of y = x^2, for an exact c in (0,1):
    S = {(x, x^2 + t) : x in F_p, 0 <= t < a}, of size p*a."""
    c = Fraction(c)
    if not 0 < c < 1:
        raise ConstructionError("family density c must lie in (0,1)")
    p = require_prime_plane(plane, 2)
    a = c.numerator * p // c.denominator
    if a == 0:
        raise ConstructionError(f"stack height a={a} out of range for p={p}")
    x = np.arange(p, dtype=np.int64)
    meta = {"construction": "family", "c": str(c), "a": a}
    return _from_affine_grid(plane, _shifted_rows(x < a, x * x % p), meta)


def ec_region(plane: ProjectivePlane):
    """(mask, meta) of the affine points (x, v) for which x^3 - v is a
    square (zero included); each row x contributes exactly (p+1)/2 points.
    Row x is the pattern t -> [-t is a square] shifted by x^3, built in
    O(p^2) bool work."""
    p = require_prime_plane(plane, 3)
    x = np.arange(p, dtype=np.int64)
    square = legendre_table(p)[-x % p] >= 0
    return _from_affine_grid(plane, _shifted_rows(square, x * x % p * x % p),
                             {"construction": "ecregion"})


# -- set-file round trip -------------------------------------------------------

def pointset_to_json(plane: ProjectivePlane, mask: np.ndarray) -> dict:
    """JSON document {q, affine: [[x,y],...], projective: [[x,y,z],...]}
    of the set with this mask: (x/z, y/z) for each member with z != 0, its
    triple otherwise, both in index order."""
    t = plane.triples(np.flatnonzero(mask))
    fin = t[:, 2] != 0
    affine = plane.field.mul(t[fin, :2], plane.field.inv(t[fin, 2:]))
    return {"q": plane.q, "affine": affine.tolist(), "projective": t[~fin].tolist()}


def _point_block(listed, length: int, q: int):
    """listed as an (m, length) int64 array when every entry is a list of
    `length` integers in [0, q), not all zero; else None.  The types are
    checked in one pass in C (a JSON true is a bool, not an int) and the
    values on the array."""
    if type(listed) is not list:
        return None
    if not listed:
        return np.empty((0, length), dtype=np.int64)
    if (set(map(type, listed)) != {list} or set(map(len, listed)) != {length}
            or set(map(type, chain.from_iterable(listed))) != {int}):
        return None
    try:
        block = np.fromiter(chain.from_iterable(listed), dtype=np.int64,
                            count=length * len(listed)).reshape(-1, length)
    except OverflowError:           # past int64, so not a coordinate either
        return None
    if not ((block >= 0) & (block < q)).all() or not (length == 2 or block.any(axis=1).all()):
        return None
    return block


def pointset_from_json(plane: ProjectivePlane, doc):
    """(mask, meta) of a set file, rejecting any key but q, affine and projective
    and anything but distinct points of this plane.  An error names the
    first bad key, or the first bad or repeated entry in document order:
    the affine entries, then the projective ones."""
    if not isinstance(doc, dict):
        raise ConstructionError("set file must be a JSON object")
    extra = next((key for key in doc if key not in ("q", "affine", "projective")), None)
    if extra is not None:
        raise ConstructionError(f"set file key {extra!r} is not q, affine or projective")
    q = plane.q
    if doc.get("q") != q:
        raise ConstructionError(f"set file is for q={doc.get('q')}, plane has q={q}")
    xy, xyz = (_point_block(doc.get(key, []), length, q)
               for key, length in (("affine", 2), ("projective", 3)))
    error = None
    if xy is None or xyz is None:    # one entry by one, to name the first bad one
        entries = []                 # the entries before the first bad one
        for key, length in (("affine", 2), ("projective", 3)):
            listed = doc.get(key, [])
            if not isinstance(listed, list):
                error = f"set file {key!r} must be a list of points"
                break
            for entry in listed:
                if not (isinstance(entry, list) and len(entry) == length
                        and all(type(c) is int and 0 <= c < q for c in entry)
                        and (length == 2 or any(entry))):
                    error = f"set file {key} entry {entry!r} is not a point of PG(2,{q})"
                    break
                entries.append(entry)
            if error:
                break
        xy = np.array([e for e in entries if len(e) == 2], dtype=np.int64).reshape(-1, 2)
        xyz = np.array(entries[len(xy):], dtype=np.int64).reshape(-1, 3)
    indices = np.concatenate([plane.affine_points()[xy[:, 0], xy[:, 1]],
                              plane.index_of(xyz)])
    repeat = np.ones(indices.size, dtype=bool)         # not a point's first entry
    repeat[np.unique(indices, return_index=True)[1]] = False
    if repeat.any():
        i = int(repeat.argmax())
        entry = xy[i] if i < len(xy) else xyz[i - len(xy)]
        raise ConstructionError(f"set file repeats the point {entry.tolist()!r}")
    if error:
        raise ConstructionError(error)
    mask = np.zeros(plane.N, dtype=bool)
    mask[indices] = True
    mask.flags.writeable = False
    return mask, {"construction": "set-file"}


# -- CLI construction specs ----------------------------------------------------

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConstructionError(f"{text!r} is not a rational number") from exc


def rational_to_element(p: int, text: str) -> int:
    """Map a rational like '1/4' (or an integer) to its F_p element."""
    frac = _fraction(text)
    den = frac.denominator % p
    if den == 0:
        raise ConstructionError(f"denominator of {text} vanishes mod {p}")
    return (frac.numerator % p) * pow(den, p - 2, p) % p


# the arguments each construction takes; the seed comes from the caller
CONSTRUCTION_ARGS = {"random": ("density",), "parabola": ("a", "b", "g"),
                     "family": ("c",), "ecregion": ()}


def parse_construction(text: str):
    """Parse 'parabola:a=1/4,b=1,g=1' style construction specifiers: each
    argument the construction takes at most once, and nothing else."""
    name, _, arg_str = text.partition(":")
    name = name.strip()
    if name not in CONSTRUCTION_ARGS:
        raise ConstructionError(f"unknown construction {name!r}")
    args = {}
    for part in arg_str.split(",") if arg_str else ():
        key, _, val = part.partition("=")
        key, val = key.strip(), val.strip()
        if not val:
            raise ConstructionError(f"malformed construction argument {part!r}")
        if key not in CONSTRUCTION_ARGS[name]:
            hint = "; the seed comes from --seed" if key == "seed" else ""
            raise ConstructionError(
                f"construction {name!r} takes no argument {key!r}{hint}")
        if key in args:
            raise ConstructionError(f"construction argument {key!r} given twice")
        args[key] = val
    return name, args


def build_construction(plane: ProjectivePlane, text: str, seed: int = 0):
    """(mask, meta) of a construction specifier on a plane (random sets at
    `seed`)."""
    name, args = parse_construction(text)
    if name == "random":
        return random_set(plane, _fraction(args.get("density", "1/2")), seed)
    if name == "parabola":
        coeffs = args.get("a", "1"), args.get("b", "0"), args.get("g", "0")
        return parabola_region(plane, *(rational_to_element(plane.field.p, text)
                                        for text in coeffs))
    if name == "family":
        return parabola_family(plane, _fraction(args.get("c", "1/2")))
    return ec_region(plane)
