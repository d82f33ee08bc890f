"""Shared brute-force oracles and the test-only helpers, kept deliberately
independent of the library's counting kernel and line solver: everything
here goes through python sets, the incidence test `incident` (the field's
arithmetic on decoded triples), Euler's criterion and an itertools
enumeration of the normalized triples only.  The gather check and the
local-search loop are exceptions: they read the plane's line solver,
which test_plane checks against `incident`, and never the Radon
transform.  So is the per-line reader of the kernel's stream, which
places `secant_count_blocks` by line index with the plane's `index_of`;
test_spectrum checks that placement against `chart_stream_lines` and
the set oracle.  The modulus and exp/log tables of GF(p^k) are checked
against trial division and one-product-at-a-time powering on Python
lists."""

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from random import Random

import numpy as np
import pytest

from secants.construct import ec_region
from secants.ecurve import CurveError, curve_count
from secants.plane import PlaneError
from secants.spectrum import secant_count_blocks


@lru_cache(maxsize=None)
def normalized_triples(q):
    """The nonzero triples over range(q) whose first nonzero entry is 1, in
    lexicographic order: entry i is the triple of point (and line) i."""
    return [t for t in itertools.product(range(q), repeat=3)
            if next((c for c in t if c), 0) == 1]


@lru_cache(maxsize=None)
def projective_classes(plane):
    """Every nonzero triple over GF(q), mapped to the index of its class
    through all scalar multiples of the normalized triples."""
    F = plane.field
    return {tuple(F.mul(s, c) for c in t): i
            for i, t in enumerate(normalized_triples(plane.q)) for s in range(1, plane.q)}


def class_of(plane, *triple):
    """Index of the class of a nonzero triple over GF(q), looked up in
    `projective_classes`, never through the library's codec or tables:
    (x, y, 1) is the affine point (x, y), [d, -1, b] the line y = dx + b."""
    return projective_classes(plane)[triple]


def incident(plane, point_idx, line_idx):
    """Whether each point lies on each line, a.x + b.y + c.z = 0 over the
    field on the decoded triples; the index arrays broadcast."""
    F = plane.field
    x, y, z = np.moveaxis(plane.triples(point_idx), -1, 0)
    a, b, c = np.moveaxis(plane.triples(line_idx), -1, 0)
    return F.add(F.add(F.mul(a, x), F.mul(b, y)), F.mul(c, z)) == 0


def line_through(plane, p_idx, q_idx):
    """The unique line through two distinct points, as the cross product of
    their triples, looked up with `class_of`."""
    if p_idx == q_idx:
        raise PlaneError("identical points")
    F = plane.field
    P, Q = (normalized_triples(plane.q)[i] for i in (p_idx, q_idx))
    return class_of(plane, *(F.sub(F.mul(P[i], Q[j]), F.mul(P[j], Q[i]))
                             for i, j in ((1, 2), (2, 0), (0, 1))))


def chart_stream_lines(plane):
    """The line index at each position of the stream of
    `secant_count_blocks`, in its documented chart order, looked up with
    `class_of`: the line [-a : 1 : 0] through (0 : 0 : 1) and the row
    (1 : a : *) for a = 0..q-1, then x = 0, [1 : 0 : 0], then [c : t : 1]
    for t = 0..q-1 and, within t, c = 0..q-1."""
    F, q = plane.field, plane.q
    return np.array([class_of(plane, F.neg(a), 1, 0) for a in range(q)]
                    + [class_of(plane, 1, 0, 0)]
                    + [class_of(plane, c, t, 1) for t in range(q) for c in range(q)])


def stream_lines(plane):
    """The line index at each position of the stream of
    `secant_count_blocks`, encoded with the plane's `index_of` from the
    documented triples: [-a : 1 : 0] for a = 0..q-1, [1 : 0 : 0], then
    [c : t : 1] for t = 0..q-1 and, within t, c = 0..q-1.
    `chart_stream_lines` builds the same map through `class_of`, which is
    too slow at q = 997."""
    F, q = plane.field, plane.q
    a = np.arange(q)
    t, c = np.divmod(np.arange(q * q), q)
    return plane.index_of(np.concatenate([
        np.column_stack([F.neg(a), np.ones_like(a), np.zeros_like(a)]), [[1, 0, 0]],
        np.column_stack([c, t, np.ones_like(t)])]))


def stream_secant_counts(plane, mask):
    """The int64 per-line counts |S ∩ line| in line-index order: the
    blocks of `secant_count_blocks`, joined and placed by `stream_lines`."""
    n_ell = np.empty(plane.N, dtype=np.int64)
    n_ell[stream_lines(plane)] = np.concatenate(list(secant_count_blocks(plane, mask)))
    return n_ell


def slope_lines(plane):
    """(q, q) table: [d, b] is the index of the line y = d*x + b,
    [d : -1 : b], encoded with the plane's `index_of`."""
    d, b = np.meshgrid(np.arange(plane.q), np.arange(plane.q), indexing="ij")
    return plane.index_of(np.stack([d, np.full_like(d, plane.field.neg(1)), b], -1))


def mask_of(plane, indices):
    """The read-only membership mask of the points with these indices;
    a negative index is refused, since it would alias from the end."""
    idx = np.asarray(indices, dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= plane.N)]
    if bad.size:
        raise ValueError(f"point index {bad[0]} out of range")
    mask = np.zeros(plane.N, dtype=bool)
    mask[idx] = True
    mask.flags.writeable = False
    return mask


def contains(mask, idx):
    """Whether a point set holds the point with this index."""
    return 0 <= idx < mask.size and bool(mask[idx])


@lru_cache(maxsize=None)
def naive_line_points(plane):
    """Per-line point sets from one `incident` test of every line against
    every point, independent of the library's line solver."""
    idx = np.arange(plane.N)
    return [frozenset(np.flatnonzero(row).tolist())
            for row in incident(plane, idx, idx[:, None])]


def naive_secant_counts(plane, member_indices):
    """Per-line |S ∩ line| by set intersection over explicit point lists."""
    S = set(int(i) for i in member_indices)
    return [len(S & line) for line in naive_line_points(plane)]


def gather_secant_counts(plane, mask):
    """Per-line |S ∩ line| gathered from the solved incidence, O(q^3): a
    cross-check of the transform for planes too large for the set oracle."""
    return mask[plane.line_points()].sum(axis=1, dtype=np.int64)


def naive_histogram(plane, member_indices):
    counts = naive_secant_counts(plane, member_indices)
    hist = [0] * (plane.q + 2)
    for c in counts:
        hist[c] += 1
    return hist


def assert_spectrum_matches_naive(plane, mask, n_ell):
    expect = naive_secant_counts(plane, np.flatnonzero(mask))
    assert n_ell.tolist() == expect


def histogram_counts(doc):
    """The counts of a spectrum document's histogram, in order of k."""
    return [entry["count"] for entry in doc["histogram"]]


def identity_residuals(q, s, n_ell):
    """The residuals of the two standard equations Σn = s(q+1) and
    Σn(n-1) = s(s-1) and of the variance identity N*Σn² - (Σn)² = q*s*(N-s)
    for per-line counts n of a set of size s, summed on Python ints: all
    three are zero for every set in every plane of order q."""
    n = [int(v) for v in n_ell]
    N = q * q + q + 1
    sum_n, sum_n2 = sum(n), sum(v * v for v in n)
    return (sum_n - s * (q + 1), sum_n2 - sum_n - s * (s - 1),
            N * sum_n2 - sum_n * sum_n - q * s * (N - s))


def naive_local_search(plane, iters, seed, restarts):
    """The local search as a per-flip Python loop: every step copies the
    histogram and moves each line through the flipped point by hand.  It
    takes its incidence from the plane's line solver (checked against
    `naive_line_points` in test_plane, and checked symmetric there, so the
    same rows list the lines through each point) and returns
    (best_mode_count, witness point list, subsets_examined)."""
    q, N = plane.q, plane.N
    line_points = plane.line_points().tolist()
    point_lines = line_points

    def score(hist):
        return max(hist), (q + 2) * sum(c * c for c in hist) - N * N

    rng = Random(seed)
    best = None
    examined = 0
    for _ in range(max(1, restarts)):
        bits = rng.getrandbits(N)
        mask = [(bits >> i) & 1 for i in range(N)]
        n_ell = [sum(mask[pt] for pt in line) for line in line_points]
        hist = [0] * (q + 2)
        for n in n_ell:
            hist[n] += 1
        cur = score(hist)
        for _ in range(iters):
            move = None
            for pt in range(N):
                sign = -1 if mask[pt] else 1
                trial = hist[:]
                for ell in point_lines[pt]:
                    trial[n_ell[ell]] -= 1
                    trial[n_ell[ell] + sign] += 1
                s = score(trial)
                examined += 1
                if s < cur and (move is None or s < move[0]):
                    move = (s, pt)
            if move is None:
                break
            cur, pt = move
            sign = -1 if mask[pt] else 1
            mask[pt] ^= 1
            for ell in point_lines[pt]:
                hist[n_ell[ell]] -= 1
                n_ell[ell] += sign
                hist[n_ell[ell]] += 1
        # restarts tie on the smaller bitmap (bit i = point i)
        bitmap = sum(1 << i for i in range(N) if mask[i])
        if best is None or (*cur, bitmap) < best:
            best = (*cur, bitmap)
    witness = [i for i in range(N) if (best[2] >> i) & 1]
    return best[0], witness, examined


def trial_division_is_prime(n):
    """Primality by trial division by 2 and every odd f with f*f <= n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def trial_division_prime_power(q):
    """(p, k) with q = p**k by dividing out the smallest factor p >= 2 of
    q, or None if q is not a prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k, m = 0, q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return q, 1


# -- polynomial arithmetic over GF(p) on Python lists, coefficients low
# degree first: the oracle of GF(p^k)'s modulus and exp/log tables ---------

def decode_digits(e, p, k):
    """The k base-p digits of the integer e, lowest first."""
    return [e // p ** i % p for i in range(k)]


def encode_digits(digits, p):
    e = 0
    for d in reversed(digits):
        e = e * p + d
    return e


def poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return [x % p for x in a[:dm]] + [0] * max(0, dm - len(a))


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def is_irreducible(poly, p):
    """Trial division of a monic polynomial by every monic divisor of
    degree at most deg/2 (degree-1 trials subsume the root check)."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for enc in range(p ** d):
            div = decode_digits(enc, p, d) + [1]
            if all(c == 0 for c in poly_mod(poly, div, p)):
                return False
    return True


def smallest_irreducible(p, k):
    """Lexicographically smallest monic irreducible of degree k over GF(p),
    low-degree coefficients compared first."""
    for low in itertools.product(range(p), repeat=k):
        poly = list(low) + [1]
        if is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


def exp_log_tables(p, k, modulus):
    """Exp/log tables of GF(p^k) for the first primitive element in
    encoding order, found and powered one product at a time, laid out
    as the library's: exp holds the q-1 powers twice and then zeros up to
    index 4(q-1), and log[0] is the sentinel 2(q-1)."""
    q = p ** k
    mod = list(modulus)
    for g in range(2, q):
        gd = decode_digits(g, p, k)
        powers, x = [1], [1]
        while len(powers) < q - 1:
            x = poly_mod(poly_mul(x, gd, p), mod, p)
            e = encode_digits(x, p)
            if e == 1:
                break
            powers.append(e)
        if len(powers) == q - 1:
            break
    exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
    exp[: 2 * (q - 1)] = powers * 2
    log = np.empty(q, dtype=np.int64)
    log[powers] = np.arange(q - 1)
    log[0] = 2 * (q - 1)
    return exp, log


def slice_rows(field, t, cols):
    """The encodings of M_t^T v for the dual digit vector v of each of the
    cols columns of the Radon kernel's half-spectrum, whose lowest digit
    is col % (p//2 + 1) and whose other digits are those of
    col // (p//2 + 1): digit j of M_t^T v is sum_r digit_r(t * p^j) * v_r
    mod p, the field's product t * p^j being column j of M_t.  The digit
    formula, with no orbit table."""
    p, k = field.p, field.k
    half = p // 2 + 1
    mt = np.array([decode_digits(field.mul(t, p ** j), p, k) for j in range(k)])
    v = np.array([[col % half] + decode_digits(col // half, p, k - 1) for col in range(cols)])
    return (v @ mt.T % p) @ (p ** np.arange(k))


def chi(p, v):
    """The quadratic character of v mod an odd prime p, by Euler's criterion."""
    v %= p
    return 0 if v == 0 else (1 if pow(v, (p - 1) // 2, p) == 1 else -1)


def phi_sum(p, u, a):
    """Moving character sum chi(u) + chi(u-1) + ... + chi(u-a+1)."""
    if not 0 <= a <= p:
        raise ValueError(f"window length {a} out of range [0, {p}]")
    return sum(chi(p, u - t) for t in range(a))


def cubic_root_count(p, m, b):
    """Number of distinct x in F_p with x^3 - m*x - b = 0, by scan."""
    return sum((x * x * x - m * x - b) % p == 0 for x in range(p))


def curve_count_bruteforce(p, a, b):
    """Point count of Y^2 = X^3 + aX + b over F_p: enumerate all (x, y)
    pairs plus infinity."""
    if (4 * a ** 3 + 27 * b * b) % p == 0:
        raise CurveError("singular curve")
    total = 1
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if (y * y) % p == rhs:
                total += 1
    return total


def curve_counts_by_line(p):
    """{(m, b): |E|} of Y^2 = X^3 - mX - b for every nonsingular line
    v = mx + b, each from its own O(p) sum `curve_count`, which
    test_ecurve checks against enumeration."""
    return {(m, b): curve_count(p, -m, -b)["count"]
            for m in range(p) for b in range(p) if (27 * b * b - 4 * m ** 3) % p}


@dataclass
class LineCurveRelation:
    p: int
    m: int
    b: int
    n_ell: int = 0
    roots: int = 0          # distinct roots of X^3 - mX - b
    curve_count: int = 0
    holds: bool = False
    skipped: str | None = None   # "singular" when -4m^3 + 27b^2 = 0


def line_curve_check(plane, m, b, region=None):
    """Check |E(Y^2 = X^3 - mX - b)| = 2*n + 1 - Z on the line v = mx + b
    of the cubic-square region, one line at a time: n by the character of
    x^3 - m*x - b, checked against the region's membership; the count by
    enumeration."""
    p = plane.field.p
    m %= p
    b %= p
    if (-4 * m ** 3 + 27 * b * b) % p == 0:
        return LineCurveRelation(p=p, m=m, b=b, skipped="singular")
    if region is None:
        region, _ = ec_region(plane)
    n = sum(chi(p, x * x * x - m * x - b) >= 0 for x in range(p))
    line_n = sum(contains(region, class_of(plane, x, (m * x + b) % p, 1))
                 for x in range(p))
    assert line_n == n, "region membership disagrees with character scan"
    z = cubic_root_count(p, m, b)
    count = curve_count_bruteforce(p, (-m) % p, (-b) % p)
    return LineCurveRelation(p=p, m=m, b=b, n_ell=n, roots=z, curve_count=count,
                             holds=count == 2 * n + 1 - z)


@pytest.fixture(scope="session")
def fano():
    from secants.plane import build_plane
    return build_plane(2)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
