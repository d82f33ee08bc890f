"""Finite field arithmetic for GF(p) and GF(p^k).

Elements are encoded as integers in [0, q-1]: the base-p digits of an
encoding are the coefficients of the residue polynomial, lowest degree
first.  For prime fields this is the ordinary residue in [0, p-1], so
encodings double as the integer lift used by the order-based
constructions.

GF(p^k) is built from digit arrays with numpy alone.  The modulus is
the lexicographically smallest monic irreducible of degree k, found by
sieving the products of monic factors of degrees d and k-d for each
d <= k/2.  Every field, GF(p) as the case k = 1, has exp/log tables: the
powers of the first primitive element, built by doubling with k x k
multiplication matrices over GF(p).  A field builds them the first time
an operation reads them, so a field that never inverts holds none.
Python-list helpers for the modulus and the tables live in
tests/conftest.py as their independent oracle.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

class FieldError(ValueError):
    """Invalid field construction or an operation outside its domain."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test.  The 13 prime bases up to 41 decide
    every n < 3317044064679887385961981 (Sorenson and Webster, 2015); at or
    past that bound the test raises FieldError instead of guessing."""
    if n >= 3317044064679887385961981:
        raise FieldError(f"{n} is past the bound of the deterministic primality test")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n in bases:
        return n >= 2
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method on integers from
    the overestimate 2 ** ceil(bits/k)."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factor_prime_power(q: int):
    """Return (p, k) with q = p**k, or None if q is not a prime power: each
    exact integer k-th root of q, largest k first, tested with is_prime."""
    if q < 2:
        return None
    for k in range(q.bit_length() - 1, 0, -1):      # 2**k <= q
        p = _integer_root(q, k)
        if p ** k == q and is_prime(p):
            return p, k
    return None


def _decode_digits(e, p: int, k: int) -> np.ndarray:
    """Base-p digits of each encoding in e, lowest first, on a new last axis."""
    return (np.asarray(e)[..., None] // p ** np.arange(k)) % p


def _smallest_irreducible(p: int, k: int):
    """Lexicographically smallest monic irreducible of degree k over GF(p),
    low-degree coefficients compared first: the first coefficient vector
    that no product of monic factors of degrees d and k-d reaches, sieved
    over all such products at once for each d <= k/2."""
    rank = p ** np.arange(k - 1, -1, -1)      # lexicographic rank of a vector
    reducible = np.zeros(p ** k, dtype=bool)
    for d in range(1, k // 2 + 1):
        a = _decode_digits(np.arange(p ** d) + p ** d, p, d + 1)        # monic, degree d
        b = _decode_digits(np.arange(p ** (k - d)) + p ** (k - d), p, k - d + 1)
        prod = np.zeros((len(a), len(b), k + 1), dtype=np.int64)
        for i in range(d + 1):
            prod[:, :, i:i + k - d + 1] += a[:, None, i, None] * b
        reducible[(prod[..., :k] % p) @ rank] = True
    return tuple(_decode_digits(int(np.argmin(reducible)), p, k)[::-1].tolist()) + (1,)


def _exp_log_tables(p: int, k: int, modulus):
    """Exp/log tables of GF(p^k) for the first primitive element g in
    encoding order.  Multiplication by g is the k x k matrix over GF(p)
    that maps the digit row of a to that of g*a, a sum of powers of the
    companion matrix of multiplication by x (at k = 1 the 1 x 1 matrix
    [g], with no modulus read); the powers of g are built by doubling, the
    block g^m..g^(2m-1) as g^0..g^(m-1) times the matrix of g^m, and a
    candidate is dropped once a block holds 1 before g^(q-1).

    log[0] is the sentinel 2(q-1) and exp is zero from index 2(q-1) on, so
    exp[log[a] + log[b]] is the product even when a or b is zero.  Each
    int64 entry of a product of digit matrices is below q^2, so exact for
    q < 2^31; other orders raise FieldError."""
    q = p ** k
    if not 2 <= q < 2 ** 31:
        raise FieldError(f"no exact int64 exp/log tables of order {q}")
    x_powers = np.empty((k, k, k), dtype=np.int64)   # multiplication by x^i
    x_powers[0] = np.eye(k)
    if k > 1:
        x_times = np.eye(k, k, 1, dtype=np.int64)    # row i: digits of x * x^i
        x_times[-1] = -np.asarray(modulus[:k]) % p
        for i in range(1, k):
            x_powers[i] = x_powers[i - 1] @ x_times % p
    weight = p ** np.arange(k)
    # GF(p)* has order p-1 < q-1 for k > 1; GF(2)* is {1}
    for g in range(p if k > 1 else 1, q):
        times = np.einsum("i,ijk->jk", _decode_digits(g, p, k), x_powers) % p
        powers = np.eye(1, k, dtype=np.int64)         # digit rows of g^0 .. g^(m-1)
        while len(powers) < q - 1:
            block = powers[: q - 1 - len(powers)] @ times % p
            if (block @ weight == 1).any():
                break                                 # g has order below q-1
            powers = np.concatenate([powers, block])
            times = times @ times % p
        else:
            break
    exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
    exp[: 2 * (q - 1)] = np.tile(powers @ weight, 2)
    log = np.empty(q, dtype=np.int64)
    log[exp[: q - 1]] = np.arange(q - 1)
    log[0] = 2 * (q - 1)
    return exp, log


def _lookup(table: np.ndarray, idx):
    """table[idx], as a Python int when idx is a scalar."""
    out = table[idx]
    return out if isinstance(out, np.ndarray) else int(out)


class Field:
    """The finite field GF(q) = GF(p^k) with integer-encoded elements.

    Every arithmetic operation accepts Python ints or integer numpy arrays
    (broadcast against each other) and returns the same kind.  Addition is
    digit-wise mod p; inversion, and multiplication for k > 1, are lookups
    in the exp/log tables (_tables), which every field has and builds the
    first time they are read.  For k > 1 the constructor works out its own
    modulus, the smallest irreducible (see the module note), which the
    tables are built from.  It rejects a p that is not prime, so the
    characteristic of every field, and of every plane built on one, is
    prime; it rejects a degree k that is not an int >= 1 too.

    Its value never changes after construction, and every operation is
    pure, so instances can be shared freely across workers.  A first read
    of the tables racing across threads may build them twice, never
    differently.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not a prime")
        if type(k) is not int or k < 1:
            raise FieldError(f"degree must be an integer >= 1, got {k!r}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = None
        if k > 1:
            self.modulus = _smallest_irreducible(p, k)

    @cached_property
    def _tables(self):
        """(exp, log) of _exp_log_tables, built on first read."""
        return _exp_log_tables(self.p, self.k, self.modulus)

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k}; modulus={list(self.modulus)})"

    # -- arithmetic ----------------------------------------------------------

    def _digitwise(self, a, b, sign):
        """a + sign*b, coefficient by coefficient mod p."""
        p, out, s = self.p, 0, 1
        for _ in range(self.k):
            out = out + ((a // s + sign * (b // s)) % p) * s
            s *= p
        return out

    def add(self, a, b):
        return self._digitwise(a, b, 1)

    def sub(self, a, b):
        return self._digitwise(a, b, -1)

    def neg(self, a):
        return self._digitwise(0, a, -1)

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        exp, log = self._tables
        return _lookup(exp, log[a] + log[b])

    def inv(self, a):
        if np.any(np.equal(a, 0)):
            raise FieldError("zero has no multiplicative inverse")
        exp, log = self._tables
        return _lookup(exp, (self.q - 1) - log[a])


@lru_cache(maxsize=128)
def legendre_table(p: int) -> np.ndarray:
    """int8 array of length p with the quadratic character of each residue."""
    if p == 2 or not is_prime(p):
        raise FieldError(f"{p} is not an odd prime")
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    sq = (np.arange(1, p, dtype=np.int64) ** 2) % p
    chi[sq] = 1
    return chi


def make_field(q: int) -> Field:
    """Build GF(q), factoring q = p^k."""
    fac = factor_prime_power(q)
    if fac is None:
        raise FieldError("not a prime power")
    return Field(*fac)
