"""Finite field arithmetic for GF(p) and GF(p^k).

Elements are encoded as integers in [0, q-1]: the base-p digits of an
encoding are the coefficients of the residue polynomial, lowest degree
first.  For prime fields this is the ordinary residue in [0, p-1], so
encodings double as the integer lift used by the order-based
constructions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

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


# -- polynomial helpers over GF(p), coefficients low degree first ------------

def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return [x % p for x in a[:dm]] + [0] * max(0, dm - len(a))


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _is_irreducible(poly, p):
    """Trial division of a monic polynomial by every monic divisor of
    degree at most deg/2 (degree-1 trials subsume the root check)."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for enc in range(p ** d):
            div = _decode_digits(enc, p, d).tolist() + [1]
            if all(c == 0 for c in _poly_mod(poly, div, p)):
                return False
    return True


def _decode_digits(e, p: int, k: int) -> np.ndarray:
    """Base-p digits of each encoding in e, lowest first, on a new last axis."""
    return (np.asarray(e)[..., None] // p ** np.arange(k)) % p


def _encode_digits(digits, p: int) -> int:
    e = 0
    for d in reversed(digits):
        e = e * p + d
    return e


def _smallest_irreducible(p: int, k: int):
    """Lexicographically smallest monic irreducible of degree k over GF(p),
    low-degree coefficients compared first."""
    for low in itertools.product(range(p), repeat=k):
        poly = list(low) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")


def _exp_log_tables(p: int, k: int, modulus):
    """Exp/log tables of GF(p^k) for the first primitive element in
    encoding order, found and powered with the polynomial helpers.

    log[0] is the sentinel 2(q-1) and exp is zero from index 2(q-1) on, so
    exp[log[a] + log[b]] is the product even when a or b is zero."""
    q = p ** k
    mod = list(modulus)
    for g in range(2, q):
        gd = _decode_digits(g, p, k).tolist()
        powers, x = [1], [1]
        while len(powers) < q - 1:
            x = _poly_mod(_poly_mul(x, gd, p), mod, p)
            e = _encode_digits(x, p)
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


def _lookup(table: np.ndarray, idx):
    """table[idx], as a Python int when idx is a scalar."""
    out = table[idx]
    return out if isinstance(out, np.ndarray) else int(out)


class Field:
    """The finite field GF(q) = GF(p^k) with integer-encoded elements.

    Every arithmetic operation accepts Python ints or integer numpy arrays
    (broadcast against each other) and returns the same kind.  Addition is
    digit-wise mod p; for k > 1, multiplication and inversion are lookups
    in exp/log tables of length O(q), built once from the modulus.
    The constructor rejects a p that is not prime, so the characteristic
    of every field, and of every plane built on one, is prime.

    Immutable after construction; every operation is pure, so instances
    can be shared freely across workers.
    """

    def __init__(self, p: int, k: int, modulus=None):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not a prime")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(modulus) if modulus is not None else None
        if k > 1:
            if (self.modulus is None or len(self.modulus) != k + 1
                    or self.modulus[-1] != 1):
                raise FieldError("extension field requires a monic modulus of degree k")
            if not _is_irreducible(list(self.modulus), p):
                raise FieldError("modulus is reducible over the prime field")
            self._exp, self._log = _exp_log_tables(p, k, self.modulus)

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
        return _lookup(self._exp, self._log[a] + self._log[b])

    def inv(self, a):
        if np.any(np.equal(a, 0)):
            raise FieldError("zero has no multiplicative inverse")
        if self.k > 1:
            return _lookup(self._exp, (self.q - 1) - self._log[a])
        if isinstance(a, np.ndarray):
            return inverse_table(self.p)[a]
        return pow(a, self.p - 2, self.p)


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


@lru_cache(maxsize=128)
def inverse_table(p: int) -> np.ndarray:
    """int64 array: multiplicative inverses mod a prime p (index 0 unused,
    set to 0), each a^(p-2) by square-and-multiply over the whole array.
    Every product is below p^2, exact in int64 for p < 2^31."""
    if not 2 <= p < 2 ** 31:
        raise FieldError(f"no exact int64 inverse table mod {p}")
    base = np.arange(p, dtype=np.int64)
    inv = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            np.remainder(np.multiply(inv, base, out=inv), p, out=inv)
        e >>= 1
        if e:
            np.remainder(np.multiply(base, base, out=base), p, out=base)
    inv[0] = 0
    return inv


def make_field(q: int) -> Field:
    """Build GF(q), factoring q = p^k; for k > 1 the modulus is the
    lexicographically smallest monic irreducible of degree k."""
    fac = factor_prime_power(q)
    if fac is None:
        raise FieldError("not a prime power")
    p, k = fac
    if k == 1:
        return Field(p, 1)
    return Field(p, k, _smallest_irreducible(p, k))
