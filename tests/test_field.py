import random
import threading
import tracemalloc

import numpy as np
import pytest

from secants.field import (Field, FieldError, _exp_log_tables, factor_prime_power, is_prime,
                           legendre_table, make_field)

from conftest import (decode_digits, encode_digits, exp_log_tables, poly_mod, poly_mul,
                      smallest_irreducible, trial_division_is_prime,
                      trial_division_prime_power)


def test_prime_power_factoring():
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(32) == (2, 5)
    assert factor_prime_power(6) is None
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None


def test_primality_and_prime_powers_match_trial_division():
    for n in range(-2, 10 ** 5):
        assert is_prime(n) == trial_division_is_prime(n), n
        assert factor_prime_power(n) == trial_division_prime_power(n), n


def test_primality_at_large_n():
    assert not is_prime(211 * 421 * 631)       # Carmichael: every coprime base is a Fermat liar
    assert not is_prime(3825123056546413051)   # strong pseudoprime to every base <= 23
    assert not is_prime(318665857834031151167461)    # ... and to every base <= 37
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))
    assert factor_prime_power((10 ** 9 + 7) ** 2) == (10 ** 9 + 7, 2)
    assert factor_prime_power((10 ** 9 + 7) * (10 ** 9 + 9)) is None
    assert factor_prime_power(3 ** 39) == (3, 39)
    with pytest.raises(FieldError, match="^3317044064679887385961981 is past the bound"):
        is_prime(3317044064679887385961981)


def test_make_field_examples():
    f7 = make_field(7)
    assert (f7.p, f7.k, f7.q) == (7, 1, 7)
    f9 = make_field(9)
    assert (f9.p, f9.k) == (3, 2)
    with pytest.raises(FieldError, match="not a prime power"):
        make_field(6)


def test_gf9_modulus_is_smallest_irreducible():
    # oracle: exhaust monic quadratics over GF(3) in low-degree-first lex
    # order and take the first with no root
    found = None
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                found = (c0, c1, 1)
                break
        if found:
            break
    assert found == (1, 0, 1)  # x^2 + 1
    assert make_field(9).modulus == found


def test_moduli_are_irreducible_by_root_scan():
    for q in (4, 8, 9, 25, 27):
        f = make_field(q)
        mod = f.modulus
        # no roots in GF(p): a degree <= 3 factor test when k <= 3
        for x in range(f.p):
            acc = 0
            for c in reversed(mod):
                acc = (acc * x + c) % f.p
            assert acc != 0, (q, mod, x)


# make_field(q).modulus for every extension order q <= 4096, as the
# trial-division build gave it before the sieve replaced it
EXTENSION_MODULI = {
    4: (1, 1, 1), 8: (1, 0, 1, 1), 9: (1, 0, 1), 16: (1, 0, 0, 1, 1), 25: (1, 1, 1),
    27: (1, 0, 2, 1), 32: (1, 0, 0, 1, 0, 1), 49: (1, 0, 1), 64: (1, 0, 0, 0, 0, 1, 1),
    81: (1, 0, 1, 1, 1), 121: (1, 0, 1), 125: (1, 0, 1, 1),
    128: (1, 0, 0, 0, 0, 0, 1, 1), 169: (1, 3, 1), 243: (1, 0, 0, 0, 2, 1),
    256: (1, 0, 0, 0, 1, 1, 0, 1, 1), 289: (1, 1, 1), 343: (1, 0, 1, 1), 361: (1, 0, 1),
    512: (1, 0, 0, 0, 0, 0, 0, 0, 1, 1), 529: (1, 0, 1), 625: (1, 0, 1, 1, 1),
    729: (1, 0, 0, 0, 1, 1, 1), 841: (1, 1, 1), 961: (1, 0, 1),
    1024: (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 1331: (1, 0, 4, 1), 1369: (1, 3, 1),
    1681: (1, 1, 1), 1849: (1, 0, 1), 2048: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    2187: (1, 0, 0, 0, 0, 1, 2, 1), 2197: (1, 0, 4, 1), 2209: (1, 0, 1),
    2401: (1, 0, 0, 1, 1), 2809: (1, 1, 1), 3125: (1, 0, 0, 0, 4, 1), 3481: (1, 0, 1),
    3721: (1, 5, 1), 4096: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
}


def test_extension_fields_match_the_list_oracle():
    orders = [q for q in range(4097) if (trial_division_prime_power(q) or (0, 1))[1] >= 2]
    assert orders == list(EXTENSION_MODULI)
    for q in orders:
        f = make_field(q)
        assert f.modulus == EXTENSION_MODULI[q] == smallest_irreducible(f.p, f.k), q
        assert_tables_match_oracle(f)


def assert_tables_match_oracle(f):
    exp, log = exp_log_tables(f.p, f.k, f.modulus)
    fexp, flog = f._tables
    assert fexp.dtype == flog.dtype == np.int64, f.q
    assert np.array_equal(fexp, exp) and np.array_equal(flog, log), f.q


PRIMES_BELOW_1000 = [p for p in range(1000) if is_prime(p)]


@pytest.mark.parametrize("p", PRIMES_BELOW_1000 + [4093, 65537])
def test_prime_field_tables_match_the_oracle(p):
    # the first primitive root in encoding order (1 at p = 2), powered one
    # product at a time, in the layout of the extension tables
    assert_tables_match_oracle(Field(p, 1))


def test_extension_field_build_is_held_in_small_memory():
    # the sieve and the doubling hold O(qk) digits at a time; a build that
    # kept k copies of the (q, k) digit array would break this bound.  The
    # tables are read inside the window, since a field builds them on
    # first read
    make_field(4096)._tables
    tracemalloc.start()
    try:
        make_field(4096)._tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20, peak


@pytest.mark.parametrize("q", [2, 997, 4096])
def test_tables_are_built_on_first_read(q):
    f = make_field(q)
    assert "_tables" not in vars(f)
    f.add(1, 1), f.sub(0, 1), f.neg(1)
    assert "_tables" not in vars(f)
    assert f.inv(1) == 1
    assert f._tables is vars(f)["_tables"]


def test_threads_reading_fresh_tables_get_equal_arrays():
    # four threads race on the first read of each fresh field's tables; a
    # race may build them more than once, but never differently
    for q in (997, 1024, 4093):
        f, start, got = make_field(q), threading.Barrier(4), []

        def read():
            start.wait()
            got.append(f._tables)
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 4
        for exp, log in got:
            assert np.array_equal(exp, got[0][0]) and np.array_equal(log, got[0][1]), q


def test_legendre_examples():
    residues = {(x * x) % 7 for x in range(1, 7)}
    assert residues == {1, 2, 4}
    assert legendre_table(7).tolist() == [0, 1, 1, -1, 1, -1, -1]
    assert legendre_table(7)[3] == -1
    assert legendre_table(7)[0] == 0
    assert legendre_table(5)[4] == 1


def test_legendre_domain_errors():
    with pytest.raises(FieldError, match="^9 is not an odd prime$"):
        legendre_table(9)
    with pytest.raises(FieldError, match="^2 is not an odd prime$"):
        legendre_table(2)


@pytest.mark.parametrize("p", [1, 4, 6, 9])
def test_field_characteristic_must_be_prime(p):
    with pytest.raises(FieldError, match=f"^characteristic {p} is not a prime$"):
        Field(p, 1)


@pytest.mark.parametrize("p, k", [(3, -1), (2, 0), (5, 1.0), (7, True)])
def test_field_degree_must_be_a_positive_int(p, k):
    with pytest.raises(FieldError, match=rf"^degree must be an integer >= 1, got {k!r}$"):
        Field(p, k)


def test_legendre_multiplicative_and_zero_sum():
    for p in range(3, 102):
        if not is_prime(p):
            continue
        chi = legendre_table(p)
        assert int(chi.sum()) == 0
        for a in range(1, p):
            for b in range(1, p):
                assert chi[a * b % p] == chi[a] * chi[b]


def test_legendre_large_prime_path_matches_table():
    # the table at a large prime against Euler's criterion
    p = 65537
    chi = legendre_table(p)
    rng = random.Random(0)
    for x in [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]:
        e = pow(x, (p - 1) // 2, p)
        assert int(chi[x]) == (0 if x == 0 else 1 if e == 1 else -1)


def test_lift_examples():
    # prime-field encodings are the integer lift in [0, p-1]
    f5 = make_field(5)
    assert f5.add(3, 4) == 2
    assert make_field(7).add(0, 0) == 0
    f11 = make_field(11)
    assert f11.mul(3, f11.inv(3)) == 1
    assert f11.inv(3) == 4
    assert all(0 <= f11.mul(a, b) < 11 for a in range(11) for b in range(11))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27])
def test_field_axioms_randomized(q):
    f = make_field(q)
    rng = random.Random(q)
    n_triples = 10_000 if q <= 13 else 2_000
    for _ in range(n_triples):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0
        assert 0 <= f.mul(a, a) < q


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_multiplicative_group_has_full_order_element(q):
    f = make_field(q)
    orders = set()
    for a in range(1, q):
        x, order = a, 1
        while x != 1:
            x = f.mul(x, a)
            order += 1
        orders.add(order)
    assert q - 1 in orders


def test_sub_div_pow_consistency():
    f = make_field(25)
    rng = random.Random(1)
    for _ in range(500):
        a, b = rng.randrange(25), rng.randrange(1, 25)
        assert f.add(f.sub(a, b), b) == a
        assert f.mul(f.mul(a, f.inv(b)), b) == a
    powers = [1]
    for _ in range(24):
        powers.append(f.mul(powers[-1], 7))
    assert powers[24] == 1                      # 7^24 = 1 in GF(25)*
    assert powers[23] == f.inv(7)               # 7^-1 = 7^23


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 128])
def test_tables_match_polynomial_arithmetic(q):
    f = make_field(q)
    p, mod = f.p, list(f.modulus)
    k = f.k
    digits = [decode_digits(a, p, k) for a in range(q)]
    assert [encode_digits(da, p) for da in digits] == list(range(q))

    def encode(ds):
        return encode_digits([x % p for x in ds], p)

    for a in range(q):
        da = digits[a]
        assert f.neg(a) == encode([-x for x in da])
        if a:
            assert encode(poly_mod(poly_mul(da, digits[f.inv(a)], p), mod, p)) == 1
        for b in range(q):
            db = digits[b]
            assert f.mul(a, b) == encode(poly_mod(poly_mul(da, db, p), mod, p))
            assert f.add(a, b) == encode([x + y for x, y in zip(da, db)])
    # array forms equal the scalar forms, element by element
    A, B = np.arange(q)[:, None], np.arange(q)[None, :]
    scalar = np.array([[(f.mul(a, b), f.add(a, b), f.sub(a, b)) for b in range(q)]
                       for a in range(q)])
    assert (f.mul(A, B) == scalar[..., 0]).all()
    assert (f.add(A, B) == scalar[..., 1]).all()
    assert (f.sub(A, B) == scalar[..., 2]).all()
    nz = np.arange(1, q)
    assert f.neg(np.arange(q)).tolist() == [f.neg(a) for a in range(q)]
    assert f.inv(nz).tolist() == [f.inv(a) for a in range(1, q)]
    assert isinstance(f.mul(2, 3), int) and isinstance(f.inv(2), int)
    with pytest.raises(FieldError):
        f.inv(nz - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 997, 65537, 4194301])
def test_inverse_table_matches_pow(p):
    # the prime field's inverses, read from its exp/log tables, against
    # Python's modular inverse on every residue (on 2000 seeded ones at
    # p = 4194301) and a * inv(a) = 1 on every residue; each field is
    # fresh, so the large tables are not kept
    f = Field(p, 1)
    inv = f.inv(np.arange(1, p))
    assert inv.dtype == np.int64 and inv.shape == (p - 1,)
    a = np.arange(1, p) if p < 70000 else np.random.default_rng(p).integers(1, p, 2000)
    assert inv[a - 1].tolist() == [pow(int(x), -1, p) for x in a]
    assert (np.arange(1, p) * inv % p == 1).all()


@pytest.mark.parametrize("p", [0, 1, 2 ** 31 + 11])
def test_inverse_table_refuses_orders_past_exact_int64(p):
    # the table builder refuses an order whose int64 products could
    # overflow, before any table is allocated
    with pytest.raises(FieldError, match=f"^no exact int64 exp/log tables of order {p}$"):
        _exp_log_tables(p, 1, None)
