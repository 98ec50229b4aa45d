import random
import sys
import threading
import time
from math import comb, gcd, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_form, unimodular_matrix
from seacurves import transvection
from seacurves.forms import MAX_DEGREE, BinaryForm, Matrix2, make_form, moebius_act
from seacurves.scalars import Scalar, sqrt_ext
from seacurves.transvection import TransvectionError, transvect


def test_zeroth_transvection_is_product():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_form(rng, rng.randint(0, 7))
        g = rand_form(rng, rng.randint(0, 7))
        assert transvect(f, g, 0) == f * g


def test_fixture_x2_z2():
    # prefactor 1/(2! 2!); only the k=0 term survives:
    # C(2,0) * d^2(X^2)/dX^2 * d^2(Z^2)/dZ^2 = 2 * 2 = 4; total 4/4 = 1
    x2 = make_form(2, [0, 0, 1])
    z2 = make_form(2, [1, 0, 0])
    out = transvect(x2, z2, 2)
    assert out.degree == 0 and out.constant_value() == Scalar(1)


def test_fixture_palindromic_sextic():
    # k = 0 and k = 6 terms each contribute (6!)^2, prefactor 1/(6!)^2
    f = make_form(6, [1, 0, 0, 0, 0, 0, 1])
    assert transvect(f, f, 6).constant_value() == Scalar(2)


def test_odd_self_transvection_vanishes():
    rng = random.Random(4)
    for _ in range(20):
        d = rng.randint(1, 8)
        f = rand_form(rng, d)
        for r in range(1, d + 1, 2):
            assert transvect(f, f, r).is_zero


def test_symmetry_sign():
    rng = random.Random(9)
    for _ in range(30):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        f, g = rand_form(rng, n), rand_form(rng, m)
        r = rng.randint(0, min(n, m))
        lhs = transvect(f, g, r)
        rhs = transvect(g, f, r)
        assert lhs == (rhs if r % 2 == 0 else -rhs)


def test_order_bookkeeping():
    rng = random.Random(13)
    for _ in range(30):
        n, m = rng.randint(0, 9), rng.randint(0, 9)
        f, g = rand_form(rng, n), rand_form(rng, m)
        r = rng.randint(0, min(n, m))
        assert transvect(f, g, r).degree == n + m - 2 * r


def test_r_out_of_range():
    f = make_form(2, [1, 1, 1])
    with pytest.raises(TransvectionError):
        transvect(f, f, 3)
    with pytest.raises(TransvectionError):
        transvect(f, f, -1)


@given(st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_bilinearity(degree, data):
    coeff = st.integers(-9, 9)
    f1 = BinaryForm(degree, data.draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1)))
    f2 = BinaryForm(degree, data.draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1)))
    g = BinaryForm(degree, data.draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1)))
    r = data.draw(st.integers(0, degree))
    c = Scalar(data.draw(st.integers(-5, 5)))
    assert transvect(f1 + f2, g, r) == transvect(f1, g, r) + transvect(f2, g, r)
    assert transvect(f1.scale(c), g, r) == transvect(f1, g, r).scale(c)


def test_covariance_scaling_law():
    # (f^M, g^M)^r = det(M)^r * ((f, g)^r)^M
    rng = random.Random(21)
    for _ in range(30):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        f, g = rand_form(rng, n), rand_form(rng, m)
        r = rng.randint(0, min(n, m))
        M = unimodular_matrix(rng)
        if rng.random() < 0.5:
            M = M @ Matrix2(2, 0, 0, rng.randint(1, 3))  # non-unit determinant
        lhs = transvect(moebius_act(M, f), moebius_act(M, g), r)
        rhs = moebius_act(M, transvect(f, g, r)).scale(M.det() ** r)
        assert lhs == rhs


def test_zero_form_inputs():
    z = BinaryForm.zero(4)
    f = make_form(4, [1, 2, 3, 4, 5])
    assert transvect(z, f, 2).is_zero
    assert transvect(z, f, 2).degree == 4


def test_bilinear_over_sqrt_minus_3():
    # scaling both inputs by sqrt(-3) puts their coefficients in Q(sqrt -3);
    # bilinearity pins that output against the same forms' rational output
    rng = random.Random(31)
    s = sqrt_ext(1, -3)
    for _ in range(20):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        f, g = rand_form(rng, n), rand_form(rng, m)
        r = rng.randint(0, min(n, m))
        assert transvect(f.scale(s), g.scale(s), r) \
            == transvect(f, g, r).scale(Scalar(-3))


def test_quadratic_extension_path():
    # ([c0, c1, c2], same)^2 = 2 c0 c2 - c1^2 / 2, over any coefficient field
    g = BinaryForm(2, [1, 5, 1])
    assert transvect(g, g, 2).constant_value() == Scalar(2) - Scalar(25) / 2
    s = sqrt_ext(1, -3)
    f = BinaryForm(2, [Scalar(1), s, Scalar(1)])
    out = transvect(f, f, 2)
    assert out.degree == 0
    assert out.constant_value() == Scalar(2) - (s * s) / 2  # = 7/2, back in Q


def _weight(n: int, m: int, r: int, a: int, b: int) -> int:
    """W(a, b) = sum_k (-1)^k C(r, k) P(a, r-k) P(n-a, k) P(b, k) P(m-b, r-k)."""
    return sum((-1) ** k * comb(r, k) * perm(a, r - k) * perm(n - a, k)
               * perm(b, k) * perm(m - b, r - k) for k in range(r + 1))


def test_tables_match_their_closed_form():
    """Row a of every table with n, m <= 12 and r >= 1 lists exactly the b
    with W(a, b) != 0, their output indices a + b - r and the weights over
    the table's content c; a half-table row starts at b = a, with its weights
    doubled at b > a.  c is the gcd of P(n, r) P(m, r) and every weight, and
    the table's scale times c is P(n, r) P(m, r), so the scale and the
    stored weights have no common factor."""
    shapes = [(n, m, r, False) for n in range(13) for m in range(13)
              for r in range(1, min(n, m) + 1)]
    shapes += [(n, n, r, True) for n in range(13) for r in range(2, n + 1, 2)]
    for n, m, r, half in shapes:
        rows = []
        for a in range(n + 1):
            ws = {b: _weight(n, m, r, a, b) * (2 if half and b > a else 1)
                  for b in range(a if half else 0, m + 1)}
            rows.append({b: w for b, w in ws.items() if w})
        falling = perm(n, r) * perm(m, r)
        c = gcd(falling, *(w for row in rows for w in row.values()))
        scale, table = transvection._table(n, m, r, half)
        assert scale * c == falling, (n, m, r, half)
        stored = [w for _, _, ws in table for w in ws]
        assert gcd(scale, *stored) == 1, (n, m, r, half)
        assert len(table) == n + 1
        for a, ((bs, ss, ws), row) in enumerate(zip(table, rows)):
            assert bs == tuple(row) and ss == tuple(a + b - r for b in bs), (n, m, r, half, a)
            assert [w * c for w in ws] == list(row.values()), (n, m, r, half, a)


def _big_form(rng: random.Random, digits: int) -> BinaryForm:
    return BinaryForm(MAX_DEGREE, [rng.randrange(-10 ** digits, 10 ** digits)
                                   for _ in range(MAX_DEGREE + 1)])


def test_largest_self_transvectant_meets_the_fuzz_deadline(monkeypatch):
    """(f, f)^50 at MAX_DEGREE with 2000-digit coefficients, its half-table
    built cold, finishes within the 5 s the CLI fuzz gives one command."""
    monkeypatch.setattr(transvection, "_TABLES", {})
    f = _big_form(random.Random(2000), 2000)
    start = time.perf_counter()
    h = transvect(f, f, 50)
    assert time.perf_counter() - start < 5.0
    assert h.degree == 2 * MAX_DEGREE - 100 and not h.is_zero


def test_table_cache_stays_within_its_byte_bound(monkeypatch):
    """Distinct MAX_DEGREE shapes, full tables and half-tables, fill the cache
    past its byte bound; after every call it counts at most _CACHE_BYTES."""
    monkeypatch.setattr(transvection, "_TABLES", {})
    rng = random.Random(100)
    f, g = _big_form(rng, 2), _big_form(rng, 2)
    calls = [(f, g, r) for r in range(0, MAX_DEGREE + 1, 25)]
    calls += [(f, f, r) for r in range(0, MAX_DEGREE + 1, 2)]
    built = 0
    for u, v, r in calls:
        transvect(u, v, r)
        built += 1
        held = list(transvection._TABLES.values())
        assert sum(size for _, size in held) <= transvection._CACHE_BYTES
        assert len(held) <= transvection._CACHE_ENTRIES
    assert all(size == transvection._table_bytes(table) for table, size in held)
    # the bound was reached: some tables were evicted, the newest kept
    assert len(held) < built
    assert (MAX_DEGREE, MAX_DEGREE, MAX_DEGREE, True) in transvection._TABLES
    # the largest full table at MAX_DEGREE, as the module states it
    assert transvection._table_bytes(transvection._table(100, 100, 40, False)) < 1.5 * 2 ** 20


def test_table_past_the_byte_bound_is_used_and_not_kept(monkeypatch):
    """With the byte bound below one table's size, that table is built, used
    for the same transvectant as at the real bound, and not kept; a smaller
    table already held stays."""
    monkeypatch.setattr(transvection, "_TABLES", {})
    rng = random.Random(41)
    f, g = rand_form(rng, 9), rand_form(rng, 7)
    expected = transvect(f, g, 3)
    size = transvection._table_bytes(transvection._table(9, 7, 3, False))
    monkeypatch.setattr(transvection, "_TABLES", {})
    monkeypatch.setattr(transvection, "_CACHE_BYTES", size - 1)
    transvect(f, rand_form(rng, 2), 1)
    assert transvect(f, g, 3) == expected
    assert list(transvection._TABLES) == [(9, 2, 1, False)]


def test_table_cache_under_threads(monkeypatch):
    """Eight threads (more than cores) evict one another's tables from a
    cache held to three; each gets the single-threaded results, and the
    cache keeps its bound and its byte counts."""
    monkeypatch.setattr(transvection, "_TABLES", {})
    monkeypatch.setattr(transvection, "_CACHE_ENTRIES", 3)
    rng = random.Random(8)
    fs = [rand_form(rng, d) for d in range(3, 10)]
    jobs = [(f, g, r) for f in fs for g in fs[:3] for r in range(min(f.degree, g.degree) + 1)] * 4
    expected = [transvect(*job) for job in jobs]
    results = {}

    def work(i):
        results[i] = [transvect(*job) for job in jobs]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[i] == expected for i in range(8))
    held = list(transvection._TABLES.values())
    assert len(held) <= 3 and all(size == transvection._table_bytes(t) for t, size in held)
