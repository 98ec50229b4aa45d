"""The r-transvection of binary forms, as one weighted convolution.

For f of degree n and g of degree m and 0 <= r <= min(n, m):

    (f, g)^r = (m-r)! (n-r)! / (n! m!)
               * sum_{k=0}^{r} (-1)^k C(r, k)
                 * d^r f / dX^(r-k) dZ^k  *  d^r g / dX^k dZ^(r-k)

The result is a form of degree n + m - 2r.  Every covariant and invariant in
:mod:`seacurves.invariants` is a composition of this single operation with
form products.

In coefficients (Olver, *Classical Invariant Theory*, 1999, ch. 5; Glenn,
*Theory of Invariants*, 1915), with f = sum f_a X^a Z^(n-a),
g = sum g_b X^b Z^(m-b) and P(x, j) = x!/(x-j)! the falling factorial,

    coefficient s of (f, g)^r = sum_{a+b=s+r} f_a g_b W(a, b) / (P(n, r) P(m, r)),

    W(a, b) = sum_k alpha_k(a) beta_k(b),
    alpha_k(a) = (-1)^k C(r, k) P(a, r-k) P(n-a, k),  beta_k(b) = P(b, k) P(m-b, r-k).

W depends only on the shape (n, m, r), so one builder, ``_table``, makes it
once per shape, each alpha_k and beta_k row by the ratio recurrence of
``forms._falling_products``.  A table keeps, per a, only the b with
W(a, b) != 0 (these have 0 <= a + b - r <= n + m - 2r), as parallel tuples of
b, the output index s = a + b - r and the weight W(a, b) / c.  The content
c = gcd(P(n, r) P(m, r), every weight) is divided out once, as the table is
built, and the table keeps the scale P(n, r) P(m, r) / c next to its rows:
at n = m = 22 and r = 20, c has 109 bits and the largest weight 30, against
138 undivided.  A transvectant is then one double loop over the rows on the
forms' cleared vectors, read over their joint field by the one lift of
:mod:`seacurves.forms` (``_lift``, which gives a rational operand over
Q(sqrt D) a zero B), giving a vector over the denominator
scale * den(f) den(g), made canonical once.
``_weighted_sum`` keeps two loops, chosen by ``disc``: one on the integers
over Q, which the gate benchmark runs, and one on the pairs
(x + x' sqrt D)(y + y' sqrt D) over Q(sqrt D), which sqrt_ext runs; on Q the
pair loop would multiply zeros.

At r = 0 the weights are all 1 and (f, g)^0 is the product f * g, which
``transvect`` returns before any table is looked up: the same canonical
vector, and the same ``FieldMixError`` for operands over two fields.

A self-transvectant (f, f)^r, recognised by equal cleared operands, uses the
symmetry (f, g)^r = (-1)^r (g, f)^r, that is W(a, b) = (-1)^r W(b, a) when
n = m: for odd r the result is zero and no table is built, and for even r
the loop reads a symmetric half-table S(a, b) = W(a, b) + W(b, a) = 2 W(a, b)
over a < b, with S(a, a) = W(a, a): ``_table`` with its ``half`` flag set,
which skips b < a while it builds.

Tables are cached oldest-first-out under one key, (n, m, r, half), within
two bounds, ``_CACHE_ENTRIES`` tables and ``_CACHE_BYTES`` (16 MiB) as
``_table_bytes`` counts them: every tuple and int of a table, shared small
ints included, so the count over-states the memory a table holds.  A table
larger than the byte bound is used and not kept, so the cache never holds
more than 16 MiB.  At ``MAX_DEGREE`` = 100 the largest full table,
(100, 100, 18), counts 1.1 MiB ((100, 100, 40) 0.99 MiB), the largest
half-table 0.57 MiB and the 50 half-tables (even r >= 2) 19.7 MiB; the
self-tables of degrees 6-22 (even r >= 2) count 1.55 MiB.  Six rounds of
seed 1 of the benchmark read 62 tables on gate (32 full, 30 half,
0.52 MiB), 52 on sqrt_ext (0.36 MiB) and 31 on catalog_cli (0.12 MiB), so
neither bound binds there.  The byte bound caps the memory of in-process
callers that use many shapes; the entry bound caps the dict and the recount
on each insert, as the byte bound alone would admit about 23,000 of the
smallest tables (724 B).
"""

from __future__ import annotations

import threading
from math import comb, gcd, perm
from sys import getsizeof

from .forms import BinaryForm, _falling_products, _join_field, _lift
from .scalars import SeacurvesError, _int_str, _require_int

__all__ = ["transvect", "TransvectionError"]

_CACHE_ENTRIES = 512
_CACHE_BYTES = 16 * 2 ** 20

# (n, m, r, half) -> (table, bytes), oldest first; lookups read it unlocked,
# inserts and evictions hold the lock
_TABLES: dict = {}
_TABLES_LOCK = threading.Lock()


class TransvectionError(SeacurvesError):
    """r exceeds the degree of one of the operands (or is negative)."""


def _table(n: int, m: int, r: int, half: bool) -> tuple:
    """(scale, rows): the weights of (f, g)^r for degrees n and m over their
    content c, and the scale P(n, r) P(m, r) / c.  Row a lists the b with
    W(a, b) != 0, their output indices a + b - r and the weights W(a, b) / c;
    it gains alpha_k(a) beta_k(b) over b = k .. m - r + k, or with ``half``
    (n = m, even r) over b >= a only, doubled at b > a to S(a, b)."""
    w = [[0] * (m + 1) for _ in range(n + 1)]
    for k in range(r + 1):
        c = -comb(r, k) if k % 2 else comb(r, k)
        beta = _falling_products(m, k, r - k)
        hi = k + len(beta)
        for a, x in enumerate(_falling_products(n, r - k, k), r - k):
            lo = max(a, k) if half else k
            x *= c
            row = w[a]
            row[lo:hi] = [z + x * y for z, y in zip(row[lo:hi], beta[lo - k:])]
    if half:
        for a, row in enumerate(w):
            row[a + 1:] = [2 * x for x in row[a + 1:]]
    scale = perm(n, r) * perm(m, r)
    content = gcd(scale, *(x for row in w for x in row))
    rows = []
    for a, row in enumerate(w):
        bs = tuple(b for b, x in enumerate(row) if x)
        rows.append((bs, tuple(a + b - r for b in bs), tuple(row[b] // content for b in bs)))
    return scale // content, tuple(rows)


def _table_bytes(table: tuple) -> int:
    """The bytes of every tuple and int of a table, shared small ints included."""
    scale, rows = table
    return getsizeof(table) + getsizeof(scale) + getsizeof(rows) + sum(
        getsizeof(row) + sum(getsizeof(t) + sum(map(getsizeof, t)) for t in row) for row in rows)


def _cached(key: tuple) -> tuple:
    """``_table(*key)``, (scale, rows), kept in ``_TABLES`` within both cache bounds."""
    hit = _TABLES.get(key)
    if hit is not None:
        return hit[0]
    table = _table(*key)
    size = _table_bytes(table)
    if size <= _CACHE_BYTES:
        with _TABLES_LOCK:
            _TABLES[key] = (table, size)
            total = sum(s for _, s in _TABLES.values())
            while len(_TABLES) > _CACHE_ENTRIES or total > _CACHE_BYTES:
                total -= _TABLES.pop(next(iter(_TABLES)))[1]
    return table


def _weighted_sum(rows: tuple, f, g, disc: int, size: int):
    """The (A, B) pair of sum f_a g_b W(a, b) / c at a + b - r over a table's rows, for
    (A, B) pairs f and g lifted to Z[sqrt(disc)] (``forms._lift``): B is
    None over Q, and a vector over Q(sqrt disc)."""
    (fa, fb), (ga, gb) = f, g
    acc = [0] * size
    if not disc:
        for x, (bs, ss, ws) in zip(fa, rows):
            if x:
                for b, s, w in zip(bs, ss, ws):
                    y = ga[b]
                    if y:
                        acc[s] += x * y * w
        return acc, None
    rad = [0] * size
    for x0, x1, (bs, ss, ws) in zip(fa, fb, rows):
        if x0 or x1:
            for b, s, w in zip(bs, ss, ws):
                y0, y1 = ga[b], gb[b]
                if y0 or y1:
                    acc[s] += (x0 * y0 + disc * x1 * y1) * w
                    rad[s] += (x0 * y1 + x1 * y0) * w
    return acc, rad


def transvect(f: BinaryForm, g: BinaryForm, r: int) -> BinaryForm:
    """The r-transvection (f, g)^r, exact."""
    _require_int(r, "transvection order r")
    n, m = f.degree, g.degree
    if r < 0 or r > min(n, m):
        raise TransvectionError(
            f"transvection order {_int_str(r)} out of range for degrees ({n}, {m})"
        )
    if r == 0:
        return f * g
    deg = n + m - 2 * r
    disc = _join_field(f.vec[3], g.vec[3])
    half = f.vec == g.vec
    if half and r % 2:
        return BinaryForm.zero(deg)
    scale, rows = _cached((n, m, r, half))
    a, b = _weighted_sum(rows, _lift(f.vec, disc), _lift(g.vec, disc), disc, deg + 1)
    return BinaryForm._from_vec(scale * f.vec[0] * g.vec[0], a, b, disc)
