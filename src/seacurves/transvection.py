"""The r-transvection of binary forms.

For f of degree n and g of degree m and 0 <= r <= min(n, m):

    (f, g)^r = (m-r)! (n-r)! / (n! m!)
               * sum_{k=0}^{r} (-1)^k C(r, k)
                 * d^r f / dX^(r-k) dZ^k  *  d^r g / dX^k dZ^(r-k)

The result is a form of degree n + m - 2r.  Every covariant and invariant in
:mod:`seacurves.invariants` is a composition of this single operation with
form products.

There is one code path for Q and Q(sqrt D), on the forms' cleared vectors
(see :mod:`seacurves.forms`): the partial derivatives are taken on the
integer vectors over Z[sqrt D] by ``forms._partial`` (the formula behind
``partial_derivative`` too, with its weights cached per (n, p, k)), the
r + 1 products are convolved as Python ints by the kernel that also
multiplies forms, and the result is a vector over the denominator
n! m! den(f) den(g), made canonical once.  A chain of transvectants builds
Scalars only where a caller reads ``coeffs``.

A self-transvectant (f, f)^r, recognised by equal cleared operands, uses the
symmetry (f, g)^r = (-1)^r (g, f)^r (Olver, *Classical Invariant Theory*,
1999, ch. 5): the k-th and (r-k)-th products are equal up to the sign
(-1)^r, so for odd r the result is zero and for even r the sum runs over
k <= r/2 with the products before the middle one counted twice.
"""

from __future__ import annotations

from math import comb, factorial

from .forms import BinaryForm, _join_field, _pair_convolve, _partial
from .scalars import SeacurvesError

__all__ = ["transvect", "TransvectionError"]


class TransvectionError(SeacurvesError):
    """r exceeds the degree of one of the operands (or is negative)."""


def transvect(f: BinaryForm, g: BinaryForm, r: int) -> BinaryForm:
    """The r-transvection (f, g)^r, exact."""
    n, m = f.degree, g.degree
    if r < 0 or r > min(n, m):
        raise TransvectionError(
            f"transvection order {r} out of range for degrees ({n}, {m})"
        )
    deg = n + m - 2 * r
    fden, fa, fb, fdisc = f.vec
    gden, ga, gb, gdisc = g.vec
    disc = _join_field(fdisc, gdisc)
    # (f, f)^r: the k-th and (r-k)-th products agree up to (-1)^r, so they
    # cancel for odd r and pair up for even r
    same = f.vec == g.vec
    if same and r % 2:
        return BinaryForm.zero(deg)
    pref_num = factorial(n - r) * factorial(m - r)
    acc = ([0] * (deg + 1), [0] * (deg + 1))
    for k in range(r // 2 + 1 if same else r + 1):
        weight = 2 if same and 2 * k < r else 1
        left = (_partial(fa, n, r - k, k), _partial(fb, n, r - k, k))
        right = (_partial(ga, m, k, r - k), _partial(gb, m, k, r - k))
        _pair_convolve(acc, left, right, disc, weight * (-1) ** k * comb(r, k) * pref_num)
    den = factorial(n) * factorial(m) * fden * gden
    return BinaryForm._from_vec(den, acc[0], acc[1], disc)
