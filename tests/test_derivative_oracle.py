"""Differential test of ``partial_derivative`` against the iterated loop.

The reference below differentiates one order at a time in ``Scalar``
arithmetic; ``partial_derivative`` clears the form once and applies the
closed formula ``forms._partial`` (whose weights, ``forms._falling_products``,
also build the weight tables of ``transvect``) to integer vectors.  The two must agree exactly over Q, Q(sqrt -3) and Q(sqrt 5), in
both variables, at every order 0..d + 1, at degrees 0-22 and MAX_DEGREE.
``UnivariatePoly.derivative``, which also runs on cleared integer vectors,
must agree with the reference's first pass in X.
"""

import random

import pytest

from seacurves.forms import MAX_DEGREE, BinaryForm, dehomogenize, partial_derivative
from seacurves.scalars import Scalar, rational


def ref_partial_derivative(f: BinaryForm, var: str, order: int = 1) -> BinaryForm:
    """Iterated formal partial derivative, one order per pass over Scalars."""
    if order > f.degree:
        return BinaryForm.zero(0)
    coeffs = f.coeffs
    d = f.degree
    for _ in range(order):
        if var == "X":
            coeffs = tuple(i * coeffs[i] for i in range(1, d + 1))
        else:
            coeffs = tuple((d - i) * coeffs[i] for i in range(d))
        d -= 1
    return BinaryForm(d, coeffs)


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_partial_derivative_matches_loop(disc):
    rng = random.Random(200 + disc)

    def scalar():
        if rng.random() < 0.3:
            return Scalar(0)
        b = rational(rng.randint(-9, 9), rng.randint(1, 5)) if disc else 0
        return Scalar(rational(rng.randint(-9, 9), rng.randint(1, 5)), b, disc)

    for d in [*range(23), MAX_DEGREE]:
        f = BinaryForm(d, [scalar() for _ in range(d + 1)])
        assert dehomogenize(f).derivative() == dehomogenize(ref_partial_derivative(f, "X")), d
        for var in ("X", "Z"):
            # ref_partial_derivative(f, var, order), one pass per order
            expected = f
            for order in range(d + 2):
                assert partial_derivative(f, var, order) == expected, (d, var, order)
                expected = ref_partial_derivative(expected, var)
