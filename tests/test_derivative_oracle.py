"""Differential test of ``partial_derivative`` against the model.

``reference.ref_partial_derivative`` differentiates a model form one order
per pass (``ref_partial``), coefficient by coefficient; ``partial_derivative``
reads the form's cleared vector and applies the closed formula
``forms._partial`` (whose weights, ``forms._falling_products``, also build
the weight tables of ``transvect``) to integer vectors.  The two must agree
exactly over Q, Q(sqrt -3) and Q(sqrt 5), in both variables, at every order
0..d + 1, at degrees 0-22 and MAX_DEGREE.  ``UnivariatePoly.derivative``,
which also runs on cleared integer vectors, must agree with ``ref_partial``
in X.
"""

import random

import pytest

from conftest import rand_sparse
from reference import ref_partial, ref_partial_derivative, to_model
from seacurves.forms import MAX_DEGREE, BinaryForm, dehomogenize, partial_derivative


@pytest.mark.parametrize("disc", [0, -3, 5])
def test_partial_derivative_matches_loop(disc):
    rng = random.Random(200 + disc)
    for d in [*range(23), MAX_DEGREE]:
        f = BinaryForm(d, [rand_sparse(rng, disc, 0.3) for _ in range(d + 1)])
        p = dehomogenize(f)
        assert to_model(p.derivative()) == ref_partial(to_model(p), "X"), d
        for var in ("X", "Z"):
            # ref_partial_derivative(f, var, order), one pass per order
            expected = to_model(f)
            for order in range(d + 2):
                assert to_model(partial_derivative(f, var, order)) == expected, (d, var, order)
                expected = ref_partial_derivative(expected, var)
