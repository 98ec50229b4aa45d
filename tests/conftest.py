import random

from seacurves.catalog import Catalog, _data_path, load_catalog
from seacurves.forms import BinaryForm, Matrix2
from seacurves.scalars import Scalar, rational


def packaged_catalog() -> Catalog:
    """The packaged table, whatever SEA_CATALOG names: the same shared
    instance that load_catalog() returns when the variable is unset."""
    return load_catalog(str(_data_path()))


def rand_scalar(rng: random.Random, height: int = 10, disc: int = 0) -> Scalar:
    """A random integer, or a + b*sqrt(disc) with integer a, b when disc != 0."""
    a = rng.randint(-height, height)
    return Scalar(a, rng.randint(-height, height), disc) if disc else Scalar(a)


def rand_rational(rng: random.Random, height: int = 9) -> Scalar:
    return rational(rng.randint(-height, height), rng.randint(1, height))


def rand_form(rng: random.Random, degree: int, height: int = 10, disc: int = 0) -> BinaryForm:
    while True:
        f = BinaryForm(degree, [rand_scalar(rng, height, disc) for _ in range(degree + 1)])
        if not f.is_zero:
            return f


def unimodular_matrix(rng: random.Random, steps: int = 4) -> Matrix2:
    # word in elementary shears: det = 1, small integer entries
    m = Matrix2(1, 0, 0, 1)
    for _ in range(steps):
        k = rng.choice([-2, -1, 1, 2])
        s = Matrix2(1, k, 0, 1) if rng.random() < 0.5 else Matrix2(1, 0, k, 1)
        m = m @ s
    return m


def invertible_matrix(rng: random.Random, height: int = 5) -> Matrix2:
    while True:
        m = Matrix2(*(rand_rational(rng, height) for _ in range(4)))
        if not m.det().is_zero:
            return m
