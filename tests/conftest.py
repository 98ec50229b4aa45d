import random
from fractions import Fraction

from seacurves.catalog import _DATA_DIR, Catalog, load_catalog
from seacurves.forms import BinaryForm, Matrix2
from seacurves.scalars import Scalar, rational


def packaged_catalog() -> Catalog:
    """The packaged table, whatever SEA_CATALOG names: the same shared
    instance that load_catalog() returns when the variable is unset."""
    return load_catalog(str(_DATA_DIR / "table.jsonl"))


def spy(monkeypatch, owner, name: str) -> list:
    """The argument tuples of every call of ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def fractions_built(monkeypatch) -> list:
    """The arguments of every Fraction constructed from now on."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and built == [(1, 2)]  # the count sees a construction
    built.clear()
    return built


def rand_scalar(rng: random.Random, height: int = 10, disc: int = 0) -> Scalar:
    """A random integer, or a + b*sqrt(disc) with integer a, b when disc != 0."""
    a = rng.randint(-height, height)
    return Scalar(a, rng.randint(-height, height), disc) if disc else Scalar(a)


def rand_sparse(rng: random.Random, disc: int, zeros: float) -> Scalar:
    """Zero with probability ``zeros``, else a + b*sqrt(disc) with a and b
    (0 over Q) of numerator at most 9 and denominator at most 5."""
    if rng.random() < zeros:
        return Scalar(0)
    b = rational(rng.randint(-9, 9), rng.randint(1, 5)) if disc else 0
    return Scalar(rational(rng.randint(-9, 9), rng.randint(1, 5)), b, disc)


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


def folded_rows(copies: int, seed: int | None = None) -> list:
    """The packaged table's JSON rows repeated ``copies`` times, each copy
    with a fresh id: the row's id followed by the copy index, written at one
    width so that no two ids meet.  With a seed, each row's copies get their
    indices in random order and the rows are shuffled."""
    rng = random.Random(seed)
    width = len(str(copies - 1))
    out = []
    for row in (r.to_json() for r in packaged_catalog()):
        order = list(range(copies))
        if seed is not None:
            rng.shuffle(order)
        out += [{**row, "id": f"{row['id']}{c:0{width}d}"} for c in order]
    if seed is not None:
        rng.shuffle(out)
    return out
