"""Every value of the package copies and pickles, and none can be changed.

Scalars, forms, polynomials, matrices, groups, signatures, curves, catalog
rows, equation templates and invariant vectors round-trip through
``pickle``, ``copy.copy`` and ``copy.deepcopy`` to an equal value (with an
equal hash, where the value is hashable), so they can be sent to worker
processes; assigning to one of their fields or to a name they do not have,
and deleting a field, raise AttributeError.
"""

import copy
import pickle

import pytest

from conftest import packaged_catalog
from seacurves.curves import ReducedGroup, Signature, make_curve
from seacurves.forms import BinaryForm, Matrix2, UnivariatePoly
from seacurves.invariants import sextic_invariants
from seacurves.scalars import ZERO, Scalar, rational

# name -> (a function building the value, one of its fields)
VALUES = {
    "scalar-q": (lambda: rational(-3, 7), "_a"),
    "scalar-sqrt5": (lambda: Scalar(rational(1, 2), 3, 5), "disc"),
    "form": (lambda: BinaryForm(3, [1, Scalar(1, 1, 5), 0, rational(2, 3)]), "vec"),
    "poly": (lambda: UnivariatePoly([1, 0, rational(-1, 2)]), "vec"),
    "zero-poly": (lambda: UnivariatePoly([]), "vec"),
    "matrix": (lambda: Matrix2(1, rational(1, 2), Scalar(0, 1, 5), 3), "a"),
    "signature": (lambda: Signature([2, 2, (3, 2)]), "pairs"),
    "reduced-group": (lambda: ReducedGroup("D2m", 3), "m"),
    "curve": (lambda: make_curve(3, UnivariatePoly([1, 0, 0, 0, 1])), "genus"),
    "row": (lambda: packaged_catalog()["g5-c1-1"], "equation"),
    "template": (lambda: packaged_catalog()["g5-c3-1"].template, "factors"),
    "invariant-vector": (lambda: sextic_invariants(BinaryForm(6, [1, 2, 0, 3, 0, 5, 1])),
                         "kind"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_copies_pickles_and_is_frozen(name):
    build, field = VALUES[name]
    value = build()
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and repr(back) == repr(value)
    if type(value).__hash__ is not None:
        assert hash(back) == hash(value)
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == build()


def test_deleting_a_field_of_a_shared_scalar_raises():
    for name in Scalar.__slots__:
        with pytest.raises(AttributeError):
            delattr(ZERO, name)
    assert ZERO + 1 == 1 and str(ZERO) == "0" and ZERO.is_zero and hash(ZERO) == 0
