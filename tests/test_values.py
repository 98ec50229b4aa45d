"""Every value of the package copies and pickles, and none can be changed.

Scalars, forms, polynomials, matrices, groups, signatures, signature
completions, curves, catalog rows, the catalog, equation templates with
their terms, sum blocks and factors, check results, row and verification
reports, invariant vectors, absolute invariants and genus-10 results
round-trip through ``pickle``, ``copy.copy`` and ``copy.deepcopy`` to an
equal value with an equal repr (and an equal hash, where the value is
hashable: a value that holds a mapping declares itself unhashable), so
they can be sent to worker processes; assigning to one of their fields or
to a name they do not have, and deleting a field, raise AttributeError.
"""

import copy
import pickle

import pytest

from conftest import packaged_catalog
from seacurves.catalog import CheckResult, verify_all, verify_record
from seacurves.catalog.templates import Factor, SumBlock, Term
from seacurves.curves import ReducedGroup, Signature, complete_signature, make_curve
from seacurves.forms import BinaryForm, Matrix2, UnivariatePoly
from seacurves.invariants import genus10_special, sextic_absolute, sextic_invariants
from seacurves.scalars import ZERO, Scalar, rational

SEXTIC = BinaryForm(6, [1, 2, 0, 3, 0, 5, 1])

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
    "completion": (lambda: complete_signature(5, 8, Signature([2] * 7)), "status"),
    "curve": (lambda: make_curve(3, UnivariatePoly([1, 0, 0, 0, 1])), "genus"),
    "row": (lambda: packaged_catalog()["g5-c1-1"], "equation"),
    "catalog": (packaged_catalog, "records"),
    "template": (lambda: packaged_catalog()["g5-c3-1"].template, "factors"),
    "term": (lambda: Term(Scalar(rational(1, 2), 1, 5), "a1", 3), "const"),
    "sum-block": (lambda: SumBlock(1, 5, 2, 1), "hi"),
    "factor": (lambda: Factor((Term(rational(1, 2), None, 0), SumBlock(1, 3, 2, 0))), "items"),
    "check": (lambda: CheckResult(None, "no equation template"), "passed"),
    "row-report": (lambda: verify_record(packaged_catalog()["g5-c1-1"]), "checks"),
    "verification-report": (lambda: verify_all(packaged_catalog(), genus=5), "rows"),
    "invariant-vector": (lambda: sextic_invariants(SEXTIC), "kind"),
    "absolute-invariants": (lambda: sextic_absolute(SEXTIC), "names"),
    "genus10-result": (lambda: genus10_special(BinaryForm(22, [1] + [0] * 21 + [1])),
                       "absolute"),
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
