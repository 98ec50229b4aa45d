"""Exact invariant theory of binary forms and a verified catalog of
superelliptic curve families of genus 5-10.

Everything is computed over Q or a quadratic extension Q(sqrt(D)) with exact
arithmetic; no floating point enters any result.  Every error raised on input
the package cannot accept derives from :class:`SeacurvesError`.
"""

from .scalars import Scalar, SeacurvesError, FieldMixError, parse_scalar, rational, sqrt_ext
from .forms import (
    BinaryForm,
    UnivariatePoly,
    Matrix2,
    DegreeError,
    SingularMatrixError,
    make_form,
    partial_derivative,
    moebius_act,
    evaluate,
    homogenize,
    dehomogenize,
    resultant,
    discriminant,
    is_squarefree,
    poly_gcd,
)
from .transvection import transvect, TransvectionError
from .invariants import (
    InvariantVector,
    AbsoluteInvariants,
    InconclusiveError,
    form_is_squarefree,
    sextic_invariants,
    sextic_absolute,
    genus2_isomorphic,
    octavic_invariants,
    octavic_absolute,
    genus3_isomorphic,
    decimic_invariants,
    general_invariants,
    general_absolute,
    genus10_special,
)
from .curves import (
    ReducedGroup,
    Signature,
    SuperellipticCurve,
    NotSquarefreeError,
    LevelError,
    make_curve,
    genus_formula,
    hurwitz_bound,
    rh_residual,
    complete_signature,
    full_group_order,
)

__version__ = "0.1.0"
