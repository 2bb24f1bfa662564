"""Exact computation in Baumslag-Solitar groups B(m,n): the word problem
via pinch reduction, faithful semidirect-product models, endomorphism
analysis, and twisted-conjugacy (Reidemeister) certificates."""

from .abelian import AbelianGroup, AbelianMap
from .errors import (
    BoxTooSmall, BSTwistError, GroupMismatch, NotInKernel, RelationViolated,
    ShapeMismatch, UnsupportedGroup, WordSyntaxError, WrongFamily,
)
from .homs import (
    EndoSpec, InducedData, KernelDecomposition, endo_apply, endo_compose,
    endo_validate, identity_endo, induced_on_ab, kappa, kappa_scale,
    kernel_decompose, koch_form_search, parse_endo_file,
)
from .intmat import IntMatrix, SNFResult, coker_order, snf
from .models import (
    AffineElement, KleinElement, PermutedProduct, model_embed, model_equal_oracle,
)
from .reidemeister import (
    BallReport, Certificate, ReidemeisterOutcome, certify_infinite,
    check_certificate, coincidence_certify, enumerate_classes_ball,
    power_constraint,
)
from .words import (
    GroupSpec, NormalForm, Syllable, Word, are_equal, britton_reduce,
    exp_sum, format_word, invert, multiply, normal_form, parse_word,
    standardize,
)

__version__ = "0.1.0"
