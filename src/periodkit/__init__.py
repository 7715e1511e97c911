"""Exact critical points and period formulas for tensor products of motives.

The package models regular pure motives over a quadratic imaginary field
by their Hodge combinatorics, computes critical points of the restricted
tensor L-function two independent ways, assembles the Deligne period and
its conjectural L-value counterpart as canonical monomials over formal
period symbols, mirrors the constructions on the automorphic side, and
re-derives the underlying determinant identity over an exact
Laurent-polynomial ring.  Everything is exact; nothing is floating point.

The determinant oracle lives in ``periodkit.oracle`` and is not imported
here: a one-shot ``pk`` call never needs it, and only ``pk verify``
(through ``periodkit.suites``) loads it.
"""

from .automorphic import (
    CaseReport,
    InfinityTypeData,
    classify_known_case,
    conjecture_rhs_automorphic,
    crosscheck_conjecture,
    dict_to_motive,
    pair_is_critical,
    rep_tag,
    split_indices_auto,
    substitute_p_periods,
)
from .combinatorics import (
    IndexPairSet,
    set_A,
    set_T,
    split_indices,
    verify_cardinality_lemma,
)
from .deligne import (
    PairContext,
    conjecture_rhs_motivic,
    deligne_period_raw,
    deligne_period_simplified,
)
from .errors import (
    AlgebraicityError,
    NonIntegerExponentError,
    NotCriticalError,
    NotCriticalPairError,
    ParseError,
    PeriodKitError,
    PpClassError,
    RuleNotApplicable,
    SizeLimitError,
    UnknownRankError,
)
from .hodge import (
    HodgeMultiset,
    RegularMotiveData,
    has_no_pp_class,
    restriction,
    restriction_tensor,
)
from .lfactor import (
    CriticalInterval,
    GammaFactor,
    critical_interval,
    critical_interval_via_poles,
    gamma_factor,
    pair_critical_points,
)
from .periods import (
    MotiveTag,
    PeriodMonomial,
    PeriodSymbol,
    apply_rule,
    delta,
    delta_cap,
    delta_tate,
    derive_delta_square_identity,
    derive_grouped_period_identity,
    expand,
    motive_tag,
    q,
    q_paren,
    q_sup,
    q_xi,
    two_pi_i,
)

__version__ = "0.1.0"
