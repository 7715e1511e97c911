"""The value classes: slotted, immutable, and equal by their fields where compared.

Each class stores its fields in ``__slots__``, derives from
``periodkit.value.Frozen`` and so refuses to assign or delete a field.
The six classes that ``src`` or the tests compare or hash are equal and
hash alike by their fields: five through ``periodkit.value.Value``,
``PeriodSymbol`` by its own methods.
The others compare by identity, a tuple of their fields included.
"""

from fractions import Fraction

import pytest

from periodkit.automorphic import CaseReport, InfinityTypeData, classify_known_case
from periodkit.combinatorics import IndexPairSet, set_A
from periodkit.deligne import PairContext
from periodkit.hodge import HodgeMultiset, RegularMotiveData
from periodkit.lfactor import CriticalInterval, GammaFactor, gamma_factor
from periodkit.oracle import (
    PairVariables,
    SymMatrix,
    VerificationReport,
    build_mat1,
    verify_proposition,
)
from periodkit.periods import (
    DerivationResult,
    MotiveTag,
    PeriodSymbol,
    derive_delta_square_identity,
)
from periodkit.value import Frozen

M = RegularMotiveData("M", 1, (1, 0))
MP = RegularMotiveData("M'", 0, (1,))
HALF = (Fraction(1, 2), Fraction(-1, 2))

# Class -> a builder of one instance.
BUILD = {
    RegularMotiveData: lambda: RegularMotiveData("M", 1, (1, 0)),
    HodgeMultiset: lambda: HodgeMultiset(1, [(1, 0), (0, 1)]),
    GammaFactor: lambda: gamma_factor(HodgeMultiset(1, [(1, 0), (0, 1)])),
    CriticalInterval: lambda: CriticalInterval(1, 2),
    IndexPairSet: lambda: set_A(M, MP),
    PairContext: lambda: PairContext.build(M, MP),
    MotiveTag: lambda: MotiveTag("M", rank=2, ops=(("c", None),)),
    PeriodSymbol: lambda: PeriodSymbol("Q", 1, MotiveTag("M", rank=2)),
    InfinityTypeData: lambda: InfinityTypeData("Pi", 0, HALF),
    CaseReport: lambda: classify_known_case(
        InfinityTypeData("Pi", 0, HALF), InfinityTypeData("Pi'", 0, (0,)), Fraction(1, 2)
    ),
    SymMatrix: lambda: build_mat1(PairContext.build(M, MP)),
    PairVariables: lambda: PairVariables.build(2, 1),
    VerificationReport: lambda: verify_proposition(PairContext.build(M, MP)),
    DerivationResult: lambda: derive_delta_square_identity(2),
}

# Class compared or hashed -> builders that each change one field of BUILD's value.
VARIANTS = {
    RegularMotiveData: [
        lambda: RegularMotiveData("N", 1, (1, 0)),
        lambda: RegularMotiveData("M", 3, (1, 0)),
        lambda: RegularMotiveData("M", 1, (2, 0)),
    ],
    HodgeMultiset: [
        lambda: HodgeMultiset(3, [(2, 1), (1, 2)]),
        lambda: HodgeMultiset(1, [(1, 0), (0, 1), (1, 0), (0, 1)]),
    ],
    CriticalInterval: [lambda: CriticalInterval(0, 2), lambda: CriticalInterval(1, 3)],
    MotiveTag: [
        lambda: MotiveTag("N", rank=2, ops=(("c", None),)),
        lambda: MotiveTag("M", rank=3, ops=(("c", None),)),
        lambda: MotiveTag("M", rank=2, csd=True, ops=(("c", None),)),
        lambda: MotiveTag("M", rank=2, ops=(("v", None),)),
    ],
    PeriodSymbol: [
        lambda: PeriodSymbol("Qs", 1, MotiveTag("M", rank=2)),
        lambda: PeriodSymbol("Q", 2, MotiveTag("M", rank=2)),
        lambda: PeriodSymbol("Q", 1, MotiveTag("M", rank=3)),
    ],
    InfinityTypeData: [
        lambda: InfinityTypeData("Pi'", 0, HALF),
        lambda: InfinityTypeData("Pi", 1, HALF),
        lambda: InfinityTypeData("Pi", 0, (Fraction(3, 2), Fraction(-1, 2))),
        lambda: InfinityTypeData("Pi", 0, HALF, conjugate_self_dual=True),
        lambda: InfinityTypeData("Pi", 0, HALF, discrete_series_split_place=True),
    ],
}

CLASSES = list(BUILD)
COMPARED = list(VARIANTS)
# The classes that store their arguments through Frozen.__init__.
PLAIN = [cls for cls in CLASSES if cls.__init__ is Frozen.__init__]


def test_the_table_covers_every_value_class():
    assert len(CLASSES) == 14
    assert len(PLAIN) == 8
    for cls, build in BUILD.items():
        assert type(build()) is cls


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_live_in_slots(cls):
    x = BUILD[cls]()
    assert not hasattr(x, "__dict__")
    for name in cls.__slots__:
        getattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assigning_a_field_raises(cls):
    # Deleting one too: a value without a field would fail to hash or compare.
    x = BUILD[cls]()
    for name in cls.__slots__:
        before = getattr(x, name)
        for change in (lambda: setattr(x, name, None), lambda: delattr(x, name)):
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                change()
            assert getattr(x, name) is before


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_the_base_init_stores_the_fields_in_slot_order(cls):
    x = BUILD[cls]()
    fields = [getattr(x, name) for name in cls.__slots__]
    y = cls(*fields)
    assert [getattr(y, name) for name in cls.__slots__] == fields
    for wrong in (fields[:-1], fields + [None]):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(fields)} fields, got "):
            cls(*wrong)


def test_a_derivation_result_is_no_tuple():
    result = derive_delta_square_identity(2)
    assert result.ok
    assert result != (result.lhs, result.rhs, result.ok)
    assert not isinstance(result, tuple)


@pytest.mark.parametrize("cls", COMPARED, ids=lambda c: c.__name__)
def test_equal_values_hash_equal(cls):
    x, y = BUILD[cls](), BUILD[cls]()
    assert x is not y and x == y and not x != y and hash(x) == hash(y)


@pytest.mark.parametrize("cls", COMPARED, ids=lambda c: c.__name__)
def test_each_field_takes_part_in_equality(cls):
    x = BUILD[cls]()
    for variant in VARIANTS[cls]:
        assert x != variant()


@pytest.mark.parametrize("cls", COMPARED, ids=lambda c: c.__name__)
def test_an_instance_of_another_type_is_unequal(cls):
    x = BUILD[cls]()
    fields = tuple(getattr(x, name) for name in cls.__slots__)
    # A tuple of the same fields is another type too: no namedtuple equality.
    for other in (object(), fields, None):
        assert x.__eq__(other) is NotImplemented
        assert x != other and not x == other


def test_pair_context_build_stays_a_classmethod():
    # The benchmark's tracer wraps it by name.
    assert isinstance(PairContext.__dict__["build"], classmethod)
