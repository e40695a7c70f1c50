"""Arithmetic-checker tests.

Every fixture value is either evaluated by hand from the defining product
(the elementary-abelian residual 9, the Klein-four unit constants 1/2 and
2, the valuation mismatch 2 vs -2) or constructed to satisfy an identity
exactly (class-number fixtures with one factor per class equal to a fixed
rational t, which multiply to t^(sum of coefficients) = 1 for every
relation).
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from factoreq.checker import (
    ArithmeticProfile,
    ClassData,
    Verdict,
    bouc_condition_check,
    brauer_kuroda_residual,
    minkowski_factor_check,
    p_part_factor_check,
    unit_regulator_constant,
)
from factoreq.errors import DataError, ValidationError
from factoreq.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    heisenberg_group,
)
from factoreq.intmat import valuation
from factoreq.lattices import (
    RegulatorValue,
    augmentation_lattice,
    cyclic_quotient_lattice,
    direct_sum,
    regular_lattice,
    regulator_constant,
    trivial_lattice,
)
from factoreq.relations import GRelation, bouc_generators, relation_basis


def labels_of(group):
    return [c.label for c in group.subgroup_classes()]


def uniform_profile(group, entry, **kwargs):
    return ArithmeticProfile(group, {lab: entry for lab in labels_of(group)},
                             **kwargs)


def consistent_profile(group, seed, t=Fraction(3, 5), hs=(1, 2, 3, 5),
                       ws=(2, 4, 6)):
    """Random h in ``hs``, w in ``ws`` per class with R chosen so every
    factor h*R/w equals t.

    Relations have coefficients summing to zero, so each class-number
    residual is t^0 = 1 by construction.
    """
    rng = random.Random(seed)
    data = {}
    for cls in group.subgroup_classes():
        h = rng.choice(hs)
        w = rng.choice(ws)
        data[cls.label] = ClassData(h=h, w=w, lam=1,
                                    regulator=t * Fraction(w, h))
    return ArithmeticProfile(group, data)


# -- profile validation -------------------------------------------------------


def test_profile_rejects_bad_values():
    v4 = elementary_abelian_group(2, 2)
    with pytest.raises(ValidationError):
        ArithmeticProfile(v4, {"o1#0": ClassData(h=0)})
    with pytest.raises(ValidationError):
        ArithmeticProfile(v4, {"o1#0": ClassData(regulator=Fraction(-1, 2))})
    with pytest.raises(ValidationError):
        ArithmeticProfile(v4, {"o1#0": ClassData(h_p=2)})  # no p declared
    with pytest.raises(ValidationError):
        ArithmeticProfile(v4, {"o1#0": ClassData(h_p=3)}, p=2)
    with pytest.raises(ValidationError):
        ArithmeticProfile(v4, {"o1#0": ClassData(lam=2)})
    with pytest.raises(ValidationError):
        ArithmeticProfile(v4, {"o2#0": ClassData()}, p=6)


@pytest.mark.parametrize("regulator", [0.1, 2.0, float("nan"),
                                       "x", "3/2", "3"])
def test_profile_refuses_float_regulators(regulator):
    # 0.1 would be taken as 3602879701896397/36028797018963968; strings are
    # read by the CLI (``"R": "3/2"``), not by the library
    v4 = elementary_abelian_group(2, 2)
    with pytest.raises(ValidationError, match="regulator on class o2#0 "
                                              "must be a positive rational"):
        ArithmeticProfile(v4, {"o2#0": {"regulator": regulator}})
    assert ArithmeticProfile(v4, {"o2#0": {"regulator": Fraction(1, 10)}}
                             ).regulator("o2#0") == Fraction(1, 10)


def test_profile_names_an_unknown_field():
    v4 = elementary_abelian_group(2, 2)
    with pytest.raises(ValidationError,
                       match="unknown field 'hh' on class o1#0"):
        ArithmeticProfile(v4, {"o1#0": {"hh": 1}})


@pytest.mark.parametrize("field", ["h", "h_p", "w", "lam", "regulator"])
def test_profile_rejects_bools(field):
    # isinstance(True, int) holds, so True must not pass for the integer 1
    v4 = elementary_abelian_group(2, 2)
    with pytest.raises(ValidationError,
                       match=f"{field} on class o2#0 must be a positive"):
        ArithmeticProfile(v4, {"o2#0": {field: True}}, p=2)


def test_profile_accepts_mappings_and_class_keys():
    v4 = elementary_abelian_group(2, 2)
    cls = v4.subgroup_classes()[1]
    prof = ArithmeticProfile(v4, {cls: {"h": 3, "w": 2},
                                  "o1#0": ClassData(h=1)})
    assert prof.h(cls.label) == 3
    assert prof.h(0) == 1
    with pytest.raises(ValidationError):
        ArithmeticProfile(v4, {cls: ClassData(h=1), 1: ClassData(h=1)})


def test_missing_data_errors_name_the_class():
    v4 = elementary_abelian_group(2, 2)
    prof = uniform_profile(v4, ClassData(h=1))
    with pytest.raises(DataError, match="o2#1"):
        prof.w("o2#1")
    with pytest.raises(DataError, match="lambda.*o4#0"):
        prof.lam("o4#0")
    with pytest.raises(DataError, match="regulator"):
        prof.regulator("o1#0")


def test_gated_defaults():
    v4 = elementary_abelian_group(2, 2)
    bare = uniform_profile(v4, ClassData(h=1))
    gated = uniform_profile(v4, ClassData(h=1),
                            totally_real=True, odd_degree=True)
    assert gated.w("o2#0") == 2 and gated.lam("o4#0") == 1
    with pytest.raises(DataError):
        bare.w("o2#0")
    # the trivial subgroup's lambda is 1 without any flag
    assert bare.lam("o1#0") == 1
    # explicit values win over the gated defaults
    override = ArithmeticProfile(v4, {"o2#0": ClassData(h=1, w=6, lam=3)},
                                 totally_real=True, odd_degree=True)
    assert override.w("o2#0") == 6 and override.lam("o2#0") == 3


def test_verdict_invariants():
    with pytest.raises(ValidationError):
        Verdict((Fraction(2),), True, ((("x", Fraction(2), 1),),))
    with pytest.raises(ValidationError):
        Verdict((Fraction(2),), False, ((("x", Fraction(3), 1),),))
    with pytest.raises(ValidationError):
        Verdict((Fraction(1),), True, ())
    v = Verdict((Fraction(1),), True, ((("x", Fraction(1), 1),),))
    assert v.overall


def reassembles_by_fractions(value, factors):
    """The reassembly check as first written: one Fraction per factor."""
    check = Fraction(1)
    for base, exponent in factors:
        check *= Fraction(base) ** exponent
    return check == value


def reassembled(factors):
    out = Fraction(1)
    for base, exponent in factors:
        out *= Fraction(base) ** exponent
    return out


_bases = (st.integers(-12, 12).filter(bool)
          | st.fractions(max_denominator=12).filter(bool))
_factors = st.lists(st.tuples(_bases, st.integers(-4, 4)), max_size=6)
_scales = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3),
                           Fraction(5, 7), Fraction(-1)])


@settings(max_examples=300, deadline=None)
@given(_factors, _scales)
def test_verdict_reassembly_agrees_with_the_fraction_loop(factors, scale):
    residual = abs(reassembled(factors)) * scale
    if residual <= 0:
        return
    breakdown = tuple(("x", base, exponent) for base, exponent in factors)
    try:
        Verdict((residual,), residual == 1, (breakdown,))
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == reassembles_by_fractions(residual, factors)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]),
                       st.integers(-5, 5), max_size=4), _scales)
def test_regulator_value_reassembly_agrees_with_the_fraction_loop(
        valuations, scale):
    value = reassembled(valuations.items()) * abs(scale)
    try:
        RegulatorValue(value, valuations)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == reassembles_by_fractions(value, valuations.items())


def test_reassembly_off_by_one_prime_factor_is_refused():
    e9 = elementary_abelian_group(3, 2)
    verdict = minkowski_factor_check(
        uniform_profile(e9, ClassData(h=1, w=2, lam=1)), relation_basis(e9))
    (residual,), (breakdown,) = verdict.residuals, verdict.explanations
    Verdict((residual,), False, (breakdown,))
    for p in (2, 3, 5):
        for off in (residual * p, residual / p):
            with pytest.raises(ValidationError, match="reassemble"):
                Verdict((off,), off == 1, (breakdown,))
        with pytest.raises(ValidationError, match="reassemble"):
            Verdict((residual,), False, (breakdown + (("x", p, 1),),))
    RegulatorValue(Fraction(12, 5), {2: 2, 3: 1, 5: -1})
    for valuations in ({2: 2, 3: 1}, {2: 2, 3: 1, 5: -2},
                       {2: 1, 3: 1, 5: -1}, {2: 2, 3: 1, 5: -1, 7: 1}):
        with pytest.raises(ValidationError, match="reassemble"):
            RegulatorValue(Fraction(12, 5), valuations)
    # int bases are read as they are, with no Fraction around them
    Verdict((Fraction(4, 9),), False, ((("x", 2, 2), ("y", 3, -2)),))
    # 0 * 0^-1 is no rational, though both cross-products are 0
    with pytest.raises(ValidationError, match="reassemble"):
        Verdict((Fraction(3),), False, ((("x", 0, 1), ("y", 0, -1)),))


# -- the global criterion ------------------------------------------------------


def test_minkowski_residual_nine_for_trivial_class_numbers():
    e9 = elementary_abelian_group(3, 2)
    prof = uniform_profile(e9, ClassData(h=1, w=2, lam=1))
    verdict = minkowski_factor_check(prof, relation_basis(e9))
    assert verdict.residuals == (Fraction(9),)
    assert not verdict.overall


def test_minkowski_passes_for_matching_class_numbers():
    e9 = elementary_abelian_group(3, 2)
    data = {lab: ClassData(h=1, w=2, lam=1) for lab in labels_of(e9)}
    order3 = [c.label for c in e9.subgroup_classes() if c.order == 3]
    for lab in order3[:2]:
        data[lab] = ClassData(h=3, w=2, lam=1)
    verdict = minkowski_factor_check(ArithmeticProfile(e9, data),
                                     relation_basis(e9))
    assert verdict.residuals == (Fraction(1),)
    assert verdict.overall


def test_minkowski_vacuous_for_cyclic_groups():
    c7 = cyclic_group(7)
    assert relation_basis(c7) == ()
    verdict = minkowski_factor_check(ArithmeticProfile(c7, {}),
                                     relation_basis(c7))
    assert verdict.overall and verdict.residuals == ()


def test_minkowski_breakdown_reassembles():
    d8 = dihedral_group(8)
    prof = uniform_profile(d8, ClassData(h=2, w=4, lam=1))
    verdict = minkowski_factor_check(prof, relation_basis(d8))
    for residual, breakdown in zip(verdict.residuals, verdict.explanations):
        product = Fraction(1)
        for _, base, exponent in breakdown:
            product *= base ** exponent
        assert product == residual


def test_constant_w_cancels():
    # with every other invariant trivial, w never affects the residual
    e9 = elementary_abelian_group(3, 2)
    rels = relation_basis(e9)
    for w in (2, 6, 10):
        prof = uniform_profile(e9, ClassData(h=1, w=w, lam=1))
        assert minkowski_factor_check(prof, rels).residuals == (Fraction(9),)


def test_minkowski_missing_data_names_class():
    e9 = elementary_abelian_group(3, 2)
    data = {lab: ClassData(h=1, w=2, lam=1) for lab in labels_of(e9)}
    del data["o3#2"]
    with pytest.raises(DataError, match="o3#2"):
        minkowski_factor_check(ArithmeticProfile(e9, data), relation_basis(e9))


def test_relations_must_match_profile_group():
    v4 = elementary_abelian_group(2, 2)
    e9 = elementary_abelian_group(3, 2)
    prof = uniform_profile(v4, ClassData(h=1, w=2, lam=1))
    with pytest.raises(ValidationError):
        minkowski_factor_check(prof, relation_basis(e9))


# -- the unit-lattice regulator constant ---------------------------------------


def test_unit_constant_reduces_to_trivial_lattice_value():
    v4 = elementary_abelian_group(2, 2)
    (theta,) = relation_basis(v4)
    prof = uniform_profile(v4, ClassData(regulator=1, lam=1))
    value = unit_regulator_constant(prof, theta)
    assert value.value == Fraction(1, 2)
    assert value.valuations == {2: -1}
    assert value.value == regulator_constant(trivial_lattice(v4), theta).value


def test_unit_constant_with_nontrivial_lambda():
    v4 = elementary_abelian_group(2, 2)
    (theta,) = relation_basis(v4)
    data = {lab: ClassData(regulator=1, lam=1) for lab in labels_of(v4)}
    data["o2#0"] = ClassData(regulator=1, lam=2)
    value = unit_regulator_constant(ArithmeticProfile(v4, data), theta)
    # the order-2 class enters with coefficient -1, so (R/lambda)^(2n) = 4
    assert value.value == Fraction(2)


def test_unit_constant_empty_relation():
    v4 = elementary_abelian_group(2, 2)
    prof = ArithmeticProfile(v4, {})
    value = unit_regulator_constant(prof, GRelation(v4, ()))
    assert value.value == 1 and value.valuations == {}


def test_unit_constant_needs_regulators():
    v4 = elementary_abelian_group(2, 2)
    prof = uniform_profile(v4, ClassData(h=1, lam=1))
    with pytest.raises(DataError, match="regulator"):
        unit_regulator_constant(prof, relation_basis(v4)[0])


def test_unit_constant_refuses_a_factor_prime_to_the_group_order():
    # R = a 17-digit prime on o4#0 puts it in C_Theta(E) to the 4th power;
    # valuations are taken at 2 alone, so the prime is never factored, and
    # no field gives a unit constant with such a factor
    v4 = elementary_abelian_group(2, 2)
    (theta,) = relation_basis(v4)
    big = 10000000000000061
    data = {lab: ClassData(regulator=1, lam=1) for lab in labels_of(v4)}
    data["o4#0"] = ClassData(regulator=big, lam=1)
    start = time.monotonic()
    with pytest.raises(DataError, match=f"factor {big ** 4} prime to"):
        unit_regulator_constant(ArithmeticProfile(v4, data), theta)
    assert time.monotonic() - start < 1


# -- the class-number identity -------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_class_number_identity_on_constructed_fixtures(seed):
    for make in (lambda: elementary_abelian_group(2, 2),
                 lambda: dihedral_group(8),
                 lambda: elementary_abelian_group(3, 2)):
        group = make()
        prof = consistent_profile(group, seed)
        for theta in relation_basis(group):
            assert brauer_kuroda_residual(prof, theta) == 1


def test_class_number_identity_detects_any_single_perturbation():
    v4 = elementary_abelian_group(2, 2)
    (theta,) = relation_basis(v4)
    prof = consistent_profile(v4, seed=7)
    classes = v4.subgroup_classes()
    for idx, n_h in theta.coefficients:
        lab = classes[idx].label
        base = prof.data[idx]
        data = {classes[i].label: d for i, d in prof.data.items()}
        data[lab] = ClassData(h=base.h * 2, w=base.w, lam=base.lam,
                              regulator=base.regulator)
        residual = brauer_kuroda_residual(ArithmeticProfile(v4, data), theta)
        assert residual == Fraction(2) ** n_h != 1


def test_consistency_with_the_global_criterion():
    # when the class-number identity holds, the global criterion agrees
    # with comparing the unit constant against the standard lattice's; h
    # and w/2 are powers of p, so C_Theta(E) is a p-adic unit away from p
    # as for a field (t and the 2 in w cancel, since sum n_H = 0)
    for p, group in ((2, elementary_abelian_group(2, 2)),
                     (3, elementary_abelian_group(3, 2))):
        lat = cyclic_quotient_lattice(group)
        for seed in (11, 12):
            prof = consistent_profile(group, seed, hs=(1, p, p * p),
                                      ws=(2, 2 * p, 2 * p * p))
            for theta in relation_basis(group):
                assert brauer_kuroda_residual(prof, theta) == 1
                mink = minkowski_factor_check(prof, (theta,))
                ratio = (unit_regulator_constant(prof, theta).value
                         / regulator_constant(lat, theta).value)
                assert mink.overall == (ratio == 1)
                assert ratio == mink.residuals[0] ** -2


# -- p-part comparison ----------------------------------------------------------


def test_p_part_mismatch_against_standard_lattice():
    e9 = elementary_abelian_group(3, 2)
    prof = uniform_profile(e9, ClassData(h_p=1, w=2, lam=1), p=3)
    verdict = p_part_factor_check(prof, relation_basis(e9),
                                  cyclic_quotient_lattice(e9))
    # unit side valuation -2, candidate side 2
    assert verdict.residuals == (Fraction(1, 81),)
    assert not verdict.overall


def test_p_part_matches_unit_model_tower():
    e9 = elementary_abelian_group(3, 2)
    prof = uniform_profile(e9, ClassData(h_p=1, w=2, lam=1), p=3)
    tower = direct_sum(direct_sum(cyclic_quotient_lattice(e9),
                                  augmentation_lattice(e9)),
                       trivial_lattice(e9))
    for extra in range(2):
        verdict = p_part_factor_check(prof, relation_basis(e9), tower)
        assert verdict.overall and verdict.residuals == (Fraction(1),)
        tower = direct_sum(tower, regular_lattice(e9))


def test_p_part_regulator_route_agrees_with_class_number_route():
    e9 = elementary_abelian_group(3, 2)
    rels = relation_basis(e9)
    candidate = trivial_lattice(e9)
    # h R / w = 1 on every class makes the two routes describe the same data
    by_h = uniform_profile(e9, ClassData(h=9, h_p=9, w=2, lam=1,
                                         regulator=Fraction(2, 9)), p=3)
    via_r = p_part_factor_check(by_h, rels, candidate)
    stripped = uniform_profile(e9, ClassData(h_p=9, w=2, lam=1), p=3)
    via_h = p_part_factor_check(stripped, rels, candidate)
    assert via_r.residuals == via_h.residuals


def p_power_profile(group, p, seed):
    """Random h, w/2 and lambda among small powers of p, with R = t w/h.

    Every factor h R / w equals t = 7/11, so the class-number identity
    holds; the powers of p leave C_Theta(E) free of primes outside |G|, and
    t, a unit at 2 and 3, leaves each class's valuation that of w/h.
    """
    rng = random.Random(seed)
    data = {}
    for cls in group.subgroup_classes():
        h, w = rng.choice((1, p, p * p)), 2 * rng.choice((1, p))
        data[cls.label] = ClassData(
            h=h, h_p=h, w=w, lam=1 if cls.order == 1 else rng.choice((1, p)),
            regulator=Fraction(7, 11) * Fraction(w, h))
    return ArithmeticProfile(group, data, p=p)


@pytest.mark.parametrize("p, make", [
    (2, lambda: elementary_abelian_group(2, 2)),
    (3, lambda: elementary_abelian_group(3, 2)),
    (2, lambda: dihedral_group(8)),
    (2, lambda: direct_product(cyclic_group(2), cyclic_group(4))),
], ids=["V4", "3^2", "D8", "C2xC4"])
def test_p_part_unit_side_is_the_unit_constant_at_p(p, make):
    group = make()
    rels = relation_basis(group)
    candidate = trivial_lattice(group)
    for seed in (1, 2):
        prof = p_power_profile(group, p, seed)
        verdict = p_part_factor_check(prof, rels, candidate)
        for theta, breakdown in zip(rels, verdict.explanations):
            v_units = sum(valuation(base, p) for _, base, _ in breakdown[:-1])
            assert v_units == unit_regulator_constant(prof, theta).valuation(p)
        # without R, the class-number route gives the same unit side
        classes = group.subgroup_classes()
        stripped = ArithmeticProfile(group, {
            classes[idx].label: ClassData(h_p=d.h_p, w=d.w, lam=d.lam)
            for idx, d in prof.data.items()}, p=p)
        assert p_part_factor_check(stripped, rels, candidate) == verdict


def test_missing_lambda_and_r_names_the_r_side_first():
    # R (or, on the class-number route, w then h_p) is read before lambda
    v4 = elementary_abelian_group(2, 2)
    data = {lab: ClassData(regulator=1, lam=1, w=2, h_p=1)
            for lab in labels_of(v4)}
    data["o2#0"] = ClassData(w=2)
    prof = ArithmeticProfile(v4, data, p=2)
    (theta,) = relation_basis(v4)
    with pytest.raises(DataError, match="missing regulator for class o2#0"):
        unit_regulator_constant(prof, theta)
    # o2#0 lacks R, so the relation takes the class-number route
    with pytest.raises(DataError, match="missing h_p for class o2#0"):
        p_part_factor_check(prof, (theta,), trivial_lattice(v4))


def test_p_part_requires_prime_and_data():
    e9 = elementary_abelian_group(3, 2)
    prof = uniform_profile(e9, ClassData(h_p=1, w=2, lam=1), p=3)
    bare = uniform_profile(e9, ClassData(h=1, w=2, lam=1))
    with pytest.raises(DataError, match="prime"):
        p_part_factor_check(bare, relation_basis(e9),
                            trivial_lattice(e9))
    with pytest.raises(DataError, match="h_p"):
        p_part_factor_check(uniform_profile(e9, ClassData(w=2, lam=1), p=3),
                            relation_basis(e9), trivial_lattice(e9))
    v4 = elementary_abelian_group(2, 2)
    with pytest.raises(ValidationError):
        p_part_factor_check(prof, relation_basis(e9), trivial_lattice(v4))


def test_p_part_vacuous_without_relations():
    c9 = cyclic_group(9)
    prof = ArithmeticProfile(c9, {}, p=3)
    verdict = p_part_factor_check(prof, relation_basis(c9),
                                  trivial_lattice(c9))
    assert verdict.overall and verdict.residuals == ()


# -- the classical p-group condition --------------------------------------------


def test_bouc_condition_on_center_pair_relations():
    h3 = heisenberg_group(3)
    prof = uniform_profile(h3, ClassData(h_p=3), p=3)
    pairs = [r for r in bouc_generators(h3, 3)
             if sorted(v for _, v in r.coefficients) == [-1, -1, 1, 1]]
    assert pairs
    verdict = bouc_condition_check(prof, pairs)
    # the order product is 1 on these relations, and equal h_p cancel
    assert verdict.overall
    assert set(verdict.residuals) == {Fraction(1)}


def test_bouc_condition_mirrors_the_global_criterion():
    e9 = elementary_abelian_group(3, 2)
    flat = uniform_profile(e9, ClassData(h_p=1), p=3)
    verdict = bouc_condition_check(flat)
    assert verdict.residuals == (Fraction(9),) and not verdict.overall
    data = {lab: ClassData(h_p=1) for lab in labels_of(e9)}
    order3 = [c.label for c in e9.subgroup_classes() if c.order == 3]
    for lab in order3[:2]:
        data[lab] = ClassData(h_p=3)
    patterned = bouc_condition_check(ArithmeticProfile(e9, data, p=3))
    assert patterned.overall and patterned.residuals == (Fraction(1),)


def test_bouc_condition_evaluates_each_class_once(monkeypatch):
    # each class's base is read once, on its first use in relation order,
    # and every residual is still the product of its factors
    d16 = dihedral_group(16)
    classes = d16.subgroup_classes()
    prof = ArithmeticProfile(d16, {cls.label: ClassData(h_p=2 ** (i % 3))
                                   for i, cls in enumerate(classes)}, p=2)
    rels = bouc_generators(d16, 2)
    calls = []
    h_p = prof.h_p
    monkeypatch.setattr(prof, "h_p",
                        lambda cls: calls.append(cls.index) or h_p(cls))
    verdict = bouc_condition_check(prof, rels)
    first_uses = [idx for theta in rels for idx, _ in theta.coefficients]
    assert calls == list(dict.fromkeys(first_uses))
    assert len(calls) < len(first_uses)
    for theta, residual in zip(rels, verdict.residuals):
        product = Fraction(1)
        for idx, n_h in theta.coefficients:
            product *= Fraction(2 ** (idx % 3) * classes[idx].order) ** n_h
        assert residual == product
    assert not verdict.overall


def test_bouc_condition_validates_the_group():
    s3 = dihedral_group(6)
    prof = uniform_profile(s3, ClassData(h_p=3), p=3)
    with pytest.raises(ValidationError, match="not a 3-group"):
        bouc_condition_check(prof)
    e9 = elementary_abelian_group(3, 2)
    with pytest.raises(DataError, match="prime"):
        bouc_condition_check(uniform_profile(e9, ClassData(h=1)))
