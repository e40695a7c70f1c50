"""Acceptance suite: the eleven criteria, one test each, exact throughout.

Each criterion prints a single ``PASS criterion N: ...`` line on success
(visible with ``pytest -s`` or ``-rP``) or a ``FAIL criterion N: ...``
line before the assertion error on failure.  Criteria 1 and 6 enforce
their stated wall-clock budgets.
"""

import functools
import random
import time
from fractions import Fraction

from factoreq.checker import (
    ArithmeticProfile,
    ClassData,
    bouc_condition_check,
    brauer_kuroda_residual,
    minkowski_factor_check,
)
from factoreq.factorisable import (
    SubgroupFunction,
    abelian_characters,
    factorisable_quotient,
    function_from_character_data,
    is_factorisable_abelian,
)
from factoreq.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    heisenberg_group,
    make_subquotient,
    quaternion_group,
    subgroup_as_group,
)
from factoreq.intmat import mat_mul, transpose
from factoreq.lattices import (
    Pairing,
    augmentation_lattice,
    coset_lattice,
    cyclic_quotient_lattice,
    direct_sum,
    index_ratio_check,
    inflate_lattice,
    regular_lattice,
    regulator_constant,
    restrict_lattice,
    tower_target_constant,
    trivial_lattice,
)
from factoreq.relations import (
    bouc_generators,
    induce_inflate,
    induce_relation,
    relation_basis,
    spans_match,
)
from test_intmat import identity_matrix

GROUPS = {
    "C6": cyclic_group(6),
    "V4": elementary_abelian_group(2, 2),
    "E9": elementary_abelian_group(3, 2),
    "S3": dihedral_group(6),
    "D8": dihedral_group(8),
    "Q8": quaternion_group(),
    "E8": elementary_abelian_group(2, 3),
    "Heis3": heisenberg_group(3),
    "D16": dihedral_group(16),
}

# p-groups of the test set whose order divides 27 or 16
P_GROUPS = {"E9": 3, "Heis3": 3, "V4": 2, "D8": 2, "Q8": 2, "E8": 2,
            "D16": 2}


def criterion(number, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {text}")
                raise
            print(f"PASS criterion {number}: {text}")
            return result
        return wrapper
    return decorate


def closed_form(group, theta, sign=1):
    classes = group.subgroup_classes()
    value = Fraction(1)
    for idx, n_h in theta.coefficients:
        value *= Fraction(classes[idx].order) ** (sign * n_h)
    return value


def seeded_pairing(lat, seed):
    """A second invariant form: average rho^T (U^T U) rho over the group,
    for a random unimodular U built from elementary row operations."""
    rng = random.Random(seed)
    rank = lat.rank
    u = [list(row) for row in identity_matrix(rank)]
    for _ in range(2 * rank):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    core = mat_mul(transpose(u), tuple(tuple(r) for r in u))
    total = [[0] * rank for _ in range(rank)]
    for m in lat.materialized():
        part = mat_mul(mat_mul(transpose(m), core), m)
        total = [[a + b for a, b in zip(ra, rb)]
                 for ra, rb in zip(total, part)]
    return Pairing(tuple(tuple(row) for row in total))


@criterion(1, "relation rank equals the count of non-cyclic subgroup "
              "classes for all nine groups, under 30 s")
def test_criterion_01_relation_ranks():
    start = time.monotonic()
    expected_known = {"C6": 0, "V4": 1, "E9": 1, "S3": 1, "D8": 3}
    for name, group in GROUPS.items():
        basis = relation_basis(group)
        non_cyclic = sum(1 for cls in group.subgroup_classes()
                         if not cls.is_cyclic)
        assert len(basis) == non_cyclic, name
        if name in expected_known:
            assert len(basis) == expected_known[name], name
    assert time.monotonic() - start < 30


@criterion(2, "closed forms for the two standard lattices on every basis "
              "relation, with product exactly 1")
def test_criterion_02_closed_forms():
    for name, group in GROUPS.items():
        lat_a = cyclic_quotient_lattice(group)
        lat_i = augmentation_lattice(group)
        for theta in relation_basis(group):
            c_a = regulator_constant(lat_a, theta).value
            c_i = regulator_constant(lat_i, theta).value
            assert c_a == closed_form(group, theta, +1), name
            assert c_i == closed_form(group, theta, -1), name
            assert c_a * c_i == 1, name


@criterion(3, "trivial and coset-lattice constants match the closed forms, "
              "with the three spot values")
def test_criterion_03_trivial_and_coset_constants():
    for name, group in GROUPS.items():
        lat_z = trivial_lattice(group)
        cyclic_classes = [cls for cls in group.subgroup_classes()
                          if cls.is_cyclic]
        coset_lats = [coset_lattice(group, cls) for cls in cyclic_classes]
        for theta in relation_basis(group):
            assert (regulator_constant(lat_z, theta).value
                    == closed_form(group, theta, -1)), name
            for lat in coset_lats:
                assert regulator_constant(lat, theta).value == 1, name
    v4, e9, h3 = GROUPS["V4"], GROUPS["E9"], GROUPS["Heis3"]
    assert regulator_constant(trivial_lattice(v4),
                              relation_basis(v4)[0]).value == Fraction(1, 2)
    assert regulator_constant(trivial_lattice(e9),
                              relation_basis(e9)[0]).value == Fraction(1, 9)
    pair = next(r for r in bouc_generators(h3, 3)
                if sorted(v for _, v in r.coefficients) == [-1, -1, 1, 1])
    assert regulator_constant(trivial_lattice(h3), pair).value == 1


@criterion(4, "twenty randomized direct sums per group give identical "
              "constants under two independent invariant pairings")
def test_criterion_04_pairing_independence():
    rng = random.Random(20260825)
    for name, group in GROUPS.items():
        basis = relation_basis(group)
        pool = [trivial_lattice(group), cyclic_quotient_lattice(group),
                augmentation_lattice(group)]
        if group.order <= 8:
            pool.append(regular_lattice(group))
        pool.extend(coset_lattice(group, cls)
                    for cls in group.subgroup_classes()
                    if 1 < cls.order < group.order)
        for trial in range(20):
            lat = direct_sum(rng.choice(pool), rng.choice(pool))
            other = seeded_pairing(lat, rng.randrange(10 ** 9))
            for theta in basis:
                default = regulator_constant(lat, theta).value
                assert (regulator_constant(lat, theta, other).value
                        == default), (name, trial)


@criterion(5, "index formula holds for scaled-identity embeddings on the "
              "regular and standard lattices of the two base groups")
def test_criterion_05_index_formula():
    for name in ("V4", "E9"):
        group = GROUPS[name]
        for build in (regular_lattice, cyclic_quotient_lattice):
            lat = build(group)
            for k in (1, 2, 3):
                embed = tuple(tuple(k if r == c else 0
                                    for c in range(lat.rank))
                              for r in range(lat.rank))
                for ok, _ in index_ratio_check(lat, lat, embed,
                                               relation_basis(group)):
                    assert ok, (name, build.__name__, k)


@criterion(6, "classical generators span the full relation lattice for "
              "every p-group of order dividing 27 or 16, under 60 s")
def test_criterion_06_bouc_span():
    start = time.monotonic()
    for name, p in P_GROUPS.items():
        group = GROUPS[name]
        generators = bouc_generators(group, p)
        assert spans_match(generators, relation_basis(group)), name
    assert time.monotonic() - start < 60


@criterion(7, "inflation and restriction compatibility on ten fixture "
              "instances each")
def test_criterion_07_functoriality():
    # inflation: quotients of D8 and Heisenberg(3)
    inflation_fixtures = []
    d8 = GROUPS["D8"]
    full_d8 = frozenset(range(d8.order))
    for bottom in (d8.center(), frozenset({0})):
        sq = make_subquotient(d8, full_d8, bottom)
        for build in (cyclic_quotient_lattice, augmentation_lattice):
            inflation_fixtures.append((d8, sq, build))
    inflation_fixtures.append(
        (d8, make_subquotient(d8, full_d8, d8.center()), trivial_lattice))
    h3 = GROUPS["Heis3"]
    full_h3 = frozenset(range(h3.order))
    for bottom in (h3.center(), frozenset({0})):
        sq = make_subquotient(h3, full_h3, bottom)
        for build in (cyclic_quotient_lattice, augmentation_lattice):
            inflation_fixtures.append((h3, sq, build))
    inflation_fixtures.append(
        (h3, make_subquotient(h3, full_h3, h3.center()), regular_lattice))
    assert len(inflation_fixtures) == 10
    checked = 0
    for group, sq, build in inflation_fixtures:
        small = build(sq.quotient)
        lifted = inflate_lattice(group, sq.projection, small)
        for theta in relation_basis(sq.quotient):
            inflated = induce_inflate(group, sq, theta)
            assert (regulator_constant(lifted, inflated).value
                    == regulator_constant(small, theta).value)
            checked += 1
    assert checked >= 10

    # restriction: subgroups of E9 and D16
    e9, d16 = GROUPS["E9"], GROUPS["D16"]
    restriction_fixtures = [
        (e9, frozenset(range(e9.order)), regular_lattice),
        (e9, frozenset(range(e9.order)), cyclic_quotient_lattice),
        (d16, frozenset(range(d16.order)), cyclic_quotient_lattice),
    ]
    non_cyclic_proper = [cls for cls in d16.subgroup_classes()
                         if not cls.is_cyclic and cls.order < d16.order]
    assert len(non_cyclic_proper) >= 4
    for cls in non_cyclic_proper[:3]:
        restriction_fixtures.append((d16, cls.representative,
                                     regular_lattice))
    for cls in non_cyclic_proper[:4]:
        restriction_fixtures.append((d16, cls.representative,
                                     cyclic_quotient_lattice))
    assert len(restriction_fixtures) == 10
    checked = 0
    for group, subset, build in restriction_fixtures:
        sub, emb = subgroup_as_group(group, subset)
        big = build(group)
        small = restrict_lattice(big, sub, emb)
        for theta in relation_basis(sub):
            induced = induce_relation(group, emb, theta)
            assert (regulator_constant(big, induced).value
                    == regulator_constant(small, theta).value)
            checked += 1
    assert checked >= 10


@criterion(8, "factorisability: trivial on cyclic subgroups for fifty "
              "random functions, order function fails with quotient 2, "
              "character data always passes")
def test_criterion_08_factorisability():
    abelian_pool = [cyclic_group(n) for n in (2, 3, 4, 6, 8, 9, 12, 15, 16)]
    abelian_pool += [
        elementary_abelian_group(2, 2),
        elementary_abelian_group(2, 3),
        elementary_abelian_group(3, 2),
        direct_product(cyclic_group(2), cyclic_group(4)),
        direct_product(cyclic_group(2), cyclic_group(8)),
        direct_product(cyclic_group(4), cyclic_group(4)),
        elementary_abelian_group(2, 4),
    ]
    assert all(g.order <= 16 for g in abelian_pool)
    rng = random.Random(20260825)
    for _ in range(50):
        group = rng.choice(abelian_pool)
        fn = SubgroupFunction.from_callable(
            group,
            lambda sub: Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        quotient = factorisable_quotient(fn)
        for cls in group.subgroup_classes():
            if cls.is_cyclic:
                assert quotient.value(cls.representative) == 1

    v4 = GROUPS["V4"]
    order_fn = SubgroupFunction.from_callable(v4,
                                              lambda sub: Fraction(len(sub)))
    assert factorisable_quotient(order_fn).value(frozenset(range(4))) == 2
    assert not is_factorisable_abelian(order_fn)

    for _ in range(20):
        group = rng.choice(abelian_pool)
        count = len(abelian_characters(group))
        data = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     for _ in range(count))
        assert is_factorisable_abelian(
            function_from_character_data(group, data))


@criterion(9, "checker fixtures: the two class-number patterns decide the "
              "global and classical criteria, and the class-number identity "
              "detects every single perturbation")
def test_criterion_09_checker_fixtures():
    e9 = GROUPS["E9"]
    labels = [cls.label for cls in e9.subgroup_classes()]
    flat = ArithmeticProfile(
        e9, {lab: ClassData(h=1, h_p=1, w=2, lam=1) for lab in labels}, p=3)
    basis = relation_basis(e9)
    verdict = minkowski_factor_check(flat, basis)
    assert not verdict.overall and verdict.residuals == (Fraction(9),)
    assert not bouc_condition_check(flat).overall
    assert bouc_condition_check(flat).residuals == (Fraction(9),)

    patterned_data = {lab: ClassData(h=1, h_p=1, w=2, lam=1)
                      for lab in labels}
    order3 = [cls.label for cls in e9.subgroup_classes() if cls.order == 3]
    for lab in order3[:2]:
        patterned_data[lab] = ClassData(h=3, h_p=3, w=2, lam=1)
    patterned = ArithmeticProfile(e9, patterned_data, p=3)
    assert minkowski_factor_check(patterned, basis).overall
    assert bouc_condition_check(patterned).overall

    for name in ("V4", "E9"):
        group = GROUPS[name]
        classes = group.subgroup_classes()
        rng = random.Random(20260825)
        base = {}
        for cls in classes:
            h = rng.choice([1, 2, 3, 5])
            w = rng.choice([2, 4, 6])
            base[cls.label] = ClassData(h=h, w=w,
                                        regulator=Fraction(7, 3)
                                        * Fraction(w, h))
        consistent = ArithmeticProfile(group, base)
        for theta in relation_basis(group):
            assert brauer_kuroda_residual(consistent, theta) == 1
            for idx, n_h in theta.coefficients:
                lab = classes[idx].label
                entry = base[lab]
                for bump in (
                        ClassData(h=entry.h * 2, w=entry.w,
                                  regulator=entry.regulator),
                        ClassData(h=entry.h, w=entry.w * 2,
                                  regulator=entry.regulator),
                        ClassData(h=entry.h, w=entry.w,
                                  regulator=entry.regulator * 3)):
                    perturbed = dict(base)
                    perturbed[lab] = bump
                    residual = brauer_kuroda_residual(
                        ArithmeticProfile(group, perturbed), theta)
                    assert residual != 1, (name, lab)


@criterion(10, "tower identity: the unit-model direct sum collapses to the "
               "trivial-lattice constant for zero, one, and two regular "
               "summands")
def test_criterion_10_tower_identity():
    for name, group in GROUPS.items():
        for floors in (0, 1, 2):
            for theta in relation_basis(group):
                value = tower_target_constant(group, floors, theta)
                assert value.value == closed_form(group, theta, -1), name


@criterion(11, "no dihedral regulator constant has a factor of 3: "
               "valuations at a prime outside the group order vanish")
def test_criterion_11_p_divisibility():
    d8 = GROUPS["D8"]
    lattices = [trivial_lattice(d8), cyclic_quotient_lattice(d8),
                augmentation_lattice(d8), regular_lattice(d8)]
    lattices.extend(coset_lattice(d8, cls) for cls in d8.subgroup_classes())
    for theta in relation_basis(d8):
        for lat in lattices:
            assert regulator_constant(lat, theta).valuation(3) == 0
