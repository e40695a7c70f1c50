"""Factorisability tests.

Division structure and the Moebius transform are frozen from hand
evaluations (V4 and cyclic groups small enough to enumerate divisors by
eye).  The factorisability decision is exercised both ways: every function
built from character data must pass, and the order function on the Klein
four-group must fail with quotient value exactly 2.  The decision runs on
G's own subgroup lattice; the division test run on the character group,
built as a Group of its own, is kept here as its oracle.  The inversion
itself is checked against products of element functions, whose f' and
ftilde are known without it.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from factoreq import factorisable
from factoreq.errors import FactoreqError, ValidationError
from factoreq.factorisable import (
    Division,
    SubgroupFunction,
    abelian_characters,
    character_kernel,
    division_transform,
    divisions,
    factorisable_quotient,
    function_from_character_data,
    is_factorisable_abelian,
)
from factoreq.groups import (
    Group,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
)


def test_divisions_of_v4():
    g = elementary_abelian_group(2, 2)
    divs = divisions(g)
    assert [sorted(d.members) for d in divs] == [[0], [1], [2], [3]]
    assert [d.order for d in divs] == [1, 2, 2, 2]


def test_divisions_of_cyclic_groups():
    c4 = cyclic_group(4)
    assert [sorted(d.members) for d in divisions(c4)] == [[0], [2], [1, 3]]
    assert len(divisions(cyclic_group(1))) == 1
    c12 = cyclic_group(12)
    # one division per divisor, of size phi(d)
    assert sorted(len(d.members) for d in divisions(c12)) == [1, 1, 2, 2, 2, 4]


def test_divisions_partition():
    for g in (cyclic_group(8), elementary_abelian_group(2, 3),
              direct_product(cyclic_group(2), cyclic_group(4))):
        divs = divisions(g)
        seen = sorted(x for d in divs for x in d.members)
        assert seen == list(range(g.order))
        for d in divs:
            assert all(g.subgroup_generated_by([x]) == d.generated_subgroup
                       for x in d.members)


def test_divisions_need_abelian():
    with pytest.raises(ValidationError):
        divisions(dihedral_group(6))


def test_subgroup_function_totality_and_positivity():
    g = elementary_abelian_group(2, 2)
    with pytest.raises(ValidationError):
        SubgroupFunction(g, {frozenset([0]): 1})
    with pytest.raises(ValidationError):
        SubgroupFunction.from_callable(g, lambda s: -1)
    f = SubgroupFunction.from_callable(g, len)
    assert f.value([0, 1]) == 2
    with pytest.raises(ValidationError):
        f.value([1, 2])  # not a subgroup


def test_floats_and_bools_are_not_exact_numbers():
    # 0.1 would be taken as 3602879701896397/36028797018963968
    v4 = elementary_abelian_group(2, 2)
    for bad in (0.1, True, "1/2"):
        with pytest.raises(ValidationError, match="not an exact rational"):
            SubgroupFunction.from_callable(v4, lambda s: bad)
        with pytest.raises(ValidationError, match="not an exact rational"):
            function_from_character_data(v4, [1, 1, bad, 1])


def test_division_transform_constant_one():
    g = cyclic_group(12)
    f = SubgroupFunction.from_callable(g, lambda s: 1)
    assert all(division_transform(f, d) == 1 for d in divisions(g))


def test_division_transform_order_function():
    v4 = elementary_abelian_group(2, 2)
    f = SubgroupFunction.from_callable(v4, len)
    involution = next(d for d in divisions(v4) if d.order == 2)
    assert division_transform(f, involution) == 2
    c4 = cyclic_group(4)
    f4 = SubgroupFunction.from_callable(c4, len)
    top = next(d for d in divisions(c4) if d.order == 4)
    # divisors 1, 2, 4: 4^mu(1) * 2^mu(2) * 1^mu(4) = 4/2
    assert division_transform(f4, top) == 2
    with pytest.raises(ValidationError, match="not a division"):
        division_transform(f4, divisions(cyclic_group(8))[-1])


def test_quotient_of_constant_function():
    g = direct_product(cyclic_group(2), cyclic_group(4))
    f = SubgroupFunction.from_callable(g, lambda s: Fraction(5, 3))
    ft = factorisable_quotient(f)
    assert all(v == 1 for v in ft.values.values())


def test_quotient_of_order_function_on_v4():
    v4 = elementary_abelian_group(2, 2)
    ft = factorisable_quotient(SubgroupFunction.from_callable(v4, len))
    for sub, value in ft.values.items():
        assert value == (2 if len(sub) == 4 else 1)


def test_quotient_vanishes_on_cyclic_subgroups():
    rng = random.Random(7)
    for g in (elementary_abelian_group(2, 2), cyclic_group(8),
              direct_product(cyclic_group(2), cyclic_group(4)),
              elementary_abelian_group(3, 2)):
        f = SubgroupFunction.from_callable(
            g, lambda s: Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        ft = factorisable_quotient(f)
        for sub, value in ft.values.items():
            if any(g.subgroup_generated_by([x]) == sub for x in sub):
                assert value == 1


def test_quotient_multiplicativity():
    g = elementary_abelian_group(2, 2)
    rng = random.Random(3)
    f1 = SubgroupFunction.from_callable(g, lambda s: rng.randint(1, 9))
    f2 = SubgroupFunction.from_callable(g, lambda s: rng.randint(1, 9))
    lhs = factorisable_quotient(f1.times(f2))
    q1, q2 = factorisable_quotient(f1), factorisable_quotient(f2)
    for sub in g.all_subgroups():
        assert lhs.values[sub] == q1.values[sub] * q2.values[sub]


def test_abelian_characters_v4():
    g = elementary_abelian_group(2, 2)
    chars = abelian_characters(g)
    assert chars == ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))
    assert character_kernel(g, chars[1]) == frozenset([0, 1])


def test_abelian_characters_are_homomorphisms():
    g = direct_product(cyclic_group(2), cyclic_group(4))
    m = g.exponent()
    chars = abelian_characters(g)
    assert len(chars) == g.order == len(set(chars))
    for chi in chars:
        for x in range(g.order):
            for y in range(g.order):
                assert chi[g.mul[x][y]] == (chi[x] + chi[y]) % m


def test_characters_do_not_need_breadth_first_indices():
    # C4 generated by 3, and C2 x C4 with its elements permuted: element x
    # of the copy is element perm[x] of the breadth-first group g
    c2_c4 = direct_product(cyclic_group(2), cyclic_group(4))
    for g, perm, gens in ((cyclic_group(4), (0, 1, 2, 3), (3,)),
                          (c2_c4, (0, 7, 5, 3, 6, 1, 4, 2), (5, 7))):
        n = g.order
        inv = [perm.index(x) for x in range(n)]
        copy = Group([[inv[g.mul[perm[a]][perm[b]]] for b in range(n)]
                      for a in range(n)], gens)
        want = sorted(tuple(chi[perm[x]] for x in range(n))
                      for chi in abelian_characters(g))
        assert abelian_characters(copy) == tuple(want)
        f = function_from_character_data(copy, range(1, n + 1))
        assert is_factorisable_abelian(f)


def test_function_from_character_data_examples():
    g = elementary_abelian_group(2, 2)
    f = function_from_character_data(g, [1, 1, 1, 1])
    assert all(v == 1 for v in f.values.values())
    f5 = function_from_character_data(g, [5, 1, 1, 1])
    assert all(v == 5 for v in f5.values.values())
    f2 = function_from_character_data(g, [1, 2, 1, 1])
    ker = character_kernel(g, abelian_characters(g)[1])
    for sub, value in f2.values.items():
        assert value == (2 if sub <= ker else 1)


def test_function_from_character_data_validation():
    g = elementary_abelian_group(2, 2)
    with pytest.raises(ValidationError):
        function_from_character_data(g, [1, 2, 3])
    with pytest.raises(ValidationError):
        function_from_character_data(g, [1, -2, 3, 1])


def test_is_factorisable_verdicts():
    v4 = elementary_abelian_group(2, 2)
    assert not is_factorisable_abelian(SubgroupFunction.from_callable(v4, len))
    assert is_factorisable_abelian(
        SubgroupFunction.from_callable(v4, lambda s: Fraction(7, 3)))
    e8 = elementary_abelian_group(2, 3)
    assert not is_factorisable_abelian(SubgroupFunction.from_callable(e8, len))


def test_character_data_round_trip_randomized():
    rng = random.Random(20260825)
    groups = [elementary_abelian_group(2, 2), cyclic_group(8),
              direct_product(cyclic_group(2), cyclic_group(4)),
              elementary_abelian_group(2, 3), cyclic_group(12),
              elementary_abelian_group(3, 2)]
    for g in groups:
        for _ in range(4):
            vals = [Fraction(rng.randint(1, 12), rng.randint(1, 12))
                    for _ in range(g.order)]
            f = function_from_character_data(g, vals)
            assert is_factorisable_abelian(f)


def test_division_and_function_reprs_are_usable():
    g = cyclic_group(4)
    d = divisions(g)[0]
    assert isinstance(d, Division) and d.order == 1
    f = SubgroupFunction.from_callable(g, len)
    assert f.group is g


def test_character_count_is_checked(monkeypatch):
    # Forced: S3 passed off as abelian has 2 characters into Z/6, not 6.
    monkeypatch.setattr(factorisable, "_require_abelian", lambda group: None)
    with pytest.raises(FactoreqError, match="exactly 6") as exc:
        abelian_characters(dihedral_group(6))
    assert type(exc.value) is FactoreqError


# -- the decision against the character-group route ----------------------------


def _dual_group_decision(f):
    """The division test on the character group, for F(X) = f(X^perp).

    Characters multiply by pointwise addition mod the exponent; every
    character is passed as a generator.
    """
    group = f.group
    chars = abelian_characters(group)
    m = group.exponent()
    position = {chi: i for i, chi in enumerate(chars)}
    mul = [[position[tuple((a + b) % m for a, b in zip(x, y))]
            for y in chars] for x in chars]
    dual = Group(mul, range(len(chars)), name=f"{group.name}^dual")
    kernels = [character_kernel(group, chi) for chi in chars]
    table = {}
    for xi in dual.all_subgroups():
        perp = frozenset(range(group.order))
        for i in xi:
            perp &= kernels[i]
        table[xi] = f.value(perp)
    pulled = SubgroupFunction(dual, table)
    return all(v == 1 for v in factorisable_quotient(pulled).values.values())


def _census():
    c, e = cyclic_group, elementary_abelian_group
    return [c(1), c(8), c(30), c(64), e(2, 2), e(2, 3), e(2, 4), e(2, 5),
            e(3, 2), e(3, 3), e(5, 2), direct_product(c(4), c(4)),
            direct_product(c(2), direct_product(c(4), c(4))),
            direct_product(c(4), c(6))]


def test_element_products_are_inverted_exactly():
    # f(H) = prod_{x in H} e(x) for an element function e: f' of a division
    # is the product of e over its members, and ftilde is 1 everywhere
    rng = random.Random(20261019)
    for g in _census():
        e = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
             for _ in range(g.order)]
        f = SubgroupFunction.from_callable(g, lambda s: prod(e[x] for x in s))
        for d in divisions(g):
            assert division_transform(f, d) == prod(e[x] for x in d.members)
        assert set(factorisable_quotient(f).values.values()) == {1}, g.name


def test_decision_matches_the_character_group_route():
    rng = random.Random(20261018)
    verdicts = []
    for g in _census():
        data = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(g.order)]
        built = function_from_character_data(g, data)
        perturbed = dict(built.values)
        perturbed[rng.choice(g.all_subgroups())] *= 2
        for f in (built, SubgroupFunction(g, perturbed),
                  SubgroupFunction.from_callable(g, len)):
            verdict = is_factorisable_abelian(f)
            assert verdict == _dual_group_decision(f), g.name
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_every_function_on_a_cyclic_group_is_factorisable():
    # a cyclic group is its own character group, and the division test
    # accepts every function there
    rng = random.Random(11)
    groups = [cyclic_group(n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 27)]
    # cyclic, but from generators of coprime orders
    groups += [direct_product(cyclic_group(2), cyclic_group(3)),
               direct_product(cyclic_group(4), cyclic_group(9))]
    for g in groups:
        for _ in range(5):
            f = SubgroupFunction.from_callable(
                g, lambda s: Fraction(rng.randint(1, 30), rng.randint(1, 30)))
            assert is_factorisable_abelian(f)


def test_decision_builds_no_group_and_no_characters(monkeypatch):
    g = direct_product(cyclic_group(2), cyclic_group(4))
    built = function_from_character_data(g, range(1, g.order + 1))
    order_fn = SubgroupFunction.from_callable(g, len)

    def forbidden(*args, **kwargs):
        raise AssertionError("the decision must stay on G's own lattice")

    monkeypatch.setattr(Group, "__init__", forbidden)
    monkeypatch.setattr(factorisable, "abelian_characters", forbidden)
    monkeypatch.setattr(factorisable, "character_kernel", forbidden)
    assert is_factorisable_abelian(built)
    assert not is_factorisable_abelian(order_fn)
