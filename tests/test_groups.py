"""Group core: construction, subgroup lattice, quotients, subquotients.

Subgroup enumeration is checked against three independent oracles: full
power-set closure (|G| <= 16), closures of all generating sets of size
<= log2|G| (|G| < 32, since any subgroup of order n is generated by at most
log2(n) elements), and, for every group, the element-seeded join closure
that the coset-extension enumeration replaced.  Subgroup classes are checked
against orbits under every element of G, and closure tables against the
table built with one product call per pair of elements.
"""

import math
from itertools import combinations

import pytest

from factoreq import groups
from factoreq.errors import ValidationError
from factoreq.groups import (
    Group,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    group_from_generators,
    heisenberg_group,
    make_subquotient,
    quaternion_group,
    quotient_group,
    semidirect_product,
    subgroup_as_group,
)
from test_relations import (
    Dihedral2N,
    ElemAbelianP2,
    HeisenbergP3,
    subquotients_of_type,
)


def oracle_subgroups_powerset(g):
    """Every subset containing 0 that is multiplicatively closed."""
    assert g.order <= 16
    rest = range(1, g.order)
    out = set()
    for r in range(g.order):
        for combo in combinations(rest, r):
            s = frozenset((0,) + combo)
            if g.is_subgroup(s):
                out.add(s)
    return out


def oracle_subgroups_bounded_gens(g):
    """Closures of all <= log2|G| element subsets (complete for |G| <= 2^k)."""
    maxgens = max(1, int(math.log2(g.order)))
    out = {frozenset([0])}
    for r in range(1, maxgens + 1):
        for combo in combinations(range(1, g.order), r):
            out.add(g.subgroup_generated_by(combo))
    return out


def oracle_subgroups_join_closure(g):
    """Saturate joins with cyclic subgroups, each join closed from all of
    the subgroup's elements (the enumeration before coset extension)."""
    cyclics = {g.subgroup_generated_by([x]) for x in range(g.order)}
    found = set(cyclics)
    queue = list(cyclics)
    for sub in queue:
        for cyc in cyclics:
            if not cyc <= sub:
                new = g.subgroup_generated_by(sub | cyc)
                if new not in found:
                    found.add(new)
                    queue.append(new)
    return found


def oracle_subgroup_classes(g, subs):
    """(members, label, is_cyclic, is_normal) per class, from orbits under
    conjugation by every element of G, in canonical order."""
    mul, inv = g.mul, g.inverse

    def conj(x, sub):
        return frozenset(mul[mul[x][h]][inv[x]] for h in sub)

    def key(sub):
        return len(sub), sorted(sub)

    orbits = {frozenset(conj(x, sub) for x in range(g.order)) for sub in subs}
    out, per_order = [], {}
    for members in sorted((sorted(o, key=key) for o in orbits),
                          key=lambda m: key(m[0])):
        rep = members[0]
        k = per_order.get(len(rep), 0)
        per_order[len(rep)] = k + 1
        out.append((tuple(members), f"o{len(rep)}#{k}",
                    any(g.subgroup_generated_by([x]) == rep for x in rep),
                    all(conj(x, rep) == rep for x in range(g.order))))
    return out


def oracle_closure_table(identity_item, gen_items, mul_fn):
    """The closure's table with one ``mul_fn`` call per pair of elements,
    as built before the table was filled from the generators' action."""
    index = {identity_item: 0}
    items = [identity_item]
    for cur in items:
        for gen in gen_items:
            nxt = mul_fn(cur, gen)
            if nxt not in index:
                index[nxt] = len(items)
                items.append(nxt)
    return tuple(tuple(index[mul_fn(a, b)] for b in items) for a in items)


def order_multiset(g):
    counts = {}
    for o in g.element_orders:
        counts[o] = counts.get(o, 0) + 1
    return counts


# -- construction ------------------------------------------------------------

def test_cyclic_groups():
    c1 = cyclic_group(1)
    assert c1.order == 1 and c1.element_orders == (1,)
    c6 = cyclic_group(6)
    assert c6.order == 6
    assert order_multiset(c6) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert c6.is_abelian()


def test_elementary_abelian():
    v4 = elementary_abelian_group(2, 2)
    assert v4.order == 4 and order_multiset(v4) == {1: 1, 2: 3}
    e9 = elementary_abelian_group(3, 2)
    assert e9.order == 9 and order_multiset(e9) == {1: 1, 3: 8}
    with pytest.raises(ValidationError):
        elementary_abelian_group(4, 1)
    with pytest.raises(ValidationError):
        elementary_abelian_group(3, 0)


def test_dihedral_groups():
    assert dihedral_group(2).order == 2
    d4 = dihedral_group(4)
    assert order_multiset(d4) == {1: 1, 2: 3}
    d8 = dihedral_group(8)
    assert not d8.is_abelian()
    assert order_multiset(d8) == {1: 1, 2: 5, 4: 2}
    d16 = dihedral_group(16)
    assert order_multiset(d16) == {1: 1, 2: 9, 4: 2, 8: 4}
    with pytest.raises(ValidationError):
        dihedral_group(7)


def test_quaternion_group():
    q8 = quaternion_group()
    assert q8.order == 8
    assert order_multiset(q8) == {1: 1, 2: 1, 4: 6}
    assert not q8.is_abelian()
    assert len(q8.center()) == 2


def test_heisenberg_group():
    h = heisenberg_group(3)
    assert h.order == 27
    assert order_multiset(h) == {1: 1, 3: 26}
    assert not h.is_abelian()
    assert len(h.center()) == 3
    with pytest.raises(ValidationError):
        heisenberg_group(2)
    with pytest.raises(ValidationError):
        heisenberg_group(6)


def test_group_from_generators():
    s3 = group_from_generators([(1, 2, 0), (1, 0, 2)])
    assert s3.order == 6 and not s3.is_abelian()
    with pytest.raises(ValidationError):
        group_from_generators([])
    with pytest.raises(ValidationError):
        group_from_generators([(0, 0, 1)])
    # The closure stops once it passes the desk-scale cap.
    with pytest.raises(ValidationError, match="supported cap of 200"):
        group_from_generators([tuple((i + 1) % 256 for i in range(256))])


def test_products():
    c6 = direct_product(cyclic_group(2), cyclic_group(3))
    assert c6.order == 6 and c6.is_abelian()
    assert 6 in c6.element_orders
    invert = (0, 2, 1)
    s3 = semidirect_product(cyclic_group(3), cyclic_group(2),
                            [(0, 1, 2), invert])
    assert s3.order == 6 and not s3.is_abelian()
    with pytest.raises(ValidationError):
        semidirect_product(cyclic_group(3), cyclic_group(2),
                           [(0, 1, 2), (1, 0, 2)])  # not an automorphism
    with pytest.raises(ValidationError):
        semidirect_product(cyclic_group(3), cyclic_group(2), [(0, 1, 2)])


def test_construction_is_deterministic():
    a, b = dihedral_group(16), dihedral_group(16)
    assert a.mul == b.mul and a.generators == b.generators
    assert [c.label for c in a.subgroup_classes()] == \
           [c.label for c in b.subgroup_classes()]


def test_table_sanity():
    g = dihedral_group(8)
    for x in range(g.order):
        assert g.mul[x][g.inverse[x]] == 0
        assert g.mul[g.inverse[x]][x] == 0
    with pytest.raises(ValidationError):
        # associative latin square with wrong identity position
        bad = ((1, 0), (0, 0))
        from factoreq.groups import Group
        Group(bad, (1,))


V4_TABLE = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
# a Latin square with identity 0 that is no group: (1*1)*2 = 2, 1*(1*2) = 4
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
         (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


@pytest.mark.parametrize("table, gens, message", [
    ((), (0,), "a group needs at least the identity element"),
    (((0, 1), (1, 1)), (1,),
     "multiplication table rows must permute the elements"),
    (((0, 1), (0, 1)), (1,),
     "multiplication table columns must permute the elements"),
    (((1, 0), (0, 1)), (1,), "element 0 must act as the identity"),
    (V4_TABLE, (), "generator list must be nonempty"),
    (V4_TABLE, (1, 4), "generator index out of range"),
    (V4_TABLE, (-1,), "generator index out of range"),
    (V4_TABLE, (1,), "generators do not generate the group"),
    (LOOP5, (1,), "multiplication table is not associative"),
])
def test_each_table_check_gives_its_own_message(table, gens, message):
    with pytest.raises(ValidationError) as exc:
        Group(table, gens)
    assert str(exc.value) == message


def test_closure_groups_keep_the_columns_they_were_built_from():
    # the closure hands its columns to the constructor, which checks them
    # as it checks the columns it reads off any other table
    s5 = group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    for g in (dihedral_group(8), heisenberg_group(3), s5, cyclic_group(1)):
        assert g._columns == tuple(zip(*g.mul)), g.name
    bad = ((0, 0, 1, 2),) + tuple(zip(*V4_TABLE))[1:]
    with pytest.raises(ValidationError) as exc:
        Group(V4_TABLE, (1, 2), _columns=bad)
    assert str(exc.value) == (
        "multiplication table columns must permute the elements")


def test_tables_of_order_one_and_two_build():
    trivial = Group(((0,),), (0,))
    assert trivial.order == 1 and trivial.inverse == (0,)
    assert trivial.center() == frozenset([0]) and trivial.is_abelian()
    assert trivial.all_subgroups() == (frozenset([0]),)
    assert trivial.conjugate_subgroup(0, [0]) == frozenset([0])
    assert trivial.element_classes() == ((0,),)
    c2 = Group(((0, 1), (1, 0)), (1,))
    assert c2.element_orders == (1, 2) and len(c2.all_subgroups()) == 2


# -- subgroup lattice --------------------------------------------------------

SUBGROUP_COUNTS = {
    # name -> (total subgroups, number of conjugacy classes)
    "C6": (4, 4),
    "V4": (5, 5),
    "E9": (6, 6),
    "S3": (6, 4),
    "D8": (10, 8),
    "Q8": (6, 6),
    "E8": (16, 16),
    "D16": (19, 11),
    "Heis3": (19, 11),
    "A5": (59, 9),
    "S5": (156, 19),
    "E32": (374, 374),
    # the Lagrange stop fires in these: joins past |G|/5, resp. |G|/2
    "Heis5": (39, 15),
    "D64": (69, 17),
    "C64": (7, 7),
    # central and non-central joins mix: centers of order 8, resp. 4
    "D8xV4": (158, 118),
    "Q8xC2": (19, 19),
}


def build(name):
    return {
        "C6": lambda: cyclic_group(6),
        "V4": lambda: elementary_abelian_group(2, 2),
        "E9": lambda: elementary_abelian_group(3, 2),
        "S3": lambda: dihedral_group(6),
        "D8": lambda: dihedral_group(8),
        "Q8": quaternion_group,
        "E8": lambda: elementary_abelian_group(2, 3),
        "D16": lambda: dihedral_group(16),
        "Heis3": lambda: heisenberg_group(3),
        # generated by the cycles (0,1,2,3,4) and (0,1,2), resp. (0,1)
        "A5": lambda: group_from_generators([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]),
        "S5": lambda: group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
        # generated by the cycles (0,1,2,3) and (0,1)
        "S4": lambda: group_from_generators([(1, 2, 3, 0), (1, 0, 2, 3)]),
        "E32": lambda: elementary_abelian_group(2, 5),
        "Heis5": lambda: heisenberg_group(5),
        "D64": lambda: dihedral_group(64),
        "C64": lambda: cyclic_group(64),
        "D8xV4": lambda: direct_product(dihedral_group(8),
                                        elementary_abelian_group(2, 2)),
        "Q8xC2": lambda: direct_product(quaternion_group(), cyclic_group(2)),
    }[name]()


@pytest.mark.parametrize("name", sorted(SUBGROUP_COUNTS))
def test_subgroup_enumeration_against_oracles(name):
    g = build(name)
    total, nclasses = SUBGROUP_COUNTS[name]
    subs = g.all_subgroups()
    assert isinstance(subs, tuple) and g.all_subgroups() is subs
    assert list(subs) == sorted(subs, key=lambda s: (len(s), sorted(s)))
    subs = set(subs)
    assert len(subs) == total
    assert subs == oracle_subgroups_join_closure(g)
    if g.order < 32:
        assert subs == oracle_subgroups_bounded_gens(g)
    if g.order <= 16:
        assert subs == oracle_subgroups_powerset(g)
    classes = g.subgroup_classes()
    assert len(classes) == nclasses
    assert sum(c.class_size for c in classes) == total
    expected = oracle_subgroup_classes(g, subs)
    assert [(c.members, c.label, c.is_cyclic, c.is_normal)
            for c in classes] == expected
    for idx, c in enumerate(classes):
        assert c.index == idx and c.order == len(c.representative)
        assert c.representative == c.members[0]


@pytest.mark.parametrize("name", sorted(SUBGROUP_COUNTS))
def test_element_orders_match_the_power_loop(name):
    g = build(name)
    orders = []
    for x in range(g.order):
        power, k = x, 1
        while power != 0:
            power, k = g.mul[power][x], k + 1
        orders.append(k)
    assert g.element_orders == tuple(orders)


@pytest.mark.parametrize("name", sorted(SUBGROUP_COUNTS))
def test_power_walks_find_the_cyclic_subgroups_of_the_closures(name):
    # one closure per element, each cyclic subgroup kept with its least
    # generator in order of that generator: the dict the walks replace
    g = build(name)
    closures = {}
    for x in range(g.order):
        closures.setdefault(g._closure([x]), x)
    classes = g.subgroup_classes()
    assert list(g._cyclic.items()) == list(closures.items())
    for cls in classes:
        assert all((member in closures) is cls.is_cyclic
                   for member in cls.members)


@pytest.mark.parametrize("name", ["C64", "Heis5"])
def test_all_subgroups_closes_at_most_once_per_cyclic_subgroup(name,
                                                               monkeypatch):
    g = build(name)
    cyclic = {g._closure([x]) for x in range(g.order)}
    calls = []
    closure = Group._closure

    def counting(self, seed):
        calls.append(seed)
        return closure(self, seed)

    monkeypatch.setattr(Group, "_closure", counting)
    g.all_subgroups()
    assert len(calls) <= len(cyclic)


def test_subgroup_classes_reuse_the_enumeration_orbits(monkeypatch):
    # one conjugation orbit pass in all: all_subgroups conjugates each of
    # the 156 subgroups of S5 at most once per generator, each generator's
    # conjugation a table built once, and subgroup_classes reads the orbits
    # it kept, conjugating nothing
    g = build("S5")
    calls, misses = [], []
    conjugation = Group._conjugation

    def counting(self, x):
        calls.append(x)
        if x not in self._conjugations:
            misses.append(x)
        return conjugation(self, x)

    monkeypatch.setattr(Group, "_conjugation", counting)
    g.all_subgroups()
    enumerated = len(calls), len(misses)
    g.subgroup_classes()
    assert (len(calls), len(misses)) == enumerated
    assert len(misses) <= len(g.generators)
    assert len(calls) <= 156 * len(g.generators)


@pytest.mark.parametrize("name", sorted(SUBGROUP_COUNTS))
def test_center_and_abelian_match_the_all_pairs_definitions(name):
    g = build(name)
    mul = g.mul
    assert g.center() == frozenset(
        x for x in range(g.order)
        if all(mul[x][y] == mul[y][x] for y in range(g.order)))
    assert g.is_abelian() == all(mul[x][y] == mul[y][x]
                                 for x in range(g.order)
                                 for y in range(g.order))


@pytest.mark.parametrize("name", ["S4", "Heis3"])
def test_conjugate_subgroup_matches_its_definition(name):
    group = build(name)
    mul, inv = group.mul, group.inverse
    for g in range(group.order):
        assert group._conjugation(g) == tuple(
            mul[mul[g][x]][inv[g]] for x in range(group.order))
        for sub in group.all_subgroups():
            assert group.conjugate_subgroup(g, sub) == frozenset(
                mul[mul[g][x]][inv[g]] for x in sub)


def test_class_metadata():
    d8 = dihedral_group(8)
    classes = d8.subgroup_classes()
    assert classes[0].label == "o1#0" and classes[0].order == 1
    assert classes[-1].representative == frozenset(range(8))
    # orders are non-decreasing and labels count within each order
    orders = [c.order for c in classes]
    assert orders == sorted(orders)
    assert [c.label for c in classes].count("o2#0") == 1
    # representative is the least member, and lookup round-trips
    for c in classes:
        assert c.representative == min(c.members, key=lambda s: tuple(sorted(s)))
        for m in c.members:
            assert d8.class_of_subgroup(m) == c.index
    # cyclicity flags
    assert all(c.is_cyclic for c in classes if c.order <= 2)
    assert not classes[-1].is_cyclic
    assert all(d8.class_by_label(c.label) is c for c in classes)
    with pytest.raises(ValidationError) as exc:
        d8.class_by_label("o3#0")
    assert str(exc.value) == (
        "no subgroup class labelled 'o3#0' (valid: "
        "o1#0, o2#0, o2#1, o2#2, o4#0, o4#1, o4#2, o8#0)")


def test_normality_flags():
    s3 = dihedral_group(6)
    flags = {c.label: c.is_normal for c in s3.subgroup_classes()}
    assert flags == {"o1#0": True, "o2#0": False, "o3#0": True, "o6#0": True}


def test_element_classes():
    s3 = dihedral_group(6)
    sizes = sorted(len(c) for c in s3.element_classes())
    assert sizes == [1, 2, 3]
    q8 = quaternion_group()
    assert len(q8.element_classes()) == 5
    assert q8.element_classes()[0] == (0,)


# -- closure tables ------------------------------------------------------------


def _section_quotient():
    # S4/V4 inside S5, built from S5's own cosets
    g = build("S5")
    top = next(s for s in g.all_subgroups() if len(s) == 24)
    bottom = next(s for s in g.all_subgroups()
                  if len(s) == 4 and s <= top
                  and all(g.conjugate_subgroup(h, s) == s for h in top))
    return make_subquotient(g, top, bottom).quotient


TABLE_GROUPS = {
    "C64": lambda: cyclic_group(64),
    "D64": lambda: dihedral_group(64),
    "S5": lambda: build("S5"),
    "A5": lambda: build("A5"),
    "Heis5": lambda: heisenberg_group(5),
    "D8xC3": lambda: direct_product(dihedral_group(8), cyclic_group(3)),
    # C7 x| C3 with the generator of C3 acting as x -> 2x
    "C7x|C3": lambda: semidirect_product(
        cyclic_group(7), cyclic_group(3),
        [tuple(pow(2, j) * x % 7 for x in range(7)) for j in range(3)]),
    "Heis5/Z": lambda: quotient_group(heisenberg_group(5),
                                      heisenberg_group(5).center())[0],
    "S4/V4": _section_quotient,
}


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_closure_table_matches_the_pairwise_oracle(name, monkeypatch):
    closure, checked = groups._closure_group, []

    def recording(identity_item, gen_items, mul_fn, *rest):
        group, items = closure(identity_item, gen_items, mul_fn, *rest)
        checked.append((group.mul, oracle_closure_table(identity_item,
                                                        gen_items, mul_fn)))
        return group, items

    monkeypatch.setattr(groups, "_closure_group", recording)
    group = TABLE_GROUPS[name]()
    assert group.mul == checked[-1][0]
    assert all(mul == oracle for mul, oracle in checked)


# -- quotients and subgroups as groups ---------------------------------------

def test_quotient_by_trivial_is_identity_relabeling():
    g = dihedral_group(8)
    q, proj = quotient_group(g, [0])
    assert q.mul == g.mul
    assert proj == tuple(range(8))


def test_quotient_heisenberg_by_center():
    h = heisenberg_group(3)
    q, proj = quotient_group(h, h.center())
    assert q.order == 9 and q.is_abelian()
    assert all(o in (1, 3) for o in q.element_orders)
    for x in range(h.order):
        for y in range(h.order):
            assert proj[h.mul[x][y]] == q.mul[proj[x]][proj[y]]


def test_quotient_rejects_non_normal():
    s3 = dihedral_group(6)
    refl = next(c for c in s3.subgroup_classes() if c.order == 2)
    with pytest.raises(ValidationError):
        quotient_group(s3, refl.representative)


def test_subgroup_as_group():
    d8 = dihedral_group(8)
    v4 = next(c for c in d8.subgroup_classes()
              if c.order == 4 and not c.is_cyclic)
    sub, emb = subgroup_as_group(d8, v4.representative)
    assert sub.order == 4 and set(emb) == set(v4.representative)
    for x in range(4):
        for y in range(4):
            assert emb[sub.mul[x][y]] == d8.mul[emb[x]][emb[y]]
    trivial, emb0 = subgroup_as_group(d8, [0])
    assert trivial.order == 1 and emb0 == (0,)


# -- subquotients ------------------------------------------------------------
# The typed search ``subquotients_of_type`` is the test oracle of
# ``bouc_generators``, kept in test_relations.py.

def test_subquotients_elementary_abelian():
    e9 = elementary_abelian_group(3, 2)
    found = subquotients_of_type(e9, ElemAbelianP2(3))
    assert len(found) == 1
    sq = found[0]
    assert sq.top == frozenset(range(9)) and sq.bottom == frozenset([0])
    assert sq.quotient.order == 9


def test_subquotients_heisenberg():
    h = heisenberg_group(3)
    found = subquotients_of_type(h, HeisenbergP3(3))
    assert len(found) == 1
    assert found[0].top == frozenset(range(27))
    assert found[0].bottom == frozenset([0])
    # (Z/3)^2 subquotients: four order-9 subgroups over 1, plus G over center.
    elem = subquotients_of_type(h, ElemAbelianP2(3))
    shapes = sorted((len(sq.top), len(sq.bottom)) for sq in elem)
    assert shapes == [(9, 1)] * 4 + [(27, 3)]


def test_subquotients_two_groups_of_order_eight():
    d8 = dihedral_group(8)
    shapes = sorted((len(sq.top), len(sq.bottom))
                    for sq in subquotients_of_type(d8, ElemAbelianP2(2)))
    assert shapes == [(4, 1), (4, 1), (8, 2)]
    q8 = quaternion_group()
    found = subquotients_of_type(q8, ElemAbelianP2(2))
    assert len(found) == 1 and len(found[0].bottom) == 2


def test_subquotients_dihedral16():
    d16 = dihedral_group(16)
    found = subquotients_of_type(d16, Dihedral2N(4))
    assert len(found) == 1
    assert found[0].top == frozenset(range(16))
    assert found[0].bottom == frozenset([0])
    assert subquotients_of_type(cyclic_group(8), Dihedral2N(4)) == ()
    with pytest.raises(ValidationError):
        Dihedral2N(2)


def test_subquotients_dihedral8():
    # the order-8 member of the family: two subgroup copies in D16 plus
    # the quotient by the center, and D8 itself as (G, 1)
    d16 = dihedral_group(16)
    shapes = sorted((len(sq.top), len(sq.bottom))
                    for sq in subquotients_of_type(d16, Dihedral2N(3)))
    assert shapes == [(8, 1), (8, 1), (16, 2)]
    d8 = dihedral_group(8)
    found = subquotients_of_type(d8, Dihedral2N(3))
    assert len(found) == 1
    assert found[0].top == frozenset(range(8))
    assert found[0].bottom == frozenset([0])
    # the quaternion group has a single, central involution: no match
    assert subquotients_of_type(quaternion_group(), Dihedral2N(3)) == ()


def test_subquotient_intermediates():
    q8 = quaternion_group()
    sq = make_subquotient(q8, range(8), q8.center())
    preimages = {sq.preimage(sub) for sub in sq.quotient.all_subgroups()}
    # preimages of V4's subgroups: the center, the three C4s, and Q8 itself
    assert sorted(map(len, preimages)) == [2, 4, 4, 4, 8]
    assert {q8.subgroup_classes()[q8.class_of_subgroup(sub)].label
            for sub in preimages} == {"o2#0", "o4#0", "o4#1", "o4#2", "o8#0"}
    prei = sq.preimage(frozenset([0]))
    assert prei == sq.bottom


def test_make_subquotient_generic():
    d8 = dihedral_group(8)
    sq = make_subquotient(d8, range(8), [0])
    assert sq.quotient.order == 8
    with pytest.raises(ValidationError):
        make_subquotient(d8, range(8), [1])
    with pytest.raises(ValidationError, match="top is not a subgroup"):
        make_subquotient(d8, [0, 1], [0])
    with pytest.raises(ValidationError, match="contained in top"):
        make_subquotient(d8, d8.center(), [0, 2])
    with pytest.raises(ValidationError, match="not a subgroup"):
        make_subquotient(d8, range(8), [0, 1, 2])
    refl = next(c for c in d8.subgroup_classes()
                if c.order == 2 and not c.is_normal).representative
    with pytest.raises(ValidationError, match="not normal"):
        make_subquotient(d8, range(8), refl)


def subquotient_through_subgroup(group, top, bottom):
    """H/B the long way: H as a Group of its own, then its quotient."""
    sub, emb = subgroup_as_group(group, top)
    back = {g: i for i, g in enumerate(emb)}
    quot, proj = quotient_group(sub, frozenset(back[x] for x in bottom))
    return quot, {g: proj[back[g]] for g in top}


def normal_pairs(group):
    """Every (H, B) with B normal in H, H and B in all_subgroups order."""
    subs = group.all_subgroups()
    return [(top, bottom) for top in subs for bottom in subs
            if bottom <= top
            and all(group.conjugate_subgroup(h, bottom) == bottom
                    for h in top)]


SECTION_GROUPS = {
    "D8": lambda: dihedral_group(8),
    "Q8": quaternion_group,
    "Heis3": lambda: heisenberg_group(3),
    "C4xC4": lambda: direct_product(cyclic_group(4), cyclic_group(4)),
}


@pytest.mark.parametrize("name", sorted(SECTION_GROUPS))
def test_make_subquotient_matches_the_route_through_subgroup_as_group(name):
    g = SECTION_GROUPS[name]()
    for top, bottom in normal_pairs(g):
        sq = make_subquotient(g, top, bottom)
        quot, projection = subquotient_through_subgroup(g, top, bottom)
        assert sq.quotient.mul == quot.mul
        assert sq.quotient.generators == quot.generators
        assert sq.quotient.name == quot.name
        assert sq.projection == projection


@pytest.mark.parametrize("name", sorted(SECTION_GROUPS))
def test_subquotients_of_type_keep_every_matching_section(name):
    # the abelian-quotient skip of the nonabelian types drops no match
    g = SECTION_GROUPS[name]()
    p = 3 if g.order % 2 else 2
    types = [ElemAbelianP2(p)] + ([HeisenbergP3(p)] if p % 2 else
                                  [Dihedral2N(3), Dihedral2N(4)])
    pairs = normal_pairs(g)
    reps = [cls.representative for cls in g.subgroup_classes()]
    for qtype in types:
        expected = [(top, bottom) for top in reps for t, bottom in pairs
                    if t == top and qtype.matches(
                        make_subquotient(g, top, bottom).quotient)]
        found = subquotients_of_type(g, qtype)
        assert [(sq.top, sq.bottom) for sq in found] == expected
        assert all(sq.quotient_type == qtype for sq in found)

