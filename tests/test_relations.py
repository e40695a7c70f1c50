"""Relation engine tests.

Characters are checked against an explicit coset-action oracle (count the
cosets a representative really fixes, for every class member).  Basis vectors
for the small groups are frozen from hand computations with the character
matrices written out.
"""

import ast
import pathlib
from dataclasses import dataclass, replace
from functools import lru_cache

import pytest

from factoreq import groups, intmat, relations
from factoreq.errors import FactoreqError, ValidationError
from factoreq.groups import (
    Group,
    _commutators_in,
    _normal_sections,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    heisenberg_group,
    make_subquotient,
    quaternion_group,
    subgroup_as_group,
)
from factoreq.relations import (
    GRelation,
    bouc_generators,
    induce_inflate,
    induce_relation,
    is_relation,
    permutation_character,
    relation_basis,
    relation_span_basis,
    spans_match,
    spans_relation_lattice,
)
from factoreq.cli import parse_group_spec
from factoreq.intmat import (_lattice_index, bareiss_determinant, is_prime,
                             mat_mul, row_span_basis, transpose)


def oracle_character(group, subgroup):
    """Count genuinely fixed cosets of the exact subgroup, per element class."""
    cosets, seen = [], set()
    for x in range(group.order):
        if x not in seen:
            coset = frozenset(group.mul[x][h] for h in subgroup)
            cosets.append(coset)
            seen |= coset
    values = []
    for ec in group.element_classes():
        g = ec[0]
        values.append(sum(1 for c in cosets
                          if frozenset(group.mul[g][y] for y in c) == c))
    return tuple(values)


GROUPS = {
    "C6": lambda: cyclic_group(6),
    "V4": lambda: elementary_abelian_group(2, 2),
    "E9": lambda: elementary_abelian_group(3, 2),
    "S3": lambda: dihedral_group(6),
    "D8": lambda: dihedral_group(8),
    "Q8": quaternion_group,
    "E8": lambda: elementary_abelian_group(2, 3),
    "Heis3": lambda: heisenberg_group(3),
    "D16": lambda: dihedral_group(16),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_characters_match_coset_oracle_for_every_member(name):
    g = GROUPS[name]()
    for cls in g.subgroup_classes():
        computed = permutation_character(g, cls).values
        for member in cls.members:
            assert computed == oracle_character(g, member)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_character_invariants(name):
    g = GROUPS[name]()
    for cls in g.subgroup_classes():
        vals = permutation_character(g, cls).values
        index = g.order // cls.order
        assert vals[0] == index
        assert all(0 <= v <= index for v in vals)


def test_character_spot_values():
    v4 = elementary_abelian_group(2, 2)
    assert permutation_character(v4, 0).values == (4, 0, 0, 0)
    assert permutation_character(v4, "o4#0").values == (1, 1, 1, 1)
    h = permutation_character(v4, 1).values
    assert h[0] == 2 and sorted(h) == [0, 0, 2, 2]


def test_characters_are_computed_once_per_group_and_class():
    d8 = dihedral_group(8)
    first = permutation_character(d8, 1).values
    assert permutation_character(d8, d8.subgroup_classes()[1].label).values \
        is first
    assert permutation_character(dihedral_group(8), 1).values == first


def test_class_arguments_are_checked_by_index(monkeypatch):
    d8 = dihedral_group(8)
    classes = d8.subgroup_classes()
    # an equal class (here of an equal group built again) is accepted
    twin = dihedral_group(8).subgroup_classes()[-1]
    assert twin is not classes[-1]
    assert relations._as_class(d8, twin) is twin
    # a class of another group is rejected, at an index in range or not
    for other in (cyclic_group(4).subgroup_classes()[1],
                  elementary_abelian_group(2, 3).subgroup_classes()[-1]):
        with pytest.raises(ValidationError, match="does not name"):
            relations._as_class(d8, other)
    with pytest.raises(ValidationError, match="does not name"):
        relations._as_class(d8, 1.5)
    # the group's own class passes on identity, an equal one from a second
    # parse of the same spec on one comparison: never a scan over the classes
    calls = []
    eq = type(twin).__eq__
    monkeypatch.setattr(type(twin), "__eq__",
                        lambda a, b: calls.append(1) or eq(a, b))
    assert relations._as_class(d8, classes[-1]) is classes[-1]
    assert not calls
    reparsed = parse_group_spec("dihedral:8").subgroup_classes()[2]
    assert reparsed is not classes[2]
    assert relations._as_class(d8, reparsed) is reparsed
    assert len(calls) == 1


def test_broken_invariants_raise_internal_errors(monkeypatch):
    # Forced by monkeypatching: each check must raise, not assert, so that
    # it also holds under ``python -O``.
    d8 = dihedral_group(8)
    broken = list(d8.subgroup_classes())
    broken[1] = replace(broken[1], order=3)
    with monkeypatch.context() as m:
        m.setattr(d8, "subgroup_classes", lambda: tuple(broken))
        with pytest.raises(FactoreqError, match="not divisible by") as exc:
            permutation_character(d8, 1)
    assert type(exc.value) is FactoreqError

    q8 = quaternion_group()
    sq = make_subquotient(q8, range(8), q8.center())
    rel = relation_basis(sq.quotient)[0]
    with monkeypatch.context() as m:
        m.setattr(relations, "is_relation", lambda group, cand: group is not q8)
        with pytest.raises(FactoreqError, match="failed to cancel") as exc:
            induce_inflate(q8, sq, rel)
    assert type(exc.value) is FactoreqError

    v4 = next(c for c in d8.subgroup_classes()
              if c.order == 4 and not c.is_cyclic)
    sub, emb = subgroup_as_group(d8, v4.representative)
    rel = relation_basis(sub)[0]
    with monkeypatch.context() as m:
        m.setattr(relations, "is_relation", lambda group, cand: False)
        with pytest.raises(FactoreqError, match="failed to cancel") as exc:
            induce_relation(d8, emb, rel)
    assert type(exc.value) is FactoreqError

    v4_group = elementary_abelian_group(2, 2)
    with monkeypatch.context() as m:
        m.setattr(relations, "is_relation", lambda group, cand: False)
        with pytest.raises(FactoreqError, match="failed to cancel") as exc:
            bouc_generators(v4_group, 2)
    assert type(exc.value) is FactoreqError

    with monkeypatch.context() as m:
        m.setattr(relations, "is_relation", lambda group, cand: False)
        m.setattr(relations, "_elementary_abelian_relation",
                  lambda group, top, bottom, p: GRelation(group, ()))
        with pytest.raises(FactoreqError,
                           match="center-pair relation failed to cancel") as exc:
            bouc_generators(d8, 2)
    assert type(exc.value) is FactoreqError


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts; invariants must raise FactoreqError
    package = pathlib.Path(relations.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_relation_basis_of_cyclic_groups_is_empty():
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        assert relation_basis(cyclic_group(n)) == ()


EXPECTED_BASES = {
    # classes are ordered (trivial, ..., whole group); hand-solved kernels
    "V4": [((0, 1), (1, -1), (2, -1), (3, -1), (4, 2))],
    "E9": [((0, 1), (1, -1), (2, -1), (3, -1), (4, -1), (5, 3))],
    "S3": [((0, 1), (1, -2), (2, -1), (3, 2))],
    "Q8": [((1, 1), (2, -1), (3, -1), (4, -1), (5, 2))],
}


@pytest.mark.parametrize("name", sorted(EXPECTED_BASES))
def test_relation_basis_frozen_values(name):
    g = GROUPS[name]()
    assert [r.coefficients for r in relation_basis(g)] == EXPECTED_BASES[name]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_relation_basis_properties(name):
    g = GROUPS[name]()
    basis = relation_basis(g)
    non_cyclic = sum(1 for c in g.subgroup_classes() if not c.is_cyclic)
    assert len(basis) == non_cyclic
    for rel in basis:
        assert is_relation(g, rel)
        assert sum(v for _, v in rel.coefficients) == 0
        first = rel.coefficients[0][1] if rel.coefficients else 1
        assert first > 0


def test_is_relation_examples():
    v4 = elementary_abelian_group(2, 2)
    assert is_relation(v4, {0: 1, 1: -1, 2: -1, 3: -1, 4: 2})
    assert not is_relation(v4, {0: 1})
    assert not is_relation(v4, {0: 1, 4: -1})
    assert is_relation(v4, {})
    with pytest.raises(ValidationError):
        is_relation(v4, {17: 1})
    with pytest.raises(ValidationError):
        is_relation(v4, {0: "two"})


def test_relation_arithmetic_helpers():
    e9 = elementary_abelian_group(3, 2)
    rel = relation_basis(e9)[0]
    doubled = rel.plus(rel)
    assert doubled.coefficients == tuple((i, 2 * v) for i, v in rel.coefficients)
    assert rel.plus(GRelation(e9, tuple((i, -v) for i, v in rel.coefficients))) \
        == GRelation(e9, ())
    assert "o9#0" in rel.describe()


def test_induce_inflate_through_center_of_q8():
    q8 = quaternion_group()
    sq = make_subquotient(q8, range(8), q8.center())
    rel = relation_basis(sq.quotient)[0]
    image = induce_inflate(q8, sq, rel)
    assert image.coefficients == ((1, 1), (2, -1), (3, -1), (4, -1), (5, 2))


def test_induce_inflate_identity_subquotient():
    h = heisenberg_group(3)
    sq = make_subquotient(h, range(h.order), [0])
    assert sq.quotient.mul == h.mul  # identity relabeling
    for rel in relation_basis(sq.quotient):
        image = induce_inflate(h, sq, rel)
        assert image.coefficients == rel.coefficients
    with pytest.raises(ValidationError):
        induce_inflate(h, sq, GRelation(h, ()))  # wrong carrier group
    with pytest.raises(ValidationError):
        induce_inflate(h, sq, GRelation(sq.quotient, ((0, 1),)))  # not a relation


def test_induce_relation_accumulates_conjugate_images():
    d8 = dihedral_group(8)
    v4 = next(c for c in d8.subgroup_classes()
              if c.order == 4 and not c.is_cyclic)
    sub, emb = subgroup_as_group(d8, v4.representative)
    rel = relation_basis(sub)[0]
    image = induce_relation(d8, emb, rel)
    assert is_relation(d8, image)
    # two of V4's order-2 subgroups fuse in D8, so one coefficient is -2
    assert sorted(v for _, v in image.coefficients) == [-2, -1, 1, 2]


BOUC_COUNTS = {"V4": 1, "E9": 1, "D8": 4, "Q8": 1, "E8": 14, "Heis3": 11,
               "D16": 9}
BOUC_PRIME = {"V4": 2, "E9": 3, "D8": 2, "Q8": 2, "E8": 2, "Heis3": 3,
              "D16": 2}


@pytest.mark.parametrize("name", sorted(BOUC_COUNTS))
def test_bouc_generator_counts_and_validity(name):
    g = GROUPS[name]()
    gens = bouc_generators(g, BOUC_PRIME[name])
    assert len(gens) == BOUC_COUNTS[name]
    for rel in gens:
        assert is_relation(g, rel)


@pytest.mark.parametrize("name", sorted(BOUC_COUNTS))
def test_bouc_span_equals_basis_span(name):
    g = GROUPS[name]()
    assert spans_match(bouc_generators(g, BOUC_PRIME[name]), relation_basis(g))


def test_bouc_rejects_bad_input():
    with pytest.raises(ValidationError):
        bouc_generators(dihedral_group(6), 2)  # not a 2-group
    with pytest.raises(ValidationError):
        bouc_generators(elementary_abelian_group(2, 2), 4)
    assert bouc_generators(cyclic_group(9), 3) == ()


def test_heisenberg_center_pair_relation_shape():
    h = heisenberg_group(3)
    gens = bouc_generators(h, 3)
    pair_rels = [r for r in gens
                 if sorted(v for _, v in r.coefficients) == [-1, -1, 1, 1]]
    assert len(pair_rels) == 6  # one per unordered pair of 4 classes
    classes = h.subgroup_classes()
    for rel in pair_rels:
        orders = sorted(classes[i].order for i, _ in rel.coefficients)
        assert orders == [3, 3, 9, 9]


def test_span_basis_is_canonical():
    d8 = dihedral_group(8)
    basis = relation_basis(d8)
    doubled = [r.plus(r) for r in basis]
    assert relation_span_basis(doubled) != relation_span_basis(basis)
    shuffled = basis[::-1]
    assert relation_span_basis(shuffled) == relation_span_basis(basis)
    assert relation_span_basis([]) == ()


# -- Bouc generators against the route through quotient groups ---------------
#
# The oracle builds every candidate quotient H/B as a group, decides its type
# on that group and reads the relations off its own subgroup lattice, as
# ``bouc_generators`` did before it read every section off G's lattice.


@dataclass(frozen=True)
class ElemAbelianP2:
    """Subquotient type: elementary abelian of order p^2."""
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")

    def matches(self, quot: Group) -> bool:
        return (quot.order == self.p ** 2
                and all(o in (1, self.p) for o in quot.element_orders))


@dataclass(frozen=True)
class HeisenbergP3:
    """Subquotient type: nonabelian of order p^3 and exponent p (p odd)."""
    p: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValidationError(f"{self.p} is not an odd prime")

    def matches(self, quot: Group) -> bool:
        return (quot.order == self.p ** 3
                and all(o in (1, self.p) for o in quot.element_orders)
                and not quot.is_abelian())


@dataclass(frozen=True)
class Dihedral2N:
    """Subquotient type: dihedral of order 2^n, n >= 3.

    Recognized structurally: a cyclic subgroup of index 2, nonabelian, and
    generated by the involutions outside that cyclic subgroup (which rules
    out the generalized quaternion, semidihedral, and modular groups of the
    same order).
    """
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValidationError("dihedral subquotient type needs n >= 3")

    def matches(self, quot: Group) -> bool:
        size = 2 ** self.n
        if quot.order != size or quot.is_abelian():
            return False
        half = size // 2
        pivot = next((x for x in range(size) if quot.element_orders[x] == half),
                     None)
        if pivot is None:
            return False
        cyc = quot.subgroup_generated_by([pivot])
        outside = [x for x in range(size)
                   if quot.element_orders[x] == 2 and x not in cyc]
        return bool(outside) and len(quot.subgroup_generated_by(outside)) == size


@dataclass(frozen=True)
class TypedSubquotient(groups.Subquotient):
    """A subquotient with the type its quotient matched."""
    quotient_type: object = None


def subquotients_of_type(group, qtype):
    """All (H, B) with H up to conjugacy, B exactly, and H/B of the given type.

    H runs over subgroup-class representatives in canonical order; for each,
    B runs over the normal subgroups of H of the right index, sorted by their
    element tuples.  The nonabelian types skip every (H, B) whose generator
    commutators lie in B (H/B abelian) before H/B is built; ``matches``
    decides on the rest.
    """
    target = {ElemAbelianP2: lambda t: t.p ** 2,
              HeisenbergP3: lambda t: t.p ** 3,
              Dihedral2N: lambda t: 2 ** t.n}[type(qtype)](qtype)
    nonabelian = not isinstance(qtype, ElemAbelianP2)
    found = []
    for top, gens, bottom in _normal_sections(group, target):
        if nonabelian and _commutators_in(group, gens, bottom):
            continue
        sq = make_subquotient(group, top, bottom)
        if qtype.matches(sq.quotient):
            found.append(TypedSubquotient(sq.group, sq.top, sq.bottom,
                                          sq.quotient, sq.projection, qtype))
    return tuple(found)


def center_pair_relations(q, p):
    """I - IZ - J + JZ over pairs of non-central order-p classes of q."""
    z = q.center()
    noncentral = [cls for cls in q.subgroup_classes()
                  if cls.order == p and not cls.representative <= z]
    rels = []
    for a in range(len(noncentral)):
        for b in range(a + 1, len(noncentral)):
            big_i, big_j = noncentral[a], noncentral[b]
            iz = q.subgroup_generated_by(big_i.representative | z)
            jz = q.subgroup_generated_by(big_j.representative | z)
            coeffs: dict[int, int] = {}
            for idx, val in ((big_i.index, 1),
                             (q.class_of_subgroup(iz), -1),
                             (big_j.index, -1),
                             (q.class_of_subgroup(jz), 1)):
                coeffs[idx] = coeffs.get(idx, 0) + val
            rels.append(GRelation(q, tuple(sorted(
                (k, v) for k, v in coeffs.items() if v))))
    return rels


BOUC_CENSUS = {
    "V4": (lambda: elementary_abelian_group(2, 2), 2),
    "E8": (lambda: elementary_abelian_group(2, 3), 2),
    "E16": (lambda: elementary_abelian_group(2, 4), 2),
    "D8": (lambda: dihedral_group(8), 2),
    "D16": (lambda: dihedral_group(16), 2),
    "D32": (lambda: dihedral_group(32), 2),
    "D64": (lambda: dihedral_group(64), 2),
    "Q8": (quaternion_group, 2),
    "C4xC4": (lambda: direct_product(cyclic_group(4), cyclic_group(4)), 2),
    "Q8xC2": (lambda: direct_product(quaternion_group(), cyclic_group(2)), 2),
    "D8xV4": (lambda: direct_product(dihedral_group(8),
                                     elementary_abelian_group(2, 2)), 2),
    "E9": (lambda: elementary_abelian_group(3, 2), 3),
    "E27": (lambda: elementary_abelian_group(3, 3), 3),
    "Heis3": (lambda: heisenberg_group(3), 3),
    "Heis5": (lambda: heisenberg_group(5), 5),
    "C9xC3": (lambda: direct_product(cyclic_group(9), cyclic_group(3)), 3),
}


@lru_cache(maxsize=None)
def census_group(name):
    return BOUC_CENSUS[name][0]()


def generators_through_quotients(group, p):
    """The Bouc generators with every quotient H/B built as a group.

    Each section's quotient carries its own relation, which is induced and
    inflated to G.
    """
    out = []
    for sq in subquotients_of_type(group, ElemAbelianP2(p)):
        q = sq.quotient
        rel = GRelation.from_mapping(q, {
            cls.index: {1: 1, p: -1}.get(cls.order, p)
            for cls in q.subgroup_classes()})
        out.append(induce_inflate(group, sq, rel))
    types = ([HeisenbergP3(p)] if p % 2 else
             [Dihedral2N(n) for n in range(3, group.order.bit_length())])
    for qtype in types:
        for sq in subquotients_of_type(group, qtype):
            out.extend(induce_inflate(group, sq, rel)
                       for rel in center_pair_relations(sq.quotient, p))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(BOUC_CENSUS))
def test_bouc_generators_match_the_route_through_quotients(name):
    g, p = census_group(name), BOUC_CENSUS[name][1]
    gens = bouc_generators(g, p)
    assert gens == generators_through_quotients(g, p)
    assert spans_match(gens, relation_basis(g))


@pytest.mark.parametrize("name", sorted(BOUC_CENSUS))
def test_span_basis_of_sorted_distinct_rows_matches_generation_order(name):
    g, p = census_group(name), BOUC_CENSUS[name][1]
    gens = bouc_generators(g, p)
    assert relation_span_basis(gens) == row_span_basis(
        tuple(r.as_vector() for r in gens))


ABELIAN_CENSUS = ["C4xC4", "C9xC3", "E16", "E27", "E8", "E9", "V4"]


@pytest.mark.parametrize("name", ABELIAN_CENSUS)
def test_abelian_groups_ask_only_for_index_p2_sections(name, monkeypatch):
    # every section of an abelian group is abelian, so the higher indices,
    # asked for when the group is taken as non-abelian, add no generator
    g, p = census_group(name), BOUC_CENSUS[name][1]
    assert g.is_abelian()
    asked, sections = [], relations._normal_sections
    monkeypatch.setattr(relations, "_normal_sections",
                        lambda group, *indices: asked.append(indices)
                        or sections(group, *indices))
    gens = bouc_generators(g, p)
    monkeypatch.setattr(g, "is_abelian", lambda: False)
    assert bouc_generators(g, p) == gens
    every = ((p * p, p ** 3) if p % 2 else
             tuple(2 ** k for k in range(2, g.order.bit_length())))
    assert asked == [(p * p,), every]


def test_relation_terms_must_be_subgroups():
    d8 = dihedral_group(8)
    rotation = next(x for x in range(8) if d8.element_orders[x] == 4)
    for subset in ({1}, {0, rotation}, set(range(9))):
        with pytest.raises(ValidationError, match="not a subgroup"):
            relations._relation_on_classes(
                d8, [(frozenset(range(8)), 1), (frozenset(subset), -1)],
                "unused")


def recorded_builds(monkeypatch):
    """Record every group closure and ``Group.__init__`` call from now on."""
    built = []
    closure, init = groups._closure_group, groups.Group.__init__
    monkeypatch.setattr(groups, "_closure_group",
                        lambda *a, **k: built.append(a) or closure(*a, **k))
    monkeypatch.setattr(groups.Group, "__init__",
                        lambda *a, **k: built.append(a) or init(*a, **k))
    return built


def test_bouc_on_elementary_abelian_builds_no_group(monkeypatch):
    g = elementary_abelian_group(2, 4)
    built = recorded_builds(monkeypatch)
    assert len(bouc_generators(g, 2)) == 175
    assert built == []
    # the patches do see a build: one closure, one Group
    groups.quotient_group(g, [0])
    assert len(built) == 2


@pytest.mark.parametrize("name", sorted(BOUC_CENSUS))
def test_bouc_generators_build_no_group(name, monkeypatch):
    g, p = census_group(name), BOUC_CENSUS[name][1]
    built = recorded_builds(monkeypatch)
    bouc_generators(g, p)
    assert built == []


# -- permutation characters against the conjugation count ----------------------


def oracle_character_by_conjugation(group, cls):
    """#{x : x^-1 g x in H} / |H| per element class g, over all x in G, as
    computed before characters were read off class counts."""
    mul, inv = group.mul, group.inverse
    values = []
    for ec in group.element_classes():
        g = ec[0]
        hits = sum(1 for x in range(group.order)
                   if mul[mul[inv[x]][g]][x] in cls.representative)
        assert hits % cls.order == 0
        values.append(hits // cls.order)
    return tuple(values)


CHARACTER_GROUPS = sorted(BOUC_CENSUS) + ["D12", "S5"]


@pytest.mark.parametrize("name", CHARACTER_GROUPS)
def test_characters_match_the_conjugation_count(name):
    if name in BOUC_CENSUS:
        g = census_group(name)
    elif name == "D12":
        g = dihedral_group(12)
    else:
        g = groups.group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    for cls in g.subgroup_classes():
        assert permutation_character(g, cls).values == \
            oracle_character_by_conjugation(g, cls)


# -- the span check in basis coordinates against the HNF oracle ----------------


@pytest.mark.parametrize("name", sorted(BOUC_CENSUS))
def test_span_check_agrees_with_spans_match(name):
    g, p = census_group(name), BOUC_CENSUS[name][1]
    gens, basis = bouc_generators(g, p), relation_basis(g)
    assert spans_relation_lattice(g, gens) is spans_match(gens, basis) is True
    assert spans_relation_lattice(g, basis) is True
    assert spans_relation_lattice(g, gens[::-1]) is True


def without_pivot(family, pivot):
    """The members of ``family`` whose coefficient at class ``pivot`` is 0."""
    return [rel for rel in family if rel.coefficient(pivot) == 0]


@pytest.mark.parametrize("name", sorted(BOUC_CENSUS))
def test_span_check_answers_no_where_the_span_is_smaller(name):
    g, p = census_group(name), BOUC_CENSUS[name][1]
    gens, basis = bouc_generators(g, p), relation_basis(g)
    k = len(basis) // 2
    pivot = basis[k].coefficients[0][0]
    smaller = [
        basis[:k] + basis[k + 1:],                          # one vector less
        basis[:k] + (basis[k].plus(basis[k]),) + basis[k + 1:],   # doubled
        without_pivot(gens, pivot),     # no generator touches one pivot
    ]
    for family in smaller:
        assert spans_match(family, basis) is False
        assert spans_relation_lattice(g, family) is False


def test_a_leftover_column_goes_to_the_hnf(monkeypatch):
    # 2b and 3b have no +-1 entry in b's column, but span it; 2b and 4b
    # do not
    d8 = dihedral_group(8)
    basis = relation_basis(d8)
    rest, b = basis[1:], basis[0]
    calls = []
    span = intmat.row_span_basis
    monkeypatch.setattr(intmat, "row_span_basis",
                        lambda rows: calls.append(rows) or span(rows))
    two, three, four = b.plus(b), b.plus(b).plus(b), b.plus(b).plus(b).plus(b)
    assert spans_relation_lattice(d8, (*rest, two, three)) is True
    assert calls == [[[2], [3]]]
    assert spans_relation_lattice(d8, (*rest, two, four)) is False
    assert calls[-1] == [[2], [4]]
    assert spans_relation_lattice(d8, rest) is False     # nothing left there
    assert calls[-1] == []
    assert spans_relation_lattice(d8, basis) is True
    assert len(calls) == 3


def test_the_span_check_back_substitutes_at_non_unit_pivots(monkeypatch):
    # Every census basis has unit pivot columns, so the lattice is replaced
    # by one whose Hermite normal form has a pivot 2 with an entry above it:
    # rows b0 + b1 and 2 b1 span {t0 b0 + t1 b1 : t0 = t1 mod 2} (+ the rest)
    d8 = dihedral_group(8)
    b0, b1, b2 = relation_basis(d8)
    monkeypatch.setattr(relations, "relation_basis",
                        lambda group: (b0.plus(b1), b1.plus(b1), b2))
    three = b1.plus(b1).plus(b1)
    assert spans_relation_lattice(d8, (b0.plus(b1), b1.plus(b1), b2))
    assert spans_relation_lattice(d8, (b0.plus(three), b1.plus(b1), b2))
    assert not spans_relation_lattice(d8, (b0.plus(three), b2))
    with pytest.raises(ValueError, match="not contained"):
        spans_relation_lattice(d8, (b1,))


def sparse_rows(family):
    return [rel.coefficients for rel in family]


def test_the_elementary_abelian_generators_of_d8_have_index_two():
    # the bouc_generators docstring: D8's relation lattice exceeds the span
    # of its elementary abelian section relations by index 2; their top
    # class, the last, has coefficient p = 2, the dihedral one's has 1
    d8 = dihedral_group(8)
    gens, basis = bouc_generators(d8, 2), relation_basis(d8)
    ea = [rel for rel in gens if rel.coefficients[-1][1] == 2]
    assert len(ea) == 3 and len(gens) == 4
    assert _lattice_index(sparse_rows(basis), sparse_rows(ea)) == 2
    # oracle: the index squared is the ratio of the Gram determinants
    gram = [bareiss_determinant(mat_mul(rows, transpose(rows)))
            for rows in ([r.as_vector() for r in basis],
                         [r.as_vector() for r in ea])]
    assert gram[1] == 4 * gram[0] != 0
    assert _lattice_index(sparse_rows(basis), sparse_rows(gens)) == 1


@pytest.mark.parametrize("name", sorted(BOUC_CENSUS))
def test_the_bouc_family_has_index_one(name):
    g, p = census_group(name), BOUC_CENSUS[name][1]
    gens, basis = bouc_generators(g, p), relation_basis(g)
    lattice, k = sparse_rows(basis), len(basis) // 2
    assert _lattice_index(lattice, sparse_rows(gens)) == 1
    doubled = basis[:k] + (basis[k].plus(basis[k]),) + basis[k + 1:]
    assert _lattice_index(lattice, sparse_rows(doubled)) == 2
    pivot = basis[k].coefficients[0][0]
    assert _lattice_index(lattice, sparse_rows(without_pivot(gens, pivot))) \
        == 0


def test_the_span_check_reads_every_column_of_a_relation():
    # b0 plus one class where no basis vector has its pivot: its entries at
    # the pivot classes are b0's, but e_free is no relation, so it lies
    # outside the lattice
    d8 = dihedral_group(8)
    basis = relation_basis(d8)
    pivots = {rel.coefficients[0][0] for rel in basis}
    free = min(set(range(len(d8.subgroup_classes()))) - pivots)
    bent = basis[0].plus(GRelation(d8, ((free, 1),)))
    assert not is_relation(d8, bent)
    with pytest.raises(ValueError, match="not contained"):
        relations._spans_in_basis(d8, (bent, *basis[1:]))


def test_the_span_check_refuses_foreign_and_false_relations():
    d8, other = dihedral_group(8), dihedral_group(8)
    with pytest.raises(ValidationError, match="different group"):
        spans_relation_lattice(d8, relation_basis(other))
    with pytest.raises(ValidationError, match="not a relation"):
        spans_relation_lattice(d8, (GRelation(d8, ((0, 1),)),))
    assert spans_relation_lattice(cyclic_group(8), ()) is True


def test_bools_are_not_integers():
    v4 = elementary_abelian_group(2, 2)
    for spec in (True, False):
        with pytest.raises(ValidationError):
            permutation_character(v4, spec)
        with pytest.raises(ValidationError):
            GRelation.from_mapping(v4, {spec: 1})
        with pytest.raises(ValidationError):
            GRelation.from_mapping(v4, {"o1#0": spec})
        with pytest.raises(ValidationError):
            is_relation(v4, {0: spec})


def test_raw_relations_name_classes_of_their_group():
    # a raw GRelation is checked when built; -1 would read as o4#0
    v4 = elementary_abelian_group(2, 2)
    for coefficients in (((-1, 1), (4, -1)), ((0, 1), (99, -1)),
                         (("o1#0", 1),), ((True, 1),)):
        with pytest.raises(ValidationError, match="no subgroup class with "
                                                  "index"):
            GRelation(v4, coefficients)


def test_huge_coefficients_are_checked_value_by_value():
    # past 2^64 the packed characters could overflow a slot; the check
    # falls back to the rows and stays exact
    v4 = elementary_abelian_group(2, 2)
    (theta,) = relation_basis(v4)
    for scale in (1, 2 ** 70, -(3 ** 90)):
        big = {idx: scale * val for idx, val in theta.coefficients}
        assert is_relation(v4, big)
        big[0] += 1
        assert not is_relation(v4, big)
    # a combination whose packed sum is 0 although its values are not:
    # chi_{o1#0} = (4, 0, 0, 0) and chi_{o2#0} = (2, 2, 0, 0)
    width = v4.order.bit_length() + 64
    rows, packed = relations._character_table(v4)
    assert rows[:2] == ((4, 0, 0, 0), (2, 2, 0, 0))
    overflow = {0: -1 - 2 ** width, 1: 2}
    assert sum(val * packed[idx] for idx, val in overflow.items()) == 0
    assert not is_relation(v4, overflow)
