"""Relations between permutation characters of a finite group.

A relation assigns an integer coefficient to each conjugacy class of
subgroups so that the corresponding permutation characters cancel:
``sum_H n_H chi_{G/H} = 0``.  The set of relations is a saturated integer
lattice; :func:`relation_basis` returns its canonical (Hermite normal form)
basis.  For p-groups, :func:`bouc_generators` produces the classical
generating family: the relations of three kinds of small sections H/B,
induced and inflated to G.  Each is read off G's own subgroup lattice,
without H/B being built, and the two spans must agree:
:func:`spans_relation_lattice` checks that their index in the basis's
lattice is 1, on sparse rows, by the index routine of ``intmat``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import FactoreqError, ValidationError
from .groups import (
    Group,
    SubgroupClass,
    Subquotient,
    _commutators_in,
    _normal_sections,
)
from .intmat import (_dense, _kernel_rows, _lattice_index, is_prime,
                     row_span_basis, valuation)


@dataclass(frozen=True)
class CharacterVector:
    """Permutation character values on the element conjugacy classes."""

    group: Group
    values: tuple

    def __post_init__(self):
        ecs = self.group.element_classes()
        if len(self.values) != len(ecs):
            raise ValidationError("one value per element class required")


def permutation_character(group: Group, subgroup_class) -> CharacterVector:
    """Character of the coset action G/H: fixed cosets per element class.

    ``subgroup_class`` may be a SubgroupClass, its index, or its label.  By
    Isaacs, *Character Theory of Finite Groups*, (5.2),

        chi_{G/H}(g) = |C_G(g)| * |H & g^G| / |H|,

    where H & g^G is the set of members of H conjugate to g, so one pass
    over H counts its members in each element class.  The numerator equals
    ``#{x : x^-1 g x in H}`` and is always divisible by |H| (checked).
    The value is a row of the group's character table.
    """
    cls = _as_class(group, subgroup_class)
    return CharacterVector(group, _character_table(group)[0][cls.index])


def _character_table(group: Group) -> tuple:
    """(rows, packed): every subgroup class's permutation character, one row
    per class, and each row packed into one integer with value i in bits
    ``i * w`` on, w = |G|.bit_length() + 64; built on first use and cached.
    """
    if group._permutation_characters is None:
        classes = group.element_classes()
        class_of = group._class_of_element
        centralizers = [group.order // len(ec) for ec in classes]
        width = group.order.bit_length() + 64
        table, packed = [], []
        for cls in group.subgroup_classes():
            row = [0] * len(classes)
            for h in cls.representative:
                row[class_of[h]] += 1
            for i, count in enumerate(row):
                if count:
                    row[i], rem = divmod(centralizers[i] * count, cls.order)
                    if rem:
                        raise FactoreqError("conjugation count not divisible "
                                            "by |H|")
            table.append(tuple(row))
            packed.append(sum(x << i * width for i, x in enumerate(row) if x))
        group._permutation_characters = tuple(table), tuple(packed)
    return group._permutation_characters


def _as_class(group, spec):
    classes = group.subgroup_classes()
    if isinstance(spec, int) and not isinstance(spec, bool):
        if not 0 <= spec < len(classes):
            raise ValidationError(f"no subgroup class with index {spec}")
        return classes[spec]
    if isinstance(spec, str):
        return group.class_by_label(spec)
    # an index lookup, not ``spec in classes``: that scan calls the dataclass
    # ``__eq__`` once per class; identity first, since ``__eq__`` compares
    # every member, and an equal class from a second build of G still passes
    if (isinstance(spec, SubgroupClass) and 0 <= spec.index < len(classes)
            and (classes[spec.index] is spec or classes[spec.index] == spec)):
        return spec
    raise ValidationError(f"{spec!r} does not name a subgroup class")


@dataclass(frozen=True)
class GRelation:
    """An integer combination of subgroup classes with cancelling characters.

    ``coefficients`` is a sorted tuple of (class_index, coefficient) pairs
    with zero coefficients dropped; the empty relation is allowed.  Each
    class index is checked against the group's classes when built.
    """

    group: Group
    coefficients: tuple

    def __post_init__(self):
        if self.coefficients:
            count = len(self.group.subgroup_classes())
            for idx, _ in self.coefficients:
                if type(idx) is not int or not 0 <= idx < count:
                    raise ValidationError(
                        f"no subgroup class with index {idx!r}")

    @staticmethod
    def from_mapping(group: Group, mapping) -> "GRelation":
        coeffs = {}
        for key, val in dict(mapping).items():
            idx = _as_class(group, key).index
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValidationError("relation coefficients must be integers")
            coeffs[idx] = coeffs.get(idx, 0) + val
        return GRelation(group, tuple(sorted((k, v) for k, v in coeffs.items() if v)))

    def coefficient(self, class_index: int) -> int:
        return dict(self.coefficients).get(class_index, 0)

    def as_vector(self) -> tuple:
        return _dense((self.coefficients,),
                      len(self.group.subgroup_classes()))[0]

    def plus(self, other: "GRelation") -> "GRelation":
        if other.group is not self.group:
            raise ValidationError("relations live on different groups")
        merged = dict(self.coefficients)
        for idx, val in other.coefficients:
            merged[idx] = merged.get(idx, 0) + val
        return GRelation(self.group, tuple(sorted((k, v) for k, v in merged.items() if v)))

    def describe(self) -> str:
        classes = self.group.subgroup_classes()
        if not self.coefficients:
            return "0"
        parts = []
        for idx, val in self.coefficients:
            sign = "-" if val < 0 else ("+" if parts else "")
            mag = abs(val)
            term = classes[idx].label if mag == 1 else f"{mag}*{classes[idx].label}"
            parts.append(f"{sign} {term}" if parts else f"{sign}{term}")
        return " ".join(parts)

    def __repr__(self):
        return f"GRelation({self.describe()})"


def is_relation(group: Group, candidate) -> bool:
    """Do the permutation characters weighted by the candidate cancel?

    Character values lie in [0, |G|], so while the |coefficients| sum below
    2^64 each value of the weighted sum is below 2^w in absolute value (w
    the packing width), and the weighted sum of the packed characters is 0
    iff all of them are; past that the values are summed one by one.
    """
    rel = candidate if isinstance(candidate, GRelation) \
        else GRelation.from_mapping(group, candidate)
    if rel.group is not group:
        raise ValidationError("relation belongs to a different group")
    rows, packed = _character_table(group)
    total = size = 0
    for idx, val in rel.coefficients:
        total += val * packed[idx]
        size += abs(val)
    if size >> 64:
        return not any(sum(val * rows[idx][i] for idx, val in rel.coefficients)
                       for i in range(len(rows[0])))
    return not total


def relation_basis(group: Group) -> tuple:
    """Canonical basis of the saturated lattice of relations.

    The kernel of the (element classes) x (subgroup classes) character matrix
    is taken over the integers and returned in row Hermite normal form, so
    each basis vector's first nonzero coefficient is positive and repeated
    runs are bit-identical.
    """
    rows = tuple(zip(*_character_table(group)[0]))
    return tuple(GRelation(group, row) for row in _kernel_rows(rows))


def relation_span_basis(relations) -> tuple:
    """Canonical integer row-span of a family of relations (HNF rows).

    The HNF is canonical, so the distinct vectors are fed in ascending
    order: repeats add nothing, and this order eliminates fastest.
    """
    rows = tuple(sorted({r.as_vector() for r in relations}))
    if not rows:
        return ()
    return row_span_basis(rows)


def spans_match(relations_a, relations_b) -> bool:
    return relation_span_basis(relations_a) == relation_span_basis(relations_b)


def spans_relation_lattice(group: Group, relations) -> bool:
    """Do the GRelations span the relation lattice of ``group``?  Each is
    checked to be a relation (else :class:`ValidationError`), then
    :func:`_spans_in_basis` checks that their index in it is 1."""
    relations = tuple(relations)
    for rel in relations:
        if not is_relation(group, rel):
            raise ValidationError(f"{rel.describe()} is not a relation of "
                                  f"{group.name}")
    return _spans_in_basis(group, relations)


def _spans_in_basis(group: Group, relations) -> bool:
    """``spans_match(relations, relation_basis(group))`` for relations of
    ``group``, as :func:`bouc_generators` gives them, without their HNF:
    their index in the basis's lattice is 1, by ``intmat._lattice_index`` on
    sparse rows, and one outside that lattice raises :class:`ValueError`."""
    return _lattice_index([rel.coefficients for rel in relation_basis(group)],
                          [rel.coefficients for rel in relations]) == 1


def induce_inflate(group: Group, sq: Subquotient, rel: GRelation) -> GRelation:
    """Pull a quotient relation up through a subquotient (B <= H <= G).

    Each subgroup class of H/B is replaced by the G-conjugacy class of its
    preimage in H; coefficients landing on the same class accumulate.  The
    result is again a relation (checked).
    """
    if sq.group is not group:
        raise ValidationError("subquotient belongs to a different group")
    if rel.group is not sq.quotient:
        raise ValidationError("relation must live on the subquotient's quotient")
    if not is_relation(sq.quotient, rel):
        raise ValidationError("input is not a relation of the quotient")
    qclasses = sq.quotient.subgroup_classes()
    return _relation_on_classes(
        group, ((sq.preimage(qclasses[idx].representative), val)
                for idx, val in rel.coefficients),
        "induced-inflated image failed to cancel")


def induce_relation(group: Group, embedding, rel: GRelation) -> GRelation:
    """Read a relation of a subgroup (as its own Group) inside the big group.

    ``embedding`` is the index map returned by ``subgroup_as_group``; each
    subgroup class of H maps to the G-class of its image.
    """
    sub = rel.group
    if len(embedding) != sub.order:
        raise ValidationError("embedding length must match the subgroup order")
    sclasses = sub.subgroup_classes()
    return _relation_on_classes(
        group, ((frozenset(embedding[i] for i in sclasses[idx].representative),
                 val) for idx, val in rel.coefficients),
        "induced image failed to cancel")


def _relation_on_classes(group: Group, terms, failure: str) -> GRelation:
    """Sum (subgroup of G, coefficient) terms over G's subgroup classes.

    Each subgroup, a frozenset, is looked up in G's subgroup -> class table
    (:class:`ValidationError` if it is no subgroup).  Zero coefficients are
    dropped; raises ``FactoreqError(failure)`` unless the sum is a relation.
    """
    group.subgroup_classes()
    table, acc = group._class_of_subgroup, {}
    for sub, val in terms:
        if (idx := table.get(sub)) is None:
            raise ValidationError("not a subgroup of this group")
        acc[idx] = acc.get(idx, 0) + val
    out = GRelation(group, tuple(sorted((k, v) for k, v in acc.items() if v)))
    if not is_relation(group, out):
        raise FactoreqError(failure)
    return out


def bouc_generators(group: Group, p: int) -> tuple:
    """The classical generating relations of a p-group.

    Three sources, read off every matching section B <= H <= G (H up to
    conjugacy, B normal in H).  Each section is decided and its relations
    are built on G's own subgroup lattice; no quotient group is built:

    * elementary abelian p^2 quotients contribute
      ``B - sum_C C + p * H`` over the p + 1 subgroups B < C < H.  H/B is
      elementary abelian of order p^2 iff [H:B] = p^2 and x^p lies in B for
      every x in H, and each C is <B, x> for an x in H outside B;
    * for odd p, exponent-p Heisenberg quotients contribute
      ``I - IZ - J + JZ`` for every pair of non-conjugate non-central
      order-p classes (Z the center).  H/B is one iff [H:B] = p^3, some
      commutator of H's generators lies outside B, and x^p lies in B for
      every x in H;
    * for p = 2, dihedral quotients of order 2^n, n >= 3, contribute the
      same ``I - IZ - J + JZ`` pattern for order-2 classes.  The order-8
      dihedral case is needed: its own relation lattice exceeds the span
      of its elementary abelian subquotient relations by index 2.

    Every generator is checked to be a relation of G.  Their span is the
    full relation lattice (checked in the tests, not here).
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if group.order != p ** valuation(group.order, p):
        raise ValidationError(f"group of order {group.order} is not a {p}-group")
    mul = group.mul
    power = list(range(group.order))
    for _ in range(p - 1):
        power = [mul[y][x] for x, y in enumerate(power)]
    # every section of an abelian G is abelian: only index p^2 gives any
    indices = [p * p] + ([] if group.is_abelian() else [p ** 3] if p % 2 else
                         [2 ** k for k in range(3, group.order.bit_length())])
    out = []
    for top, gens, bottom in _normal_sections(group, *indices):
        if len(top) == p * p * len(bottom):
            if all(power[x] in bottom for x in top):
                out.append(_elementary_abelian_relation(group, top, bottom,
                                                        p))
        elif not _commutators_in(group, gens, bottom) and (
                _is_dihedral(group, top, bottom, power) if p == 2
                else all(power[x] in bottom for x in top)):
            out.extend(_center_pair_relations_on(group, top, gens, bottom,
                                                 power))
    return tuple(out)


def _cyclic_over(group: Group, sub, x) -> frozenset:
    """<sub, x> = sub u x sub u x^2 sub u ..., for x normalizing ``sub``."""
    mul, coset = group.mul, itemgetter(0, *sub)
    out, y = set(sub), x
    while y not in sub:
        out.update(coset(mul[y]))
        y = mul[y][x]
    return frozenset(out)


def _elementary_abelian_relation(group: Group, top, bottom, p) -> GRelation:
    """B - sum_C C + p * H for H/B elementary abelian of order p^2.

    C runs over the p + 1 subgroups <B, x> strictly between B and H.
    """
    terms = [(bottom, 1), (top, p)]
    covered = set(bottom)
    for x in top:
        if x not in covered:
            middle = _cyclic_over(group, bottom, x)
            covered |= middle
            terms.append((middle, -1))
    return _relation_on_classes(group, terms, "elementary abelian section "
                                "relation failed to cancel")


def _is_dihedral(group: Group, top, bottom, square) -> bool:
    """Is H/B, a non-abelian 2-group, dihedral?

    It is iff some x has order [H:B]/2 modulo B and every y in H outside
    <B, x> has y^2 in B.  H/B is not cyclic, so x has that order iff
    x^([H:B]/4) lies outside B.
    """
    steps = (len(top) // len(bottom)).bit_length() - 3
    for x in top:
        y = x
        for _ in range(steps):
            y = square[y]
        if y not in bottom:
            cyclic = _cyclic_over(group, bottom, x)
            return all(square[y] in bottom for y in top if y not in cyclic)
    return False


def _center_pair_relations_on(group: Group, top, gens, bottom, power) -> list:
    """I - IZ - J + JZ over pairs of non-central order-p classes of H/B.

    Read on G: Z is the preimage of the center of H/B, I runs over the
    subgroups B < I <= H with [I:B] = p and I not in Z, and IZ = <I, Z>.
    The pairs follow H/B's own ``subgroup_classes`` order: with the cosets
    xB numbered as ``make_subquotient`` numbers them (breadth first from B,
    right-multiplying by H's generators), classes are ordered by their
    least member's sorted coset numbers.
    """
    mul, inv = group.mul, group.inverse
    center = frozenset(x for x in top
                       if all(mul[mul[inv[x]][inv[g]]][mul[x][g]] in bottom
                              for g in gens))
    coset = dict.fromkeys(bottom, 0)
    reps = [0]
    for r in reps:
        for g in gens:
            y = mul[r][g]
            if y not in coset:
                coset.update((mul[y][b], len(reps)) for b in bottom)
                reps.append(y)
    # a non-central x with x^p in B lies in just one such I, <B, x>
    found, covered = [], set(center)
    for x in top:
        if x not in covered and power[x] in bottom:
            sub = _cyclic_over(group, bottom, x)
            covered |= sub
            found.append((sorted({coset[y] for y in sub}), sub, x))
    found.sort(key=lambda entry: entry[0])
    classes, seen = [], set()
    for _, sub, x in found:
        if sub not in seen:
            group._subgroup_orbit(sub, gens, seen)
            classes.append((sub, _cyclic_over(group, center, x)))
    return [_relation_on_classes(group, ((big_i, 1), (iz, -1), (big_j, -1),
                                         (jz, 1)),
                                 "center-pair relation failed to cancel")
            for a, (big_i, iz) in enumerate(classes)
            for big_j, jz in classes[a + 1:]]
