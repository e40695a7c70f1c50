"""Finite groups as explicit multiplication tables.

A :class:`Group` lives on element indices ``0..order-1`` with 0 the identity.
Construction always goes through a breadth-first closure from the identity
(products taken in generator order), so element indexing is deterministic:
building the same group twice gives identical tables, labels, and subgroup
orderings.  The closure multiplies each element by each generator once and
fills the rest of the table from that right action.  The supported scale is
deliberately small (order <= 200); this is a desk calculator, not a census
tool.  The named families check their known order against the cap before
anything is built.

The subgroup lattice is enumerated one conjugacy class at a time (cyclic
extension, after Neubueser 1960): cyclic subgroups are joined onto one
member of each class, and each new subgroup's class is its orbit under
conjugation by the generators, kept for :meth:`Group.subgroup_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceError, ValidationError

DESK_SCALE_CAP = 200
DEFAULT_ELEMENT_BUDGET = 10 ** 6


class Group:
    """Immutable finite group given by its multiplication table.

    ``mul[a][b]`` is the index of the product ``a * b``; ``generators`` is a
    nonempty tuple of indices whose closure is the whole group.  Derived data
    (inverses, element orders, conjugacy classes, the subgroup lattice) is
    computed on demand and cached.
    """

    def __init__(self, mul, generators, name: str = ""):
        mul = tuple(tuple(row) for row in mul)
        n = len(mul)
        if n == 0:
            raise ValidationError("a group needs at least the identity element")
        if n > DESK_SCALE_CAP:
            raise ValidationError(
                f"group of order {n} exceeds the supported cap of {DESK_SCALE_CAP}")
        full = set(range(n))
        for row in mul:
            if len(row) != n or set(row) != full:
                raise ValidationError("multiplication table rows must permute the elements")
        for j in range(n):
            if {row[j] for row in mul} != full:
                raise ValidationError("multiplication table columns must permute the elements")
        for x in range(n):
            if mul[0][x] != x or mul[x][0] != x:
                raise ValidationError("element 0 must act as the identity")
        generators = tuple(generators)
        if not generators:
            raise ValidationError("generator list must be nonempty")
        if any(not (0 <= g < n) for g in generators):
            raise ValidationError("generator index out of range")
        # Associativity for (g, b, c) with g a generator extends to all
        # products by induction on word length, so this check is complete.
        for g in generators:
            for b in range(n):
                gb = mul[g][b]
                row_b = mul[b]
                for c in range(n):
                    if mul[gb][c] != mul[g][row_b[c]]:
                        raise ValidationError("multiplication table is not associative")
        self.order = n
        self.mul = mul
        self.generators = generators
        self.name = name or f"group{n}"
        self.inverse = tuple(row.index(0) for row in mul)
        for x in range(n):
            if mul[self.inverse[x]][x] != 0:
                raise ValidationError("inverses must be two-sided")
        orders = []
        for x in range(n):
            k, y = 1, x
            while y != 0:
                y = mul[y][x]
                k += 1
            orders.append(k if x else 1)
        self.element_orders = tuple(orders)
        if len(self._closure(generators)) != n:
            raise ValidationError("generators do not generate the group")
        self._element_classes = None
        self._class_of_element = None
        self._all_subgroups = None
        self._subgroup_orbits = None
        self._subgroup_classes = None
        self._class_of_subgroup = None
        self._permutation_characters = {}

    def __repr__(self):
        return f"Group({self.name}, order={self.order})"

    # -- elementwise helpers -------------------------------------------------

    def conjugate_element(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul[self.mul[g][x]][self.inverse[g]]

    def conjugate_subgroup(self, g: int, sub) -> frozenset:
        mul, row, g_inv = self.mul, self.mul[g], self.inverse[g]
        return frozenset(mul[row[x]][g_inv] for x in sub)

    def _closure(self, seed) -> frozenset:
        gens = sorted(set(seed))
        elems = {0}
        queue = [0]
        for cur in queue:
            for g in gens:
                nxt = self.mul[cur][g]
                if nxt not in elems:
                    elems.add(nxt)
                    queue.append(nxt)
        return frozenset(elems)

    def subgroup_generated_by(self, seed) -> frozenset:
        """Underlying set of the subgroup generated by the given indices."""
        if any(not (0 <= x < self.order) for x in seed):
            raise ValidationError("element index out of range")
        return self._closure(seed)

    def is_subgroup(self, subset) -> bool:
        s = frozenset(subset)
        return 0 in s and all(self.mul[a][b] in s for a in s for b in s)

    def is_abelian(self) -> bool:
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(self.order) for b in range(a))

    def exponent(self) -> int:
        from math import lcm
        e = 1
        for o in self.element_orders:
            e = lcm(e, o)
        return e

    def center(self) -> frozenset:
        return frozenset(x for x in range(self.order)
                         if all(self.mul[x][y] == self.mul[y][x]
                                for y in range(self.order)))

    # -- conjugacy classes of elements ---------------------------------------

    def element_classes(self):
        """Conjugacy classes of elements, sorted by least member; {0} first.

        Also caches ``_class_of_element[x]``, the index of x's class.
        """
        if self._element_classes is None:
            class_of = [None] * self.order
            classes = []
            for x in range(self.order):
                if class_of[x] is not None:
                    continue
                orbit = {self.conjugate_element(g, x) for g in range(self.order)}
                for y in orbit:
                    class_of[y] = len(classes)
                classes.append(tuple(sorted(orbit)))
            self._element_classes = tuple(classes)
            self._class_of_element = tuple(class_of)
        return self._element_classes

    # -- subgroup lattice ----------------------------------------------------

    def all_subgroups(self):
        """Every subgroup, sorted by (order, sorted members); computed once.

        Any subgroup is a join of cyclic ones, and each partial join is a
        subgroup, so saturating joins with cyclic subgroups finds them all,
        insoluble ones included.  Joins are made onto one member H of each
        conjugacy class only: <H, x>^g = <H^g, x^g>, so the classes reached
        from H are those reached from its conjugates.  Each new subgroup's
        class is its orbit, found breadth first under conjugation by the
        non-central generators and kept for :meth:`subgroup_classes`.

        <H, x> grows from H as a union of left cosets k*H, by breadth-first
        search over representatives k left-multiplied by x and the cyclic
        generators that built H: the union holds 1 and is closed under
        them, so it is <H, x>, found in about |<H, x>| steps rather than
        |<H, x>| * |H|.  Since <H, hx> = <H, x>, one x per coset Hx is
        joined.
        """
        if self._all_subgroups is None:
            mul = self.mul
            cyclic = {}
            for x in range(self.order):
                cyclic.setdefault(self._closure([x]), x)
            joins = list(cyclic.values())
            # a generator that commutes with every generator is central, and
            # conjugation by it fixes every subgroup
            movers = [g for g in self.generators
                      if any(mul[g][h] != mul[h][g] for h in self.generators)]
            queue, orbits, known = [], [], set()

            def new_class(sub, gens):
                queue.append((sub, gens))
                known.add(sub)
                orbit = [sub]
                for member in orbit:
                    for g in movers:
                        conj = self.conjugate_subgroup(g, member)
                        if conj not in known:
                            known.add(conj)
                            orbit.append(conj)
                orbits.append(orbit)

            for sub, x in cyclic.items():
                if sub not in known:
                    new_class(sub, (x,))
            for sub, gens in queue:
                seen = set(sub)
                for x in joins:
                    if x in seen:
                        continue
                    seen.update(mul[h][x] for h in sub)
                    step = gens + (x,)
                    elems, reps = set(sub), [0]
                    for k in reps:
                        for s in step:
                            y = mul[s][k]
                            if y not in elems:
                                elems.update(mul[y][h] for h in sub)
                                reps.append(y)
                    new = frozenset(elems)
                    if new not in known:
                        new_class(new, step)
            self._subgroup_orbits = orbits
            self._all_subgroups = tuple(sorted(known, key=_subgroup_key))
        return self._all_subgroups

    def subgroup_classes(self):
        """Conjugacy classes of subgroups, read off the orbits that
        :meth:`all_subgroups` kept.

        Members are sorted by their sorted element tuples, the least one is
        the representative, and classes are ordered by (order,
        representative), so labels ``o<order>#<k>`` number them within each
        order.
        """
        if self._subgroup_classes is None:
            self.all_subgroups()
            classes = sorted((tuple(sorted(orbit, key=_subgroup_key))
                              for orbit in self._subgroup_orbits),
                             key=lambda members: _subgroup_key(members[0]))
            per_order: dict[int, int] = {}
            assigned = {}
            out = []
            for idx, members in enumerate(classes):
                rep = members[0]
                k = per_order.get(len(rep), 0)
                per_order[len(rep)] = k + 1
                for m in members:
                    assigned[m] = idx
                is_cyc = any(self.element_orders[x] == len(rep) for x in rep)
                out.append(SubgroupClass(
                    index=idx, label=f"o{len(rep)}#{k}", order=len(rep),
                    representative=rep, members=members,
                    is_cyclic=is_cyc, is_normal=len(members) == 1))
            self._subgroup_classes = tuple(out)
            self._class_of_subgroup = assigned
        return self._subgroup_classes

    def class_of_subgroup(self, subset) -> int:
        """Index of the conjugacy class containing the given subgroup."""
        self.subgroup_classes()
        key = frozenset(subset)
        if key not in self._class_of_subgroup:
            raise ValidationError("not a subgroup of this group")
        return self._class_of_subgroup[key]

    def class_by_label(self, label: str):
        for cls in self.subgroup_classes():
            if cls.label == label:
                return cls
        valid = ", ".join(c.label for c in self.subgroup_classes())
        raise ValidationError(f"no subgroup class labelled {label!r} (valid: {valid})")


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups.

    ``representative`` is the member whose sorted element tuple is
    lexicographically least; labels read ``o<order>#<index within order>``.
    """

    index: int
    label: str
    order: int
    representative: frozenset
    members: tuple
    is_cyclic: bool
    is_normal: bool

    @property
    def class_size(self) -> int:
        return len(self.members)

    def __repr__(self):
        return f"SubgroupClass({self.label}, size={self.class_size})"


def _subgroup_key(sub):
    """Canonical order of subgroups: by order, then sorted members."""
    return len(sub), tuple(sorted(sub))


# -- construction ------------------------------------------------------------


def _check_cap(base: int, exp: int = 1):
    """Refuse a group of order ``base ** exp`` (base >= 1) over the cap.

    The named families call this with their known order before building
    anything.  An order over 2^64 is named as the power, unevaluated.
    """
    if exp * (base.bit_length() - 1) > 64:
        order = f"{base}^{exp}"
    else:
        order = base ** exp
        if order <= DESK_SCALE_CAP:
            return
    raise ValidationError(
        f"group of order {order} exceeds the supported cap of {DESK_SCALE_CAP}")


def _closure_group(identity_item, gen_items, mul_fn, name,
                   element_budget=DEFAULT_ELEMENT_BUDGET):
    """Breadth-first closure from the identity; returns (Group, items).

    ``items[i]`` is the abstract object behind element index ``i``; products
    are explored in generator order, which fixes the indexing.  ``mul_fn``,
    which must be associative, is called once per element and generator:
    ``right[k][i]`` is the index of ``items[i] * gen_k``, and each new
    element b is recorded as ``items[i] * gen_k`` for its parent (i, k).
    Then a * b = (a * parent) * gen_k, so the table column of b is the
    column of its parent mapped through ``right[k]``, filled in breadth-first
    order: n^2 list lookups instead of n^2 calls of ``mul_fn``.
    """
    index = {identity_item: 0}
    items = [identity_item]
    right = [[] for _ in gen_items]
    parent = [None]
    for i, cur in enumerate(items):
        for k, g in enumerate(gen_items):
            nxt = mul_fn(cur, g)
            j = index.get(nxt)
            if j is None:
                if len(items) >= element_budget:
                    raise ResourceError(
                        f"closure exceeded the element budget of {element_budget}")
                j = index[nxt] = len(items)
                items.append(nxt)
                parent.append((i, k))
            right[k].append(j)
    n = len(items)
    _check_cap(n)
    columns = [range(n)]
    for i, k in parent[1:]:
        step = right[k]
        columns.append([step[a] for a in columns[i]])
    mul = tuple(zip(*columns))
    gens = tuple(index[g] for g in gen_items)
    return Group(mul, gens, name), items


def group_from_generators(perms, element_budget=DEFAULT_ELEMENT_BUDGET,
                          name: str = "") -> Group:
    """Group generated by permutations (tuples over 0..k-1) under composition.

    Composition is ``(p * q)(x) = p(q(x))``.  Raises a resource error if the
    closure exceeds ``element_budget`` and a validation error if the finished
    group is larger than the supported cap.
    """
    perms = [tuple(p) for p in perms]
    if not perms:
        raise ValidationError("need at least one generating permutation")
    k = len(perms[0])
    if k == 0:
        raise ValidationError("permutations need at least one point")
    for p in perms:
        if len(p) != k or sorted(p) != list(range(k)):
            raise ValidationError(f"{p!r} is not a permutation of 0..{k - 1}")
    identity = tuple(range(k))

    def compose(p, q):
        return tuple(p[x] for x in q)

    group, _ = _closure_group(identity, perms, compose,
                              name or "perm-group", element_budget)
    return group


def cyclic_group(n: int) -> Group:
    if not isinstance(n, int) or n < 1:
        raise ValidationError("cyclic group order must be a positive integer")
    _check_cap(n)
    if n == 1:
        return group_from_generators([(0,)], name="C1")
    shift = tuple((i + 1) % n for i in range(n))
    return group_from_generators([shift], name=f"C{n}")


def elementary_abelian_group(p: int, k: int) -> Group:
    # trial division only up to the cap: a larger p fails the order check
    if not isinstance(p, int) or p < 2 or (
            p <= DESK_SCALE_CAP and not _is_prime(p)):
        raise ValidationError(f"{p} is not prime")
    if not isinstance(k, int) or k < 1:
        raise ValidationError("rank must be a positive integer")
    _check_cap(p, k)
    gens = []
    points = p * k
    for j in range(k):
        perm = list(range(points))
        for i in range(p):
            perm[j * p + i] = j * p + (i + 1) % p
        gens.append(tuple(perm))
    return group_from_generators(gens, name=f"({p}^{k})")


def dihedral_group(m: int) -> Group:
    """Dihedral group of order m (m even): symmetries of an (m/2)-gon."""
    if not isinstance(m, int) or m < 2 or m % 2:
        raise ValidationError("dihedral group order must be an even integer >= 2")
    _check_cap(m)
    k = m // 2
    if k == 1:
        return group_from_generators([(1, 0)], name="D2")
    if k == 2:
        return group_from_generators([(1, 0, 2, 3), (0, 1, 3, 2)], name="D4")
    rot = tuple((i + 1) % k for i in range(k))
    flip = tuple((k - i) % k for i in range(k))
    return group_from_generators([rot, flip], name=f"D{m}")


def quaternion_group() -> Group:
    """The quaternion group of order 8, by left multiplication on
    (1, i, -1, -i, j, k, -j, -k)."""
    perm_i = (1, 2, 3, 0, 5, 6, 7, 4)
    perm_j = (4, 7, 6, 5, 2, 1, 0, 3)
    return group_from_generators([perm_i, perm_j], name="Q8")


def heisenberg_group(p: int) -> Group:
    """Unitriangular 3x3 matrices over F_p: nonabelian, order p^3, exponent p.

    Exists only for odd primes (for p = 2 the exponent condition fails).
    """
    # trial division only up to the cap: a larger p fails the order check
    if not isinstance(p, int) or p < 3 or (
            p <= DESK_SCALE_CAP and not _is_prime(p)):
        raise ValidationError(f"{p} is not an odd prime")
    _check_cap(p, 3)

    def mult(u, v):
        a, b, c = u
        d, e, f = v
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    group, _ = _closure_group((0, 0, 0), [(1, 0, 0), (0, 1, 0)], mult,
                              f"Heis({p})")
    return group


def direct_product(a: Group, b: Group) -> Group:
    _check_cap(a.order * b.order)

    def mult(x, y):
        return (a.mul[x[0]][y[0]], b.mul[x[1]][y[1]])

    gens = [(g, 0) for g in a.generators] + [(0, h) for h in b.generators]
    group, _ = _closure_group((0, 0), gens, mult, f"({a.name}x{b.name})")
    return group


def semidirect_product(a: Group, b: Group, action) -> Group:
    """Semidirect product A x| B.

    ``action[j]`` is a permutation of A's indices: the automorphism by which
    element j of B acts.  The whole map must be a homomorphism into Aut(A);
    this is validated, not trusted.
    """
    _check_cap(a.order * b.order)
    action = [tuple(phi) for phi in action]
    if len(action) != b.order:
        raise ValidationError(
            f"need one automorphism per element of B ({b.order}), got {len(action)}")
    rng = list(range(a.order))
    for j, phi in enumerate(action):
        if sorted(phi) != rng:
            raise ValidationError(f"action[{j}] is not a permutation of A's indices")
        for x in range(a.order):
            for y in range(a.order):
                if phi[a.mul[x][y]] != a.mul[phi[x]][phi[y]]:
                    raise ValidationError(f"action[{j}] is not an automorphism of A")
    for j1 in range(b.order):
        for j2 in range(b.order):
            composed = tuple(action[j1][action[j2][x]] for x in range(a.order))
            if action[b.mul[j1][j2]] != composed:
                raise ValidationError("action is not a homomorphism from B to Aut(A)")

    def mult(x, y):
        return (a.mul[x[0]][action[x[1]][y[0]]], b.mul[x[1]][y[1]])

    gens = [(g, 0) for g in a.generators] + [(0, h) for h in b.generators]
    group, _ = _closure_group((0, 0), gens, mult, f"({a.name}x|{b.name})")
    return group


def standard_group(kind: str, *params) -> Group:
    """Dispatch by family name; the CLI's group mini-language ends up here."""
    table = {
        "cyclic": cyclic_group,
        "elementary_abelian": elementary_abelian_group,
        "dihedral": dihedral_group,
        "quaternion8": quaternion_group,
        "heisenberg": heisenberg_group,
        "direct_product": direct_product,
        "semidirect": semidirect_product,
    }
    if kind not in table:
        raise ValidationError(
            f"unknown group family {kind!r} (known: {', '.join(sorted(table))})")
    return table[kind](*params)


def _is_prime(p) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- quotients, subgroups as groups, subquotients, sections of G -------------


def quotient_group(group: Group, normal):
    """Quotient by a normal subgroup: returns (G/N, projection).

    ``projection[x]`` is the quotient index of x's coset.  Coset indexing is
    the usual breadth-first order seeded by the images of G's generators, so
    quotienting by the trivial subgroup reproduces G's own table.
    """
    n_set = frozenset(normal)
    if not group.is_subgroup(n_set):
        raise ValidationError("not a subgroup")
    for g in range(group.order):
        if group.conjugate_subgroup(g, n_set) != n_set:
            raise ValidationError("subgroup is not normal")
    coset_of = {}
    for x in range(group.order):
        if x not in coset_of:
            coset = frozenset(group.mul[x][h] for h in n_set)
            for y in coset:
                coset_of[y] = coset

    def mult(c1, c2):
        return coset_of[group.mul[min(c1)][min(c2)]]

    gens = [coset_of[g] for g in group.generators]
    quot, items = _closure_group(n_set, gens, mult, f"{group.name}/N")
    index = {c: i for i, c in enumerate(items)}
    projection = tuple(index[coset_of[x]] for x in range(group.order))
    return quot, projection


def subgroup_generators(group: Group, subset) -> tuple:
    """Deterministic generating set of a subgroup (empty for the trivial one).

    Greedy over the sorted member list: take each element not yet generated.
    """
    s = frozenset(subset)
    if not group.is_subgroup(s):
        raise ValidationError("not a subgroup")
    gens = []
    cl = frozenset([0])
    for x in sorted(s):
        if x not in cl:
            gens.append(x)
            cl = group.subgroup_generated_by(gens)
    return tuple(gens)


def subgroup_as_group(group: Group, subset):
    """A subgroup as a Group in its own right: returns (H, embedding).

    ``embedding[i]`` is the ambient index of H's element i.  Generators are
    chosen greedily from the sorted member list, so the result is
    deterministic for a given subset.
    """
    s = frozenset(subset)
    gens = list(subgroup_generators(group, s)) or [0]

    def mult(x, y):
        return group.mul[x][y]

    sub, items = _closure_group(0, gens, mult, f"{group.name}|sub{len(s)}")
    return sub, tuple(items)


@dataclass(frozen=True)
class Subquotient:
    """A pair B <= H <= G with B normal in H, together with H/B.

    ``projection`` maps ambient indices of elements of H to quotient indices.
    """

    group: Group
    top: frozenset
    bottom: frozenset
    quotient: Group
    projection: dict

    def preimage(self, quotient_subgroup) -> frozenset:
        """Subgroup of G sitting between B and H over a subgroup of H/B."""
        marks = frozenset(quotient_subgroup)
        return frozenset(g for g in self.top if self.projection[g] in marks)

    def intermediate_classes(self) -> dict:
        """Map each subgroup of H/B to the G-class of its preimage."""
        out = {}
        for cls in self.quotient.subgroup_classes():
            for member in cls.members:
                out[member] = self.group.class_of_subgroup(self.preimage(member))
        return out

    def __repr__(self):
        return (f"Subquotient(top order {len(self.top)}, "
                f"bottom order {len(self.bottom)})")


def make_subquotient(group: Group, top, bottom) -> Subquotient:
    """The subquotient H/B of G, with B normal in H, as a group of its own.

    H/B is built from G's own cosets xB (x in H) in one closure, seeded by
    the cosets of H's generators (``subgroup_generators``) in breadth-first
    order.  So its table, generators, name and projection are those that
    ``quotient_group`` gives on ``subgroup_as_group(group, top)`` and the
    image of B there, without H being built as a group of its own.  B's
    normality is checked once, on H's generators.
    """
    top = frozenset(top)
    bottom = frozenset(bottom)
    if not group.is_subgroup(top):
        raise ValidationError("top is not a subgroup")
    if not bottom <= top:
        raise ValidationError("bottom must be contained in top")
    if not group.is_subgroup(bottom):
        raise ValidationError("not a subgroup")
    top_gens = subgroup_generators(group, top)
    if not _normalized_by(group, top_gens, bottom):
        raise ValidationError("subgroup is not normal")
    mul = group.mul
    coset_of = {}
    for x in top:
        if x not in coset_of:
            coset = frozenset(mul[x][b] for b in bottom)
            for y in coset:
                coset_of[y] = coset

    def mult(c1, c2):
        return coset_of[mul[min(c1)][min(c2)]]

    gens = [coset_of[g] for g in top_gens] or [bottom]
    quot, items = _closure_group(bottom, gens, mult,
                                 f"{group.name}|sub{len(top)}/N")
    index = {c: i for i, c in enumerate(items)}
    projection = {g: index[coset_of[g]] for g in top}
    return Subquotient(group, top, bottom, quot, projection)


def _normalized_by(group: Group, gens, sub) -> bool:
    """Is ``sub`` normalized by every element of ``gens`` (so by <gens>)?"""
    return all(group.conjugate_subgroup(g, sub) == sub for g in gens)


def _normal_sections(group: Group, index: int):
    """Yield (H, generators of H, B) with B normal in H and [H:B] = index.

    H runs over subgroup-class representatives in canonical order; for each,
    B runs over the subgroups of H in ``all_subgroups`` order.  H and B are
    subsets of G; no quotient group is built.
    """
    by_order: dict[int, list] = {}
    for sub in group.all_subgroups():
        by_order.setdefault(len(sub), []).append(sub)
    for cls in group.subgroup_classes():
        if cls.order % index:
            continue
        top = cls.representative
        gens = subgroup_generators(group, top)
        for bottom in by_order.get(cls.order // index, ()):
            if bottom <= top and _normalized_by(group, gens, bottom):
                yield top, gens, bottom


def _commutators_in(group: Group, gens, sub) -> bool:
    """Do all commutators of ``gens`` lie in ``sub``?

    For B normal in H = <gens>, this holds iff H/B is abelian.
    """
    mul, inv = group.mul, group.inverse
    return all(mul[mul[inv[a]][inv[b]]][mul[a][b]] in sub
               for i, a in enumerate(gens) for b in gens[:i])
