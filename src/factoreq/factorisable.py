"""Divisions, the factorisable quotient, and the abelian factorisability test.

Two elements of a finite abelian group lie in the same division when they
generate the same cyclic subgroup.  For a function f on subgroups,

    f'(D)  = prod_{C <= Dbar} f(C)^{mu((Dbar : C))}
    ftilde(H) = (prod_{D subset H} f'(D)) / f(H)

and f is factorisable exactly when ftilde is identically 1.  The product in
f' runs over all subgroups of Dbar including Dbar itself (the standard
Moebius-inversion convention); that choice is what makes ftilde vanish on
every cyclic subgroup.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import FactoreqError, ValidationError
from .groups import Group
from .intmat import prime_factorization


@dataclass(frozen=True)
class Division:
    """The set of elements generating one cyclic subgroup."""

    members: frozenset
    generated_subgroup: frozenset

    @property
    def order(self) -> int:
        return len(self.generated_subgroup)


def _require_abelian(group: Group):
    if not group.is_abelian():
        raise ValidationError(
            f"{group.name} is not abelian; divisions and factorisability "
            "are defined here for abelian groups only")


def divisions(group: Group) -> tuple:
    """Partition of the element indices by generated cyclic subgroup."""
    _require_abelian(group)
    by_subgroup: dict[frozenset, set] = {}
    for x in range(group.order):
        by_subgroup.setdefault(group.subgroup_generated_by([x]), set()).add(x)
    out = [Division(frozenset(mem), sub) for sub, mem in by_subgroup.items()]
    out.sort(key=lambda d: (d.order, tuple(sorted(d.members))))
    return tuple(out)


class SubgroupFunction:
    """A positive rational value for every subgroup of an abelian group."""

    def __init__(self, group: Group, values):
        _require_abelian(group)
        table = {}
        for key, val in dict(values).items():
            val = Fraction(val)
            if val <= 0:
                raise ValidationError("subgroup function values must be "
                                      "positive rationals")
            table[frozenset(key)] = val
        for sub in group.all_subgroups():
            if sub not in table:
                raise ValidationError(
                    f"no value for the subgroup of order {len(sub)} with "
                    f"elements {sorted(sub)}")
        self.group = group
        self.values = table

    @classmethod
    def from_callable(cls, group: Group, fn) -> "SubgroupFunction":
        return cls(group, {sub: fn(sub) for sub in group.all_subgroups()})

    def value(self, subset) -> Fraction:
        key = frozenset(subset)
        if key not in self.values:
            raise ValidationError("not a subgroup of this group")
        return self.values[key]

    def times(self, other: "SubgroupFunction") -> "SubgroupFunction":
        if other.group is not self.group:
            raise ValidationError("functions live on different groups")
        return SubgroupFunction(
            self.group,
            {sub: val * other.values[sub] for sub, val in self.values.items()})


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    factors = prime_factorization(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def division_transform(f: SubgroupFunction, division: Division) -> Fraction:
    """f'(D): Moebius-weighted product of f over the subgroups of Dbar."""
    group = f.group
    dbar = division.generated_subgroup
    n = len(dbar)
    generator = min(division.members)
    result = Fraction(1)
    for d in range(1, n + 1):
        if n % d:
            continue
        # the unique subgroup of order d inside the cyclic group Dbar
        step = n // d
        power = 0
        for _ in range(step):
            power = group.mul[power][generator]
        sub = group.subgroup_generated_by([power])
        result *= f.value(sub) ** _mobius(n // d)
    return result


def factorisable_quotient(f: SubgroupFunction) -> SubgroupFunction:
    """ftilde: the product of f' over contained divisions, divided by f."""
    group = f.group
    transformed = {d: division_transform(f, d) for d in divisions(group)}
    table = {}
    for sub in group.all_subgroups():
        value = Fraction(1)
        for d, fprime in transformed.items():
            if d.members <= sub:
                value *= fprime
        table[sub] = value / f.value(sub)
    return SubgroupFunction(group, table)


def is_factorisable_abelian(f: SubgroupFunction) -> bool:
    """Decide factorisability: does character data g with
    f(H) = prod_{chi trivial on H} g(chi) exist?

    The division test answers this when run on the character group: pull f
    back along the perp map (a subgroup of the dual goes to the common
    kernel of its members), then ask for the pulled-back quotient to be
    identically 1.  Functions with trivial quotient over an ambient group
    are exactly the products of an element function over the subgroup
    members, and under perp those correspond to the character products
    above.  Running the test on G itself instead would reject genuinely
    factorisable functions (already on the Klein four-group).
    """
    dual, chars = _dual_group(f.group)
    kernels = [character_kernel(f.group, chi) for chi in chars]
    full = frozenset(range(f.group.order))
    table = {}
    for xi in dual.all_subgroups():
        perp = full
        for i in xi:
            perp &= kernels[i]
        table[xi] = f.value(perp)
    pulled = SubgroupFunction(dual, table)
    return all(v == 1 for v in factorisable_quotient(pulled).values.values())


# -- characters ----------------------------------------------------------------


def abelian_characters(group: Group) -> tuple:
    """All homomorphisms into Z/exponent, as value tuples, sorted.

    A character is written additively: the tuple entry at x represents the
    root of unity exp(2*pi*i * t/m) with m the group exponent.  Candidate
    generator assignments are propagated through the multiplication table
    and kept when consistent, which both enumerates and verifies.
    """
    _require_abelian(group)
    n = group.order
    m = group.exponent()
    gens = group.generators
    choice_sets = []
    for g in gens:
        order = group.element_orders[g]
        choice_sets.append(tuple((m // order) * t for t in range(order)))
    found = set()
    candidates = [[]]
    for choices in choice_sets:
        candidates = [prefix + [c] for prefix in candidates for c in choices]
    for assignment in candidates:
        values: list = [None] * n
        values[0] = 0
        ok = True
        for x in range(n):
            if values[x] is None:
                ok = False
                break
            for gi, g in enumerate(gens):
                y = group.mul[g][x]
                val = (assignment[gi] + values[x]) % m
                if values[y] is None:
                    values[y] = val
                elif values[y] != val:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(tuple(values))
    out = tuple(sorted(found))
    if len(out) != n:
        raise FactoreqError(f"found {len(out)} characters of {group.name}; "
                            f"an abelian group has exactly {n}")
    return out


def character_kernel(group: Group, character) -> frozenset:
    """The subgroup where the character vanishes."""
    return frozenset(x for x, v in enumerate(character) if v == 0)


def _dual_group(group: Group):
    """The character group as a Group, plus its characters in index order.

    Characters multiply by pointwise addition mod the exponent; the
    all-zero (trivial) character sorts first, as the identity must.
    """
    chars = abelian_characters(group)
    m = group.exponent()
    position = {chi: i for i, chi in enumerate(chars)}
    n = len(chars)
    mul = tuple(
        tuple(position[tuple((a + b) % m for a, b in zip(chars[i], chars[j]))]
              for j in range(n))
        for i in range(n))
    gens: list[int] = []
    generated = {0}
    for i in range(1, n):
        if i not in generated:
            gens.append(i)
            queue = [i]
            generated.add(i)
            while queue:
                x = queue.pop()
                for y in tuple(generated):
                    z = mul[x][y]
                    if z not in generated:
                        generated.add(z)
                        queue.append(z)
    dual = Group(mul, tuple(gens or [0]), name=f"{group.name}^dual")
    return dual, chars


def function_from_character_data(group: Group, g_values) -> SubgroupFunction:
    """f(H) = product of g(chi) over the characters trivial on H.

    ``g_values`` is a sequence of positive rationals aligned with
    ``abelian_characters(group)``.  Functions of this shape are exactly the
    factorisable ones.
    """
    chars = abelian_characters(group)
    vals = [Fraction(v) for v in g_values]
    if len(vals) != len(chars):
        raise ValidationError(
            f"need one value per character ({len(chars)}), got {len(vals)}")
    if any(v <= 0 for v in vals):
        raise ValidationError("character data must be positive rationals")
    kernels = [character_kernel(group, chi) for chi in chars]
    table = {}
    for sub in group.all_subgroups():
        f_h = Fraction(1)
        for ker, gval in zip(kernels, vals):
            if sub <= ker:
                f_h *= gval
        table[sub] = f_h
    return SubgroupFunction(group, table)
