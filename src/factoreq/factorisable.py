"""Divisions, the factorisable quotient, and the abelian factorisability test.

Two elements of a finite abelian group lie in the same division when they
generate the same cyclic subgroup.  For a function f on subgroups and a
cyclic subgroup C, the subgroups of C form a divisor lattice, so Moebius
inversion over it uses the number-theoretic mu:

    f'(C)  = prod_{B <= C} f(B)^{mu([C : B])}
    ftilde(H) = (prod_{cyclic C <= H} f'(C)) / f(H)

and ftilde is identically 1 exactly when f is a product of an element
function over the subgroup members.  f'(D) of a division D is f' of the
cyclic subgroup Dbar it generates; the product runs over all subgroups of
Dbar including Dbar itself, which is what makes ftilde vanish on every
cyclic subgroup.

f is *factorisable* when f(H) = prod_{chi trivial on H} g(chi) for some
positive g on the characters.  Under perp, X -> X^perp = common kernel of
X, the subgroups of the character group correspond to those of G,
reversing inclusion, and the characters trivial on H are the elements of
H^perp.  So f is factorisable iff F(X) = f(X^perp) has ftilde = 1 on the
character group.  Perp sends each cyclic X to a K with G/K cyclic and
|X| to [G : K], so the same inversion, read on G's own subgroup lattice
upside down, decides it; the characters are needed only to build
factorisable functions from character data.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod

from .errors import FactoreqError, ValidationError
from .groups import Group
from .intmat import _rational, prime_factorization


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
            val = _rational(val)
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


def _moebius_quotient(f: SubgroupFunction, perp: bool) -> tuple:
    """f' as a dict on the cyclic subgroups, and (H, ftilde(H)) for every H
    as a generator, so that a decision can stop at the first value not 1.

    With ``perp`` the lattice is read as the character group's through
    X -> X^perp: inclusion is reversed, X^perp has order [G : X], and
    "C cyclic" means that G/C is.
    """
    group, subs = f.group, f.group.all_subgroups()
    if perp:
        below, size = (lambda a, b: a >= b), (lambda s: group.order // len(s))
        cyclic = [c for c in subs if _cyclic_quotient(group, c)]
    else:
        below, size = (lambda a, b: a <= b), len
        cyclic = [c for c in subs
                  if any(group.element_orders[x] == len(c) for x in c)]
    fprime = {c: prod(f.values[b] ** _mobius(size(c) // size(b))
                      for b in subs if below(b, c)) for c in cyclic}
    return fprime, ((h, prod(v for c, v in fprime.items() if below(c, h))
                     / f.values[h]) for h in subs)


def division_transform(f: SubgroupFunction, division: Division) -> Fraction:
    """f'(D): Moebius-weighted product of f over the subgroups of Dbar."""
    fprime = _moebius_quotient(f, False)[0]
    if division.generated_subgroup not in fprime:
        raise ValidationError("not a division of this group")
    return fprime[division.generated_subgroup]


def factorisable_quotient(f: SubgroupFunction) -> SubgroupFunction:
    """ftilde: the product of f' over contained divisions, divided by f."""
    return SubgroupFunction(f.group, _moebius_quotient(f, False)[1])


def is_factorisable_abelian(f: SubgroupFunction) -> bool:
    """Decide factorisability: does character data g with
    f(H) = prod_{chi trivial on H} g(chi) exist?

    The division test answers this on the character group, for
    F(X) = f(X^perp).  Perp reverses inclusion, sends each cyclic X to a K
    with G/K cyclic and |X|/|C| to [C^perp : K], so the test reads on G:
    with phi(K) = prod_{K' >= K} f(K')^{mu([K' : K])} for each K with G/K
    cyclic, f is factorisable iff prod_{K >= H, G/K cyclic} phi(K) = f(H)
    for every subgroup H.  No dual group or character is built.  Running
    the division test on G itself instead would reject genuinely
    factorisable functions (already on the Klein four-group).
    """
    return all(v == 1 for _, v in _moebius_quotient(f, True)[1])


def _cyclic_quotient(group: Group, sub) -> bool:
    """Is G/sub cyclic?  G is abelian, so G/sub has the lcm of its
    generators' orders as exponent, and is cyclic iff that is [G : sub]."""
    exponent = 1
    for g in group.generators:
        n, x = 1, g
        while x not in sub:
            x = group.mul[x][g]
            n += 1
        exponent = lcm(exponent, n)
    return exponent * len(sub) == group.order


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

    def extend(assignment):  # the character with these generator values
        values = [None] * n
        values[0], queue = 0, [0]
        for x in queue:  # breadth first from the identity, x -> g x
            for g, a in zip(gens, assignment):
                y, val = group.mul[g][x], (a + values[x]) % m
                if values[y] is None:
                    values[y] = val
                    queue.append(y)
                elif values[y] != val:
                    return None
        return tuple(values)

    found = set(map(extend, product(*(
        range(0, m, m // group.element_orders[g]) for g in gens)))) - {None}
    out = tuple(sorted(found))
    if len(out) != n:
        raise FactoreqError(f"found {len(out)} characters of {group.name}; "
                            f"an abelian group has exactly {n}")
    return out


def character_kernel(group: Group, character) -> frozenset:
    """The subgroup where the character vanishes."""
    return frozenset(x for x, v in enumerate(character) if v == 0)


def function_from_character_data(group: Group, g_values) -> SubgroupFunction:
    """f(H) = product of g(chi) over the characters trivial on H.

    ``g_values`` is a sequence of positive rationals aligned with
    ``abelian_characters(group)``.  Functions of this shape are exactly the
    factorisable ones.
    """
    chars = abelian_characters(group)
    vals = [_rational(v) for v in g_values]
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
