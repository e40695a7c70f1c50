"""Factorisability of functions on the subgroups of an abelian group.

A positive rational function f on the subgroups of a finite abelian group
G is *factorisable* when it is a product of character contributions:
f(H) = prod over characters chi trivial on H of g(chi), for some positive
g.  The testable reformulation works through divisions (equivalence
classes of elements generating the same cyclic subgroup) and an exact
Moebius transform:

    f'(D)     = prod_{C <= <D>} f(C)^{mu(<D> : C)}        per division D,
    f~(H)     = ( prod_{D inside H} f'(D) ) / f(H)        per subgroup H.

f~ is identically 1 on cyclic subgroups no matter what f is.  The
factorisability decision is the same combination for the character group,
read through duality on G's own subgroups: the cyclic subgroups of the
character group become the subgroups K of G with G/K cyclic.

Run:  python demos/03_factorisability.py
"""

from fractions import Fraction

from factoreq import (
    SubgroupFunction,
    abelian_characters,
    cyclic_group,
    divisions,
    elementary_abelian_group,
    factorisable_quotient,
    function_from_character_data,
    is_factorisable_abelian,
)


def frs(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def main():
    print("=" * 72)
    print("Divisions")
    print("=" * 72)
    c12 = cyclic_group(12)
    print(f"\n{c12.name}: one division per divisor of 12, of size phi(d):")
    for div in divisions(c12):
        print(f"  order {div.order:>2}: elements {sorted(div.members)}")

    print("\n" + "=" * 72)
    print("The order function on the Klein four-group is not factorisable")
    print("=" * 72)
    v4 = elementary_abelian_group(2, 2)
    order_fn = SubgroupFunction.from_callable(v4, lambda sub: len(sub))
    quotient = factorisable_quotient(order_fn)
    print(f"\nf(H) = |H| on {v4.name}:")
    for cls in v4.subgroup_classes():
        rep = cls.representative
        print(f"  {cls.label}: f = {frs(order_fn.value(rep)):>2}   "
              f"f~ = {frs(quotient.value(rep))}")
    print(f"factorisable: {is_factorisable_abelian(order_fn)}")
    print("(f~ = 1 on every cyclic subgroup, but f~(G) = 2: the "
          "obstruction is exactly a factor of 2 on the full group.)")

    print("\n" + "=" * 72)
    print("Functions built from character data are always factorisable")
    print("=" * 72)
    group = cyclic_group(8)
    chars = abelian_characters(group)
    print(f"\n{group.name} has {len(chars)} characters; assign "
          f"g = 1, 2, 3, ... in order:")
    data = tuple(Fraction(k + 1) for k in range(len(chars)))
    fn = function_from_character_data(group, data)
    for cls in group.subgroup_classes():
        print(f"  {cls.label}: f = {frs(fn.value(cls.representative))}")
    print(f"factorisable: {is_factorisable_abelian(fn)}")

    e9 = elementary_abelian_group(3, 2)
    data = tuple(Fraction(2) if k == 1 else Fraction(1)
                 for k in range(len(abelian_characters(e9))))
    fn9 = function_from_character_data(e9, data)
    print(f"\n{e9.name} with g = 2 on one nontrivial character:")
    for cls in e9.subgroup_classes():
        print(f"  {cls.label}: f = {frs(fn9.value(cls.representative))}")
    print(f"factorisable: {is_factorisable_abelian(fn9)}")
    print("""
(The decision dualizes: a function is factorisable exactly when the
Moebius combination vanishes for the induced function on subgroups of the
character group.  Testing the combination on G itself would wrongly
reject examples like this one.)""")


if __name__ == "__main__":
    main()
