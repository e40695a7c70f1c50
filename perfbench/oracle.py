"""An independent model of the groups the benchmark feeds to factoreq.

The checks in ``checks.py`` need subgroup classes, their labels and
permutation characters without asking factoreq for them.  This module
builds them from scratch: it parses the group mini-language itself,
closes the generators breadth-first from the identity (the documented
construction factoreq uses, which fixes element indices and hence the
``o<order>#<k>`` labels), enumerates subgroups by adjoining one element
at a time, and counts fixed cosets directly.  It imports nothing from
factoreq.
"""

from fractions import Fraction


class Model:
    """A finite group as a multiplication table with its subgroup classes."""

    def __init__(self, mul, gens):
        self.mul = mul
        self.order = len(mul)
        self.gens = tuple(gens)
        self.inv = tuple(row.index(0) for row in mul)
        self._classes = None
        self._element_classes = None
        self._chars = {}

    # -- subgroups ----------------------------------------------------------

    def closure(self, gens):
        elems = [0]
        seen = {0}
        for cur in elems:
            for g in gens:
                nxt = self.mul[cur][g]
                if nxt not in seen:
                    seen.add(nxt)
                    elems.append(nxt)
        return frozenset(seen)

    def subgroups(self):
        """Every subgroup, by adjoining single elements to known subgroups.

        Elements generating the same cyclic subgroup give the same join, so
        one element per cyclic subgroup is tried.
        """
        cyclic_of = [self.closure([x]) for x in range(self.order)]
        adjoin = {}
        for x in range(self.order):
            adjoin.setdefault(cyclic_of[x], x)
        adjoin = sorted(adjoin.values())
        trivial = frozenset([0])
        gens_of = {trivial: ()}
        queue = [trivial]
        for sub in queue:
            for x in adjoin:
                if x in sub:
                    continue
                gens = gens_of[sub] + (x,)
                bigger = self.closure(gens)
                if bigger not in gens_of:
                    gens_of[bigger] = gens
                    queue.append(bigger)
        return sorted(gens_of, key=lambda s: (len(s), sorted(s)))

    def conjugate(self, g, sub):
        mul, gi = self.mul, self.inv[g]
        return frozenset(mul[mul[g][x]][gi] for x in sub)

    def classes(self):
        """Subgroup classes in canonical order, as dicts with their labels."""
        if self._classes is None:
            assigned = set()
            per_order = {}
            out = []
            for sub in self.subgroups():
                if sub in assigned:
                    continue
                orbit = {self.conjugate(g, sub) for g in range(self.order)}
                assigned |= orbit
                k = per_order.get(len(sub), 0)
                per_order[len(sub)] = k + 1
                out.append({
                    "label": f"o{len(sub)}#{k}",
                    "order": len(sub),
                    "size": len(orbit),
                    "cyclic": any(len(self.closure([x])) == len(sub)
                                  for x in sub),
                    "normal": len(orbit) == 1,
                    "rep": sub,
                })
            self._classes = out
        return self._classes

    def class_by_label(self, label):
        for cls in self.classes():
            if cls["label"] == label:
                return cls
        raise KeyError(label)

    def is_abelian(self):
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(self.order) for b in range(a))

    # -- characters ---------------------------------------------------------

    def element_classes(self):
        if self._element_classes is None:
            seen, out = set(), []
            mul, inv = self.mul, self.inv
            for x in range(self.order):
                if x not in seen:
                    orbit = {mul[mul[g][x]][inv[g]] for g in range(self.order)}
                    seen |= orbit
                    out.append(min(orbit))
            self._element_classes = tuple(out)
        return self._element_classes

    def perm_char(self, label):
        """Fixed left cosets of H for each element: gxH = xH."""
        if label not in self._chars:
            sub = self.class_by_label(label)["rep"]
            cosets, covered = [], set()
            for x in range(self.order):
                if x not in covered:
                    coset = frozenset(self.mul[x][h] for h in sub)
                    covered |= coset
                    cosets.append((x, coset))
            self._chars[label] = tuple(
                sum(1 for x, coset in cosets if self.mul[g][x] in coset)
                for g in range(self.order))
        return self._chars[label]

    def cancels(self, relation):
        """Does sum n_H chi_{G/H} vanish on every element?"""
        total = [0] * self.order
        for label, coeff in relation:
            for g, value in enumerate(self.perm_char(label)):
                total[g] += coeff * value
        return not any(total)


# -- construction, mirroring the documented breadth-first closure ------------


def _close(identity, gens, mul_fn):
    index = {identity: 0}
    items = [identity]
    for cur in items:
        for g in gens:
            nxt = mul_fn(cur, g)
            if nxt not in index:
                index[nxt] = len(items)
                items.append(nxt)
    mul = tuple(tuple(index[mul_fn(a, b)] for b in items) for a in items)
    return Model(mul, [index[g] for g in gens])


def _from_perms(perms):
    identity = tuple(range(len(perms[0])))
    return _close(identity, [tuple(p) for p in perms],
                  lambda p, q: tuple(p[x] for x in q))


def _cycle(n, shift_block=0, width=None):
    width = width or n
    perm = list(range(width))
    for i in range(n):
        perm[shift_block + i] = shift_block + (i + 1) % n
    return tuple(perm)


def _split_top(text, sep):
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if ch == sep and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    parts.append(text[start:])
    return parts


def _perm_list(text):
    gens = []
    inner = text.strip()[1:-1]
    for entry in _split_top(inner, ","):
        cycles = [tuple(int(v) for v in c.split(","))
                  for c in entry.strip()[1:-1].split(")(")]
        gens.append(cycles)
    size = max(pt for cycles in gens for c in cycles for pt in c) + 1
    perms = []
    for cycles in gens:
        image = list(range(size))
        for c in cycles:
            for i, pt in enumerate(c):
                image[pt] = c[(i + 1) % len(c)]
        perms.append(tuple(image))
    return perms


def build(spec):
    """A Model for a spec of the kinds the benchmark uses."""
    spec = spec.strip()
    while spec.startswith("(") and spec.endswith(")"):
        spec = spec[1:-1].strip()
    if spec == "quaternion8":
        return _from_perms([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)])
    kind, _, rest = spec.partition(":")
    if kind == "cyclic":
        n = int(rest)
        return _from_perms([(0,)] if n == 1 else [_cycle(n)])
    if kind == "elemab":
        p, k = (int(v) for v in rest.split(","))
        return _from_perms([_cycle(p, j * p, p * k) for j in range(k)])
    if kind == "dihedral":
        k = int(rest) // 2
        if k == 1:
            return _from_perms([(1, 0)])
        if k == 2:
            return _from_perms([(1, 0, 2, 3), (0, 1, 3, 2)])
        return _from_perms([_cycle(k), tuple((k - i) % k for i in range(k))])
    if kind == "heisenberg":
        p = int(rest)

        def mult(u, v):
            return ((u[0] + v[0]) % p, (u[1] + v[1]) % p,
                    (u[2] + v[2] + u[0] * v[1]) % p)
        return _close((0, 0, 0), [(1, 0, 0), (0, 1, 0)], mult)
    if kind == "perm":
        return _from_perms(_perm_list(rest))
    if kind == "product":
        left, right = (build(part) for part in _split_top(rest, ";"))

        def pair(x, y):
            return (left.mul[x[0]][y[0]], right.mul[x[1]][y[1]])
        gens = ([(g, 0) for g in left.gens] + [(0, h) for h in right.gens])
        return _close((0, 0), gens, pair)
    raise ValueError(f"oracle does not model {spec!r}")


_MODELS = {}


def model(spec):
    """Cached Model per spec (the benchmark's own state, not factoreq's)."""
    if spec not in _MODELS:
        _MODELS[spec] = build(spec)
    return _MODELS[spec]


# -- closed forms ----------------------------------------------------------------


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elemab_subgroup_count(p, k):
    """Subgroups of (Z/p)^k: the sum of Gaussian binomials [k, j]_p."""
    return sum(gaussian_binomial(k, j, p) for j in range(k + 1))


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# Published subgroup-class counts of the symmetric groups.
SYMMETRIC_CLASS_COUNTS = {"perm:[(0,1,2,3),(0,1)]": 11,
                          "perm:[(0,1,2,3,4),(0,1)]": 19}


def closed_form_class_count(spec):
    """The known number of subgroup classes, or None without a closed form."""
    kind, _, rest = spec.partition(":")
    if kind == "elemab":
        p, k = (int(v) for v in rest.split(","))
        return elemab_subgroup_count(p, k)
    if kind == "cyclic":
        return divisor_count(int(rest))
    return SYMMETRIC_CLASS_COUNTS.get(spec)


def label_order(label):
    return int(label[1:label.index("#")])


def label_key(label):
    """Canonical class order: by subgroup order, then index within order."""
    order, _, k = label[1:].partition("#")
    return (int(order), int(k))


def is_row_hnf(rows, labels):
    """Rows over the canonical class order in row Hermite normal form."""
    position = {lab: i for i, lab in enumerate(sorted(labels, key=label_key))}
    last = -1
    vectors = []
    for row in rows:
        vec = [0] * len(position)
        for label, coeff in row:
            vec[position[label]] = coeff
        vectors.append(vec)
    for r, vec in enumerate(vectors):
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is None or lead <= last or vec[lead] <= 0:
            return False
        if any(not 0 <= vectors[above][lead] < vec[lead] for above in range(r)):
            return False
        last = lead
    return True


def prime_power_product(factors):
    """prod p^e for a {p: e} mapping, exactly."""
    out = Fraction(1)
    for p, e in factors.items():
        out *= Fraction(p) ** e
    return out


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def v_p(x, p):
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    out, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        out += 1
    while den % p == 0:
        den //= p
        out -= 1
    return out
