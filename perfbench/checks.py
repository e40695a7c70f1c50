"""Independent checks of factoreq's ``--json`` outputs.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.  Expected values come from closed forms and
from the benchmark's own group model (``oracle.py``), never from a stored
copy of an earlier output.
"""

import json
from fractions import Fraction

import oracle
from oracle import label_order


def parse_rational(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _relation(entries):
    return [(entry["class"], entry["coeff"]) for entry in entries]


def _load(code, out, want_codes=(0,)):
    if code not in want_codes:
        raise CheckFailed(f"exit code {code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc.msg}")


class CheckFailed(Exception):
    pass


def _require(condition, reason):
    if not condition:
        raise CheckFailed(reason)


def _checked(fn):
    def run(*args):
        try:
            fn(*args)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None
    return run


def artin_rank(model):
    """Rank of the relation lattice: #classes - #cyclic classes (Artin)."""
    classes = model.classes()
    return len(classes) - sum(1 for cls in classes if cls["cyclic"])


def _relations_are_basis(model, relations, what):
    """Artin's rank, cancellation of each relation, and row HNF."""
    _require(len(relations) == artin_rank(model),
             f"{what}: {len(relations)} relations, Artin rank is "
             f"{artin_rank(model)}")
    _relations_cancel(model, relations, what)
    labels = [cls["label"] for cls in model.classes()]
    _require(oracle.is_row_hnf(relations, labels),
             f"{what}: basis is not in row Hermite normal form")


def _relations_cancel(model, relations, what):
    for index, rel in enumerate(relations):
        _require(model.cancels(rel),
                 f"{what}: relation [{index}] does not cancel")


# -- span ---------------------------------------------------------------------


@_checked
def check_group(model, spec, code, out):
    data = _load(code, out)
    _require(data["order"] == model.order, "group order")
    mine = [{key: cls[key] for key in ("label", "order", "size", "cyclic",
                                       "normal")} for cls in model.classes()]
    _require(data["classes"] == mine, "subgroup classes differ from the model")
    known = oracle.closed_form_class_count(spec)
    _require(known is None or len(data["classes"]) == known,
             f"{len(data['classes'])} subgroup classes, closed form {known}")


@_checked
def check_relations(model, code, out):
    data = _load(code, out)
    relations = [_relation(rel) for rel in data["relations"]]
    _require(data["rank"] == len(relations), "rank field")
    _relations_are_basis(model, relations, "relations")


@_checked
def check_bouc(model, p, code, out):
    data = _load(code, out)
    _require(data["p"] == p, "prime")
    generators = [_relation(rel) for rel in data["relations"]]
    _require(data["count"] == len(generators), "count field")
    _relations_cancel(model, generators, "bouc")
    _require(data.get("spans_full_lattice") is True,
             "Bouc generators do not span the relation lattice")


# -- regconst -----------------------------------------------------------------


def parse_expr(text):
    """Lattice expression to nested tuples: (atom,), ("Coset", label),
    ("Sum", parts) and ("Pow", node, m)."""
    pos = 0

    def name():
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "#"):
            pos += 1
        return text[start:pos]

    def expr():
        nonlocal pos
        head = name()
        if head in ("Sum", "Coset"):
            assert text[pos] == "("
            pos += 1
            if head == "Coset":
                node = ("Coset", name())
            else:
                parts = [expr()]
                while text[pos] == ",":
                    pos += 1
                    parts.append(expr())
                node = ("Sum", parts)
            assert text[pos] == ")"
            pos += 1
        else:
            node = (head,)
        while pos < len(text) and text[pos] == "^":
            pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            node = ("Pow", node, int(text[start:pos]))
        return node

    tree = expr()
    assert pos == len(text), f"trailing input in {text!r}"
    return tree


def expected_rank(model, tree):
    kind = tree[0]
    if kind in ("A", "I"):
        return model.order - 1
    if kind == "Z":
        return 1
    if kind == "Reg":
        return model.order
    if kind == "Coset":
        return model.order // model.class_by_label(tree[1])["order"]
    if kind == "Sum":
        return sum(expected_rank(model, part) for part in tree[1])
    return expected_rank(model, tree[1]) * tree[2]


def expected_constant(model, tree, relation):
    """C_Theta by closed forms and multiplicativity.

    C(A) = prod |H|^n, C(I) = C(Z) = prod |H|^-n, C(Reg) = 1 = C(Coset(C))
    for cyclic C, C(M^m) = C(M)^m, C(Sum(M, N)) = C(M) C(N).
    """
    kind = tree[0]
    orders = Fraction(1)
    for label, coeff in relation:
        orders *= Fraction(label_order(label)) ** coeff
    if kind == "A":
        return orders
    if kind in ("I", "Z"):
        return 1 / orders
    if kind == "Reg":
        return Fraction(1)
    if kind == "Coset":
        if not model.class_by_label(tree[1])["cyclic"]:
            raise ValueError(f"no closed form for Coset({tree[1]})")
        return Fraction(1)
    if kind == "Sum":
        out = Fraction(1)
        for part in tree[1]:
            out *= expected_constant(model, part, relation)
        return out
    return expected_constant(model, tree[1], relation) ** tree[2]


def fixed_dimension(model, tree, label):
    """dim M^H = (1/|H|) sum_{h in H} chi_M(h), with chi from the model."""
    sub = model.class_by_label(label)["rep"]
    regular = model.perm_char("o1#0")

    def char(node, h):
        kind = node[0]
        if kind in ("A", "I"):
            return regular[h] - 1
        if kind == "Z":
            return 1
        if kind == "Reg":
            return regular[h]
        if kind == "Coset":
            return model.perm_char(node[1])[h]
        if kind == "Sum":
            return sum(char(part, h) for part in node[1])
        return char(node[1], h) * node[2]

    total = sum(char(tree, h) for h in sub)
    assert total % len(sub) == 0
    return total // len(sub)


@_checked
def check_regconst(model, expr, code, out):
    data = _load(code, out)
    tree = parse_expr(expr)
    _require(data["rank"] == expected_rank(model, tree), "lattice rank")
    relations = [_relation(item["relation"]) for item in data["results"]]
    _relations_are_basis(model, relations, "regconst")
    for index, (item, rel) in enumerate(zip(data["results"], relations)):
        value = parse_rational(item["value"])
        factors = {int(p): e for p, e in item["valuations"].items()}
        _require(all(oracle.is_prime(p) and e for p, e in factors.items()),
                 f"[{index}] valuations name a non-prime or a zero exponent")
        _require(oracle.prime_power_product(factors) == value,
                 f"[{index}] valuations do not reassemble the value")
        want = expected_constant(model, tree, rel)
        _require(value == want, f"[{index}] C = {value}, expected {want}")


@_checked
def check_index(model, expr, scale, code, out):
    data = _load(code, out)
    tree = parse_expr(expr)
    _require(data["overall"] is True, "index identity reported false")
    relations = [_relation(item["relation"]) for item in data["results"]]
    _relations_are_basis(model, relations, "index-check")
    for index, (item, rel) in enumerate(zip(data["results"], relations)):
        _require(item["passed"] is True, f"[{index}] not passed")
        want = {label: scale ** fixed_dimension(model, tree, label)
                for label, _ in rel}
        _require(item["indices"] == want,
                 f"[{index}] indices {item['indices']}, expected {want}")


# -- profiles -----------------------------------------------------------------


def _lam(entry, label):
    return 1 if label_order(label) == 1 else entry["lambda"]


def global_residual(profile, relation):
    """prod (|H| h lambda / w)^n."""
    out = Fraction(1)
    for label, coeff in relation:
        entry = profile[label]
        base = Fraction(label_order(label) * entry["h"] * _lam(entry, label),
                        entry["w"])
        out *= base ** coeff
    return out


def bk_residual(profile, relation):
    """prod (h R / w)^n."""
    out = Fraction(1)
    for label, coeff in relation:
        entry = profile[label]
        out *= (entry["h"] * parse_rational(entry["R"])
                / entry["w"]) ** coeff
    return out


def bouc_residual(profile, relation):
    """prod (h_p |H|)^n."""
    out = Fraction(1)
    for label, coeff in relation:
        out *= Fraction(profile[label]["h_p"] * label_order(label)) ** coeff
    return out


def p_part_residual(profile, relation, p, candidate):
    """p^(v_p(C(E)) - v_p(C(candidate))), with C(E) from R and lambda.

    C(E) = prod |H|^-n (R / lambda)^2n; C(A) = prod |H|^n, and the tower
    A + I + Z + Reg^m has C = C(Z) = prod |H|^-n.
    """
    v_units = v_cand = 0
    for label, coeff in relation:
        entry = profile[label]
        v_h = oracle.v_p(label_order(label), p)
        v_units += coeff * (-v_h - 2 * oracle.v_p(_lam(entry, label), p)
                            + 2 * oracle.v_p(parse_rational(entry["R"]), p))
        v_cand += coeff * v_h
    if candidate.startswith("tower:"):
        v_cand = -v_cand
    return Fraction(p) ** (v_units - v_cand)


@_checked
def check_verdict(model, profile, recompute, expected, basis, code, out):
    """A verdict command: every residual recomputed and as constructed.

    ``profile`` maps labels to the class entries the benchmark wrote,
    ``recompute(profile, relation)`` gives a residual from them, and
    ``expected(relation)`` the residual the construction guarantees.
    ``basis`` says whether the relations must be the canonical basis
    (check-units, bk-check) or the classical generators (bouc --check).
    """
    data = _load(code, out, (0, 1))
    relations = [_relation(item["relation"]) for item in data["results"]]
    if basis:
        _relations_are_basis(model, relations, "verdict")
    else:
        _relations_cancel(model, relations, "verdict")
    for index, (item, rel) in enumerate(zip(data["results"], relations)):
        printed = parse_rational(item["residual"])
        mine = recompute(profile, rel)
        _require(printed == mine,
                 f"[{index}] residual {printed}, recomputed {mine}")
        _require(mine == expected(rel),
                 f"[{index}] residual {mine}, constructed {expected(rel)}")
        _require(item["passed"] is (mine == 1), f"[{index}] passed flag")
    overall = all(item["passed"] for item in data["results"])
    _require(data["overall"] is overall, "overall flag")
    _require(code == (0 if overall else 1),
             f"exit code {code} for overall {overall}")


@_checked
def check_factorizable(model, values, factorisable, code, out):
    data = _load(code, out, (0, 1))
    _require(data["factorisable"] is factorisable,
             f"factorisable {data['factorisable']}, expected {factorisable}")
    _require(code == (0 if factorisable else 1), f"exit code {code}")
    echoed = {item["class"]: parse_rational(item["f"])
              for item in data["classes"]}
    _require(echoed == {label: parse_rational(str(v))
                        for label, v in values.items()},
             "f column differs from the values written")
