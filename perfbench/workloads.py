"""The three workloads: fixed command lists plus seeded profile inputs.

A workload is a list of ``Command``s, each an argv for ``factoreq.cli.run``
and a check of its exit code and ``--json`` output.  ``span`` and
``regconst`` run fixed commands (the seed only orders them); ``profiles``
writes profile and value files generated from the seed.
"""

import json
import os
import random
from collections import namedtuple
from fractions import Fraction
from functools import partial

import checks
import oracle

Command = namedtuple("Command", "argv check")

S4 = "perm:[(0,1,2,3),(0,1)]"
S5 = "perm:[(0,1,2,3,4),(0,1)]"

# (spec, prime for the Bouc span check or None).  Orders 8 to 128.  (2^5)
# gets no bouc command: its span check alone runs for about a minute and
# listing its generators for 4 s, so a run would hold a single pass.
SPAN_CENSUS = [
    ("elemab:2,5", None), ("elemab:2,4", 2), ("elemab:3,3", 3),
    ("elemab:5,2", 5), ("heisenberg:3", 3), ("heisenberg:5", 5),
    ("dihedral:8", 2), ("dihedral:16", 2), ("dihedral:64", 2),
    ("quaternion8", 2), ("product:dihedral:8;elemab:2,2", 2),
    ("product:quaternion8;cyclic:2", 2), ("product:cyclic:4;cyclic:4", 2),
    ("product:cyclic:9;cyclic:3", 3), ("cyclic:64", 2),
    ("cyclic:12", None), ("dihedral:12", None), ("dihedral:24", None),
    (S4, None), (S5, None),
]

# (spec, lattice expression) for regconst; ranks 62 to 127.  Heis(5) A
# (rank 124, about 4.5 s) is left out: with it a pass outgrows a third of a
# run, and a run that holds one or two passes gives its slowest command too
# few samples to be steady.  D64 A (rank 63) has the same shape.
REGCONST_LATTICES = [
    ("dihedral:64", "A"), (S4, "Sum(A,Reg^2)"), ("elemab:2,2", "Z^100"),
    ("dihedral:32", "Sum(A,I,Z,Reg^2)"), ("elemab:2,4", "Sum(A,I,Reg^2)"),
    ("heisenberg:3", "Coset(o3#1)^8"), ("dihedral:16", "Reg^4"),
]
# (spec, lattice expression, scale) for index-check.
INDEX_CHECKS = [("heisenberg:3", "Sum(A,I)", 3)]

# (spec, prime for a p-group or None), all of order <= 32.
PROFILE_GROUPS = [
    ("cyclic:8", 2), ("cyclic:9", 3), ("elemab:2,2", 2), ("elemab:2,3", 2),
    ("elemab:3,2", 3), ("dihedral:8", 2), ("quaternion8", 2),
    ("product:cyclic:2;cyclic:4", 2), ("elemab:2,4", 2), ("elemab:3,3", 3),
    ("elemab:5,2", 5), ("dihedral:16", 2), ("heisenberg:3", 3),
    ("product:cyclic:4;cyclic:4", 2), ("product:dihedral:8;cyclic:2", 2),
    ("product:quaternion8;cyclic:2", 2), ("dihedral:32", 2),
    ("cyclic:12", None), ("dihedral:12", None), ("dihedral:20", None),
    ("product:elemab:2,2;cyclic:3", None), (S4, None), ("cyclic:30", None),
]
PROFILE_VARIANTS = 2          # independent profile sets per group and pass
P_PART_MAX_ORDER = 9          # --p-part runs on groups of order <= 9
PERTURB_PRIMES = (2, 3, 5, 7, 11, 13)


def specs(workload):
    """Every group spec a workload touches, for the oracle to model."""
    if workload == "span":
        return [spec for spec, _ in SPAN_CENSUS]
    if workload == "regconst":
        return [spec for spec, _ in REGCONST_LATTICES] + [
            spec for spec, _, _ in INDEX_CHECKS]
    return [spec for spec, _ in PROFILE_GROUPS]


def build(workload, seed, workdir):
    rng = random.Random(f"{workload}:{seed}")
    commands = {"span": _span, "regconst": _regconst,
                "profiles": _profiles}[workload](rng, workdir)
    if workload != "profiles":
        rng.shuffle(commands)
    return commands


def _span(rng, workdir):
    out = []
    for spec, p in SPAN_CENSUS:
        model = oracle.model(spec)
        out.append(Command(["group", spec, "--json"],
                           partial(checks.check_group, model, spec)))
        out.append(Command(["relations", spec, "--json"],
                           partial(checks.check_relations, model)))
        if p is not None:
            out.append(Command(["bouc", spec, "--verify-span", "--json"],
                               partial(checks.check_bouc, model, p)))
    return out


def _regconst(rng, workdir):
    out = []
    for spec, expr in REGCONST_LATTICES:
        out.append(Command(["regconst", spec, expr, "--json"],
                           partial(checks.check_regconst, oracle.model(spec),
                                   expr)))
    for spec, expr, scale in INDEX_CHECKS:
        out.append(Command(
            ["index-check", spec, expr, "--scale", str(scale), "--json"],
            partial(checks.check_index, oracle.model(spec), expr, scale)))
    return out


# -- profiles -------------------------------------------------------------------


def _char_form(model, rng, choices):
    """H -> prod_c a_c^chi_{G/H}(c) for random a_c, one per element class.

    Any such function cancels on every relation, since the permutation
    characters of a relation sum to zero on each element class.
    """
    values = {c: rng.choice(choices) for c in model.element_classes()}

    def at(label):
        chi = model.perm_char(label)
        out = 1
        for c, a in values.items():
            out *= Fraction(a) ** chi[c]
        return out
    return at


def _frs(value):
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _consistent_profile(model, p, rng, tower):
    """Class entries passing every check: global, bk, bouc and p-part.

    With T and S of character form, w = 2|H|lambda and h = 2T give
    |H| h lambda / w = T; R = |H| lambda S gives h R / w = T S and makes
    v_p(C(E)) match C(A); R = lambda S matches the tower instead.  h_p is
    p^(sum e_c chi(c) - log_p |H|), non-negative because e at the identity
    is at least log_p |G|.
    """
    t = _char_form(model, rng, (1, 1, 2, 3, 5))
    s = _char_form(model, rng, (1, Fraction(2, 3), 5, Fraction(1, 7), 3))
    log_g = oracle.v_p(model.order, p) if p else 0
    exps = {c: rng.randint(0, 2) for c in model.element_classes()}
    exps[0] += log_g
    entries = {}
    for cls in model.classes():
        label, order = cls["label"], cls["order"]
        lam = 1 if order == 1 else rng.randint(1, 2)
        entry = {"label": label, "h": int(2 * t(label)),
                 "w": 2 * order * lam, "lambda": lam,
                 "R": _frs((1 if tower else order) * lam * s(label))}
        if p:
            chi = model.perm_char(label)
            entry["h_p"] = p ** (sum(e * chi[c] for c, e in exps.items())
                                 - oracle.v_p(order, p))
        entries[label] = entry
    return entries


def _perturb_label(model, rng):
    """A non-cyclic class (each lies in some basis relation), if any."""
    noncyclic = [cls["label"] for cls in model.classes() if not cls["cyclic"]]
    return rng.choice(noncyclic or [model.classes()[-1]["label"]])


def _write(workdir, name, spec, p, entries):
    data = {"group": spec, "classes": list(entries.values())}
    if p:
        data["p"] = p
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
    return path


def _coeff(relation, label):
    return sum(coeff for lab, coeff in relation if lab == label)


def _verdict(argv, model, entries, recompute, expected, basis=True):
    return Command(argv, partial(checks.check_verdict, model, entries,
                                 recompute, expected, basis))


def _one(relation):
    return Fraction(1)


def _perturbed(entries, label, field, factor):
    """A copy with one field of one class multiplied by a prime."""
    out = {lab: dict(entry) for lab, entry in entries.items()}
    value = out[label][field]
    out[label][field] = (_frs(checks.parse_rational(value) * factor)
                         if field == "R" else value * factor)
    return out


def _one_profile_set(spec, p, rng, workdir, tag):
    """Consistent and perturbed profiles for one group, with the commands
    that read them.  Each perturbation multiplies one field of one class
    by a prime and is read by the one check that uses that field."""
    model = oracle.model(spec)
    stem = f"{tag}-{spec.replace(':', '_').replace(';', '+')}"
    for ch in "[](),":
        stem = stem.replace(ch, "")
    label = _perturb_label(model, rng)
    q = rng.choice(PERTURB_PRIMES)
    good = _consistent_profile(model, p, rng, tower=False)
    good_path = _write(workdir, f"{stem}-good.json", spec, p, good)
    out = [_verdict(["check-units", good_path, "--json"], model, good,
                    checks.global_residual, _one),
           _verdict(["bk-check", good_path, "--json"], model, good,
                    checks.bk_residual, _one)]
    bad = _perturbed(good, label, "h", q)
    path = _write(workdir, f"{stem}-bad-h.json", spec, p, bad)
    out.append(_verdict(["check-units", path, "--json"], model, bad,
                        checks.global_residual,
                        lambda rel: Fraction(q) ** _coeff(rel, label)))
    bad = _perturbed(good, label, "w", q)
    path = _write(workdir, f"{stem}-bad-w.json", spec, p, bad)
    out.append(_verdict(["bk-check", path, "--json"], model, bad,
                        checks.bk_residual,
                        lambda rel: Fraction(q) ** -_coeff(rel, label)))
    if p:
        out.append(_verdict(["bouc", "--check", good_path, "--json"], model,
                            good, checks.bouc_residual, _one, basis=False))
        bad = _perturbed(good, label, "h_p", p)
        path = _write(workdir, f"{stem}-bad-hp.json", spec, p, bad)
        out.append(_verdict(["bouc", "--check", path, "--json"], model, bad,
                            checks.bouc_residual,
                            lambda rel: Fraction(p) ** _coeff(rel, label),
                            basis=False))
    if p and model.order <= P_PART_MAX_ORDER:
        out.extend(_p_part(model, spec, p, rng, workdir, stem, good, label))
    if model.is_abelian():
        out.extend(_factorizable(model, spec, rng, workdir, stem))
    return out


def _p_part(model, spec, p, rng, workdir, stem, good, label):
    """--p-part against A (on the consistent profile) and against tower:1
    (on one with R = lambda S); R times p moves v_p(C(E)) by 2 n_H."""
    out = []
    tower = _consistent_profile(model, p, rng, tower=True)
    for candidate, entries in (("A", good), ("tower:1", tower)):
        def recompute(profile, rel, candidate=candidate):
            return checks.p_part_residual(profile, rel, p, candidate)
        name = candidate.replace(":", "")
        argv = ["--p-part", "--candidate", candidate, "--json"]
        path = _write(workdir, f"{stem}-ppart-{name}.json", spec, p, entries)
        out.append(_verdict(["check-units", path] + argv, model, entries,
                            recompute, _one))
        bad = _perturbed(entries, label, "R", p)
        path = _write(workdir, f"{stem}-ppart-{name}-bad.json", spec, p, bad)
        out.append(_verdict(["check-units", path] + argv, model, bad,
                            recompute,
                            lambda rel: Fraction(p) ** (2 * _coeff(rel, label))))
    return out


def _factorizable(model, spec, rng, workdir, stem):
    """a * b^[G:H] is factorisable; |H| on (Z/p)^k, k >= 2, is not."""
    a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    tables = [({cls["label"]: _frs(a * b ** (model.order // cls["order"]))
                for cls in model.classes()}, True)]
    if spec.startswith("elemab:"):
        tables.append(({cls["label"]: cls["order"] for cls in model.classes()},
                       False))
    out = []
    for index, (values, verdict) in enumerate(tables):
        path = os.path.join(workdir, f"{stem}-values{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(values, handle, indent=1)
        out.append(Command(["factorizable", spec, path, "--json"],
                           partial(checks.check_factorizable, model, values,
                                   verdict)))
    return out


def _profiles(rng, workdir):
    out = []
    for variant in range(PROFILE_VARIANTS):
        for spec, p in PROFILE_GROUPS:
            out.extend(_one_profile_set(spec, p, rng, workdir, f"v{variant}"))
    return out
