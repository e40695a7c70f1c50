"""The benchmark's own checks against values computed by hand.

    python3 -m pytest -q perfbench/tests

V4 = (Z/2)^2 has classes o1#0, o2#0, o2#1, o2#2, o4#0 and the single basis
relation theta = o1#0 - o2#0 - o2#1 - o2#2 + 2*o4#0.  (Z/3)^2 has
theta = o1#0 - o3#0 - o3#1 - o3#2 - o3#3 + 3*o9#0.
"""

import json
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks     # noqa: E402
import oracle     # noqa: E402
import workloads  # noqa: E402

V4 = "elemab:2,2"
THETA_V4 = [("o1#0", 1), ("o2#0", -1), ("o2#1", -1), ("o2#2", -1),
            ("o4#0", 2)]
THETA_9 = [("o1#0", 1), ("o3#0", -1), ("o3#1", -1), ("o3#2", -1),
           ("o3#3", -1), ("o9#0", 3)]


def _rel_json(relation):
    return [{"class": label, "coeff": coeff} for label, coeff in relation]


# -- closed forms and the group model -----------------------------------------


def test_gaussian_binomial_counts():
    assert oracle.gaussian_binomial(4, 2, 2) == 35
    assert oracle.elemab_subgroup_count(2, 2) == 5       # 1 + 3 + 1
    assert oracle.elemab_subgroup_count(2, 3) == 16      # 1 + 7 + 7 + 1
    assert oracle.elemab_subgroup_count(3, 2) == 6       # 1 + 4 + 1
    assert oracle.elemab_subgroup_count(2, 5) == 374     # 1+31+155+155+31+1


def test_closed_form_class_counts():
    assert oracle.closed_form_class_count("cyclic:12") == 6
    assert oracle.closed_form_class_count("elemab:2,4") == 67
    assert oracle.closed_form_class_count(workloads.S4) == 11
    assert oracle.closed_form_class_count(workloads.S5) == 19
    assert oracle.closed_form_class_count("dihedral:8") is None


def test_model_matches_published_counts():
    assert len(oracle.build(workloads.S4).classes()) == 11
    assert len(oracle.build("cyclic:12").classes()) == 6
    assert len(oracle.build("elemab:2,3").classes()) == 16
    assert len(oracle.build("quaternion8").classes()) == 6


def test_artin_rank():
    assert checks.artin_rank(oracle.build(V4)) == 1          # 5 - 4
    # Q8: 1, the centre and three C4 are cyclic; Q8 itself is not
    assert checks.artin_rank(oracle.build("quaternion8")) == 1
    assert checks.artin_rank(oracle.build("cyclic:12")) == 0
    # S4: 11 classes, cyclic ones are 1, <(01)>, <(01)(23)>, C3, C4
    assert checks.artin_rank(oracle.build(workloads.S4)) == 6


def test_permutation_character_of_v4():
    model = oracle.build(V4)
    sub = model.class_by_label("o2#0")["rep"]
    chi = model.perm_char("o2#0")
    assert [chi[g] for g in range(4)] == [2 if g in sub else 0
                                          for g in range(4)]
    assert model.perm_char("o1#0") == (4, 0, 0, 0)
    assert model.perm_char("o4#0") == (1, 1, 1, 1)


def test_relations_cancel():
    assert oracle.build(V4).cancels(THETA_V4)
    assert oracle.build("elemab:3,2").cancels(THETA_9)
    assert not oracle.build(V4).cancels(THETA_V4[:-1] + [("o4#0", 1)])


def test_row_hnf():
    labels = ["o1#0", "o2#0", "o2#1", "o4#0"]
    assert oracle.is_row_hnf([[("o1#0", 1), ("o4#0", -1)],
                              [("o2#0", 2), ("o4#0", 3)]], labels)
    # a negative pivot, a pivot left of the previous one, and an entry
    # above a pivot outside [0, pivot)
    assert not oracle.is_row_hnf([[("o1#0", -1)]], labels)
    assert not oracle.is_row_hnf([[("o2#0", 1)], [("o1#0", 1)]], labels)
    assert not oracle.is_row_hnf([[("o1#0", 1), ("o2#0", 2)],
                                  [("o2#0", 2)]], labels)


def test_valuations():
    assert oracle.v_p(Fraction(12, 5), 2) == 2
    assert oracle.v_p(Fraction(5, 24), 2) == -3
    assert oracle.prime_power_product({3: -2}) == Fraction(1, 9)


# -- regulator constants --------------------------------------------------------


def test_expected_constants():
    model = oracle.build(V4)

    def c(expr):
        return checks.expected_constant(model, checks.parse_expr(expr),
                                        THETA_V4)
    # prod |H|^n = 1 * 2^-3 * 4^2 = 2
    assert c("A") == 2
    assert c("I") == c("Z") == Fraction(1, 2)
    assert c("Reg") == c("Coset(o2#1)") == 1
    assert c("Sum(A,Z)") == 1
    assert c("Z^3") == Fraction(1, 8)
    assert c("Sum(A,A^2,Reg)") == 8
    # (3^2): prod |H|^n = 3^-4 * 9^3 = 9, so C(I) = 1/9
    assert checks.expected_constant(oracle.build("elemab:3,2"),
                                    ("I",), THETA_9) == Fraction(1, 9)


def test_ranks_and_fixed_dimensions():
    model = oracle.build(V4)
    tree = checks.parse_expr("Sum(A,I)")
    assert checks.expected_rank(model, tree) == 6
    assert checks.expected_rank(model, checks.parse_expr("Coset(o2#0)^3")) == 6
    # dim (A + I)^H = 2([G:H] - 1)
    assert checks.fixed_dimension(model, tree, "o1#0") == 6
    assert checks.fixed_dimension(model, tree, "o2#1") == 2
    assert checks.fixed_dimension(model, tree, "o4#0") == 0
    # Z[G/C]^H for H = C has [G:C] fixed cosets
    assert checks.fixed_dimension(model, ("Coset", "o2#0"), "o2#0") == 2


def _regconst_output(value, valuations, rank=3):
    return json.dumps({"command": "regconst", "rank": rank, "results": [{
        "relation_index": 0, "relation": _rel_json(THETA_V4),
        "value": value, "valuations": valuations}]})


def test_check_regconst():
    model = oracle.build(V4)
    assert checks.check_regconst(model, "A", 0,
                                 _regconst_output("2/1", {"2": 1})) is None
    assert "expected 2" in checks.check_regconst(
        model, "A", 0, _regconst_output("4/1", {"2": 2}))
    assert "reassemble" in checks.check_regconst(
        model, "A", 0, _regconst_output("2/1", {"2": 2}))
    assert checks.check_regconst(model, "A", 2, "") == "exit code 2"
    assert checks.check_regconst(
        model, "A", 0, _regconst_output("2/1", {"2": 1}, rank=4)) == \
        "lattice rank"


def test_check_index():
    model = oracle.build(V4)
    good = {"o1#0": 3 ** 6, "o2#0": 9, "o2#1": 9, "o2#2": 9, "o4#0": 1}
    out = json.dumps({"overall": True, "results": [{
        "relation": _rel_json(THETA_V4), "passed": True, "indices": good}]})
    assert checks.check_index(model, "Sum(A,I)", 3, 0, out) is None
    bad = json.loads(out)
    bad["results"][0]["indices"]["o4#0"] = 3
    assert checks.check_index(model, "Sum(A,I)", 3, 0,
                              json.dumps(bad)) is not None


# -- profiles -------------------------------------------------------------------


def _profile(labels, **fields):
    """The same entry on every class, lambda = 1."""
    return {label: {"label": label, "lambda": 1, **fields}
            for label in labels}


def test_global_residual_of_the_readme_example():
    # (3^2) with h = 1, w = 2, lambda = 1 everywhere:
    # (1/2) * (3/2)^-4 * (9/2)^3 = 9
    profile = _profile(["o1#0", "o3#0", "o3#1", "o3#2", "o3#3", "o9#0"],
                       h=1, w=2)
    assert checks.global_residual(profile, THETA_9) == 9


def test_bk_bouc_and_p_part_residuals():
    labels = [label for label, _ in THETA_V4]
    profile = _profile(labels, h=1, w=2, R="1/1", h_p=1)
    # h R / w = 1/2 on every class; exponents sum to 1 - 3 + 2 = 0
    assert checks.bk_residual(profile, THETA_V4) == 1
    # prod (h_p |H|)^n = prod |H|^n = 2
    assert checks.bouc_residual(profile, THETA_V4) == 2
    # v_2(C(E)) = -sum n v(|H|) = -1 and v_2(C(A)) = 1, so 2^-2;
    # the tower has C = C(Z), so the residual is 1
    assert checks.p_part_residual(profile, THETA_V4, 2, "A") == Fraction(1, 4)
    assert checks.p_part_residual(profile, THETA_V4, 2, "tower:1") == 1
    profile["o4#0"]["R"] = "2/1"        # +2 * n * v(R) = +4
    assert checks.p_part_residual(profile, THETA_V4, 2, "A") == 4


def _verdict_output(relation, residual, overall=None):
    overall = residual == "1/1" if overall is None else overall
    return json.dumps({"overall": overall, "results": [{
        "relation": _rel_json(relation), "residual": residual,
        "passed": residual == "1/1"}]})


def test_check_verdict():
    model = oracle.build(V4)
    labels = [label for label, _ in THETA_V4]
    profile = _profile(labels, h=1, w=2, R="1/1")

    def expected(rel):
        return Fraction(1)

    def run(code, residual, overall=None, want=expected):
        return checks.check_verdict(
            model, profile, checks.bk_residual, want, True, code,
            _verdict_output(THETA_V4, residual, overall))
    assert run(0, "1/1") is None
    assert run(1, "1/1") == "exit code 1 for overall True"
    assert "recomputed 1" in run(1, "2/1")
    assert run(0, "1/1", overall=False) == "overall flag"
    assert "constructed 3" in run(0, "1/1", want=lambda rel: Fraction(3))


def test_check_factorizable():
    model = oracle.build(V4)
    values = {"o1#0": 4, "o2#0": 2, "o2#1": 2, "o2#2": 2, "o4#0": 1}
    out = json.dumps({"factorisable": True, "classes": [
        {"class": label, "f": f"{v}/1", "quotient": "1/1"}
        for label, v in values.items()]})
    assert checks.check_factorizable(model, values, True, 0, out) is None
    assert checks.check_factorizable(model, values, False, 0, out) \
        is not None
    assert checks.check_factorizable(model, values, True, 1, out) \
        == "exit code 1"


def test_generated_profiles_are_consistent():
    """Every residual of a generated profile is 1 on a hand relation."""
    rng = random.Random(7)
    for spec, theta in ((V4, THETA_V4), ("elemab:3,2", THETA_9)):
        model = oracle.build(spec)
        p = int(spec.split(":")[1].split(",")[0])
        good = workloads._consistent_profile(model, p, rng, tower=False)
        tower = workloads._consistent_profile(model, p, rng, tower=True)
        assert checks.global_residual(good, theta) == 1
        assert checks.bk_residual(good, theta) == 1
        assert checks.bouc_residual(good, theta) == 1
        assert checks.p_part_residual(good, theta, p, "A") == 1
        assert checks.p_part_residual(tower, theta, p, "tower:1") == 1
        assert all(entry["h_p"] >= 1 for entry in good.values())
