import copy
import pickle

import pytest

from bsgroups.affine import Weight, lcs_weight, to_affine
from bsgroups.britton import BSParams, nf_equal
from bsgroups.errors import DomainError
from bsgroups.witness import (
    comm_depth,
    gamma_membership_witness,
    lemma2_witness,
    omega_stability_check,
)
from bsgroups.words import (
    MAX_NESTING,
    Commutator,
    Gen,
    Power,
    Product,
    decimal,
    evaluate,
    free_group,
    parse_expr,
    parse_word,
    pretty_print,
)

import bsgroups.witness as witness
from bsgroups.classify import classify

from helpers import (
    assert_same_json,
    reference_lemma2_tree,
    reference_member_tree,
    reference_omega_json,
    reference_omega_text,
    reference_omega_tree,
    reference_witness_text,
)

OMEGA_GRID = ((2, 3), (1, 2), (2, 4), (4, 6), (4, 2), (-3, -4), (3, 6))


def test_comm_depth():
    assert comm_depth(Gen("a")) == 0
    assert comm_depth(parse_expr("[a, t]")) == 1
    assert comm_depth(parse_expr("[[a, t]^3, t]")) == 2
    assert comm_depth(Product((Gen("a"), parse_expr("[a, [a, t]]")))) == 2
    assert comm_depth(Power(parse_expr("[a, t]"), 5)) == 1


def test_lemma2_examples():
    w = lemma2_witness(BSParams(2, 3), 1)
    assert pretty_print(w.expr) == "[a^2, t]"
    assert w.target == parse_word("a")
    assert w.depth == 2

    w = lemma2_witness(BSParams(2, 5), 2)
    assert pretty_print(w.expr) == "[[a^2, t]^2, t]"
    assert w.target == parse_word("a^9")
    assert comm_depth(w.expr) == 2 and w.depth == 3

    assert lemma2_witness(BSParams(2, 5), 3).target == parse_word("a^27")
    assert lemma2_witness(BSParams(3, -3), 2).target == parse_word("a^36")

    with pytest.raises(DomainError):
        lemma2_witness(BSParams(2, 5), 0)


def test_lemma2_deep_witness():
    # the free word of W_25 would have about 2^26 letters
    assert lemma2_witness(BSParams(2, 5), 25).target == parse_word(f"a^{3**25}")
    deep = lemma2_witness(BSParams(2, 5), MAX_NESTING).expr
    text = pretty_print(deep)
    assert pretty_print(parse_expr(text)) == text
    # == and hash walk the tree without recursing
    assert parse_expr(text) == deep and hash(parse_expr(text)) == hash(deep)
    # and so does repr, whose text shows the whole tree
    assert repr(parse_expr(text)) == repr(deep)
    assert repr(deep).count("Commutator(left=") == MAX_NESTING
    assert deep != lemma2_witness(BSParams(3, 5), MAX_NESTING).expr
    with pytest.raises(DomainError):
        lemma2_witness(BSParams(2, 5), MAX_NESTING + 1)
    with pytest.raises(DomainError):
        gamma_membership_witness(BSParams(2, 3), parse_word("a"), MAX_NESTING + 2)


def test_deep_witness_survives_deepcopy_and_pickle():
    # a node is its own deep copy, so copying does not recurse per level;
    # pickling recurses in C, a few frames per level, within the default limit
    w = lemma2_witness(BSParams(2, 5), MAX_NESTING)
    for x in (w, w.expr):
        for copied in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(copied) is type(x) and copied == x and repr(copied) == repr(x)
    assert copy.deepcopy(w).expr is w.expr


def test_lemma2_grid():
    for m, n in [(2, 5), (3, 5), (2, -3), (3, 7)]:
        p = BSParams(m, n)
        for i in range(1, 5):
            w = lemma2_witness(p, i)
            assert w.target == parse_word(f"a^{(n - m) ** i}")
            assert comm_depth(w.expr) == i
            assert w.depth == i + 1


def test_lemma2_inner_power_must_be_m():
    # replacing the inner m-th power by an n-th power breaks the identity
    p = BSParams(2, 5)
    wrong = Commutator(Power(Commutator(Power(Gen("a"), 2), Gen("t")), 5), Gen("t"))
    F = free_group(64)
    assert not nf_equal(p, evaluate(F, wrong)[0], parse_word("a^9"))
    right = lemma2_witness(p, 2).expr
    assert nf_equal(p, evaluate(F, right)[0], parse_word("a^9"))


def test_lemma2_agrees_with_affine_weight():
    for i in range(1, 5):
        w = lemma2_witness(BSParams(1, 3), i)
        assert lcs_weight(3, to_affine(3, w.target)) == Weight.finite(i + 1)


def test_membership_witness_examples():
    w = gamma_membership_witness(BSParams(2, 3), parse_word("a"), 3)
    assert pretty_print(w.expr) == "[[a^2, t]^2, t]"
    assert w.depth == 3

    w = gamma_membership_witness(BSParams(1, 2), parse_word("a"), 4)
    assert comm_depth(w.expr) == 3

    w = gamma_membership_witness(BSParams(2, 4), parse_word("a^2"), 2)
    assert pretty_print(w.expr) == "[a^2, t]"

    d = w.to_json_dict()
    assert d == {"expr": "[a^2, t]", "target": "a^2", "depth": 2, "verified": True}

    # the target is compared with a^d in the group and kept as given:
    # [a^3, t] = a in BS(3, 4), and t a^4 T = a^2 in BS(2, 4)
    w = gamma_membership_witness(BSParams(3, 4), parse_word("[a^3, t]"), 2)
    assert str(w) == "[a^3, t] = a^-3 t^-1 a^3 t in BS(3,4); value lies in gamma_2 (verified)"
    w = gamma_membership_witness(BSParams(2, 4), parse_word("t a^4 T"), 3)
    assert w.target == parse_word("t a^4 T") and w.depth == 3


def test_membership_witness_depth_scales():
    p = BSParams(3, 4)
    for s in range(2, 7):
        w = gamma_membership_witness(p, parse_word("a"), s)
        assert comm_depth(w.expr) == s - 1
        assert nf_equal(p, evaluate(free_group(64), w.expr)[0], parse_word("a"))


def test_membership_witness_preconditions():
    with pytest.raises(DomainError):
        gamma_membership_witness(BSParams(2, 3), parse_word("a"), 1)
    with pytest.raises(DomainError):
        gamma_membership_witness(BSParams(2, 5), parse_word("a"), 3)
    with pytest.raises(DomainError, match=r"^unsupported target a\^3; expected a\^2$"):
        gamma_membership_witness(BSParams(2, 4), parse_word("a^3"), 3)
    with pytest.raises(DomainError, match=r"^unsupported target a\^2; expected a$"):
        gamma_membership_witness(BSParams(3, 4), parse_word("a^2"), 2)
    with pytest.raises(DomainError):
        gamma_membership_witness(BSParams(-2, -1), parse_word("a"), 2)


def test_omega_stability():
    rep = omega_stability_check(BSParams(2, 3))
    assert rep.verified and (rep.d, rep.k) == (1, 2)

    rep = omega_stability_check(BSParams(1, 2))
    assert rep.verified and (rep.d, rep.k) == (1, 1)

    rep = omega_stability_check(BSParams(2, 4))
    assert rep.verified and (rep.d, rep.k) == (2, 1)

    rep = omega_stability_check(BSParams(4, 6))
    assert rep.verified and (rep.d, rep.k) == (2, 2)

    # presentation moves do not matter
    rep = omega_stability_check(BSParams(4, 2))
    assert rep.verified and rep.d == 2

    d = rep.to_json_dict()
    assert d["verified"] is True and "evidence" in d["note"]

    for m, n in OMEGA_GRID:
        rep = omega_stability_check(BSParams(m, n))
        assert_same_json(rep.to_json_dict(), reference_omega_json(rep))


def test_omega_stability_preconditions():
    with pytest.raises(DomainError):
        omega_stability_check(BSParams(1, 3))  # gamma_omega trivial
    with pytest.raises(DomainError):
        omega_stability_check(BSParams(6, 12))  # strict containment
    with pytest.raises(DomainError):
        omega_stability_check(BSParams(6, 6))  # unknown


def test_witness_text_matches_handler_text():
    for m, n in ((2, 3), (2, 5), (3, -3), (1, 2), (-2, 3), (4, 6), (3, -5)):
        for i in (1, 2, 3, 5):
            w = lemma2_witness(BSParams(m, n), i)
            assert str(w) == reference_witness_text(w)
    for m, n in ((2, 3), (2, 4), (3, 4), (4, 6), (1, 2), (6, 9)):
        for s in (2, 3, 5):
            w = gamma_membership_witness(BSParams(m, n), parse_word(f"a^{n - m}"), s)
            assert str(w) == reference_witness_text(w)
    for m, n in OMEGA_GRID:
        rep = omega_stability_check(BSParams(m, n))
        assert str(rep) == reference_omega_text(rep)


def test_huge_parameters_in_witness_errors(digit_limit):
    # the message spells m in full, past the default digit limit
    m = 2**20000 + 1
    with pytest.raises(DomainError, match="no witness recipe") as exc:
        gamma_membership_witness(BSParams(m, 3), parse_word("a"), 3)
    assert f"BS({decimal(m)},3)" in str(exc.value)


def test_witness_trees_are_the_ones_their_loops_built(monkeypatch):
    # every tree that _verified checks, printed, against the loop that built it
    checked = []
    verified = witness._verified

    def recording(p, expr, *args):
        checked.append(pretty_print(expr))
        return verified(p, expr, *args)

    monkeypatch.setattr(witness, "_verified", recording)
    params = [(m, n) for m in range(-4, 6) for n in range(-6, 8) if m and n]
    for m, n in params:
        for i in (1, 2, 3, 5):
            checked.clear()
            lemma2_witness(BSParams(m, n), i)
            assert checked == [pretty_print(reference_lemma2_tree(m, i))], (m, n, i)
    for m in range(1, 9):
        for d in (x for x in range(1, m + 1) if m % x == 0):
            for s in (2, 3, 4, 6):
                checked.clear()
                gamma_membership_witness(BSParams(m, m + d), parse_word(f"a^{d}"), s)
                assert checked == [pretty_print(reference_member_tree(m, d, s))], (m, d, s)
    for m, n in params:
        rep = classify(m, n)
        if rep.gamma_omega.kind != "equals":
            continue
        checked.clear()
        omega_stability_check(BSParams(m, n))
        cm, d = rep.canonical[0], rep.gamma_omega.d
        assert checked == [pretty_print(reference_omega_tree(cm, d))], (m, n)
