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
from bsgroups.words import MAX_NESTING, Commutator, Gen, Power, Product, eval_expr, parse_expr, parse_word, pretty_print


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
    assert deep != lemma2_witness(BSParams(3, 5), MAX_NESTING).expr
    with pytest.raises(DomainError):
        lemma2_witness(BSParams(2, 5), MAX_NESTING + 1)
    with pytest.raises(DomainError):
        gamma_membership_witness(BSParams(2, 3), parse_word("a"), MAX_NESTING + 2)


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
    assert not nf_equal(p, eval_expr(wrong), parse_word("a^9"))
    right = lemma2_witness(p, 2).expr
    assert nf_equal(p, eval_expr(right), parse_word("a^9"))


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


def test_membership_witness_depth_scales():
    p = BSParams(3, 4)
    for s in range(2, 7):
        w = gamma_membership_witness(p, parse_word("a"), s)
        assert comm_depth(w.expr) == s - 1
        assert nf_equal(p, eval_expr(w.expr), parse_word("a"))


def test_membership_witness_preconditions():
    with pytest.raises(DomainError):
        gamma_membership_witness(BSParams(2, 3), parse_word("a"), 1)
    with pytest.raises(DomainError):
        gamma_membership_witness(BSParams(2, 5), parse_word("a"), 3)
    with pytest.raises(DomainError):
        gamma_membership_witness(BSParams(2, 4), parse_word("a^3"), 3)
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


def test_omega_stability_preconditions():
    with pytest.raises(DomainError):
        omega_stability_check(BSParams(1, 3))  # gamma_omega trivial
    with pytest.raises(DomainError):
        omega_stability_check(BSParams(6, 12))  # strict containment
    with pytest.raises(DomainError):
        omega_stability_check(BSParams(6, 6))  # unknown
