import sys

import pytest

import bsgroups.freeprod as freeprod
from bsgroups.britton import BSParams
from bsgroups.classify import SWEEP_COLUMNS, canonical_form, classify, prop5_chain, sweep_csv
from bsgroups.errors import DomainError
from bsgroups.finquot import certify_not_in_gamma
from bsgroups.freeprod import ProbeReport, free_subgroup_probe, r_generators
from bsgroups.witness import gamma_membership_witness, omega_stability_check
from bsgroups.words import Word, parse_word

from helpers import (
    assert_same_json,
    reference_chain_json,
    reference_chain_text,
    reference_class_json,
    reference_class_text,
    reference_probe_json,
    reference_probe_text,
    reference_probe_words,
    reference_sweep_row,
)

PROBE_GRID = ((2, 4, 3), (6, 6, 2), (4, -6, 1), (3, 9, 2))

GRID = [(m, n) for m in range(1, 9) for n in range(-8, 9) if n != 0]


def test_canonical_form():
    assert canonical_form(3, 2) == (2, 3)
    assert canonical_form(-2, -3) == (2, 3)
    assert canonical_form(-3, 2) == (2, -3)
    assert canonical_form(6, -4) == (4, -6)
    assert canonical_form(1, 1) == (1, 1)
    with pytest.raises(DomainError):
        canonical_form(0, 1)


def test_classify_frozen_rows():
    r = classify(2, 3)
    assert not r.residually_finite and not r.residually_nilpotent
    assert r.abelianization == "Z"
    assert r.lcs_length == "2"
    assert str(r.gamma_omega) == "=NC(a^1)"

    r = classify(1, 2)
    assert r.residually_finite and not r.residually_nilpotent
    assert str(r.residually_p) == "none"
    assert r.lcs_length == "2"
    assert str(r.gamma_omega) == "=NC(a^1)"
    assert r.class_diffs.strict == "rf_not_rn"

    r = classify(1, 1)
    assert r.residually_torsionfree_nilpotent
    assert str(r.residually_p) == "all"
    assert r.abelianization == "Z x Z"
    assert r.lcs_length == "2"
    assert r.gamma_omega.kind == "trivial"

    r = classify(6, 6)
    assert r.residually_finite and not r.residually_nilpotent
    assert r.class_diffs.strict == "rf_not_rn"
    assert r.lcs_length == "unknown"
    assert r.gamma_omega.kind == "unknown"

    r = classify(3, -3)
    assert r.residually_nilpotent and not r.residually_p.nonempty
    assert r.class_diffs.strict == "rn_not_rp"
    assert r.lcs_length == "omega"

    r = classify(2, -2)
    assert r.residually_nilpotent and r.residually_p.primes == (2,)

    r = classify(2, 4)
    assert str(r.gamma_omega) == "=NC(a^2)"
    assert r.abelianization == "Z x Z_2"

    assert str(classify(4, 6).gamma_omega) == "=NC(a^2)"
    assert classify(2, 6).gamma_omega.kind == "unknown"
    assert str(classify(6, 12).gamma_omega) == ">NC(a^6)"

    r = classify(1, 5)
    assert r.residually_p.primes == (2,)
    assert r.residually_nilpotent and r.lcs_length == "omega"

    r = classify(1, -1)
    assert r.residually_nilpotent and r.residually_p.primes == (2,)
    assert r.lcs_length == "omega"


def test_classify_invariant_under_presentation_moves():
    for m, n in [(2, 3), (3, -3), (2, 4), (5, 2), (4, -6)]:
        base = classify(m, n)
        for mm, nn in [(n, m), (-m, -n), (-n, -m)]:
            other = classify(mm, nn)
            assert other.canonical == base.canonical
            assert other.residually_finite == base.residually_finite
            assert other.residually_p == base.residually_p
            assert other.residually_nilpotent == base.residually_nilpotent
            assert other.lcs_length == base.lcs_length
            assert other.gamma_omega == base.gamma_omega


def test_classify_implication_chain_on_grid():
    for m, n in GRID:
        r = classify(m, n)
        if r.residually_p.nonempty:
            assert r.residually_nilpotent
        if r.residually_nilpotent:
            assert r.residually_finite
        if r.residually_torsionfree_nilpotent:
            assert r.residually_nilpotent
        assert (r.gamma_omega.kind == "trivial") == r.residually_nilpotent
        if r.class_diffs.strict == "rf_not_rn":
            assert r.residually_finite and not r.residually_nilpotent
        if r.class_diffs.strict == "rn_not_rp":
            assert r.residually_nilpotent and not r.residually_p.nonempty
        assert r.lcs_length in ("2", "omega", "unknown")


def test_rtfn_only_trivial_case():
    hits = [(m, n) for m, n in GRID if classify(m, n).residually_torsionfree_nilpotent]
    assert hits == [(1, 1)]


def test_classify_json_shape():
    d = classify(2, 4).to_json_dict()
    assert d["canonical_m"] == 2 and d["canonical_n"] == 4
    assert d["residually_p"]["kind"] == "none"
    assert d["gamma_omega"] == {"kind": "equals", "d": 2}
    assert set(d["class_diffs"]) == {"in_rf", "in_rn", "in_rp_any", "strict"}


def test_report_json_matches_hand_written_json():
    signed = [x for x in range(-12, 13) if x != 0]
    for m in signed:
        for n in signed:
            rep = classify(m, n)
            assert_same_json(rep.to_json_dict(), reference_class_json(rep))
            chain = prop5_chain(m, n)
            assert_same_json(chain.to_json_dict(), reference_chain_json(chain))


def test_report_text_matches_handler_text():
    signed = [x for x in range(-12, 13) if x != 0]
    rows, want = [], []
    for m in signed:
        for n in signed:
            rep = classify(m, n)
            assert str(rep) == reference_class_text(rep)
            rows.append(rep.csv_row())
            want.append(reference_sweep_row(rep))
            assert list(rows[-1].values()) == want[-1]
            chain = prop5_chain(m, n)
            assert str(chain) == reference_chain_text(chain)
    assert all(list(row) == SWEEP_COLUMNS for row in rows)
    lines = [",".join(SWEEP_COLUMNS)] + [",".join(row) for row in want]
    assert sweep_csv(rows) == "\n".join(lines)
    assert sweep_csv(rows[:1]) == "\n".join(lines[:2])


def test_prop5_cases_frozen():
    assert prop5_chain(2, 6).case == 1
    assert prop5_chain(2, 5).case == 2
    assert prop5_chain(2, 3).case == 3
    assert prop5_chain(4, 6).case == 5
    assert prop5_chain(2, -3).case == 4
    assert prop5_chain(3, -6).case == 4
    assert prop5_chain(6, -12).case == 0
    assert prop5_chain(1, 2).case == 0
    assert prop5_chain(2, -2).case == 0


def test_prop5_content():
    r = prop5_chain(2, 6)
    q = dict(r.quotients)
    assert q == {
        "G/G'A": "Z x Z_2",
        "G/A": "Z * Z_2",
        "G/G'": "Z x Z_4",
        "G'A/A": "F_inf",
    }

    r = prop5_chain(2, 5)
    assert r.chain == ("G", "A", "G'", "R")
    assert dict(r.quotients) == {"G/A": "Z", "A/G'": "Z_3"}

    r = prop5_chain(2, 3)
    assert r.chain == ("G", "G' = A = gamma_omega(G)", "R")

    r = prop5_chain(1, 2)
    assert r.chain == ("G",)
    assert any("residually finite" in note for note in r.notes)

    d = prop5_chain(6, -12).to_json_dict()
    assert d["case"] == 0 and d["chain"] == ["G", "G'A", "A", "R"]


def test_prop5_total_on_grid():
    for m, n in GRID:
        r = prop5_chain(m, n)
        assert 0 <= r.case <= 5
        assert r.chain[0] == "G"


def test_r_generators():
    p = BSParams(2, 4)
    gens = r_generators(p, 2)
    assert len(gens) == 5
    assert gens[2].is_identity  # k = 0 gives [a^d, a] = 1
    assert gens[3] == parse_word("t a^-2 t^-1 a^-1 t a^2 t^-1 a")
    only = r_generators(p, 0)
    assert len(only) == 1 and only[0].is_identity
    with pytest.raises(DomainError):
        r_generators(p, -1)


def test_free_subgroup_probe():
    p = BSParams(2, 4)
    rep = free_subgroup_probe(p, K=3, trials=60, max_len=5, seed=5)
    assert rep.ok
    assert rep.checked + rep.skipped_empty == 60
    assert rep.nontrivial == rep.checked
    again = free_subgroup_probe(p, K=3, trials=60, max_len=5, seed=5)
    assert again == rep

    d = rep.to_json_dict()
    assert d["ok"] is True and d["failures"] == []
    for m, n, K in PROBE_GRID:
        rep = free_subgroup_probe(BSParams(m, n), K=K, trials=20, max_len=4, seed=m)
        assert_same_json(rep.to_json_dict(), reference_probe_json(rep))

    with pytest.raises(DomainError):
        free_subgroup_probe(BSParams(1, 2))
    with pytest.raises(DomainError):
        free_subgroup_probe(p, K=0)


def test_probe_text_matches_handler_text():
    for m, n, K in PROBE_GRID:
        rep = free_subgroup_probe(BSParams(m, n), K=K, trials=20, max_len=4, seed=m)
        assert str(rep) == reference_probe_text(rep)
    # a failing probe lists its failures
    rep = ProbeReport(2, 1, 3, 2, 2, 0, 1, ("[t, a] is trivial", "[a, t] is trivial"))
    assert str(rep) == reference_probe_text(rep)
    assert str(rep).endswith("FAILURES: [t, a] is trivial; [a, t] is trivial")


def test_probe_draws_the_letters_it_drew_from_a_list(monkeypatch):
    drawn = []
    lift = freeprod.lift_basis

    def recording_lift(p, bw):
        drawn.append(bw.tokens)
        return lift(p, bw)

    monkeypatch.setattr(freeprod, "lift_basis", recording_lift)
    for m, n, K, trials, max_len, seed in (
        (2, 4, 3, 60, 5, 5), (6, 6, 2, 40, 4, 6), (4, -6, 1, 30, 6, 4), (9, 18, 4, 50, 3, 0),
        (2, -2, 5, 40, 7, 11), (12, 12, 2, 40, 6, 7),
    ):
        drawn.clear()
        free_subgroup_probe(BSParams(m, n), K, trials, max_len, seed)
        assert drawn == reference_probe_words(BSParams(m, n).d, K, trials, max_len, seed)


def test_probe_answers_at_any_d():
    # the letters are drawn by index, never listed: d = 10^30 costs what d = 2 does
    rep = free_subgroup_probe(BSParams(10**30, 10**30), K=20, trials=20, max_len=20, seed=3)
    assert rep.ok and rep.d == 10**30 and rep.checked + rep.skipped_empty == 20


def _report_texts() -> list[str]:
    """Every report's text with parameters of 5001 digits: n = 2^k + 1, d = 2^k."""
    k = 16_610
    n, d = 2**k + 1, 2**k
    cert = certify_not_in_gamma(1, n, parse_word("a"), 2)
    return [
        *(str(classify(m, n2)) for m, n2 in ((1, n), (2, n), (d, 2 * d))),
        *(",".join(classify(m, n2).csv_row().values()) for m, n2 in ((1, n), (2, n), (d, 2 * d))),
        *(str(prop5_chain(m, n2)) for m, n2 in ((2, n), (6, 6 * n), (d, 2 * d))),
        str(free_subgroup_probe(BSParams(d, d), K=2, trials=3, seed=0)),
        str(gamma_membership_witness(BSParams(d, 2 * d), Word.from_pairs((("a", d),)), 3)),
        str(omega_stability_check(BSParams(d, 2 * d))),
        cert.statement,
        str(cert),
    ]


def test_huge_parameters_print_in_reports(digit_limit):
    # built under the default digit limit, each text equals the one built
    # with the limit lifted, and each holds a parameter past the limit
    texts = _report_texts()
    assert all(len(t) > 5000 for t in texts)
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
        assert _report_texts() == texts
