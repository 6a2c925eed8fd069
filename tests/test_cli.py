import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bsgroups.cli as cli
from bsgroups.classify import SWEEP_COLUMNS
from bsgroups.cli import run
from bsgroups.words import decimal

ROOT = Path(__file__).resolve().parents[1]


def _golden(path: Path):
    entries = json.loads(path.read_text(encoding="utf-8"))
    return [
        pytest.param(e["argv"], e["stdout"], id=f"{path.stem}-{k}")
        for k, e in enumerate(entries)
    ]


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def _assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# bench/cli_golden.json is the fixed `bs` script of the benchmark, mostly text;
# cli_json_golden.json holds the --json output of every subcommand.
@pytest.mark.parametrize(
    "argv, stdout",
    _golden(ROOT / "bench" / "cli_golden.json") + _golden(ROOT / "tests" / "cli_json_golden.json"),
)
def test_golden_stdout(capsys, argv, stdout):
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and captured.out == stdout


def test_normalize(capsys):
    code, out, _ = _run(capsys, ["normalize", "-m", "2", "-n", "3", "T a^2 t"])
    assert code == 0 and out == "a^3"

    code, out, _ = _run(capsys, ["normalize", "-m", "2", "-n", "3", "--json", "a t t^-1 a^-1"])
    data = json.loads(out)
    assert code == 0
    assert data["normal_form"] == "1" and data["is_identity"] is True
    assert data["sigma_t"] == 0


def test_eq(capsys):
    code, out, _ = _run(capsys, ["eq", "-m", "2", "-n", "3", "[a^2, t]", "a"])
    assert code == 0 and out == "equal"
    code, out, _ = _run(capsys, ["eq", "-m", "2", "-n", "3", "a", "t"])
    assert code == 0 and out == "not-equal"


def test_weight(capsys):
    code, out, _ = _run(capsys, ["weight", "-n", "-1", "a^8"])
    assert code == 0 and out == "4"
    code, out, _ = _run(capsys, ["weight", "-n", "2", "--json", "[a, t]"])
    assert json.loads(out)["weight"] == "omega"


def test_quot_image(capsys):
    code, out, _ = _run(capsys, ["quot-image", "-n", "4", "-i", "2", "a^3"])
    assert code == 0 and out == "1"
    code, out, _ = _run(capsys, ["quot-image", "-n", "4", "-i", "2", "--json", "a^9"])
    data = json.loads(out)
    assert data == {"n": 4, "i": 2, "modulus": 3, "image": 0}


def test_classify_formats(capsys):
    code, out, _ = _run(capsys, ["classify", "-m", "6", "-n", "6"])
    assert code == 0
    assert "residually nilpotent: false" in out
    assert "strict class difference: rf_not_rn" in out

    code, out, _ = _run(capsys, ["classify", "-m", "6", "-n", "6", "--json"])
    data = json.loads(out)
    assert data["residually_nilpotent"] is False and data["residually_finite"] is True

    code, out, _ = _run(capsys, ["classify", "-m", "1", "-n", "2", "--csv"])
    header, row = out.splitlines()
    assert header == ",".join(SWEEP_COLUMNS)
    assert row == "1,2,1,2,Z,true,none,false,false,2,=NC(a^1),0"


def test_chain(capsys):
    code, out, _ = _run(capsys, ["chain", "-m", "2", "-n", "3", "--json"])
    data = json.loads(out)
    assert code == 0 and data["case"] == 3
    code, out, _ = _run(capsys, ["chain", "-m", "2", "-n", "6"])
    assert "case 1" in out and "G/A = Z * Z_2" in out


def test_witness_lemma2(capsys):
    code, out, _ = _run(capsys, ["witness", "lemma2", "-m", "2", "-n", "5", "-i", "2"])
    assert code == 0
    assert "[[a^2, t]^2, t] = a^9" in out and "gamma_3" in out

    code, out, _ = _run(
        capsys, ["witness", "lemma2", "-m", "2", "-n", "5", "-i", "2", "--json"]
    )
    data = json.loads(out)
    assert data["verified"] is True and data["depth"] == 3


def test_witness_member(capsys):
    code, out, _ = _run(capsys, ["witness", "member", "-m", "2", "-n", "4", "-s", "3", "--json"])
    data = json.loads(out)
    assert code == 0 and data["target"] == "a^2" and data["depth"] == 3

    code, out, _ = _run(capsys, ["witness", "member", "-m", "2", "-n", "4", "-s", "2", "a^2"])
    assert code == 0 and "[a^2, t] = a^2" in out

    # [a^3, t] = a in BS(3, 4), though its free word is not a
    argv = ["witness", "member", "-m", "3", "-n", "4", "-s", "2", "--json", "[a^3, t]"]
    code, out, _ = _run(capsys, argv)
    data = json.loads(out)
    assert (code, data["target"], data["depth"], data["verified"]) == (0, "a^-3 t^-1 a^3 t", 2, True)
    code, out, err = _run(capsys, ["witness", "member", "-m", "3", "-n", "4", "-s", "2", "a^2"])
    assert (code, out, err) == (1, "", "error: unsupported target a^2; expected a\n")


def test_witness_omega(capsys):
    code, out, _ = _run(capsys, ["witness", "omega", "-m", "2", "-n", "3"])
    assert code == 0 and "stable under" in out
    code, out, err = _run(capsys, ["witness", "omega", "-m", "1", "-n", "3"])
    assert code == 1 and "error:" in err


def test_rgen(capsys):
    code, out, _ = _run(capsys, ["rgen", "-m", "2", "-n", "4", "-K", "1"])
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = _run(capsys, ["rgen", "-m", "2", "-n", "4", "-K", "2", "--json"])
    assert len(json.loads(out)["generators"]) == 5


def test_fsub_probe_deterministic(capsys):
    argv = ["fsub-probe", "-m", "2", "-n", "4", "-K", "2", "--trials", "40", "--seed", "7"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0 and "OK" in out1
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_oracle_build(capsys):
    code, out, _ = _run(
        capsys, ["oracle", "build", "-m", "1", "-n", "3", "-p", "2", "-k", "2", "-j", "1"]
    )
    assert code == 0
    assert "Z_4 x|_3 Z_2" in out and "gamma sizes: [8, 2, 1]" in out and "holds" in out

    code, out, _ = _run(
        capsys,
        ["oracle", "build", "-m", "2", "-n", "4", "--family", "wreath",
         "-p", "2", "-k", "1", "-j", "1", "--json"],
    )
    data = json.loads(out)
    assert data["order"] == 8 and data["relation_holds"] is True


def test_oracle_build_up_to_the_construction_cap(capsys):
    # order 2^20: over the old brute-force series cap, within construction
    code, out, _ = _run(
        capsys,
        ["oracle", "build", "-m", "2", "-n", "4", "--family", "wreath",
         "-p", "2", "-k", "1", "-j", "4", "--json"],
    )
    data = json.loads(out)
    assert code == 0 and data["order"] == 2**20
    assert data["gamma_sizes"] == [2**20] + [2**k for k in range(15, -1, -1)]


def test_oracle_certify(capsys):
    code, out, _ = _run(capsys, ["oracle", "certify", "-m", "1", "-n", "3", "-i", "3", "a^2"])
    assert code == 0
    assert "lies outside gamma_3" in out and "re-verified: true" in out

    code, out, _ = _run(capsys, ["oracle", "certify", "-m", "2", "-n", "3", "-i", "2", "a"])
    assert code == 0 and out.startswith("inconclusive")

    code, out, _ = _run(
        capsys, ["oracle", "certify", "-m", "1", "-n", "3", "-i", "3", "--json", "a^2"]
    )
    data = json.loads(out)
    assert data["conclusive"] is True and data["certificate"]["verified"] is True


def test_sweep(capsys):
    code, out, _ = _run(capsys, ["sweep", "--m-max", "2", "--n-max", "2"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 2 * 4
    assert "2,-2,2,-2,Z x Z_4,true,2,true,false,omega,trivial,0" in lines

    code, out, _ = _run(capsys, ["sweep", "--m-max", "1", "--n-max", "1", "--json"])
    rows = json.loads(out)
    assert [set(r) for r in rows] == [set(SWEEP_COLUMNS)] * 2


def test_sweep_refuses_a_grid_past_the_pair_limit(monkeypatch, capsys):
    def no_classify(m, n):
        raise AssertionError("the sweep classified before refusing")

    monkeypatch.setattr(cli, "classify", no_classify)
    for m_max, n_max in ((10**9, 10**9), (300, 300), (1, 50_001)):
        code, _, err = _run(capsys, ["sweep", "--m-max", str(m_max), "--n-max", str(n_max)])
        _assert_one_line_error(code, err)
        assert err == f"error: sweep of {2 * m_max * n_max} pairs passes the limit 100000\n"
    # 2 m_max n_max pairs, against the limit in force; an empty range counts 0
    monkeypatch.setattr(cli, "_MAX_SWEEP_PAIRS", 40)
    code, _, err = _run(capsys, ["sweep", "--m-max", "4", "--n-max", "6"])
    assert err == "error: sweep of 48 pairs passes the limit 40\n"
    with pytest.raises(AssertionError, match="classified"):
        run(["sweep", "--m-max", "4", "--n-max", "5"])
    code, out, _ = _run(capsys, ["sweep", "--m-max", "-100000", "--n-max", "-100000"])
    assert code == 0 and out == ",".join(SWEEP_COLUMNS)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "row.csv"
    code, out, _ = _run(
        capsys, ["classify", "-m", "2", "-n", "4", "--csv", "--out", str(path)]
    )
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith(",".join(SWEEP_COLUMNS)) and text.endswith("\n")


def test_huge_exponent_prints_in_full(capsys):
    # a^(2^15000) has 4516 digits, past Python's default int-to-str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    expected = f"a^{decimal(2**15000)}"
    argv = ["normalize", "-m", "1", "-n", "2", "t^-15000 a t^15000"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == "" and out == expected
    code, out, err = _run(capsys, argv[:-1] + ["--json", argv[-1]])
    assert code == 0 and err == "" and json.loads(out)["normal_form"] == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _bs_child(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as it is by default
    return subprocess.Popen(
        [sys.executable, "-m", "bsgroups.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def _assert_quiet_exit(proc: subprocess.Popen) -> None:
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_closed_pipe_ends_quietly():
    # The sweep prints more than a pipe buffer holds, so a write meets the
    # closed pipe whatever the timing.
    proc = _bs_child("sweep", "--m-max", "30", "--n-max", "30")
    assert proc.stdout.readline() == (",".join(SWEEP_COLUMNS) + "\n").encode()
    proc.stdout.close()
    _assert_quiet_exit(proc)
    # A short report is closed on before the child has started up, so its
    # one write meets the closed pipe.
    proc = _bs_child("classify", "-m", "6", "-n", "6")
    proc.stdout.close()
    _assert_quiet_exit(proc)


def test_exit_codes(tmp_path, capsys):
    code, _, err = _run(capsys, ["normalize", "-m", "0", "-n", "3", "a"])
    assert code == 1 and "error:" in err

    code, _, err = _run(capsys, ["normalize", "-m", "2", "-n", "3", "b"])
    assert code == 1 and "error:" in err

    code, _, err = _run(capsys, ["normalize", "-m", "2", "-n", "3", "--max-bits", "0", "a"])
    _assert_one_line_error(code, err)
    assert "bit cap" in err

    missing = tmp_path / "missing" / "dir" / "x"
    code, out, err = _run(capsys, ["normalize", "-m", "2", "-n", "3", "--out", str(missing), "a"])
    _assert_one_line_error(code, err)
    assert out == "" and not missing.exists()

    deep = "(" * 3000 + "a" + ")" * 3000
    code, _, err = _run(capsys, ["normalize", "-m", "2", "-n", "3", deep])
    _assert_one_line_error(code, err)
    assert "nested deeper" in err

    # an empty target is an empty expression, not the default target a^d
    for target in ("", " "):
        code, out, err = _run(capsys, ["witness", "member", "-m", "1", "-n", "2", "-s", "3", target])
        _assert_one_line_error(code, err)
        assert out == "" and "empty expression" in err

    # BS(m, n) needs nonzero m and n in every subcommand, the oracle's too;
    # test_finquot runs m = n = 0, which never ended, in a fresh interpreter
    for argv in (
        ["oracle", "certify", "-m", "3", "-n", "0", "-i", "2", "a"],
        ["oracle", "certify", "-m", "0", "-n", "3", "-i", "2", "a"],
        ["oracle", "build", "-m", "0", "-n", "0", "--family", "wreath", "-p", "2", "-k", "1", "-j", "1"],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (1, "", "error: parameters must be nonzero\n"), argv

    code, _, _ = _run(capsys, ["bogus"])
    assert code == 2

    code, _, _ = _run(capsys, [])
    assert code == 2


def test_deep_witnesses_answer(capsys):
    for i in ("10", "25"):
        code, out, _ = _run(capsys, ["witness", "lemma2", "-m", "2", "-n", "5", "-i", i])
        assert code == 0 and f"= a^{3 ** int(i)} in BS(2,5)" in out
    code, _, err = _run(capsys, ["witness", "lemma2", "-m", "2", "-n", "5", "-i", "201"])
    _assert_one_line_error(code, err)


def _tower(depth: int) -> str:
    tower = "a"
    for _ in range(depth):
        tower = f"[{tower}, t]"
    return tower


def test_free_word_size_limit(capsys):
    # witness member builds its target's free word, which passes the limit
    code, _, err = _run(capsys, ["witness", "member", "-m", "2", "-n", "4", "-s", "3", _tower(20)])
    _assert_one_line_error(code, err)
    assert err == "error: word would reach 2097153 syllables, limit 2000000\n"
    # oracle certify evaluates its text in each quotient and builds none
    code, out, _ = _run(capsys, ["oracle", "certify", "-m", "2", "-n", "4", "-i", "3", _tower(20)])
    assert code == 0
    assert out == "inconclusive: no quotient in the budgeted family separates the element"
    code, out, _ = _run(capsys, ["oracle", "certify", "-m", "2", "-n", "4", "-i", "2", _tower(200) + " a"])
    assert code == 0
    assert out.splitlines() == [
        "image ((1, 0), 0) of the element in Z_2 wr Z_2 lies outside gamma_2(Q), "
        "hence the element lies outside gamma_2(BS(2,4))",
        "gamma sizes: [8, 2, 1]",
        "re-verified: true",
    ]


def test_certify_reports_a_parse_error_first(capsys):
    # the text is read before the index and the parameters are checked
    code, _, err = _run(capsys, ["oracle", "certify", "-m", "0", "-n", "3", "-i", "1", "a^"])
    _assert_one_line_error(code, err)
    assert err == "error: expected an integer (at position 2)\n"


def test_affine_powers_are_refused_before_they_are_formed(capsys):
    # n^k for k = 10^7 or 10^8 has past 10^6 bits: refused by its size alone
    for k in (10**7, 10**8):
        for text in (f"t^-{k} a t^{k}", f"t^-{k} [a, t] t^{k}"):
            for argv in (["weight", "-n", "3", text], ["quot-image", "-n", "3", "-i", "2", text]):
                start = time.perf_counter()
                code, _, err = _run(capsys, argv)
                assert time.perf_counter() - start < 1.0
                _assert_one_line_error(code, err)
                assert "needs at least" in err and "cap is 1000000" in err
        # exponents that cancel within a level, and unit powers, still answer
        for n, text, weight in (
            ("3", f"t^-{k} a t^{k} a t^-{k} a^-1 t^{k}", "1"),
            ("-1", f"t^-{k} [a, t] t^{k}", "2"),
            ("1", f"t^-{k} [a, t] t^{k}", "omega"),
        ):
            code, out, _ = _run(capsys, ["weight", "-n", n, text])
            assert code == 0 and out.splitlines()[0] == weight
    # the refusal names a lower bound: 3^(10^7) has 15,849,626 bits
    _, _, err = _run(capsys, ["weight", "-n", "3", "t^-10000000 a t^10000000"])
    assert err == "error: exponent needs at least 10000001 bits, cap is 1000000\n"


def test_classify_factors_large_n(capsys):
    # n - 1 = 998244353 * 1000000007, past what trial division finishes
    code, out, _ = _run(capsys, ["classify", "-m", "1", "-n", "998244359987710472", "--json"])
    assert code == 0
    assert json.loads(out)["residually_p"]["primes"] == [998244353, 1000000007]
    code, out, _ = _run(capsys, ["classify", "-m", "1", "-n", "998244359987710472", "--csv"])
    assert code == 0 and out.splitlines()[1].split(",")[6] == "998244353;1000000007"


def test_budget_repros_answer_at_once(capsys):
    # sizes past a cap are refused by their exponents, the identity's image is
    # 0 at any depth, and a failed rho search is charged for the cofactor size
    cases = [
        (["oracle", "certify", "-m", "2", "-n", "4", "-i", "3", "-j", "40", "a^2"], 0,
         "inconclusive: no quotient in the budgeted family separates the element"),
        (["oracle", "certify", "-m", "1", "-n", "3", "-i", "3", "-k", "3000", "a^2"], 0,
         "image (2, 0) of the element in Z_4 x|_3 Z_2 lies outside gamma_3(Q), "
         "hence the element lies outside gamma_3(BS(1,3))"),
        (["oracle", "build", "-m", "2", "-n", "4", "--family", "wreath",
          "-p", "3", "-k", "1", "-j", "25"], 1,
         "error: wreath order 3^(1 * 3^25 + 25) exceeds the construction cap"),
        (["quot-image", "-n", "4", "-i", "30000000", "a A"], 0, "0"),
        (["quot-image", "-n", "4", "-i", "1000000000", "a A"], 0, "0"),
    ]
    for argv, want_code, first_line in cases:
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == want_code
        if code == 1:
            _assert_one_line_error(code, err)
            assert err.rstrip("\n") == first_line
        else:
            assert out.splitlines()[0] == first_line
    start = time.perf_counter()
    code, _, err = _run(capsys, ["classify", "-m", "1", "-n", str(7**2000 + 2)])
    assert time.perf_counter() - start < 3.0
    _assert_one_line_error(code, err)
    assert "Pollard rho steps" in err


def test_env_bit_cap(monkeypatch, capsys):
    monkeypatch.setenv("BS_MAX_BITS", "16")
    code, _, err = _run(capsys, ["normalize", "-m", "1", "-n", "2", "t^-40 a t^40"])
    assert code == 1 and "bits" in err

    code, out, _ = _run(
        capsys, ["normalize", "-m", "1", "-n", "2", "--max-bits", "100", "t^-40 a t^40"]
    )
    assert code == 0 and out == f"a^{1 << 40}"

    monkeypatch.setenv("BS_MAX_BITS", "abc")
    code, _, err = _run(capsys, ["normalize", "-m", "2", "-n", "3", "a"])
    _assert_one_line_error(code, err)
    assert "BS_MAX_BITS" in err


def test_max_bits_only_where_the_handler_reads_it(capsys):
    capped = [
        ["normalize"], ["eq"], ["weight"], ["quot-image"],
        ["witness", "lemma2"], ["witness", "member"], ["witness", "omega"], ["oracle", "certify"],
    ]
    uncapped = [["classify"], ["chain"], ["rgen"], ["fsub-probe"], ["oracle", "build"], ["sweep"]]
    for sub in capped + uncapped:
        code, out, _ = _run(capsys, [*sub, "--help"])
        assert code == 0 and ("--max-bits" in out) == (sub in capped), sub
    code, _, err = _run(capsys, ["classify", "--max-bits", "5", "-m", "6", "-n", "6"])
    assert code == 2 and "unrecognized arguments: --max-bits 5" in err


# A fuzz of the whole command line, in process: every argv ends in exit 0,
# in exit 1 with one `error:` line, or in a usage error (exit 2), and never
# in a traceback or an unbounded run.

_INTS = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([
        0, 1, -1, 2, 200, 201, 2**31, 2**63, 10**6, 10**7, 10**24, 10**30, -(10**30),
        3_317_044_064_679_887_385_961_981,
    ]),
    st.integers(-(10**30), 10**30),
)
# Work linear in these by design, so they stay at or below 20.  rgen's -K
# and fsub-probe's --trials and --max-len are refused at once past the
# free-word syllable limit, and sweep's --m-max and --n-max past its pair
# limit; the examples below take them to 10^9.
_COUNTS = st.one_of(st.integers(-3, 20), st.integers(-(10**30), 20))
_TEXT = st.text(alphabet="aAtT^-0123456789[](), ", max_size=30)

# (subcommand, its integer options, its count options, how many word arguments)
_COMMANDS = [
    (["normalize"], ["-m", "-n", "--max-bits"], [], 1),
    (["eq"], ["-m", "-n", "--max-bits"], [], 2),
    (["weight"], ["-n", "--max-bits"], [], 1),
    (["quot-image"], ["-n", "-i", "--max-bits"], [], 1),
    (["classify"], ["-m", "-n"], [], 0),
    (["chain"], ["-m", "-n"], [], 0),
    (["witness", "lemma2"], ["-m", "-n", "-i", "--max-bits"], [], 0),
    (["witness", "member"], ["-m", "-n", "-s", "--max-bits"], [], 1),
    (["witness", "omega"], ["-m", "-n", "--max-bits"], [], 0),
    (["rgen"], ["-m", "-n"], ["-K"], 0),
    (["fsub-probe"], ["-m", "-n", "--seed"], ["-K", "--trials", "--max-len"], 0),
    (["oracle", "build"], ["-m", "-n", "-p", "-k", "-j"], [], 0),
    (["oracle", "certify"], ["-m", "-n", "-i", "-k", "-j", "--max-bits"], [], 1),
    (["sweep"], [], ["--m-max", "--n-max"], 0),
]


@st.composite
def _argv(draw):
    sub, ints, counts, words = draw(st.sampled_from(_COMMANDS))
    argv = list(sub)
    for flag, values in [(f, _INTS) for f in ints] + [(f, _COUNTS) for f in counts]:
        # --max-bits is optional; so is each option of fsub-probe, oracle certify and sweep
        if flag != "--max-bits" or draw(st.booleans()):
            argv += [flag, str(draw(values))]
    argv += [draw(_TEXT) for _ in range(words)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=timedelta(seconds=30))
@given(_argv())
@example(["oracle", "certify", "-m", "2", "-n", "4", "-i", "3", "-j", "40", "a^2"])
@example(["oracle", "certify", "-m", "1", "-n", "3", "-i", "3", "-k", "3000", "a^2"])
@example(["oracle", "build", "-m", "2", "-n", "4", "--family", "wreath",
          "-p", "3", "-k", "1", "-j", "25"])
@example(["quot-image", "-n", "4", "-i", "30000000", "a A"])
@example(["quot-image", "-n", "4", "-i", "1000000000", "a A"])
@example(["classify", "-m", "1", "-n", str(7**2000 + 2)])
@example(["fsub-probe", "-m", "10000000", "-n", "10000000", "-K", "14", "--trials", "14"])
@example(["fsub-probe", "-m", "5", "-n", "5", "-K", "5", "--trials", "9", "--max-len", "-1"])
@example(["rgen", "-m", "2", "-n", "4", "-K", "1000000000"])
@example(["fsub-probe", "-m", "2", "-n", "4", "--trials", "3", "--max-len", "1000000000"])
@example(["fsub-probe", "-m", "2", "-n", "4", "--trials", "1000000000"])
@example(["sweep", "--m-max", "1000000000", "--n-max", "1000000000"])
@example(["oracle", "certify", "-m", "0", "-n", "0", "-i", "2", "a"])
@example(["oracle", "certify", "-m", "3", "-n", "0", "-i", "2", "a"])
@example(["oracle", "certify", "-m", "0", "-n", "3", "-i", "2", "a"])
@example(["oracle", "build", "-m", "0", "-n", "0", "--family", "wreath", "-p", "2", "-k", "1", "-j", "1"])
def test_fuzz_command_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_weight_of_a_huge_power_of_two(capsys):
    # v_2 of 2^400000 in O(log v) divisions; one per factor took about 40 s
    code, out, _ = _run(capsys, ["weight", "-n", "3", "a^" + decimal(2**400_000)])
    assert (code, out) == (0, "400001")
