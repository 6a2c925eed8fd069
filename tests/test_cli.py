import json
import sys
from pathlib import Path

import pytest

from bsgroups.cli import SWEEP_COLUMNS, run

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
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        expected = f"a^{2**15000}"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    argv = ["normalize", "-m", "1", "-n", "2", "t^-15000 a t^15000"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == "" and out == expected
    code, out, err = _run(capsys, argv[:-1] + ["--json", argv[-1]])
    assert code == 0 and err == "" and json.loads(out)["normal_form"] == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


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

    code, _, _ = _run(capsys, ["bogus"])
    assert code == 2

    code, _, _ = _run(capsys, [])
    assert code == 2


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
