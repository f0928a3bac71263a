import json

import pytest

from lforge.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_REFUSED,
    main,
)

TWISTED_CUBIC = """\
ring R vars x y z w field GF(17) order grevlex
x*z - y^2
x*w - y*z
y*w - z^2
"""

CI_22 = """\
ring R vars x y z w field GF(17) order grevlex
x*z - y^2
x*w - y*z
"""

SKEW4 = """\
4
ring R vars x y z w field GF(17) order grevlex
x
y
z
w
x + y
z + w
"""

MAT22 = """\
2 2 lambda
1
lambda^2 + 1
lambda + 2
lambda
"""


def test_run_pass_exit_code(capsys):
    assert main(["run", "gamma-tangent"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "content_hash" in out


def test_run_fail_exit_code(capsys):
    # off-default seed hits the corank-2 stratum: honest assertion failure
    assert main(["run", "d9-generic", "--seed", "0"]) == EXIT_FAIL
    assert "overall: FAIL" in capsys.readouterr().out


def test_run_unknown_experiment(capsys):
    assert main(["run", "nope"]) == EXIT_ERROR
    assert "unknown experiment" in capsys.readouterr().err


def test_run_qq_refused():
    assert main(["run", "gamma-tangent", "--field", "qq"]) == EXIT_REFUSED


def test_run_writes_reports(tmp_path, capsys):
    assert main(["run", "gamma-tangent", "--out", str(tmp_path)]) == EXIT_PASS
    data = json.loads((tmp_path / "gamma-tangent.json").read_text())
    assert data["passed"]
    assert (tmp_path / "gamma-tangent.txt").exists()


def test_run_with_config(tmp_path, capsys):
    cfg = tmp_path / "lforge.cfg"
    cfg.write_text(
        "[defaults]\nseed = 0\n\n[d9-generic]\nseed = 4\n")
    assert main(["run", "d9-generic", "--config", str(cfg)]) == EXIT_PASS
    # flag overrides config
    assert main(["run", "d9-generic", "--config", str(cfg),
                 "--seed", "0"]) == EXIT_FAIL


def test_run_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "lforge.cfg"
    cfg.write_text("[defaults]\nsed = 3\n")
    assert main(["run", "gamma-tangent", "--config", str(cfg)]) == EXIT_ERROR
    assert "'sed'" in capsys.readouterr().err


def test_run_qq_refused_for_prime_field_experiment(capsys):
    assert main(["run", "gamma-tangent", "--field", "qq",
                 "--allow-long"]) == EXIT_ERROR
    assert "prime field" in capsys.readouterr().err


def test_run_rejects_unknown_option():
    with pytest.raises(SystemExit) as exc:
        main(["run", "gamma-tangent", "--threads", "2"])
    assert exc.value.code == EXIT_ERROR


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == EXIT_PASS
    out = capsys.readouterr().out
    for name in ("d9-special", "ln-snf", "t8-bilinkage-17"):
        assert name in out


def test_gb_subcommand(tmp_path, capsys):
    f = tmp_path / "ideal.txt"
    f.write_text(TWISTED_CUBIC)
    assert main(["gb", str(f)]) == EXIT_PASS
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3


def test_gb_reads_fraction_next_to_a_variable_named_like_one(tmp_path,
                                                             capsys):
    f = tmp_path / "ideal.txt"
    f.write_text("ring R vars x _frac0 field QQ order grevlex\n"
                 "1/2*x + _frac0\n")
    assert main(["gb", str(f)]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == "x + 2*_frac0"


@pytest.mark.parametrize("field, line", [
    ("QQ", "1/0*x + y"),
    ("GF(17)", "1/17*x + y"),
], ids=["zero-denominator", "denominator-not-invertible"])
def test_gb_bad_fraction_is_a_parse_error(tmp_path, capsys, field, line):
    f = tmp_path / "ideal.txt"
    f.write_text(f"ring R vars x y field {field} order grevlex\n{line}\n")
    assert main(["gb", str(f)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_gb_exponent_overflow_is_an_error(tmp_path, capsys):
    f = tmp_path / "ideal.txt"
    f.write_text("ring R vars x y field GF(17) order grevlex\n"
                 "x^40000000 - y\n")
    assert main(["gb", str(f)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_gb_missing_file(capsys):
    assert main(["gb", "/no/such/file.txt"]) == EXIT_ERROR


@pytest.mark.parametrize("field, line", [
    ("GF(17)", "y\nx\n"),
    ("QQ", "y\nx\n"),
], ids=["gf17", "qq"])
def test_link_subcommand(tmp_path, capsys, field, line):
    a = tmp_path / "ideal.txt"
    b = tmp_path / "ci.txt"
    a.write_text(TWISTED_CUBIC.replace("GF(17)", field))
    b.write_text(CI_22.replace("GF(17)", field))
    assert main(["link", str(a), str(b)]) == EXIT_PASS
    captured = capsys.readouterr()
    # residual of the twisted cubic in the (2,2) CI is a line, printed as
    # its reduced Groebner basis
    assert "dim 1 degree 1" in captured.err
    assert captured.out == line


@pytest.mark.parametrize("header, want", [
    ("vars x y z w field GF(17) order lex", EXIT_PASS),
    ("vars x y z w field QQ order grevlex", EXIT_ERROR),
    ("vars w z y x field GF(17) order grevlex", EXIT_ERROR),
])
def test_link_reads_ci_in_its_declared_ring(tmp_path, capsys, header, want):
    a = tmp_path / "ideal.txt"
    b = tmp_path / "ci.txt"
    a.write_text(TWISTED_CUBIC)
    b.write_text(f"ring R {header}\n" + CI_22.split("\n", 1)[1])
    assert main(["link", str(a), str(b)]) == want
    if want == EXIT_PASS:
        assert "dim 1 degree 1" in capsys.readouterr().err


def test_pfaffian_subcommand(tmp_path, capsys):
    f = tmp_path / "skew.txt"
    f.write_text(SKEW4)
    assert main(["pfaffian", str(f)]) == EXIT_PASS
    out = capsys.readouterr().out.strip()
    assert out == "-x*y - y^2 + x*z + x*w + z*w"


@pytest.mark.parametrize("text", ["", "4\n"],
                         ids=["empty", "no-ring-header"])
def test_pfaffian_subcommand_malformed_file(tmp_path, capsys, text):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert main(["pfaffian", str(f)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_snf_subcommand(tmp_path, capsys):
    f = tmp_path / "mat.txt"
    f.write_text(MAT22)
    assert main(["snf", str(f)]) == EXIT_PASS
    diag = capsys.readouterr().out.strip().splitlines()
    assert diag[0] == "1"
    assert diag[1].startswith("lambda^3")


@pytest.mark.parametrize("text", [
    "2 0 lambda\n",
    "2 2 lambda\n1\nlambda\n",
    "# no header\n",
    "2 2 lambda\n1\nlambda\n2\n3\n4\n",
], ids=["zero-columns", "fewer-entries-than-declared", "no-header",
        "more-entries-than-declared"])
def test_snf_subcommand_malformed_file(tmp_path, capsys, text):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert main(["snf", str(f)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])
