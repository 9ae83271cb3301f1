import json
import time

import numpy as np
import pytest

from lph.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY_FAIL,
    InputFormatError,
    build_parser,
    main,
    read_system,
    to_json,
)

CIRCLE = """\
# unit circle critical-point system
vars: x y
f:
  x^2 + y^2 - 1
J: jacobian
beta: 0.6 0.8
"""

SEXTIC = """\
vars: x y
f:
  (y^2 - x^3 + 4*x + 1)*((x - y + 6)^3 + x + y)
"""


@pytest.fixture
def circle_file(tmp_path):
    p = tmp_path / "circle.lph"
    p.write_text(CIRCLE)
    return str(p)


@pytest.fixture
def sextic_file(tmp_path):
    p = tmp_path / "sextic.lph"
    p.write_text(SEXTIC)
    return str(p)


def test_read_system_circle(circle_file):
    inp = read_system(circle_file)
    assert inp.variables == ["x", "y"]
    assert inp.k == 1
    assert inp.J is not None and len(inp.J) == 2
    assert np.allclose(inp.beta.real, [0.6, 0.8])


def test_read_system_explicit_J(tmp_path):
    p = tmp_path / "sys.lph"
    p.write_text("vars: x y\nf:\n  x*y - 1\nJ:\n  y\n  x\nbeta: 1 2\n")
    inp = read_system(str(p))
    assert len(inp.J) == 2 and len(inp.J[0]) == 1


def test_read_system_errors(tmp_path):
    p = tmp_path / "bad.lph"
    p.write_text("f:\n  x - 1\n")
    with pytest.raises(InputFormatError):
        read_system(str(p))
    p.write_text("vars: x y\nbeta: 1 2\n")
    with pytest.raises(InputFormatError):
        read_system(str(p))
    p.write_text("vars: x y\nf:\n  x - 1\nJ:\n  x\nbeta: 1 2\n")
    with pytest.raises(InputFormatError):
        read_system(str(p))


@pytest.mark.parametrize("names", ["x x", "x 2", "x 2y"],
                         ids=["repeated", "number", "not-identifier"])
def test_vars_must_be_distinct_identifiers_exit_2(tmp_path, capsys, names):
    p = tmp_path / "vars.lph"
    p.write_text(f"vars: {names}\nf:\n  x^2 - 1\n")
    assert main(["witness", str(p), "--json"]) == EXIT_PARSE
    out = capsys.readouterr()
    assert out.out == "" and "error: line 1: variable " in out.err


def test_to_json_fixed_formatting():
    # compact, with floats in their shortest round-trip form
    assert to_json({"a": 0.5, "b": [1, "s"]}) == '{"a":0.5,"b":[1,"s"]}'
    assert to_json(1 / 3) == "0.3333333333333333"
    with pytest.raises(ValueError):
        to_json({"residual": float("nan")})


def test_solve_circle_text(circle_file, capsys):
    assert main(["solve", circle_file, "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "solutions=2" in out
    assert "bound=2" in out


def test_solve_circle_json_schema(circle_file, capsys):
    assert main(["solve", circle_file, "--seed", "1", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 1
    assert doc["bound"] == 2
    assert set(doc["counts"]) == {"D", "omega", "converged", "divergent", "failed"}
    assert len(doc["solutions"]) == 2
    rec = doc["solutions"][0]
    assert len(rec["x"]) == 2 and len(rec["x"][0]) == 2
    assert len(rec["lambda"]) == 1
    assert rec["residual"] < 1e-8


def test_solve_json_deterministic(circle_file, capsys):
    main(["solve", circle_file, "--seed", "1", "--json"])
    first = capsys.readouterr().out
    main(["solve", circle_file, "--seed", "1", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_malformed_polynomial_exit_2_names_line(tmp_path, capsys):
    p = tmp_path / "bad.lph"
    p.write_text("vars: x y\nf:\n  x^2 + @\nbeta: 1 0\n")
    assert main(["solve", str(p)]) == EXIT_PARSE
    assert "line 3" in capsys.readouterr().err


def test_huge_power_exit_2_fast(tmp_path, capsys):
    p = tmp_path / "power.lph"
    p.write_text("vars: x y z\nf:\n  (x + y + z)^500\n")
    t0 = time.perf_counter()
    assert main(["bound", str(p)]) == EXIT_PARSE
    assert time.perf_counter() - t0 < 1.0
    assert "line 3" in capsys.readouterr().err
    p.write_text("vars: x y z\nf:\n  (x + y + z)^3 - 1\n")
    assert main(["bound", str(p)]) == EXIT_OK


@pytest.mark.parametrize("op", ["*", ""])
def test_huge_product_exit_2_fast(tmp_path, capsys, op):
    # each factor respects the degree cap; their product (1287 x 1287 term
    # pairs) is what the parser refuses to expand
    base = "(a + b + c + d + e + f)^8"
    p = tmp_path / "product.lph"
    p.write_text(f"vars: a b c d e f\nf:\n  {base}{op}{base}\n")
    t0 = time.perf_counter()
    assert main(["bound", str(p)]) == EXIT_PARSE
    assert time.perf_counter() - t0 < 1.0
    assert "line 3" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["solve", "/nonexistent/file.lph"]) == EXIT_PARSE


def test_solve_requires_beta(sextic_file, capsys):
    assert main(["solve", sextic_file]) == EXIT_PARSE


def test_witness_square_input(tmp_path, capsys):
    p = tmp_path / "sq.lph"
    p.write_text("vars: x y\nf:\n  x^2 - 1\n  y^2 - 4\n")
    assert main(["witness", str(p), "--seed", "0", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["solutions"]) == 4
    assert all(rec["stage"] == 0 for rec in doc["solutions"])


def test_witness_beta_c_flags(sextic_file, capsys):
    code = main(
        ["witness", sextic_file, "--seed", "7", "--json",
         "--beta", "0.874645,1.0351", "--c", "-3.9825"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["betas"] == [[0.874645, 1.0351]]
    assert doc["c"] == [-3.9825]
    pts = [rec["x"] for rec in doc["solutions"]]
    assert any(abs(x + 1.44299) < 1e-4 and abs(y + 1.32941) < 1e-4 for x, y in pts)


def test_witness_rejects_more_c_values_than_stages(circle_file, capsys):
    assert main(["witness", circle_file, "--json", "--c", "0.5,7,9"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3 c values given for 1 stages" in captured.err


def test_bound_circle(circle_file, capsys):
    assert main(["bound", circle_file, "--seed", "0", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["D"] == 2
    assert doc["root_bound"] == 2
    assert doc["mixed_volume"] == "n/a"


def test_bound_dense_quadrics(tmp_path, capsys):
    # two fixed generic quadrics: curve degree 4, bound C(2,1)*1*4 = 8
    p = tmp_path / "quadrics.lph"
    p.write_text(
        "vars: x y z\n"
        "f:\n"
        "  -2*x^2 - 2.6666666666666667*x*y - 6*x*z + x + 1.5*y^2"
        " + 0.25*y*z + y - 0.25*z^2 + 3\n"
        "  -0.5*x*y + 0.5*x*z - 2.6666666666666667*x - 1.5*y^2 - y*z"
        " + 7*y + 1.6666666666666667*z^2 + 1.75*z - 1.3333333333333333\n"
    )
    assert main(["bound", str(p), "--seed", "0", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["D"] == 4
    assert doc["root_bound"] == 8


def test_verify_round_trip(circle_file, tmp_path, capsys):
    main(["solve", circle_file, "--seed", "1", "--json"])
    out = capsys.readouterr().out
    sol = tmp_path / "sol.json"
    sol.write_text(out)
    assert main(["verify", circle_file, str(sol)]) == EXIT_OK


def test_verify_perturbed_fails(circle_file, tmp_path, capsys):
    main(["solve", circle_file, "--seed", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    doc["solutions"][0]["x"][0][0] += 1e-2
    sol = tmp_path / "bad.json"
    sol.write_text(json.dumps(doc))
    assert main(["verify", circle_file, str(sol)]) == EXIT_VERIFY_FAIL


# solutions near (100, 0) leave residuals of about 1e-4, the round-off floor
# of the sextic there, so only a magnitude-scaled test accepts them
FAR_CIRCLE = """\
vars: x y
f:
  ((x-100)^2 + y^2 - 1)*(x^4 + y^4 + 1)
"""


def test_verify_accepts_solve_output_on_far_circle(tmp_path, capsys):
    p = tmp_path / "far.lph"
    p.write_text(FAR_CIRCLE + "J: jacobian\nbeta: 0.874645 1.0351\n")
    assert main(["solve", str(p), "--seed", "1", "--json"]) == EXIT_OK
    sol = tmp_path / "sol.json"
    sol.write_text(capsys.readouterr().out)
    assert json.loads(sol.read_text())["solutions"]
    assert main(["verify", str(p), str(sol)]) == EXIT_OK
    assert ("by residual <= 1e-06 * max(1, magnitude) and Newton step <= 1e-06 * (1 + |z|): "
            "PASS") in capsys.readouterr().out


def test_verify_accepts_witness_output_on_far_circle(tmp_path, capsys):
    p = tmp_path / "far.lph"
    p.write_text(FAR_CIRCLE)
    assert main(["witness", str(p), "--seed", "0", "--json"]) == EXIT_OK
    sol = tmp_path / "points.json"
    sol.write_text(capsys.readouterr().out)
    assert json.loads(sol.read_text())["solutions"]
    assert main(["verify", str(p), str(sol)]) == EXIT_OK


def test_verify_rejects_point_moved_off_far_circle(tmp_path, capsys):
    # moved by 1e-2, the point's residual (about 1.6e6) still passes the
    # residual test against the magnitude (about 3.8e12), but its Newton step
    # (about 6.8e-3) fails the contraction test's bound of about 1e-4
    p = tmp_path / "far.lph"
    p.write_text(FAR_CIRCLE)
    assert main(["witness", str(p), "--seed", "0", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    doc["solutions"][0]["x"][0] += 1e-2
    sol = tmp_path / "moved.json"
    sol.write_text(json.dumps(doc))
    assert main(["verify", str(p), str(sol)]) == EXIT_VERIFY_FAIL
    assert "FAIL, 1 failing, the first at index 0" in capsys.readouterr().out


def test_verify_overflowing_point_fails(circle_file, tmp_path, capsys):
    # a point whose Jacobian overflows gets a NaN Newton step, which fails
    sol = tmp_path / "huge.json"
    sol.write_text(json.dumps({"solutions": [{"x": [1e200, 0.0]}]}))
    assert main(["verify", circle_file, str(sol)]) == EXIT_VERIFY_FAIL
    assert "step nan)" in capsys.readouterr().out


def test_verify_with_solve_beta_override(circle_file, tmp_path, capsys):
    assert main(["solve", circle_file, "--seed", "1", "--json", "--beta", "1,0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["system"]["beta"] == [1.0, 0.0]
    sol = tmp_path / "sol.json"
    sol.write_text(out)
    assert main(["verify", circle_file, str(sol), "--beta", "1,0"]) == EXIT_OK


def test_verify_takes_beta_from_solutions_file(tmp_path, capsys):
    p = tmp_path / "nobeta.lph"
    p.write_text("vars: x y\nf:\n  x^2 + y^2 - 1\nJ: jacobian\n")
    assert main(["solve", str(p), "--seed", "1", "--json", "--beta", "1,0"]) == EXIT_OK
    sol = tmp_path / "sol.json"
    sol.write_text(capsys.readouterr().out)
    assert main(["verify", str(p), str(sol)]) == EXIT_OK


@pytest.mark.parametrize("echo", [[1, 0, 2], {"x": 1}, "1,0", [[1, 0]]],
                         ids=["length-3", "dict", "string", "nested"])
def test_verify_malformed_echoed_beta_exit_2(tmp_path, capsys, echo):
    # the echoed beta is checked like --beta: one number per variable
    p = tmp_path / "nobeta.lph"
    p.write_text("vars: x y\nf:\n  x^2 + y^2 - 1\nJ: jacobian\n")
    assert main(["solve", str(p), "--seed", "1", "--json", "--beta", "1,0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    doc["system"]["beta"] = echo
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(doc))
    assert main(["verify", str(p), str(sol)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: system.beta")


@pytest.mark.parametrize("doc", [
    '{"solutions": [{"y": [[1, 0]]}]}',   # a record without "x"
    '[{"x": [[1, 0], [0, 0]]}]',          # a top-level list
    # coordinates of the wrong length, which the evaluator does not check
    '{"solutions": [{"x": [0.6, 0.8, 5]}]}',
    '{"solutions": [{"x": [0.6]}]}',
    '{"solutions": [{"x": [0.6, 0.8, 5], "lambda": [0.5]}]}',
    '{"solutions": [{"x": [0.6], "lambda": [0.5]}]}',
    '{"solutions": [{"x": [0.6], "lambda": [0.8, 0.5]}]}',
], ids=["record-without-x", "top-level-list", "x-too-long", "x-too-short",
        "x-too-long-with-lambda", "x-too-short-with-lambda", "lambda-too-long"])
def test_verify_malformed_solutions_exit_2(circle_file, tmp_path, capsys, doc):
    sol = tmp_path / "bad.json"
    sol.write_text(doc)
    assert main(["verify", circle_file, str(sol)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error:")


def test_verify_empty_passes_with_warning(circle_file, tmp_path, capsys):
    sol = tmp_path / "empty.json"
    sol.write_text('{"solutions": []}')
    assert main(["verify", circle_file, str(sol)]) == EXIT_OK
    assert "vacuous" in capsys.readouterr().err


def test_lph_seed_env_fallback(circle_file, capsys, monkeypatch):
    monkeypatch.setenv("LPH_SEED", "1")
    main(["solve", circle_file, "--json"])
    with_env = capsys.readouterr().out
    monkeypatch.delenv("LPH_SEED")
    main(["solve", circle_file, "--seed", "1", "--json"])
    explicit = capsys.readouterr().out
    assert with_env == explicit


def test_bad_env_seed(circle_file, capsys, monkeypatch):
    monkeypatch.setenv("LPH_SEED", "not-a-number")
    assert main(["solve", circle_file]) == EXIT_PARSE


def test_flag_validation_exit_2(circle_file, capsys):
    assert main(["solve", circle_file, "--seed", "-1"]) == EXIT_PARSE
    assert "--seed" in capsys.readouterr().err


def test_unread_flag_exit_2(circle_file):
    # bound takes no witness offsets, so it does not take --c
    with pytest.raises(SystemExit) as exc:
        main(["bound", circle_file, "--c", "1"])
    assert exc.value.code == 2


def test_subcommand_flag_sets():
    # each subcommand registers only the flags it reads, and every one of
    # them is an input or an output format, not a numerical setting
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {name: {opt for action in p._actions for opt in action.option_strings}
             - {"-h", "--help"} for name, p in subparsers.choices.items()}
    assert flags == {
        "solve": {"--seed", "--json", "--beta"},
        "witness": {"--seed", "--json", "--beta", "--c"},
        "bound": {"--seed", "--json"},
        "verify": {"--beta"},
    }


def test_zero_constant_J_yields_empty_solve(tmp_path, capsys):
    # a constant J has no isolated solution: J * lambda = beta is either
    # inconsistent (the first input) or solvable with x anywhere on V(f)
    for text in ["vars: x y\nf:\n  x*y - 1\nJ:\n  0\n  0\nbeta: 1 0\n",
                 "vars: x y\nf:\n  x + y - 1\nJ: jacobian\nbeta: 1 1\n"]:
        p = tmp_path / "zero.lph"
        p.write_text(text)
        assert main(["solve", str(p), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["solutions"] == []


def test_zero_beta_exit_3(tmp_path, capsys):
    p = tmp_path / "zb.lph"
    p.write_text("vars: x y\nf:\n  x^2 + y^2 - 1\nJ: jacobian\nbeta: 0 0\n")
    assert main(["solve", str(p)]) == EXIT_NUMERICAL


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_beta_flag_of_wrong_length_exit_2(circle_file, tmp_path, capsys, command):
    # a malformed flag is a usage error, as in witness; a zero beta of the
    # right length stays a numerical failure
    assert main(["solve", circle_file, "--seed", "1", "--json"]) == EXIT_OK
    sol = tmp_path / "sol.json"
    sol.write_text(capsys.readouterr().out)
    args = [command, circle_file] + ([str(sol)] if command == "verify" else [])
    assert main(args + ["--beta", "1,0,0"]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: --beta length")
    assert main(args + ["--beta", "0,0"]) == EXIT_NUMERICAL
