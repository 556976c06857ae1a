"""Golden tests for the germforge command-line interface."""

import gc
import json
import os

import pytest

import germforge
from germforge import cli, intrinsic, singularity
from germforge.cli import main
from germforge.germexpr import parse_and_expand, parse_germ, taylor_expand
from germforge.intrinsic import INCREASE_BOUND_WARNING, mrt_span
from germforge.linalg import RowSpace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_germ_text(capsys):
    code, out, _err = run(capsys, "verify", "x^3-sin(lambda)",
                          "--vars", "x,lambda")
    assert code == 0
    assert out == (
        "The following rings are allowed as the means of computations:\n"
        "\n"
        "Ring of smooth germs\n"
        "\n"
        "Ring of formal power series\n"
        "\n"
        "Ring of fractional germs\n"
        "\n"
        "The truncation degree must be: 3\n")


def test_verify_ideal_text(capsys):
    code, out, _err = run(capsys, "verify", "--ideal", "x^2-lambda^3",
                          "x*lambda", "--vars", "x,lambda")
    assert code == 0
    assert out == (
        "The following rings are allowed as means of computations:\n"
        "\n"
        "Ring of smooth germs\n"
        "\n"
        "Ring of formal power series\n"
        "\n"
        "Ring of fractional germs\n"
        "\n"
        "The truncated degree must be: 4\n")


def test_verify_low_upper_bound_warns(capsys):
    code, out, _err = run(capsys, "verify", "x^3-sin(lambda)",
                          "--vars", "x,lambda", "--upper-bound", "2")
    assert code == 0
    assert "Increase the upper bound for the truncation degree!" in out


def test_verify_ideal_expands_at_the_search_bound(capsys):
    # an answer above 12 needs the germs expanded past degree 12
    code, out, _err = run(capsys, "verify", "--ideal", "x^13", "lambda",
                          "--vars", "x,lambda")
    assert code == 0
    assert out.endswith("The truncated degree must be: 13\n")
    code, out, _err = run(capsys, "verify", "--ideal", "x^13", "lambda",
                          "--vars", "x,lambda", "--upper-bound", "12")
    assert code == 0
    assert out == INCREASE_BOUND_WARNING + "\n"


FOUND_RINGS = ["smooth", "formal", "fractional"]


@pytest.mark.parametrize("argv, rings", [
    (["x^3 - lambda"], FOUND_RINGS + ["polynomial"]),
    (["x^3 - sin(lambda)"], FOUND_RINGS),
    (["--ideal", "x^2 - lambda^3", "x*lambda"], FOUND_RINGS),
    (["x^3 - lambda", "--upper-bound", "2"], ["smooth", "formal"]),
])
def test_verify_names_the_permitted_rings(capsys, argv, rings):
    # polynomials are permitted for a polynomial germ once a truncation
    # degree is found, never for an ideal; the text names the rings only
    # with a degree
    code, out, _err = run(capsys, "verify", *argv, "--vars", "x,lambda",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["rings"] == rings
    code, out, _err = run(capsys, "verify", *argv, "--vars", "x,lambda")
    named = [line for line in out.splitlines() if line.startswith("Ring ")]
    assert named == ([cli.RING_NAMES[r] for r in rings]
                     if "fractional" in rings else [])


@pytest.mark.parametrize("argv, warning", [
    (["normalform"], cli.NF_POLY_WARNING),
    (["unfolding"], cli.UNFOLDING_POLY_WARNING),
    (["unfolding", "--normalform"], cli.UNFOLDING_POLY_WARNING),
])
@pytest.mark.parametrize("germ, polynomial", [
    ("x^3 + sin(lambda)", False),
    ("x*sin(lambda)", False),  # also warns that no degree is found
    ("x^3 + lambda", True),
    ("x*lambda", True),
])
def test_ring_polynomial_only_warns_for_a_nonpolynomial_germ(
        capsys, argv, warning, germ, polynomial):
    # --ring polynomial changes no result; for a germ that is not a
    # polynomial its warning comes once, before the other warnings
    common = [argv[0], germ, *argv[1:], "--vars", "x,lambda"]
    outputs = {}
    for ring in ("fractional", "polynomial"):
        for fmt in ("text", "json"):
            code, out, _err = run(capsys, *common, "--ring", ring,
                                  "--format", fmt)
            assert code == 0
            outputs[ring, fmt] = out
    plain = json.loads(outputs["fractional", "json"])
    warned = json.loads(outputs["polynomial", "json"])
    assert warning not in plain["warnings"]
    assert warned["result"] == plain["result"]
    expected = ([] if polynomial else [warning]) + plain["warnings"]
    assert warned["warnings"] == expected
    lines = outputs["fractional", "text"].splitlines()
    first_warning = len(lines) - len(plain["warnings"])
    assert outputs["polynomial", "text"].splitlines() == \
        lines[:first_warning] + expected


STABILITY_WARNING = ("The truncation degree is not sufficiently high and "
                     "thus, the following results might be wrong.")


@pytest.mark.parametrize("order, warned", [("lex", True), ("local", False)])
def test_standard_basis_warns_only_under_a_global_order(capsys, order,
                                                       warned):
    # x^2 - 3/2*x^3 - x^2*lambda^2 and -3/2*x - x*lambda^2 under lex at
    # degree 4: the basis at degree 5 has other leading monomials of
    # degree <= 4; the local basis is stable by its leading forms
    code, out, _err = run(capsys, "standard-basis",
                          "x^2 - 3/2*x^3 - x^2*lambda^2",
                          "-3/2*x - x*lambda^2", "--vars", "x,lambda",
                          "--order", order, "--degree", "4")
    assert code == 0
    assert (STABILITY_WARNING in out.splitlines()) == warned


@pytest.mark.parametrize("order, basis", [("lex", "-2*x + x^2*lambda\n"),
                                          ("local", "x\n")])
def test_standard_basis_of_x_times_a_unit_by_order(capsys, order, basis):
    # -2*x + x^2*lambda = x*(-2 + x*lambda): the local order inverts the
    # unit and finds x; a global order computes in the polynomial ring cut
    # at the degree, where x is not in the ideal
    code, out, _err = run(capsys, "standard-basis", "-2*x + x^2*lambda",
                          "--vars", "x,lambda", "--order", order,
                          "--degree", "6")
    assert code == 0
    assert out == basis


def test_untruncated_standard_basis_prints_no_unit_factor(capsys):
    # the ideal has infinite codimension, so its interreduced local basis
    # is printed, and its second generator is lam^5 times a unit.  That
    # unit was stripped before the tail was weak-normalized, and the
    # rebuilt lead*unit + r printed lam^5 + 4/3*x^2*lam^5 - ...; at degree
    # 8 it was lam^5
    argv = ["standard-basis", "-5*x^2*lam - 20/3*x*lam^3",
            "-3/2*x*lam - 3/2*lam^3 - 2*x^3*lam", "--vars", "x,lam"]
    assert run(capsys, *argv) \
        == (0, "x*lam + lam^3 + 4/3*x^3*lam\nlam^5\n", "")
    assert run(capsys, *argv, "--degree", "8") \
        == (0, "x*lam + lam^3\nlam^5\n", "")


def test_verify_persistent(capsys):
    code, out, _err = run(capsys, "verify", "--persistent",
                          "x^3-sin(lambda)", "--vars", "x,lambda")
    assert code == 0
    assert out == "The least permissible truncation degree is: 3\n"
    # the search starts at the determinacy degree of the germ
    for germ, k in (("x^4-lambda*x", 4), ("x^5-lambda", 5)):
        code, out, _err = run(capsys, "verify", "--persistent", germ,
                              "--vars", "x,lambda")
        assert code == 0
        assert out == "The least permissible truncation degree is: %d\n" % k


def refuse(*args, **kwargs):
    raise AssertionError("called")


def test_verify_persistent_reads_the_determinacy_degree(capsys, monkeypatch):
    # no normal form or unfolding: the search bound is the user's, so a
    # degree above 20 is found
    for name in ("cli.normal_form", "cli.universal_unfolding"):
        monkeypatch.setattr("germforge." + name, refuse, raising=False)
    code, out, err = run(capsys, "verify", "--persistent", "x^21 - lambda",
                         "--vars", "x,lambda", "--upper-bound", "25")
    assert (code, out, err) == (
        0, "The least permissible truncation degree is: 21\n", "")


def test_verify_persistent_without_truncation_degree_warns(capsys):
    # x^7 - lambda has truncation degree 7, above the bound 5: no degree is
    # printed, only the bound warning, and the exit is 0
    argv = ["verify", "--persistent", "x^7 - lambda", "--vars", "x,lambda",
            "--upper-bound", "5"]
    assert run(capsys, *argv) == (0, INCREASE_BOUND_WARNING + "\n", "")
    code, out, _err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert (code, payload["inputs"]) == (0, {"germ": "x^7 - lambda"})
    assert payload["result"] == {"truncation_degree": None}
    assert payload["warnings"] == [INCREASE_BOUND_WARNING]


# the moduli-free normal forms of codimension <= 3 (Golubitsky and
# Schaeffer I, ch. IV, Table 2.1)
CATALOG_FORMS = ["x^2 - lambda", "x^3 - lambda", "x^3 + lambda",
                 "x^2 + lambda^2", "x^2 - lambda^2", "x^3 - x*lambda",
                 "x^4 - lambda", "x^2 + lambda^3", "x^5 - lambda",
                 "x^3 + lambda^2", "x^4 - x*lambda", "x^2 - lambda^4"]


@pytest.mark.parametrize("f", CATALOG_FORMS)
def test_verify_persistent_is_verify_on_contact_images(capsys, f):
    # S*f(X, Lambda) with X carrying a lambda term
    g = "(1 + 1/2*x - lambda)*(%s)" % f.replace("lambda", "L").replace(
        "x", "(3/2*x + 1/2*lambda - x^2)").replace("L", "(2*lambda - lambda^2)")
    degrees = []
    for mode in ([], ["--persistent"]):
        code, out, _err = run(capsys, "verify", *mode, g, "--vars",
                              "x,lambda", "--format", "json")
        assert code == 0
        degrees.append(json.loads(out)["result"]["truncation_degree"])
    assert degrees[0] is not None and degrees[0] == degrees[1]


def test_normalform(capsys):
    code, out, _err = run(capsys, "normalform", "sin(lambda)-x^3",
                          "--vars", "x,lambda")
    assert code == 0
    assert out == "-x^3 + lambda\n"
    # P = M^4 does not hold x*lambda^2, so the greedy removal drops it: the
    # germ is (x + lambda^2/2)^2 + lambda^3 modulo M^4
    assert run(capsys, "normalform", "x^2 + lambda^3 + x*lambda^2",
               "--vars", "x,lambda")[:2] == (0, "lambda^3 + x^2\n")


def test_unfolding_list(capsys):
    code, out, _err = run(capsys, "unfolding", "x^3-x*lambda",
                          "--vars", "x,lambda", "--list")
    assert code == 0
    assert set(out.splitlines()) == {
        "a1 - x*lambda + lambda*a2 + x^3",
        "a1 - x*lambda + x^3 + x^2*a2",
    }


def test_check_universal(capsys):
    code, out, _err = run(capsys, "check-universal",
                          "x^5-lambda+a1*x+a2*x^2+a3*x^3",
                          "--vars", "x,lambda", "--params", "a1,a2,a3")
    assert code == 0
    assert out == "Yes\n"


def test_check_universal_warns_without_truncation_degree(capsys):
    # x^2 has no truncation degree: the answer is computed at degree 6 and
    # says so, as `unfolding` and `normalform` do
    argv = ["check-universal", "x^2 + a1", "--params", "a1", "--vars",
            "x,lambda"]
    code, out, _err = run(capsys, *argv)
    assert (code, out) == (0, "No\n" + INCREASE_BOUND_WARNING + "\n")
    code, out, _err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert payload["result"] == {"universal": "No"}
    assert payload["warnings"] == [INCREASE_BOUND_WARNING]


def test_recognize(capsys):
    code, out, _err = run(capsys, "recognize", "x^3-lambda",
                          "--vars", "x,lambda")
    assert code == 0
    assert out == ("zero condition=[f(0)=0, f_{x}(0)=0, f_{x,x}(0)=0], "
                   "nonzero condition=[f_{lambda}(0)!=0, "
                   "f_{x,x,x}(0)!=0]\n")


def test_transform(capsys):
    code, out, _err = run(capsys, "transform", "x^3-sin(lambda)",
                          "x^3-lambda", "--vars", "x,lambda")
    assert code == 0
    assert out == ("X = x\n"
                   "Lambda = lambda\n"
                   "S = 1 + 1/6*lambda^2\n")


def test_transform_scales_every_variable(capsys):
    # the scaling S = 16, X = x/2, Lambda = lambda/4 moves all three
    # exponents at every prime of the ratio 2
    g, f = "x^3 + lambda^2", "2*x^3 + lambda^2"
    code, out, _err = run(capsys, "transform", g, f, "--vars", "x,lambda")
    assert code == 0
    names = ("x", "lambda")
    X, L, S = (parse_and_expand(line.split(" = ")[1], names, 4)
               for line in out.splitlines())
    residual = (parse_and_expand(f, names, 4)
                - S * parse_and_expand(g, names, 4).compose(
                    {"x": X, "lambda": L}))
    assert all(sum(m) >= 4 for m in residual.terms)


def test_normalform_of_a_large_prime_coefficient(capsys):
    code, out, _err = run(capsys, "normalform",
                          "10000000000000061*x^2 + lambda",
                          "--vars", "x,lambda")
    assert (code, out) == (0, "x^2 + lambda\n")


def test_division(capsys):
    code, out, _err = run(capsys, "division", "x*lambda+lambda^3",
                          "x^2", "x*lambda-lambda^3",
                          "--vars", "x,lambda", "--degree", "8")
    assert code == 0
    assert out == ("unit = 1\n"
                   "q1 = 0\n"
                   "q2 = 1\n"
                   "remainder = 2*lambda^3\n")


def test_transition_set(capsys):
    code, out, _err = run(capsys, "transition-set",
                          "x^4-lambda*x+a1+a2*lambda+a3*x^2",
                          "--vars", "x,lambda", "--params", "a1,a2,a3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "B: {a1 + a2^2*a3 + a2^4 = 0}"
    assert lines[1] == ("H: {432*a1^2 + 72*a1*a3^2 + 3*a3^4 "
                        "+ 128*a2^2*a3^3 = 0}")
    assert lines[2] == "D: {4*a1 - a3^2 = 0} with a3 <= 0"


def test_realness_warning_reaches_json_warnings(capsys):
    # no basis element gives D = a1*(3125*a1^4 - 768*a2^5) an exact realness
    # condition, so D may hold parameters of complex pairs; every command
    # that computes the transition set reports it
    germ = "x^6-lambda+a1*x+a2*x^2"
    for command, extra in (("transition-set", []),
                           ("nonpersistent", ["--boundary=-2,2,1,3"]),
                           ("persistent", ["--grid", "5"])):
        code, out, _err = run(capsys, command, germ, "--vars", "x,lambda",
                              "--params", "a1,a2", "--format", "json",
                              *extra)
        assert code == 0
        warnings = json.loads(out)["warnings"]
        assert len(warnings) == 1, command
        assert warnings[0].startswith("D: ") and "complex" in warnings[0]


def test_persistent_regions(capsys):
    code, out, _err = run(capsys, "persistent", "x^3-lambda*x+a1",
                          "--vars", "x,lambda", "--params", "a1",
                          "--grid", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("region 1: alpha = (-1)")
    assert lines[1].startswith("region 2: alpha = (")
    # the one point of grid 1, a1 = 0, lies on B: no region, and a warning
    code, out, _err = run(capsys, "persistent", "x^3-lambda*x+a1",
                          "--vars", "x,lambda", "--params", "a1",
                          "--grid", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["result"]["representatives"] == []
    assert payload["warnings"] == [
        "grid may be too coarse: no grid point lies off the transition set"]


def test_persistent_box_bounds_the_grid(capsys):
    # B = {a1 = 0}: the default box [-1, 1] holds a region on each side of
    # it, --box=0,2 only the side a1 > 0, whose first grid point off B is
    # a1 = 1/4
    argv = ["persistent", "x^3-lambda*x+a1", "--vars", "x,lambda",
            "--params", "a1", "--grid", "9", "--format", "json"]
    reps = [json.loads(run(capsys, *argv, *box)[1])["result"]
            ["representatives"] for box in ([], ["--box=0,2"])]
    assert reps == [[["-1"], ["1/4"]], [["1/4"]]]


def test_persistent_warns_once_of_a_shared_polynomial(capsys):
    # B and H of x^3 - lambda*x + a1 are both {a1 = 0}: on the box [0, 2]
    # a1 keeps one sign, which is said once
    code, out, _err = run(capsys, "persistent", "x^3-lambda*x+a1",
                          "--vars", "x,lambda", "--params", "a1",
                          "--grid", "9", "--box=0,2", "--format", "json")
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "grid may be too coarse: a1 keeps one sign on the grid"]


@pytest.mark.parametrize("divisor", ["(-2)", "(1+1)", "2^1", "(4/2)",
                                     "(2*x^0)"])
def test_a_number_divisor_keeps_a_polynomial(capsys, divisor):
    # a divisor that folds to a number divides the coefficient, so the
    # germ stays a polynomial and needs no --degree
    sign = "-" if divisor == "(-2)" else ""
    code, out, _err = run(capsys, "transition-set",
                          "%sx^3/%s - lam + a1*x" % (sign, divisor),
                          "--vars", "x,lam", "--params", "a1")
    assert code == 0
    assert out == run(capsys, "transition-set", "x^3/2 - lam + a1*x",
                      "--vars", "x,lam", "--params", "a1")[1]


def test_persistent_plot_writes_one_diagram_per_region(capsys, tmp_path):
    code, out, _err = run(capsys, "persistent", "x^3-lambda*x+a1",
                          "--vars", "x,lambda", "--params", "a1",
                          "--grid", "9", "--plot", str(tmp_path),
                          "--resolution", "20", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    names = ["diagram_%03d.%s" % (i + 1, ext)
             for i in range(len(result["representatives"]))
             for ext in ("svg", "csv")]
    assert len(names) == 4
    assert result["files"] == [str(tmp_path / n) for n in names]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    for svg, csv in zip(names[::2], names[1::2]):
        assert "<svg" in (tmp_path / svg).read_text()
        assert (tmp_path / csv).read_text().startswith("curve_id,lambda,x\n")


def test_persistent_degree_cuts_only_x_and_lambda(capsys):
    # a1*x^2 has x-lambda degree 2, so --degree 2 keeps it, as it does for
    # transition-set; a cut in total degree dropped it
    argv = ["persistent", "x^2 - lambda + a1*x^2", "--vars", "x,lambda",
            "--params", "a1", "--grid", "5"]
    exact = run(capsys, *argv)
    assert exact[0] == 0 and "signs = (+, +)" in exact[1]
    assert run(capsys, *argv, "--degree", "2") == exact
    # x^3*lambda^2 lies above the cut: every unfolding command answers at
    # --degree 3 as it does for the germ without it
    germ = "x^3 - x*lambda + a1 + a2*x^2"
    flags = ["--vars", "x,lambda", "--params", "a1,a2", "--degree", "3"]
    for command in (["transition-set"],
                    ["nonpersistent", "--boundary=-1,1,-1,1"],
                    ["check-universal"], ["persistent", "--grid", "5"]):
        cut = run(capsys, *command, germ + " + x^3*lambda^2", *flags)
        assert cut[0] == 0
        assert cut == run(capsys, *command, germ, *flags)


def test_json_format(capsys):
    code, out, _err = run(capsys, "normalform", "sin(lambda)-x^3",
                          "--vars", "x,lambda", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "result", "warnings"}
    assert payload["command"] == "normalform"
    assert payload["result"]["normal_form"] == "-x^3 + lambda"
    assert payload["warnings"] == []


def test_usage_error_exit_2(capsys):
    code, _out, err = run(capsys, "normalform", "x^3", "--vars", "x")
    assert code == 2
    assert "error:" in err


def test_missing_boundary_exit_2(capsys):
    code, _out, err = run(capsys, "nonpersistent", "x^2-lambda+a1",
                          "--vars", "x,lambda", "--params", "a1")
    assert code == 2
    assert "--boundary" in err


def test_nonpersistent_dense_boundary_family(capsys):
    # at u = 0, F(0, lambda) = 0 for every lambda, and F_x(0, lambda) =
    # a1 - lambda vanishes at lambda = a1: L_SH, L_T and G_1 each cover the
    # whole parameter space, as L_C does, and are not empty
    argv = ["nonpersistent", "x^3 - x*lambda + a1*x", "--vars", "x,lambda",
            "--params", "a1", "--boundary=0,1,-1,1"]
    code, out, _err = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    for name in ("L_C", "L_SH", "L_T", "G_1"):
        assert "%s: whole parameter space" % name in lines
    assert "L_SV: {1 + a1 = 0} union {-1 + a1 = 0}" in lines
    code, out, _err = run(capsys, *argv, "--format", "json")
    comps = json.loads(out)["result"]["components"]
    for name in ("L_SH", "L_T", "G_1"):
        assert comps[name] == {"note": "dense", "side_conditions": [],
                               "systems": []}


def test_math_error_exit_1(capsys):
    code, _out, err = run(capsys, "normalset", "x^2", "--vars", "x,lambda")
    assert code == 1
    assert "infinite codimension" in err


def test_colon_ideal_aux_name_does_not_clash(capsys):
    # the intersection's auxiliary variable is renamed away from a user
    # variable called _t
    code, out, _err = run(capsys, "colon-ideal", "_t*lambda", "--by", "_t",
                          "--vars", "_t,lambda", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["basis"] == ["lambda"]
    code, out, _err = run(capsys, "colon-ideal", "x^2*_t", "--by", "x",
                          "--vars", "x,_t")
    assert code == 0
    assert out == "x*_t\n"


def test_colon_ideal_degree_answers_in_the_jet_space(capsys):
    # with --degree the colon is taken in J^6, where x^7 = 0, so x^6 joins
    # lambda; without it the colon is taken in the local ring
    argv = ["colon-ideal", "x*lambda", "--by", "x", "--vars", "x,lambda"]
    code, out, _err = run(capsys, *argv, "--degree", "6")
    assert code == 0
    assert out == "lambda\nx^6\n"
    code, out, _err = run(capsys, *argv)
    assert code == 0
    assert out == "lambda\n"


@pytest.mark.parametrize("argv, degree, expected", [
    # without --degree these were cut at degree 10 (8 for intrinsic)
    (["standard-basis", "x^11 + lambda^2", "x*lambda"], 12,
     "x*lambda\nlambda^2 + x^11\nx^12\n"),
    (["normalset", "x^11 + lambda^2", "x*lambda"], 12,
     "{1, x, lambda, x^2, x^3, x^4, x^5, x^6, x^7, x^8, x^9, x^10, x^11}\n"),
    (["colon-ideal", "x^11 + lambda^2", "x*lambda", "--by", "lambda"], 12,
     "x\nlambda^2\n"),
    (["intrinsic", "x^9 + lambda", "x^10"], 12, "M^10 + M<lambda>\n"),
    (["intrinsic", "lambda - x^2", "lambda^2"], 8,
     "M^4 + M^2<lambda> + <lambda^2>\n"),
    # the untruncated colon is reduced: the t-trick gave a first generator
    # whose tail held lambda^3
    (["colon-ideal", "x^2", "lambda^3 + 1/2*lambda^4 - 1/2*x^4*lambda",
      "3/2*x^2", "--by", "x - lambda^2"], 8, "x + lambda^2\nlambda^3\n"),
], ids=["standard-basis", "normalset", "colon-ideal", "intrinsic-x^9",
        "intrinsic-codim-4", "colon-ideal-reduced"])
def test_polynomial_input_is_exact_without_degree(capsys, argv, degree,
                                                  expected):
    # a polynomial ideal of finite codimension is answered at its own
    # degree, as at any sufficient --degree
    exact = run(capsys, *argv, "--vars", "x,lambda")
    assert exact == (0, expected, "")
    assert run(capsys, *argv, "--vars", "x,lambda", "--degree",
               str(degree)) == exact


def test_nonpolynomial_germ_needs_a_degree(capsys):
    argv = ["normalset", "sin(x)", "lambda^2", "--vars", "x,lambda"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "give --degree" in err
    assert run(capsys, *argv, "--degree", "4") == (0, "{1, lambda}\n", "")


def test_unfolding_list_cap_warns(capsys, monkeypatch):
    # x^3 + x*lambda^2 + lambda^4 has 4 monomial complements of T; a cap of
    # 1 lists the first and says the list was cut
    monkeypatch.setattr("germforge.singularity.LIST_CAP", 1)
    code, out, _err = run(capsys, "unfolding", "x^3 + x*lambda^2 + lambda^4",
                          "--vars", "x,lambda", "--list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]["unfoldings"]) == 1
    assert payload["warnings"] == [
        "only the first 1 monomial complements of T are listed"]


CUBIC = ["x^3-lambda*x+a1", "--vars", "x,lambda", "--params", "a1"]
# with --params a1 the transition set has H = {a1 = 0} and the unfolding is
# universal
REPEATED_PARAM = ["x^3-lambda+a1*x", "--vars", "x,lambda", "--params",
                  "a1,a1"]
WINGED_CUSP = ["x^3-lambda*x+a1+a2*lambda+a3*x^2", "--vars", "x,lambda",
               "--params", "a1,a2,a3"]
# not a polynomial, so the unfolding commands need --degree
SINE_CUBIC = ["sin(x)^3 - lambda + a1*x", "--vars", "x,lambda", "--params",
              "a1"]


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["persistent", *CUBIC, "--plot", "{tmp}", "--window=0,1"],
                 "--window", id="window-count"),
    pytest.param(["persistent", *CUBIC, "--window=0,1,a,2"], "--window",
                 id="window-value"),
    pytest.param(["persistent", *CUBIC, "--plot", "{tmp}",
                  "--window=1,1,-1,1"], "lo < hi", id="window-empty"),
    pytest.param(["persistent", *CUBIC, "--plot", "{tmp}",
                  "--window=1,-1,-1,1"], "lo < hi", id="window-reversed"),
    pytest.param(["persistent", *CUBIC, "--plot", "{tmp}",
                  "--window=-1,1,1/2,-1/2"], "lo < hi",
                 id="window-reversed-x"),
    pytest.param(["persistent", *CUBIC, "--plot", "{tmp}",
                  "--window=0,1e400,-1,1"], "float range",
                 id="window-overflow"),
    pytest.param(["persistent", *CUBIC, "--plot", "{tmp}",
                  "--window=-1e308,1e308,-1,1"], "-1e308,1e308,-1,1",
                 id="window-width-overflow"),
    pytest.param(["nonpersistent", *CUBIC, "--boundary=0,1,a,2"],
                 "--boundary", id="boundary-value"),
    pytest.param(["nonpersistent", *CUBIC, "--boundary=0,1/0,1,2"],
                 "--boundary", id="boundary-zero-denominator"),
    pytest.param(["persistent", *CUBIC, "--box=-1,1,2,3"], "--box",
                 id="box-too-long"),
    pytest.param(["persistent", *WINGED_CUSP, "--box=-1,1,-1,1"], "--box",
                 id="box-too-short"),
    pytest.param(["transition-set", *CUBIC, "--plot", "{tmp}/D"], "--plot",
                 id="transition-set-plot-one-parameter"),
    pytest.param(["nonpersistent", *WINGED_CUSP, "--boundary=-2,2,1,3",
                  "--plot", "{tmp}/D"], "--plot",
                 id="nonpersistent-plot-three-parameters"),
    pytest.param(["division", "x", "0", "--vars", "x,lambda", "--degree",
                  "3"], "'0'", id="division-zero-divisor"),
    pytest.param(["division", "x", "x^9", "--vars", "x,lambda", "--degree",
                  "8"], "'x^9'", id="division-divisor-zero-at-degree"),
    pytest.param(["division", "x", "--vars", "x,lambda", "--degree", "3"],
                 "divisor", id="division-no-divisor"),
    pytest.param(["division", "x^2", "x", "--vars", "x,lambda"],
                 "--degree", id="division-no-degree"),
    pytest.param(["multmatrix", "x^2", "lambda^2", "--by", "x + lambda",
                  "--vars", "x,lambda", "--degree", "3"], "--by",
                 id="multmatrix-by-not-a-monomial"),
    pytest.param(["verify", "x^3 - lambda", "--vars", "x,lambda",
                  "--degree", "1"], "--degree", id="verify-degree-no-ideal"),
    pytest.param(["verify", "--persistent", "x^3 - lambda", "--vars",
                  "x,lambda", "--degree", "3"], "--degree",
                 id="verify-persistent-degree"),
    pytest.param(["colon-ideal", "x", "--by", "lambda^4", "--vars",
                  "x,lambda", "--degree", "3"], "--by",
                 id="colon-ideal-by-zero"),
    pytest.param(["transform", "x^3", "--vars", "x,lambda"], "two germs",
                 id="transform-one-germ"),
    pytest.param(["transition-set", "x^3 - lam*x + a1 + a2*x^2", "--vars",
                  "x,lam", "--params", "a1,a2", "--plot", "{tmp}/nodir/ts"],
                 "--plot", id="transition-set-plot-missing-directory"),
    pytest.param(["persistent", *CUBIC, "--plot", "{tmp}/plots/pd"],
                 "--plot", id="persistent-plot-missing-directory"),
    pytest.param(["persistent", *CUBIC, "--grid", "0"], "--grid",
                 id="persistent-grid-zero"),
    pytest.param(["persistent", *CUBIC, "--grid=-3"], "--grid",
                 id="persistent-grid-negative"),
    pytest.param(["persistent", *CUBIC, "--plot", "{tmp}", "--resolution",
                  "0"], "--resolution", id="persistent-resolution-zero"),
    pytest.param(["transform", "x^3-lambda", "x^3-lambda", "--vars",
                  "x,lambda", "--degree", "0"], "--degree",
                 id="transform-degree-zero"),
    pytest.param(["transform", "x^3-lambda", "x^3-lambda", "--vars",
                  "x,lambda", "--degree=-1"], "--degree",
                 id="transform-degree-negative"),
    pytest.param(["verify", "x^3-lambda", "--vars", "x,lambda",
                  "--upper-bound", "0"], "--upper-bound",
                 id="verify-upper-bound-zero"),
    pytest.param(["transition-set", *REPEATED_PARAM], "--params",
                 id="transition-set-repeated-param"),
    pytest.param(["check-universal", *REPEATED_PARAM], "--params",
                 id="check-universal-repeated-param"),
    pytest.param(["persistent", *REPEATED_PARAM], "--params",
                 id="persistent-repeated-param"),
    pytest.param(["normalform", "x^2+x^3", "--vars", "x,x"], "--vars",
                 id="normalform-repeated-var"),
    pytest.param(["transition-set", "x^3-lambda+a1*x", "--vars", "x,lambda",
                  "--params", "x"], "--vars and --params",
                 id="transition-set-param-named-as-var"),
    pytest.param(["recognize", "x^3 + x*lambda", "--vars", "x,lambda",
                  "--matrix=-1"], "--matrix", id="recognize-matrix-negative"),
    pytest.param(["transition-set", *SINE_CUBIC], "--degree",
                 id="transition-set-not-polynomial"),
    pytest.param(["nonpersistent", *SINE_CUBIC, "--boundary=-2,2,1,3"],
                 "--degree", id="nonpersistent-not-polynomial"),
    pytest.param(["persistent", *SINE_CUBIC, "--grid", "5"], "--degree",
                 id="persistent-not-polynomial"),
    pytest.param(["verify", "--persistent", "--ideal", "x^3 - lambda",
                  "--vars", "x,lambda"], "--ideal",
                 id="verify-persistent-ideal"),
    pytest.param(["normalform", "x^\u00b2", "--vars", "x,lambda"],
                 "expected an integer", id="normalform-superscript-exponent"),
    pytest.param(["normalform", "x^3 + 1/0*lambda", "--vars", "x,lambda"],
                 "vanishing at the origin", id="normalform-literal-over-zero"),
])
def test_malformed_input_exit_2(capsys, monkeypatch, tmp_path, argv, flag):
    # the input is refused before anything is computed, with one message
    # line and no traceback
    compute_nothing(monkeypatch)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


def compute_nothing(monkeypatch):
    """Replace the cli's computations by None, so that a command which
    computes anything fails with a TypeError."""
    for name in ("transition_set", "nonpersistent_sets", "classify_regions",
                 "mora_divide", "colon_ideal", "mult_matrix",
                 "transformation",
                 "verify_germ", "working_degree", "normal_form",
                 "check_universal", "recognition_unfolding",
                 "universal_unfolding", "alg_objects"):
        monkeypatch.setattr("germforge.cli." + name, None)


@pytest.mark.parametrize("command, flags", [
    ("verify", []), ("normalform", []), ("unfolding", []),
    ("recognize", []), ("algobjects", []),
    ("check-universal", ["--params", "a1"]),
    ("transition-set", ["--params", "a1"]),
    ("nonpersistent", ["--params", "a1", "--boundary=-2,2,1,3"]),
    ("persistent", ["--params", "a1"]), ("transform", []),
])
def test_a_wrong_number_of_germs_exit_2(capsys, monkeypatch, command, flags):
    # transform takes two germs and every other command here one; one germ
    # more (and for transform one fewer) is refused before anything is
    # computed, where an extra germ was once ignored
    compute_nothing(monkeypatch)
    count = 2 if command == "transform" else 1
    word = {1: "one germ,", 2: "two germs,"}[count]
    for n in {count - 1, count + 1} - {0}:
        germs = ["x^3 - lambda + a1*x", "x^2 + lambda^2", "x^3"][:n]
        code, out, err = run(capsys, command, *germs, "--vars", "x,lambda",
                             *flags)
        assert (code, out) == (2, "")
        assert err == "error: %s takes %s not %d\n" % (command, word, n)


@pytest.mark.parametrize("argv", [
    ["algobjects", "x^7"],
    ["recognize", "0"],
    ["recognize", "x^7"],
    ["recognize", "x^7", "--matrix", "1"],
    ["normalform", "0"],
    ["normalform", "x^7", "--degree", "3"],
    ["unfolding", "0"],
    ["unfolding", "0", "--normalform"],
    ["unfolding", "x^7", "--degree", "3", "--list"],
], ids=" ".join)
def test_germ_zero_at_working_degree_exit_1(capsys, argv):
    k = argv[argv.index("--degree") + 1] if "--degree" in argv else "6"
    code, out, err = run(capsys, *argv, "--vars", "x,lambda")
    assert (code, out) == (1, "")
    assert err == "error: the germ is zero up to degree %s\n" % k


def test_recognize_matrix_below_codim_t_exit_1(capsys):
    # E/T = {1, lambda}, so one parameter cannot unfold x^3 + x*lambda
    code, out, err = run(capsys, "recognize", "x^3 + x*lambda", "--matrix",
                         "1", "--vars", "x,lambda")
    assert (code, out) == (1, "")
    assert err == ("error: a universal unfolding needs at least codim T = 2 "
                   "parameters, not 1\n")


def test_recognize_matrix_spans_t_over_itr_from_t_generators(capsys):
    # codim T = 9 of dim E/Itr(T) = 20: the 11 germ rows need T's
    # generators beyond the ten of degree <= 2
    code, out, _err = run(capsys, "recognize", "x^3 + lambda^5", "--matrix",
                          "9", "--vars", "x,lambda", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["columns"]) == 20
    assert [len(row) for row in result["rows"]] == [20] * 20


def test_recognize_matrix_of_the_isola_is_one_parameter_row(capsys):
    # T(x^2 + lambda^2) = Itr(T) = M: no germ row, and the matrix is GS's
    # condition G_alpha(0) != 0
    code, out, err = run(capsys, "recognize", "x^2 + lambda^2", "--matrix",
                         "1", "--vars", "x,lambda")
    assert (code, out, err) == (0, "[G_{alpha1}(0)]\n", "")


def test_recognize_matrix_above_dim_e_over_itr_exit_1(capsys):
    code, out, err = run(capsys, "recognize", "x^2 + lambda^2", "--matrix",
                         "2", "--vars", "x,lambda")
    assert (code, out) == (1, "")
    assert err == ("error: the recognition matrix takes at most "
                   "dim E/Itr(T) = 1 parameters, not 2\n")


@pytest.mark.parametrize("g, f, message, k", [
    # the orders differ, or exactly one germ is zero: proved inequivalent;
    # the degree is one above the larger truncation degree, and 0 has none,
    # so its working degree is 6
    pytest.param("x^2 + lambda^2", "x^3 - lambda", "not equivalent", 4,
                 id="x^2 + lambda^2-x^3 - lambda-not equivalent"),
    pytest.param("0", "x^3 - lambda", "not equivalent", 7,
                 id="0-x^3 - lambda-not equivalent"),
    # the Newton vertices (2, 0) and (3, 0) differ
    pytest.param("x^2 + lambda^3", "x^3 + lambda^2", "not equivalent", 4,
                 id="x^2 + lambda^3-x^3 + lambda^2"),
    # the Newton vertices (3, 0) and (1, 1) differ: lambda divides only f
    pytest.param("x*lambda + x^3", "x*lambda + lambda^3", "not equivalent",
                 7, id="x*lambda + x^3-x*lambda + lambda^3"),
    # the principal parts x^2 - lambda and x^2 + lambda differ in a sign,
    # which no positive scaling flips
    pytest.param("x^2 - lambda", "x^2 + lambda",
                 "no contact transformation found", 3,
                 id="x^2 - lambda-x^2 + lambda"),
    # truncation degrees 5 and 6, a contact invariant; at degree 4 both
    # jets were -lambda and the identity was printed
    pytest.param("x^5 - lambda", "x^6 - lambda", "not equivalent", 7,
                 id="x^5 - lambda-x^6 - lambda"),
])
def test_transform_says_not_equivalent_only_where_proved(capsys, g, f,
                                                        message, k):
    code, out, err = run(capsys, "transform", g, f, "--vars", "x,lambda")
    assert (code, out) == (1, "")
    assert err == "error: %s up to degree %d\n" % (message, k)


def test_transform_finds_a_lambda_term_in_x(capsys):
    # equivalent by X = x + 6*lambda + ..., which the weighted Newton steps
    # find: lambda weighs 2 > w_x = 1 at the pitchfork's vertex
    g, f = "x^3 - x*lambda + 6*lambda^2", "x^3 - x*lambda"
    code, out, err = run(capsys, "transform", g, f, "--vars", "x,lambda",
                         "--format", "json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    names = ("x", "lambda")
    X, L, S = (parse_and_expand(result[key], names, 3)
               for key in ("X", "Lambda", "S"))
    assert X.terms[(0, 1)] == 6
    gk, fk = (parse_and_expand(text, names, 3) for text in (g, f))
    assert (fk - S * gk.compose({"x": X, "lambda": L})).is_zero()


@pytest.mark.parametrize("command, shown", [
    ("recognize", "f_{x,x,x,x,x,x,x}(0)!=0"),
    # codim T(x^7 - lambda) = 5
    ("algobjects", "E/T basis = {x, x^2, x^3, x^4, x^5}\n"),
], ids=["recognize", "algobjects"])
def test_answers_one_degree_above_the_truncation_degree(capsys, command,
                                                        shown):
    # x^7 - lambda has truncation degree 7; at the old fixed degree 6 its
    # jet was -lambda
    argv = [command, "x^7 - lambda", "--vars", "x,lambda"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and shown in out
    assert run(capsys, *argv, "--degree", "8") == (code, out, err)


def test_recognize_warns_without_truncation_degree(capsys):
    # x*lambda has no truncation degree: the conditions are read at degree
    # 6 and say so
    code, out, _err = run(capsys, "recognize", "x*lambda", "--vars",
                          "x,lambda")
    assert code == 0
    assert out.endswith("\n" + INCREASE_BOUND_WARNING + "\n")


@pytest.mark.parametrize("argv, k", [
    (["verify", "0"], 20),
    (["verify", "x^5", "--upper-bound", "4"], 4),
    (["verify", "--persistent", "0"], 20),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_verify_germ_zero_up_to_the_bound_exit_1(capsys, argv, k):
    # no truncation degree exists below the bound, and raising the bound
    # is no advice for a germ that is zero up to it; `verify --persistent`
    # searches as `verify` does
    code, out, err = run(capsys, *argv, "--vars", "x,lambda")
    assert (code, out) == (1, "")
    assert err == "error: the germ is zero up to degree %d\n" % k


@pytest.mark.parametrize("text, expansions", [
    pytest.param(text, expansions, id=text) for text, expansions in [
        ("sin(x + lambda^2) - x*lambda", [5, 8]),
        ("exp(x) - 1 - lambda", [5, 8]),
        ("x^3/(1 - lambda + x^2) + lambda", [5, 8]),
        # a number divides a function or a germ quotient: no polynomial
        ("sin(x)/2 + lambda", [5, 8]),
        ("x/(1 - x)/2 + lambda", [5, 8]),
        # a polynomial is expanded once, exactly
        ("(1 + x - lambda)^5 - x^3", [None]),
    ]])
def test_expander_truncates_its_highest_jet(monkeypatch, text, expansions):
    # expand(k) after a higher expand(K) is the direct k-jet, and no jet is
    # expanded above a degree that was asked for
    variables = ("x", "lambda")
    expanded = []

    def recording(tree, names, k):
        expanded.append(k)
        return taylor_expand(tree, names, k)

    monkeypatch.setattr(cli, "taylor_expand", recording)
    expand, polynomial = cli._germ(text, variables)
    tree = parse_germ(text, variables)
    for k in (5, 2, 5, 3, 8, 1):
        jet = expand(k)
        assert jet.degree == k
        assert jet == taylor_expand(tree, variables, k)
    assert expanded == expansions
    if polynomial:
        assert expand(None) == taylor_expand(tree, variables, None)
    else:
        with pytest.raises(cli.InputError, match="give --degree"):
            expand(None)


@pytest.mark.parametrize("argv", [
    ["algobjects", "x^3 - x*lambda"],
    ["recognize", "x^3 - x*lambda", "--matrix", "2"],
    ["unfolding", "x^3 - x*lambda", "--list"],
    ["check-universal", "x^3 - x*lambda + a1 + a2*lambda", "--params",
     "a1,a2"],
], ids=lambda argv: argv[0])
def test_each_germ_job_builds_one_mrt_span(capsys, monkeypatch, argv):
    # the truncation search builds M*RT only for the 3-jet, at degree 4
    # (the 1-jet is zero and the 2-jet, -x*lambda, has no x^a term), and
    # the tangent spans grow from that span: two `add_multiples`, at 4
    spans, multiples = [], []

    def recording(g, k):
        spans.append(k)
        return mrt_span(g, k)

    add_multiples = RowSpace.add_multiples

    def counting(self, f, least=0):
        multiples.append(self.degree)
        return add_multiples(self, f, least)

    monkeypatch.setattr(intrinsic, "mrt_span", recording)
    monkeypatch.setattr(singularity, "mrt_span", recording)
    monkeypatch.setattr(RowSpace, "add_multiples", counting)
    code, _out, err = run(capsys, *argv, "--vars", "x,lambda")
    assert (code, err) == (0, "")
    assert spans == [4] and multiples == [4, 4]


def germforge_garbage():
    """The germforge functions and frames in gc.garbage."""
    root = os.path.dirname(germforge.__file__)
    found = []
    for obj in gc.garbage:
        code = getattr(obj, "f_code", None) or getattr(obj, "__code__", None)
        if code is not None and code.co_filename.startswith(root):
            found.append(obj)
    return found


def test_germ_jobs_leave_no_reference_cycles(capsys):
    # a job's memory is freed when it ends, not by the cyclic collector:
    # no expansion and no exit through an error leaves a cycle behind
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(capsys, "normalform", "x^3 - x*lambda + lambda^2",
                   "--vars", "x,lambda")[0] == 0
        assert run(capsys, "transform", "x^3 - lambda", "x^3 + lambda",
                   "--vars", "x,lambda")[0] == 1
        gc.collect()
        assert germforge_garbage() == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
