"""Tests of the benchmark's own oracles, tracer and calibration.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each oracle accepts its reference and rejects a known-wrong output.
"""

import json
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gfpoly as gp  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

XL = ("x", "lambda")


def _refs():
    with open(os.path.join(BENCH, "refs", "sigma.json")) as fh:
        return json.load(fh)


def _entry(name):
    return next(e for e in workloads._entries() if e["name"] == name)


def test_g1_oracle_rejects_plane_factor():
    ref = _refs()["box"]["winged-cusp"]
    params = ("a1", "a2", "a3")
    assert oracles.compare_components(ref, ref, params) == "ok"
    bad = dict(ref)
    bad["G_1"] = [["(a2 + 2)*(%s)" % ref["G_1"][0][0]], ref["G_1"][1]]
    verdict = oracles.compare_components(bad, ref, params)
    assert verdict == "known:g1_plane_factor"
    worse = dict(ref)
    worse["G_1"] = [["(a3 + 5)*(%s)" % ref["G_1"][0][0]], ref["G_1"][1]]
    assert oracles.compare_components(worse, ref, params) == "wrong"


def test_transition_set_oracle_spurious_d():
    ref = _refs()["families"]["hysteresis"]
    params = ("a1",)
    assert oracles.compare_components(ref, ref, params) == "ok"
    out = {"B": {"systems": [], "note": None},
           "H": {"systems": [["a1"]], "note": None},
           "D": {"systems": [["a1"]], "note": None}}
    assert oracles.compare_components(out, ref, params) == \
        "known:spurious_D"
    out["H"] = {"systems": [["a1 + 1"]], "note": None}
    assert oracles.compare_components(out, ref, params) == "wrong"


def test_normal_form_oracle_rejects_leftover_lambda_squared():
    entry = _entry("pitchfork")
    g = gp.parse("x^3 - x*lambda + 6*lambda^2 + x^4", XL)
    job = {"entry": entry, "g": g, "k": oracles.truncation_degree(g)}
    assert "x^4" not in gp.render(oracles.pipeline_base(g, job["k"]), XL)
    assert oracles.check_normalform(job, {"normal_form": "x^3 - x*lambda"}) \
        == "ok"
    # the seed defect: P(g) deleted, the lambda^2 term left in
    leftover = {"normal_form": "x^3 - x*lambda + 6*lambda^2"}
    assert oracles.check_normalform(job, leftover) == "known:nf_not_normal"
    # ... and under a positive scaling x -> 2x, g -> g/8
    scaled = {"normal_form": "x^3 - 1/4*x*lambda + 3/4*lambda^2"}
    assert oracles.check_normalform(job, scaled) == "known:nf_not_normal"
    # no reduction at all: the input, or a multiple of it, is wrong
    for h in ("x^3 - x*lambda + 6*lambda^2 + x^4",
              "2*x^3 - 2*x*lambda + 12*lambda^2 + 2*x^4"):
        assert oracles.check_normalform(job, {"normal_form": h}) == "wrong"
    # a term the input does not have is wrong, though it is equivalent
    other = {"normal_form": "x^3 - x*lambda + 6*lambda^2 + x^2*lambda"}
    assert oracles.recognizes(gp.parse(other["normal_form"], XL), entry)
    assert oracles.check_normalform(job, other) == "wrong"
    assert oracles.check_normalform(job, {"normal_form": "x^3 + x*lambda"}) \
        == "wrong"


def test_known_failures_are_classified_by_input_shape():
    rng = workloads._rng("test", 0, 0)
    for name, shape in (("winged-cusp", "transform_x_lambda"),
                        ("limit-point", None)):
        entry = _entry(name)
        g, X = workloads.contact_image(entry["f"], rng)
        job = {"kind": "transform", "entry": entry, "g": g,
               "x_has_lambda": bool(X.get((0, 1)))}
        assert oracles.known_failure(job, ("exit", 1)) == shape
        assert oracles.known_failure(job, ("raise", "TypeError")) is None
    for name, shape in (("isola", "matrix_no_room"), ("pitchfork", None)):
        entry = _entry(name)
        g, _X = workloads.contact_image(entry["f"], rng)
        job = {"kind": "recognize-matrix", "entry": entry, "g": g, "k": 6,
               "p": entry["codim"]}
        assert oracles.known_failure(job, ("raise", "ValueError")) == shape


class _Catalog:
    def __init__(self, reps):
        self.representatives = reps


def test_classify_oracle_counts_components():
    # a1^2 - 1/4 on [-1, 1]: signs + - + in three components
    polys = [gp.parse("a1^2 - 1/4", ("a1",))]
    job = {"polys": polys, "box": [(Fraction(-1), Fraction(1))], "grid": 21}
    left, mid, right = Fraction(-9, 10), Fraction(0), Fraction(9, 10)
    full = [((left,), (1,), "complete"), ((mid,), (-1,), "complete"),
            ((right,), (1,), "complete")]
    assert oracles.check_classify(job, _Catalog(full)) == "ok"
    # one representative per sign vector merges the two outer components
    assert oracles.check_classify(job, _Catalog(full[:2])) == "wrong"
    twice = full[:2] + [((Fraction(-8, 10),), (1,), "complete")]
    assert oracles.check_classify(job, _Catalog(twice)) == "wrong"


def test_slice_oracle_requires_every_crossing_polynomial(tmp_path):
    job = {"box": ((-1.0, 1.0), (-1.0, 1.0)), "resolution": 200,
           "free": ("a1", "a2"), "fixed": {},
           "components": {"B": [gp.parse("a1 - a2", ("a1", "a2"))],
                          "H": [gp.parse("a1 + a2", ("a1", "a2"))]}}
    ts = [i / 10 for i in range(-9, 10)]
    rows = ["B,%r,%r" % (t, t) for t in ts] + ["H,%r,%r" % (t, -t)
                                               for t in ts]
    path = tmp_path / "s.csv"
    path.write_text("component,a1,a2\n" + "\n".join(rows) + "\n")
    assert oracles.check_slice(job, [str(path)]) == "ok"
    path.write_text("component,a1,a2\n" + "\n".join(rows[:len(ts)]) + "\n")
    assert oracles.check_slice(job, [str(path)]) == "wrong"


def _parabola(n=400, upper=True, lower=True):
    """Zero set of x^2 - lam + a1 at a1 = -1/4: lam = x^2 - 1/4."""
    xs = [-1 + 2 * i / n for i in range(n + 1)]
    curve = [(x * x - 0.25, x) for x in xs
             if (upper and x >= 0) or (lower and x <= 0)]
    return [curve]


def test_diagram_oracle_rejects_root_count_off_by_one():
    job = {"G": gp.parse("x^2 - lam + a1", ("x", "lam", "a1")),
           "alpha": (Fraction(-1, 4),), "resolution": 400,
           "window": ((-1.0, 1.0), (-1.0, 1.0)),
           "lambdas": [-0.8, -0.1, 0.3, 0.6]}
    assert oracles.check_diagram(job, _parabola()) == "ok"
    assert oracles.check_diagram(job, _parabola(upper=False)) == "wrong"


def test_diagram_gap_at_exact_zero_vertex_is_the_known_defect():
    # G vanishes exactly at the grid vertex (lam, x) = (0, 1/2); drop the
    # upper branch's segment through it and sample inside the gap
    job = {"G": gp.parse("x^2 - lam + a1", ("x", "lam", "a1")),
           "alpha": (Fraction(-1, 4),), "resolution": 400,
           "window": ((-1.0, 1.0), (-1.0, 1.0)), "lambdas": [-0.002, 0.3]}
    (curve,) = _parabola()
    below = [p for p in curve if p[1] <= 0 or p[0] <= -0.006]
    above = [p for p in curve if p[1] > 0 and p[0] >= 0.0]
    assert oracles.check_diagram(job, [below, above]) == \
        "known:diagram_zero_vertex"


def test_truncation_degree_matches_golden_cli_value():
    # tests/test_cli.py: "x^3-sin(lambda)" has truncation degree 3
    assert oracles.truncation_degree(gp.parse("x^3 - lambda", XL)) == 3


def test_division_oracle():
    f1, f2 = gp.parse("x^2", XL), gp.parse("x*lambda - lambda^3", XL)
    job = {"K": 6, "ideal": [f1, f2],
           "g": gp.parse("x*lambda + lambda^3", XL)}
    good = {"unit": "1", "quotients": ["0", "1"], "remainder": "2*lambda^3"}
    assert oracles.check_division(job, good) == "ok"
    bad = dict(good, remainder="lambda^3")
    assert oracles.check_division(job, bad) == "wrong"


def test_contact_images_pass_recognition():
    rng = workloads._rng("test", 0, 0)
    for entry in workloads._entries():
        g, _X = workloads.contact_image(entry["f"], rng)
        assert oracles.recognizes(g, entry), entry["name"]


def test_rounds_are_pure_functions_of_the_seed():
    for w in workloads.WORKLOADS:
        a = [workloads.job_key(j) for j in workloads.build_round(w, 5, 0)]
        b = [workloads.job_key(j) for j in workloads.build_round(w, 5, 0)]
        c = [workloads.job_key(j) for j in workloads.build_round(w, 6, 0)]
        assert a == b and a != c
        kinds = [j["kind"] for j in workloads.build_round(w, 6, 1)]
        assert kinds == [j["kind"] for j in workloads.build_round(w, 5, 0)]


def test_tracer_reports_absent_names_and_restores():
    import germforge.bifurcation as bif
    import tracing

    original = bif.transition_set
    saved = list(tracing.SPECS)
    tracing.SPECS.append(("cli", "cli", "germforge.cli", "no_such_name"))
    try:
        tr = tracing.Tracer()
        tr.install()
        assert bif.transition_set is not original
        assert tr.absent == ["germforge.cli.no_such_name"]
        metrics = tr.metrics(1.0)
        assert metrics["bifurcation.transition_set_calls"] == (0, "count")
        tr.uninstall()
        assert bif.transition_set is original
    finally:
        tracing.SPECS[:] = saved


def test_tracer_self_time_excludes_children():
    import germforge
    import tracing

    tr = tracing.Tracer()
    tr.install()
    try:
        germforge.parse_and_expand("x^2 + lambda", XL, 4)
    finally:
        tr.uninstall()
    g = tr.groups["germexpr"]
    assert g.calls == 3  # parse_and_expand, parse_germ, taylor_expand
    assert 0 <= g.self_s <= g.incl + 1e-9
    assert math.isclose(tr.covered, g.incl)


def test_calibration_factor_is_the_mean_speed_over_the_span():
    import calib

    s = calib.Sampler()
    s.ends = [0.1, 0.2, 0.3, 0.4, 5.0]
    s.durations = [calib.REF_S, calib.REF_S / 2, calib.REF_S, calib.REF_S,
                   calib.REF_S * 4]
    # the three samples inside [0.05, 0.35]: speeds 1, 2, 1
    assert math.isclose(s.factor(0.05, 0.35), 4 / 3)
    # a short span widens to its nearest three samples
    assert math.isclose(s.factor(0.39, 0.41), 4 / 3)
    before = s.clock()
    s.sample(2)
    assert len(s.durations) == 7 and s.spent > 0
    assert s.clock() - before < sum(s.durations[-2:])
