"""The three workloads: seeded job lists, job execution and verdicts.

A workload run is a closed loop with one client: the next job starts when
the previous one returns.  Jobs come in rounds.  Every round of a workload
has the same composition (the same commands, catalog entries and families,
in the same order); the seed and the round index choose only the numbers
inside the inputs.  So a run that completes more rounds measures the same
mix, and ``jobs_per_s`` does not depend on how many rounds fit in
``--seconds``.  Inputs are a pure function of (workload, seed, round) and
never repeat within a run.  Nothing here depends on program output.

Why each workload exists:

- germ-algebra: short in-process CLI jobs on germs g = S*f(X, Lambda)
  contact-equivalent to catalog normal forms f, and on seeded ideals of
  finite codimension.  Exercises germexpr, jets, linalg, localalg (Mora),
  intrinsic, singularity and cli; calls sympy almost nowhere.
- transition-sets: few long CLI jobs on rescaled unfoldings
  s*G(a*x, c*lambda, alpha).  Rescaling x and lambda leaves the transition
  set in alpha-space unchanged, so one frozen reference per family serves
  every seed.  Nearly all time goes to bifurcation -> localalg.eliminate ->
  sympy.
- region-catalog: library calls on the numeric side of bifurcation:
  classify_regions on frozen transition sets (no elimination),
  bifurcation_diagram + render_diagram at seeded alpha points, and one
  render_transition_slice.  Jet.evaluate is the kernel.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import catalog
import gfpoly as gp
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
POS = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2),
       Fraction(2)]
# Nonzero, so every input of a slot has the same support and the job's cost
# varies little between seeds.
SMALL = [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
XL = ("x", "lambda")
XLAM = ("x", "lam")
WORKLOADS = ("germ-algebra", "transition-sets", "region-catalog")

# Jobs per round.  Rounds are sized so that one round of each workload takes
# about ten seconds (germ-algebra) to about a minute (transition-sets).
IDEAL_SHAPES = ((2, 2), (2, 3), (3, 2))  # (a, b) of <x^a + .., lambda^b + ..>
# Rounds are composed so that the median job sits between jobs of clearly
# lower and higher cost, and its own cost varies little with the seed: the
# grid-21 classification (fixed input) in region-catalog, the hysteresis
# transition set in transition-sets.  A diagram's cost varies with its
# seeded alpha by up to 3x, so the median must not fall on one.
DIAGRAMS = (("winged-cusp", 400), ("quintic", 800))
QUINTICS = 2


def _rng(workload, seed, round_index):
    return random.Random("%s:%d:%s" % (workload, seed, round_index))


def _entries():
    out = []
    for name, f, codim, blocks, unfold, hessian in catalog.NORMAL_FORMS:
        out.append({"name": name, "f": gp.parse(f, XL), "codim": codim,
                    "s_blocks": blocks, "unfold": unfold,
                    "hessian": hessian})
    return out


def _nz(pairs):
    return {m: c for m, c in pairs if c}


def contact_image(f, rng):
    """(g, X): g = S * f(X, Lambda) for a random positive contact
    transformation with small rational coefficients; X may contain lambda
    terms.  Truncated above deg(f) + 1, which only drops terms of P(f)."""
    X = _nz([((1, 0), rng.choice(POS)), ((0, 1), rng.choice(SMALL)),
             ((2, 0), rng.choice(SMALL)), ((1, 1), rng.choice(SMALL))])
    L = _nz([((0, 1), rng.choice(POS)), ((0, 2), rng.choice(SMALL))])
    S = _nz([((0, 0), rng.choice(POS)), ((1, 0), rng.choice(SMALL)),
             ((0, 1), rng.choice(SMALL))])
    top = max(sum(m) for m in f) + 1
    return gp.truncate(gp.mul(S, gp.compose(f, [X, L], 2)), top), X


def _random_terms(rng, degrees, count):
    out = {}
    for _ in range(count):
        d = rng.choice(degrees)
        i = rng.randint(0, d)
        out = gp.add(out, {(i, d - i): rng.choice(SMALL)})
    return out


def finite_ideal(rng, K, shape):
    """<x^a + h1, lambda^b + h2, h3> with two higher-order terms in h1 and
    h2, a quadratic-or-cubic h3, and M^(K-1) inside the ideal."""
    a, b = shape
    while True:
        f1 = gp.add({(a, 0): Fraction(1)},
                    _random_terms(rng, [a + 1, a + 2], 2))
        f2 = gp.add({(0, b): Fraction(1)},
                    _random_terms(rng, [b + 1, b + 2], 2))
        gens = [g for g in (f1, f2, _random_terms(rng, [2, 3], 2)) if g]
        sp = gp.ideal_span(gens, K)
        if all(sp.contains(gp.mono(m)) for m in gp.monomials(K)
               if sum(m) >= K - 1):
            return gens


def _cli(argv):
    return {"argv": argv + ["--format", "json"]}


def _germ_jobs(entry, image, rng):
    g, X = image
    text = gp.render(g, XL)
    v = ["--vars", "x,lambda"]
    jobs = [
        dict(_cli(["verify", text] + v), kind="verify"),
        dict(_cli(["normalform", text] + v), kind="normalform"),
        dict(_cli(["recognize", text] + v), kind="recognize"),
        dict(_cli(["algobjects", text] + v), kind="algobjects", k=6),
        dict(_cli(["unfolding", text, "--list"] + v), kind="unfolding"),
    ]
    ftext = gp.render(entry["f"], XL)
    k = max(sum(m) for m in entry["f"]) + 1
    jobs.append(dict(_cli(["transform", text, ftext, "--degree", str(k)]
                          + v), kind="transform", k=k))
    if entry["codim"]:
        p = entry["codim"]
        jobs.append(dict(_cli(["recognize", text, "--matrix", str(p)] + v),
                         kind="recognize-matrix", k=6, p=p))
        dirs = list(entry["unfold"])
        if rng.random() < 0.3:
            dirs = dirs[:-1] + [(0, 6)]  # lambda^6 lies in T(g)
        names = ["a%d" % (i + 1) for i in range(len(dirs))]
        utext = text + "".join(
            " + %s*%s" % (gp.render(gp.mono(m), XL), n)
            for n, m in zip(names, dirs))
        jobs.append(dict(_cli(["check-universal", utext, "--params",
                               ",".join(names)] + v),
                         kind="check-universal", dirs=dirs))
    for j in jobs:
        j.update(entry=entry, g=g, x_has_lambda=bool(X.get((0, 1))))
    return jobs


ALGEBRA_K = 6


def _algebra_jobs(rng):
    K = ALGEBRA_K
    v = ["--vars", "x,lambda", "--degree", str(K)]
    jobs = []
    for kind in ("division", "standard-basis", "normalset", "colon-ideal",
                 "multmatrix", "intrinsic"):
        for shape in IDEAL_SHAPES:
            ideal = finite_ideal(rng, K, shape)
            texts = [gp.render(f, XL) for f in ideal]
            job = {"kind": kind, "ideal": ideal, "K": K}
            if kind == "division":
                g = _random_terms(rng, [1, 2, 3, 4], 3) or gp.mono((1, 1))
                job["g"] = g
                job.update(_cli(["division", gp.render(g, XL)] + texts + v))
            elif kind == "colon-ideal":
                by = gp.add(gp.mono(rng.choice([(1, 0), (0, 1)])),
                            _random_terms(rng, [2], 1))
                job["by"] = by
                job.update(_cli(["colon-ideal"] + texts
                                + ["--by", gp.render(by, XL)] + v))
            elif kind == "multmatrix":
                u = rng.choice([(1, 0), (0, 1)])
                job["by_monomial"] = u
                job.update(_cli(["multmatrix"] + texts
                                + ["--by", gp.render(gp.mono(u), XL)] + v))
            else:
                job.update(_cli([kind] + texts + v))
            jobs.append(job)
    return jobs


def _rescaled(text, nparams, rng):
    """s*G(a*x, c*lam, alpha) and the scalings (a, c)."""
    names = XLAM + tuple("a%d" % (i + 1) for i in range(nparams))
    n = len(names)
    G = gp.parse(text, names)
    a, c, s = rng.choice(POS), rng.choice(POS), rng.choice(POS)
    images = [gp.mono((1,) + (0,) * (n - 1), a),
              gp.mono((0, 1) + (0,) * (n - 2), c)]
    images += [gp.mono(tuple(1 if j == i else 0 for j in range(n)))
               for i in range(2, n)]
    H = {m: s * co for m, co in gp.compose(G, images, n).items()}
    return gp.render(H, names), a, c


def _transition_job(family, rng):
    text, nparams = catalog.FAMILIES[family]
    germ, _a, _c = _rescaled(text, nparams, rng)
    params = ",".join("a%d" % (i + 1) for i in range(nparams))
    return dict(_cli(["transition-set", germ, "--vars", "x,lam",
                      "--params", params]),
                kind="transition-set", family=family, nparams=nparams,
                long=family == "winged-cusp")


def _nonpersistent_job(rng):
    text, nparams = catalog.FAMILIES["winged-cusp"]
    germ, a, c = _rescaled(text, nparams, rng)
    (u_lo, u_hi), (l_lo, l_hi) = catalog.BOX
    box = ",".join(str(v) for v in (u_lo / a, u_hi / a, l_lo / c, l_hi / c))
    return dict(_cli(["nonpersistent", germ, "--vars", "x,lam", "--params",
                      "a1,a2,a3", "--boundary=" + box]),
                kind="nonpersistent", family="winged-cusp", nparams=3,
                long=True)


def _persistent_job(rng):
    """verify --persistent on a rescaled transcritical germ.  Its normal
    form has degree 2, so every truncation from degree 2 on gives the same
    transition set and the answer is 2."""
    f = gp.parse("x^2 - lam^2", XLAM)
    a, c, s = rng.choice(POS), rng.choice(POS), rng.choice(POS)
    g = {m: s * co * a ** m[0] * c ** m[1] for m, co in f.items()}
    return dict(_cli(["verify", "--persistent", gp.render(g, XLAM),
                      "--vars", "x,lam"]), kind="verify-persistent",
                expected=2)


def _sigma_refs():
    with open(os.path.join(HERE, "refs", "sigma.json")) as fh:
        return json.load(fh)


def _ref_polys(family, refs):
    """(name, polynomial dict) for every reference polynomial of a family,
    in component order B, H, D."""
    _text, nparams = catalog.FAMILIES[family]
    params = tuple("a%d" % (i + 1) for i in range(nparams))
    comps = refs["families"][family]
    out = []
    for name in ("B", "H", "D"):
        for system in comps[name]:
            for p in system:
                out.append((name, gp.parse(p.replace("**", "^"), params)))
    return out, params


def _alpha(rng, n):
    return tuple(Fraction(rng.randint(-11, 11), 12) for _ in range(n))


def _region_round(rng):
    jobs = [{"kind": "classify", "family": "winged-cusp", "grid": 41,
             "long": True},
            {"kind": "classify", "family": "quintic", "grid": 21}]
    for family, res in DIAGRAMS:
        nparams = catalog.FAMILIES[family][1]
        lambdas = [-1 + 2 * (j + rng.uniform(0.2, 0.8)) / 7 for j in range(7)]
        jobs.append({"kind": "diagram", "family": family, "resolution": res,
                     "alpha": _alpha(rng, nparams), "lambdas": lambdas,
                     "window": ((-1.0, 1.0), (-1.0, 1.0))})
    jobs.append({"kind": "slice", "family": "winged-cusp",
                 "fixed": {"a3": Fraction(rng.randint(-9, 9), 10)},
                 "free": ("a1", "a2"), "box": ((-1.0, 1.0), (-1.0, 1.0)),
                 "resolution": 200})
    return jobs


def build_round(workload, seed, round_index):
    """The round's jobs, long ones last: the untraced run that
    trace.overhead_frac compares with runs only the short ones, which then
    start from the same state in both runs."""
    jobs = _draw_round(workload, seed, round_index)
    return sorted(jobs, key=lambda j: bool(j.get("long")))


def _draw_round(workload, seed, round_index):
    rng = _rng(workload, seed, round_index)
    if workload == "germ-algebra":
        jobs = []
        for entry in _entries():
            jobs += _germ_jobs(entry, contact_image(entry["f"], rng), rng)
        return jobs + _algebra_jobs(rng)
    if workload == "transition-sets":
        return ([_transition_job("winged-cusp", rng)]
                + [_transition_job("quintic", rng) for _ in range(QUINTICS)]
                + [_transition_job("pitchfork", rng),
                   _transition_job("hysteresis", rng),
                   _nonpersistent_job(rng),
                   _persistent_job(rng)])
    if workload == "region-catalog":
        return _region_round(rng)
    raise ValueError("unknown workload %r" % workload)


def build_warmup(workload, seed):
    """One untimed job that triggers lazy imports; its inputs come from a
    separate stream, so they never coincide with a timed job's."""
    rng = _rng(workload, seed, "warmup")
    if workload == "germ-algebra":
        entry = _entries()[1]
        return _germ_jobs(entry, contact_image(entry["f"], rng), rng)[1]
    if workload == "transition-sets":
        return _transition_job("isola", rng)
    return {"kind": "diagram", "family": "winged-cusp", "resolution": 40,
            "alpha": _alpha(rng, 3), "lambdas": [0.1],
            "window": ((-1.0, 1.0), (-1.0, 1.0))}


def job_key(job):
    """Stable description of a job's input, for hashing and duplicates."""
    if "argv" in job:
        return json.dumps(job["argv"])
    return json.dumps({k: job[k] for k in sorted(job)
                       if k in ("kind", "family", "grid", "resolution",
                                "alpha", "fixed", "lambdas")}, default=str)


class Runner:
    """Executes jobs of one workload in this process.  ``run`` is the timed
    part; ``verdict`` is the independent check, called after timing."""

    def __init__(self, workload, out_dir):
        import germforge
        from germforge import cli

        self.gf = germforge
        self.cli = cli
        self.out_dir = out_dir
        self.refs = _sigma_refs() if workload != "germ-algebra" else None
        self.sigmas = {}
        self.germs = {}
        if workload == "region-catalog":
            for family in ("winged-cusp", "quintic"):
                self._prepare_family(family)
        self.counter = 0

    def _prepare_family(self, family):
        from germforge.bifurcation import Component, TransitionSet
        Jet = self.gf.Jet
        polys, params = _ref_polys(family, self.refs)
        comps = {}
        for name in ("B", "H", "D"):
            systems = [[Jet(p, params, None)] for n, p in polys if n == name]
            comps[name] = Component(name, systems=systems)
        self.sigmas[family] = (TransitionSet(comps, params), polys, params)
        self.germs[family] = (catalog.FAMILIES[family][0],
                              ("x", "lam") + params)

    def run(self, job):
        if "argv" in job:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(job["argv"])
            return code, buf.getvalue(), err.getvalue()[-2000:]
        gf = self.gf
        kind = job["kind"]
        if kind == "classify":
            sigma = self.sigmas[job["family"]][0]
            return gf.classify_regions(sigma, grid=job["grid"])
        self.counter += 1
        path = os.path.join(self.out_dir, "job%05d.svg" % self.counter)
        if kind == "diagram":
            text, names = self.germs[job["family"]]
            body = gf.parse_and_expand(text, names, 12)
            G = gf.UnfoldingGerm(gf.Jet(dict(body.terms), names, None),
                                 names[2:])
            d = gf.bifurcation_diagram(G, job["alpha"], window=job["window"],
                                       resolution=job["resolution"])
            return d.curves, gf.render_diagram(d, path)
        if kind == "slice":
            sigma = self.sigmas[job["family"]][0]
            return gf.render_transition_slice(
                sigma, path, free=job["free"], fixed=job["fixed"],
                box=job["box"], resolution=job["resolution"])
        raise ValueError("unknown job kind %r" % kind)

    def verdict(self, job, output):
        """"ok", "wrong" or "known:<defect>" (see oracles)."""
        kind = job["kind"]
        if "argv" in job:
            res = json.loads(output[1])["result"]
            if kind in oracles.GERM_CHECKS:
                if kind in ("verify", "normalform", "unfolding",
                            "check-universal"):
                    job["k"] = oracles.truncation_degree(job["g"])
                return oracles.GERM_CHECKS[kind](job, res)
            if kind == "verify-persistent":
                return ("ok" if res["truncation_degree"] == job["expected"]
                        else "wrong")
            params = tuple("a%d" % (i + 1) for i in range(job["nparams"]))
            if kind == "transition-set":
                ref = self.refs["families"][job["family"]]
            else:
                ref = self.refs["box"][job["family"]]
            return oracles.compare_components(res["components"], ref, params)
        if kind == "classify":
            _sigma, named, params = self.sigmas[job["family"]]
            box = [(Fraction(-1), Fraction(1))] * len(params)
            return oracles.check_classify(
                dict(job, polys=[p for _n, p in named], box=box), output)
        if kind == "diagram":
            curves, files = output
            text, names = self.germs[job["family"]]
            G = gp.parse(text, names)
            verdict = oracles.check_diagram(dict(job, G=G), curves)
            render = oracles.check_render(curves, files)
            return verdict if render == "ok" else render
        if kind == "slice":
            _sigma, named, _params = self.sigmas[job["family"]]
            comps = {}
            for name, p in named:
                comps.setdefault(name, []).append(p)
            return oracles.check_slice(dict(job, components=comps), output)
        raise ValueError("unknown job kind %r" % kind)
