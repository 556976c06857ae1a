"""Independent checks of germforge's outputs.

Each check returns ``"ok"``, ``"wrong"`` or ``"known:<defect>"``.  A known
defect is a wrong output whose difference from the reference has the exact
shape of a defect documented at the seed commit:

- ``spurious_D``: a double-limit set D (or G_D) where the reference is empty,
  reported as a copy of H;
- ``g1_plane_factor``: a G_1 polynomial equal to the reference times the
  plane a2 + 2 or a2 - 2;
- ``nf_not_normal``: a normal form that passes the catalog's recognition
  conditions (so it is equivalent to f) but is not f, and has the shape the
  seed pipeline leaves when its term elimination stops early: the k-jet of
  the input minus its high-order part P, some further terms deleted, under
  a positive scaling x -> a*x, lambda -> b*lambda, g -> c*g;
- ``diagram_zero_vertex``: a traced diagram whose root count is off by one
  only at lambda samples within one grid cell of a grid vertex where G is
  exactly zero (the tracer drops the segment through such a vertex).

Anything else that disagrees with the reference is ``wrong``.

A job that raises, or whose CLI call exits non-zero, has failed.
``known_failure`` names the two failures catalogued at the seed commit, by
the shape of the job's input:

- ``transform_x_lambda``: ``transform`` exits 1 when X has a lambda term
  and f has no linear lambda term (isola, transcritical, pitchfork,
  asymmetric cusp, winged cusp, quartic pitchfork, x^2 - lambda^4): the
  lambda term of X changes the lowest-order part or the intrinsic
  generators of g, and the rigid-scaling step gives up;
- ``matrix_no_room``: ``recognize --matrix p`` raises ValueError when p is
  at least the dimension of E/Itr(T(g)) (isola, transcritical).

Any other failure is unexpected.  The checks use only ``gfpoly``, sympy
and numpy, never germforge.
"""

import math
from fractions import Fraction

import gfpoly as gp

XL = ("x", "lambda")


# ------------------------------------------------------------ germ algebra


def _blocks_members(blocks, k):
    return {m for m in gp.monomials(k) if gp.in_block_ideal(m, blocks)}


def intrinsic_blocks(members, k):
    """Blocks of the largest intrinsic ideal whose monomials of degree <= k
    all lie in `members`."""
    blocks = []
    for l in range(k + 1):
        for a in range(k - l + 1):
            if all(m in members for m in gp.monomials(k)
                   if m[1] >= l and sum(m) >= a + l):
                blocks.append((a, l))
                break
    return blocks


def span_members(sp):
    return {m for m in gp.monomials(sp.k) if sp.contains(gp.mono(m))}


def high_order_blocks(g, k):
    """P(g) = Itr(M{g} + M^2{g_x}) from the degree-k jet of g."""
    g = gp.truncate(g, k)
    gx = gp.diff(g, 0)
    x, l = gp.mono((1, 0)), gp.mono((0, 1))
    gens = [gp.mul(x, g), gp.mul(l, g), gp.mul(gp.mono((2, 0)), gx),
            gp.mul(gp.mono((1, 1)), gx), gp.mul(gp.mono((0, 2)), gx)]
    gens = [gp.truncate(f, k) for f in gens if f]
    if not gens:
        return []
    return intrinsic_blocks(span_members(gp.ideal_span(gens, k)), k)


def truncation_degree(g, bound=20):
    """Least k with M^(k+1) inside P of the k-jet and P's blocks the same
    from k to k+1 (the determinacy degree that ``verify`` reports)."""
    for k in range(1, bound + 1):
        gk = gp.truncate(g, k)
        if not gk:
            continue
        low = high_order_blocks(gk, k + 1)
        if not all(gp.in_block_ideal(m, low) for m in gp.monomials(k + 1)
                   if sum(m) == k + 1):
            continue
        high = high_order_blocks(gp.truncate(g, k + 1), k + 2)
        if _blocks_members(low, k + 3) == _blocks_members(high, k + 3):
            return k
    return None


def zero_set(entry):
    blocks = entry["s_blocks"]
    top = max(a + b for a, b in blocks)
    return {m for m in gp.monomials(top) if not gp.in_block_ideal(m, blocks)}


def recognizes(h, entry):
    """h satisfies f's recognition conditions: zero derivatives outside S(f),
    generator derivatives with f's signs, and the 2-jet Hessian sign."""
    f = entry["f"]
    if any(h.get(m) for m in zero_set(entry)):
        return False
    for m in entry["s_blocks"]:
        if not h.get(m) or (h[m] > 0) != (f[m] > 0):
            return False
    if entry["s_blocks"] == [(2, 0)]:
        det = 4 * h.get((2, 0), 0) * h.get((0, 2), 0) - h.get((1, 1), 0) ** 2
        if (det > 0) - (det < 0) != entry["hessian"]:
            return False
    return True


def check_verify(job, res):
    return "ok" if res["truncation_degree"] == job["k"] else "wrong"


def pipeline_base(g, k):
    """The k-jet of g minus its high-order part P(g)."""
    gk = gp.truncate(g, k)
    blocks = high_order_blocks(gk, k + 1)
    return {m: c for m, c in gk.items() if not gp.in_block_ideal(m, blocks)}


def _scaled_subset(h, base):
    """h[m] = c * a^i * b^j * base[m] on h's support (a subset of base's)
    for some c, a, b > 0."""
    import numpy as np

    if any(m not in base or h[m] / base[m] <= 0 for m in h):
        return False
    rows = [[1.0, float(m[0]), float(m[1])] for m in h]
    logs = [math.log(float(h[m] / base[m])) for m in h]
    coef = np.linalg.lstsq(np.array(rows), np.array(logs), rcond=None)[0]
    return all(abs(float(np.dot(r, coef)) - v) <= 1e-9 * (1.0 + abs(v))
               for r, v in zip(rows, logs))


def check_normalform(job, res):
    h = gp.parse(res["normal_form"], XL)
    entry = job["entry"]
    if h == entry["f"]:
        return "ok"
    if recognizes(h, entry) and _scaled_subset(
            h, pipeline_base(job["g"], job["k"])):
        return "known:nf_not_normal"
    return "wrong"


def check_recognize(job, res):
    entry = job["entry"]
    zero = {tuple(m) for m in res["zero"]}
    nonzero = {tuple(m) for m in res["nonzero"]}
    ok = zero == zero_set(entry) and nonzero == set(entry["s_blocks"])
    return "ok" if ok else "wrong"


def quotient_monomials(g, k):
    """Monomials of degree <= k outside Itr(T(g)): a basis of E/Itr(T(g))."""
    members = span_members(gp.tangent_span(gp.truncate(g, k), k))
    itr = _blocks_members(intrinsic_blocks(members, k), k)
    return {m for m in gp.monomials(k) if m not in itr}


def check_recognize_matrix(job, res):
    expected = quotient_monomials(job["g"], job["k"])
    cols = [tuple(c) for c in res["columns"]]
    rows = res["rows"]
    p = job["p"]
    ok = (set(cols) == expected and len(cols) == len(expected)
          and len(rows) == len(cols)
          and all(len(r) == len(cols) for r in rows)
          and all(e.startswith("G_{") for r in rows[-p:] for e in r)
          and not any(e.startswith("G_{") for r in rows[:-p] for e in r))
    return "ok" if ok else "wrong"


def _compose_trunc(p, X, L, k):
    """p(X, L) modulo degree > k."""
    out = {}
    xs, ls = [{(0, 0): Fraction(1)}], [{(0, 0): Fraction(1)}]
    for m in p:
        while len(xs) <= m[0]:
            xs.append(gp.truncate(gp.mul(xs[-1], X), k))
        while len(ls) <= m[1]:
            ls.append(gp.truncate(gp.mul(ls[-1], L), k))
    for m, c in p.items():
        term = gp.truncate(gp.mul(xs[m[0]], ls[m[1]]), k)
        out = gp.add(out, term, c)
    return out


def check_transform(job, res):
    k = job["k"]
    X = gp.parse(res["X"], XL)
    L = gp.parse(res["Lambda"], XL)
    S = gp.parse(res["S"], XL)
    if X.get((0, 0)) or L.get((0, 0)) or any(m[0] for m in L):
        return "wrong"
    if not (S.get((0, 0), 0) > 0 and X.get((1, 0), 0) > 0
            and L.get((0, 1), 0) > 0):
        return "wrong"
    comp = gp.truncate(gp.mul(S, _compose_trunc(job["g"], X, L, k - 1)),
                       k - 1)
    resid = gp.add(gp.truncate(job["entry"]["f"], k - 1), comp, -1)
    return "ok" if not resid else "wrong"


def check_algobjects(job, res):
    entry, k = job["entry"], job["k"]
    et = [tuple(m) for m in res["e_over_t"]]
    tsp = gp.tangent_span(gp.truncate(job["g"], k), k)
    ok = (len(et) == entry["codim"] and gp.complements(tsp, et)
          and {tuple(m) for m in res["intrinsic_generators"]}
          == set(entry["s_blocks"])
          and {tuple(m) for m in res["s_perp"]} == zero_set(entry))
    return "ok" if ok else "wrong"


def _directions(G, nparams):
    """Split an unfolding in (x, lambda, a1..ap) into its base germ and the
    coefficient of each a_i."""
    base = {m[:2]: c for m, c in G.items() if not any(m[2:])}
    dirs = []
    for i in range(nparams):
        d = {}
        for m, c in G.items():
            e = m[2:]
            if e[i] == 1 and sum(e) == 1:
                d[m[:2]] = c
        dirs.append(d)
    return base, dirs


def _is_universal(g, dirs, k):
    if any(len(d) != 1 or list(d.values())[0] != 1 for d in dirs):
        raise ValueError("directions must be monomials")
    return gp.complements(gp.tangent_span(gp.truncate(g, k), k),
                          [list(d)[0] for d in dirs])


def check_unfolding_list(job, res):
    entry, k = job["entry"], job["k"]
    if not res["unfoldings"]:
        return "wrong"
    for text, params in zip(res["unfoldings"], res["params"]):
        if len(params) != entry["codim"]:
            return "wrong"
        G = gp.parse(text, XL + tuple(params))
        base, dirs = _directions(G, len(params))
        if base != gp.truncate(job["g"], k):
            return "wrong"
        try:
            if not _is_universal(job["g"], dirs, k):
                return "wrong"
        except ValueError:
            return "wrong"
    return "ok"


def check_universal(job, res):
    expected = ("Yes" if len(job["dirs"]) == job["entry"]["codim"]
                and gp.complements(
                    gp.tangent_span(gp.truncate(job["g"], job["k"]),
                                    job["k"]), job["dirs"])
                else "No")
    return "ok" if res["universal"] == expected else "wrong"


# local-ring algebra on an ideal I with M^(K-1) inside I, modulo degree > K


def _lead(p):
    return max(p, key=gp.local_key)


def _divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def check_division(job, res):
    K = job["K"]
    u = gp.parse(res["unit"], XL)
    qs = [gp.parse(q, XL) for q in res["quotients"]]
    r = gp.parse(res["remainder"], XL)
    if not u.get((0, 0)) or len(qs) != len(job["ideal"]):
        return "wrong"
    total = gp.mul(u, job["g"])
    for q, f in zip(qs, job["ideal"]):
        total = gp.add(total, gp.mul(q, f), -1)
    total = gp.truncate(gp.add(total, r, -1), K)
    leads = [_lead(gp.truncate(f, K)) for f in job["ideal"]]
    ok = not total and not any(_divides(lm, m) for m in gp.truncate(r, K)
                               for lm in leads)
    return "ok" if ok else "wrong"


def _leading_set(job):
    return gp.ideal_span(job["ideal"], job["K"]).leading_monomials()


def check_standard_basis(job, res):
    K = job["K"]
    B = [gp.truncate(gp.parse(b, XL), K) for b in res["basis"]]
    B = [b for b in B if b]
    if not B:
        return "wrong"
    sp_i = gp.ideal_span(job["ideal"], K)
    sp_b = gp.ideal_span(B, K)
    if sp_i.dimension() != sp_b.dimension() or not all(
            sp_i.contains(b) for b in B):
        return "wrong"
    leads = [_lead(b) for b in B]
    generated = {m for m in gp.monomials(K)
                 if any(_divides(lm, m) for lm in leads)}
    return "ok" if generated == sp_i.leading_monomials() else "wrong"


def _normal_set(job):
    lead = _leading_set(job)
    return {m for m in gp.monomials(job["K"]) if m not in lead}


def _monomial_of(text):
    p = gp.parse(text, XL)
    if len(p) != 1 or list(p.values())[0] != 1:
        raise ValueError("not a monomial: %r" % text)
    return list(p)[0]


def check_normalset(job, res):
    got = [_monomial_of(t) for t in res["basis"]]
    ok = len(got) == len(set(got)) and set(got) == _normal_set(job)
    return "ok" if ok else "wrong"


def check_colon_ideal(job, res):
    K, h = job["K"], job["by"]
    sp_i = gp.ideal_span(job["ideal"], K)
    J = [gp.truncate(gp.parse(b, XL), K) for b in res["basis"]]
    J = [b for b in J if b]
    if not all(sp_i.contains(gp.truncate(gp.mul(b, h), K)) for b in J):
        return "wrong"
    image = gp.Span(K)
    image.rows = {p: dict(r) for p, r in sp_i.rows.items()}
    rank = sum(image.add(gp.truncate(gp.mul(gp.mono(m), h), K))
               for m in gp.monomials(K))
    colon_dim = len(gp.monomials(K)) - rank
    got = gp.ideal_span(J, K).dimension() if J else 0
    return "ok" if got == colon_dim else "wrong"


def check_multmatrix(job, res):
    K = job["K"]
    basis = [_monomial_of(t) for t in res["basis"]]
    if len(basis) != len(set(basis)) or set(basis) != _normal_set(job):
        return "wrong"
    M = [[Fraction(c) for c in row] for row in res["matrix"]]
    sp_i = gp.ideal_span(job["ideal"], K)
    u = job["by_monomial"]
    for j, b in enumerate(basis):
        img = gp.mono((b[0] + u[0], b[1] + u[1]))
        for i, bi in enumerate(basis):
            img = gp.add(img, gp.mono(bi), -M[i][j])
        if not sp_i.contains(gp.truncate(img, K)):
            return "wrong"
    return "ok"


def check_intrinsic(job, res):
    K = job["K"]
    members = span_members(gp.ideal_span(job["ideal"], K))
    expected = _blocks_members(intrinsic_blocks(members, K), K + 2)
    got = _blocks_members([tuple(b) for b in res["blocks"]], K + 2)
    return "ok" if got == expected else "wrong"


def known_failure(job, error):
    """The catalogued failure that the job's input shape predicts, or None.
    ``error`` is ("exit", code) for a CLI call that returned non-zero, or
    ("raise", exception class name)."""
    kind = job["kind"]
    if kind == "transform" and error == ("exit", 1) and \
            job["x_has_lambda"] and (0, 1) not in job["entry"]["f"]:
        return "transform_x_lambda"
    if kind == "recognize-matrix" and error == ("raise", "ValueError") and \
            job["p"] >= len(quotient_monomials(job["g"], job["k"])):
        return "matrix_no_room"
    return None


GERM_CHECKS = {
    "verify": check_verify,
    "normalform": check_normalform,
    "recognize": check_recognize,
    "recognize-matrix": check_recognize_matrix,
    "transform": check_transform,
    "algobjects": check_algobjects,
    "unfolding": check_unfolding_list,
    "check-universal": check_universal,
    "division": check_division,
    "standard-basis": check_standard_basis,
    "normalset": check_normalset,
    "colon-ideal": check_colon_ideal,
    "multmatrix": check_multmatrix,
    "intrinsic": check_intrinsic,
}


# --------------------------------------------------------- transition sets


def canonical(poly, params):
    """Squarefree, content-free, positive-leading form of a polynomial in the
    parameters, as a string (sympy).  ``poly`` is text or a sympy
    expression; ``params`` are names or sympy symbols."""
    import sympy

    syms = [sympy.Symbol(str(p)) for p in params]
    expr = poly
    if isinstance(poly, str):
        expr = sympy.sympify(poly.replace("^", "**"),
                             locals={str(s): s for s in syms})
    if expr.is_number:
        return "1" if expr != 0 else "0"
    _c, factors = sympy.factor_list(sympy.expand(expr), *syms)
    out = sympy.Integer(1)
    for base, _m in factors:
        out *= base
    poly = sympy.Poly(out, *syms).primitive()[1]
    if poly.LC() < 0:
        poly = -poly
    return str(poly.as_expr())


def _systems(comp, params):
    """A component as a set of systems (frozensets of canonical strings), or
    "dense"."""
    if isinstance(comp, str):
        return comp
    if isinstance(comp, dict):
        if comp.get("note") == "dense":
            return "dense"
        comp = comp["systems"]
    return {frozenset(canonical(p, params) for p in system)
            for system in comp}


def _plane_factor(system, refs, params):
    """The system's one polynomial is a reference polynomial times a2 +- 2."""
    import sympy

    if len(system) != 1:
        return False
    syms = sympy.symbols(" ".join(params))
    a2 = syms[1]
    poly = sympy.sympify(next(iter(system)),
                         locals={n: s for n, s in zip(params, syms)})
    for plane in (a2 + 2, a2 - 2):
        q, r = sympy.div(poly, plane, *syms)
        if r == 0 and frozenset([canonical(str(q), params)]) in refs:
            return True
    return False


def compare_components(out, ref, params):
    """Verdict for a transition-set output against its reference."""
    verdicts = []
    for name, expected in ref.items():
        if name not in out:
            return "wrong"
        got = _systems(out[name], params)
        want = _systems(expected, params)
        if got == want:
            continue
        if name in ("D", "G_D") and want == set() and got != "dense":
            h = _systems(out["H" if name == "D" else "L_H"], params)
            if h != "dense" and got and got <= h:
                verdicts.append("spurious_D")
                continue
        if name == "G_1" and got != "dense" and want != "dense" and got:
            if all(s in want or _plane_factor(s, want, params) for s in got) \
                    and not got <= want:
                verdicts.append("g1_plane_factor")
                continue
        return "wrong"
    if not verdicts:
        return "ok"
    return "known:" + "+".join(sorted(set(verdicts)))


# ---------------------------------------------------------- region catalog


def _eval(p, point):
    total = Fraction(0)
    for m, c in p.items():
        v = c
        for xv, e in zip(point, m):
            if e:
                v *= Fraction(xv) ** e
        total += v
    return total


def grid_signs(polys, box, n):
    """Sign of each polynomial at each point of the n^d grid of the box, as
    an array of shape (n,)*d + (len(polys),).  Floats with an error bound;
    exact fallback near zero."""
    import numpy as np

    axes = [[Fraction(lo) + (Fraction(hi) - Fraction(lo)) * i / (n - 1)
             for i in range(n)] for lo, hi in box]
    faxes = [np.array([float(v) for v in ax]) for ax in axes]
    mesh = np.meshgrid(*faxes, indexing="ij")
    signs = []
    for p in polys:
        val = np.zeros(mesh[0].shape)
        mag = np.zeros(mesh[0].shape)
        for m, c in p.items():
            term = np.full(mesh[0].shape, float(c))
            for arr, e in zip(mesh, m):
                if e:
                    term = term * arr ** e
            val += term
            mag += np.abs(term)
        s = np.sign(val)
        unsure = np.abs(val) <= 1e-9 * (mag + 1.0)
        for idx in zip(*np.nonzero(unsure)):
            exact = _eval(p, [axes[d][i] for d, i in enumerate(idx)])
            s[idx] = (exact > 0) - (exact < 0)
        signs.append(s)
    return np.stack(signs, axis=-1).astype(int)


def grid_components(signs):
    """Label the orthogonally connected components of grid points with the
    same sign vector (points on a zero set are dropped, label -1)."""
    import numpy as np

    shape = signs.shape[:-1]
    weights = 1 << np.arange(signs.shape[-1])
    codes = np.where(np.all(signs != 0, axis=-1),
                     ((signs > 0) * weights).sum(axis=-1), -1).tolist()
    labels = np.full(shape, -1, dtype=int).tolist()

    def at(table, idx):
        for i in idx:
            table = table[i]
        return table

    def put(idx, value):
        at(labels, idx[:-1])[idx[-1]] = value

    count = 0
    for start in np.ndindex(*shape):
        code = at(codes, start)
        if code < 0 or at(labels, start) >= 0:
            continue
        put(start, count)
        stack = [start]
        while stack:
            cur = stack.pop()
            for axis in range(len(shape)):
                for step in (-1, 1):
                    j = cur[axis] + step
                    if not 0 <= j < shape[axis]:
                        continue
                    nxt = cur[:axis] + (j,) + cur[axis + 1:]
                    if at(codes, nxt) == code and at(labels, nxt) < 0:
                        put(nxt, count)
                        stack.append(nxt)
        count += 1
    return np.array(labels), count


def check_classify(job, catalog):
    """One representative per connected same-sign component of the job's
    grid (granularity "complete"), each with its exact sign vector.  A
    representative off the grid is placed at the nearest grid point, which
    must have the same sign vector."""
    polys, box, n = job["polys"], job["box"], job["grid"]
    signs = grid_signs(polys, box, n)
    labels, count = grid_components(signs)
    seen = set()
    for point, vec, _tag in catalog.representatives:
        if any(not (Fraction(lo) <= Fraction(v) <= Fraction(hi))
               for v, (lo, hi) in zip(point, box)):
            return "wrong"
        vals = [_eval(p, point) for p in polys]
        if any(v == 0 for v in vals):
            return "wrong"
        if tuple(1 if v > 0 else -1 for v in vals) != tuple(vec):
            return "wrong"
        idx = tuple(int(round((Fraction(v) - Fraction(lo)) * (n - 1)
                              / (Fraction(hi) - Fraction(lo))))
                    for v, (lo, hi) in zip(point, box))
        if tuple(signs[idx]) != tuple(vec) or labels[idx] in seen:
            return "wrong"
        seen.add(labels[idx])
    return "ok" if len(seen) == count else "wrong"


def curve_root_counts(curves, lambdas, merge=1e-6):
    """Number of distinct x where the polylines cross each lambda."""
    counts = []
    for c in lambdas:
        xs = []
        for curve in curves:
            for (l0, x0), (l1, x1) in zip(curve, curve[1:]):
                if l0 <= c < l1 or l1 <= c < l0:
                    xs.append(x0 + (c - l0) / (l1 - l0) * (x1 - x0))
        xs.sort()
        n, last = 0, None
        for v in xs:
            if last is None or v - last > merge:
                n += 1
            last = v
        counts.append(n)
    return counts


def exact_root_counts(coeffs_in_x, window, cell):
    """Real roots of a polynomial in x inside the window, or None when two
    roots, or a root and the window edge, are closer than the grid can
    resolve.  ``coeffs_in_x`` maps the power of x to a float."""
    import numpy as np

    deg = max((d for d, c in coeffs_in_x.items() if c), default=0)
    if deg == 0:
        return 0
    arr = [coeffs_in_x.get(d, 0.0) for d in range(deg, -1, -1)]
    roots = np.roots(arr)
    lo, hi = window
    near = [r for r in roots if abs(r.imag) < 4 * cell]
    real = sorted(r.real for r in near)
    for a, b in zip(real, real[1:]):
        if b - a < 4 * cell:
            return None
    if any(abs(r - lo) < 3 * cell or abs(r - hi) < 3 * cell for r in real):
        return None
    if any(1e-9 < abs(r.imag) < 4 * cell for r in near):
        return None
    return sum(1 for r in near if abs(r.imag) <= 1e-9 and lo < r.real < hi)


def check_diagram(job, curves):
    """Root counts read off the traced curves equal the exact counts at the
    job's lambda samples that the grid can resolve."""
    (llo, lhi), (xlo, xhi) = job["window"]
    cell = max(lhi - llo, xhi - xlo) / job["resolution"]
    G, alpha = job["G"], job["alpha"]
    usable, expected = [], []
    for lam in job["lambdas"]:
        coeffs = {}
        for m, c in G.items():
            v = float(c) * lam ** m[1]
            for a, e in zip(alpha, m[2:]):
                if e:
                    v *= float(a) ** e
            coeffs[m[0]] = coeffs.get(m[0], 0.0) + v
        n = exact_root_counts(coeffs, (xlo, xhi), cell)
        if n is not None:
            usable.append(lam)
            expected.append(n)
    got = curve_root_counts(curves, usable)
    bad = [lam for lam, a, b in zip(usable, got, expected) if a != b]
    if not bad:
        return "ok"
    if all(abs(a - b) <= 1 for a, b in zip(got, expected)) and all(
            _zero_vertex_near(job, lam) for lam in bad):
        return "known:diagram_zero_vertex"
    return "wrong"


def _zero_vertex_near(job, lam):
    """A vertex of the tracer's float grid within one cell of lambda where G
    is exactly zero."""
    (llo, lhi), (xlo, xhi) = job["window"]
    n = job["resolution"]
    dl, dx = (lhi - llo) / n, (xhi - xlo) / n
    j0 = int((lam - llo) / dl)
    for j in range(max(j0 - 1, 0), min(j0 + 2, n) + 1):
        lv = Fraction(llo + j * dl)
        for i in range(n + 1):
            point = [Fraction(xlo + i * dx), lv] + list(job["alpha"])
            if _eval(job["G"], point) == 0:
                return True
    return False


def check_render(curves, files):
    svg_path = next(f for f in files if f.endswith(".svg"))
    csv_path = next(f for f in files if f.endswith(".csv"))
    with open(csv_path) as fh:
        rows = fh.read().splitlines()[1:]
    with open(svg_path) as fh:
        svg = fh.read()
    ok = (len(rows) == sum(len(c) for c in curves)
          and len({r.split(",")[0] for r in rows}) == len(curves)
          and svg.count("<polyline") == len(curves)
          and svg.rstrip().endswith("</svg>"))
    return "ok" if ok else "wrong"


def _near_zero_set(p, point, params, free, cell):
    """The point lies within one grid cell of a sign change of p, or on its
    zero set up to rounding (zeros of even multiplicity have no sign
    change)."""
    vals = []
    for da in (-cell, 0.0, cell):
        for db in (-cell, 0.0, cell):
            q = dict(point)
            q[free[0]] += da
            q[free[1]] += db
            vals.append(_feval(p, [q[n] for n in params]))
    scale = _feval({m: abs(c) for m, c in p.items()},
                   [abs(point[n]) for n in params])
    return min(vals) <= 0 <= max(vals) or abs(vals[4]) <= 1e-7 * (scale + 1.0)


SLICE_COARSE = 4  # the oracle's grid takes every 4th vertex of the tracer's


def _changes_sign_on_slice(p, job, params):
    """p takes both strict signs on a coarse subgrid of the tracer's grid,
    so the tracer must find some zero of p."""
    import numpy as np

    (alo, ahi), (blo, bhi) = job["box"]
    n = job["resolution"]
    ticks = np.arange(0, n + 1, SLICE_COARSE)
    a = alo + ticks * (ahi - alo) / n
    b = blo + ticks * (bhi - blo) / n
    A, B = np.meshgrid(a, b, indexing="ij")
    fixed = {k: float(v) for k, v in job["fixed"].items()}
    val = np.zeros(A.shape)
    mag = np.zeros(A.shape)
    for m, c in p.items():
        term = np.full(A.shape, float(c))
        for name, e in zip(params, m):
            if not e:
                continue
            if name == job["free"][0]:
                term = term * A ** e
            elif name == job["free"][1]:
                term = term * B ** e
            else:
                term = term * fixed.get(name, 0.0) ** e
        val += term
        mag += np.abs(term)
    strict = np.abs(val) > 1e-9 * (mag + 1.0)
    return bool(np.any(strict & (val > 0)) and np.any(strict & (val < 0)))


def check_slice(job, files):
    """Every CSV vertex of the slice lies near the zero set of one of its
    component's polynomials, and every component polynomial that changes
    sign on the slice has at least one vertex near its zero set."""
    csv_path = next(f for f in files if f.endswith(".csv"))
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    params = header[1:]
    (alo, ahi), (blo, bhi) = job["box"]
    cell = max(ahi - alo, bhi - blo) / job["resolution"]
    free = job["free"]
    traced = set()
    for line in lines[1:]:
        fields = line.split(",")
        comp = fields[0]
        point = {n: float(v) for n, v in zip(params, fields[1:])}
        polys = job["components"].get(comp)
        if not polys:
            return "wrong"
        near = [i for i, p in enumerate(polys)
                if _near_zero_set(p, point, params, free, cell)]
        if not near:
            return "wrong"
        traced.update((comp, i) for i in near)
    for comp, polys in job["components"].items():
        for i, p in enumerate(polys):
            if (comp, i) not in traced and _changes_sign_on_slice(
                    p, job, params):
                return "wrong"
    return "ok"


def _feval(p, point):
    total = 0.0
    for m, c in p.items():
        v = float(c)
        for xv, e in zip(point, m):
            if e:
                v *= xv ** e
        total += v
    return total
