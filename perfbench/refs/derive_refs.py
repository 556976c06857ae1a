"""Derive the frozen transition-set references in ``sigma.json``.

Run from the repository root:

    python3 perfbench/refs/derive_refs.py

Every component is the Zariski closure of a projection, computed as an
elimination ideal with a lex Groebner basis (Cox-Little-O'Shea, Ideals,
Varieties, and Algorithms, ch. 3).  The double-limit set D is written in
s = x1 + x2 and m = x1*x2 (each equation symmetrised, the antisymmetric
ones divided by x1 - x2), and the diagonal x1 = x2 is removed with the
Rabinowitsch variable T: T*(s^2 - 4*m) - 1.  The boundary families follow
Golubitsky-Schaeffer I, ch. III, section 5, on the box U x L of
``catalog.BOX``.  Only sympy is used; germforge is not imported,
so the references do not inherit its defects.
"""

import json
import os
import sys

import sympy
from sympy.polys.polyfuncs import symmetrize

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from catalog import BOX, FAMILIES  # noqa: E402
from oracles import canonical  # noqa: E402

x, lam, x1, x2, s, m, T = sympy.symbols("x lam x1 x2 s m T")


def eliminate(polys, drop, params):
    """Generators of the elimination ideal, or "dense" or []."""
    polys = [sympy.expand(p) for p in polys if sympy.expand(p) != 0]
    basis = sympy.groebner(polys, *drop, *params, order="lex",
                           method="f5b")
    kept = [e for e in basis.exprs if not (e.free_symbols & set(drop))]
    if any(e.is_number for e in kept):
        return []  # empty variety
    if not kept:
        return "dense"
    return [[canonical(e, params) for e in kept]]


def interior(G, params):
    Gx = sympy.diff(G, x)
    out = {
        "B": eliminate([G, Gx, sympy.diff(G, lam)], [x, lam], params),
        "H": eliminate([G, Gx, sympy.diff(Gx, x)], [x, lam], params),
    }
    d_sys = [T * (s ** 2 - 4 * m) - 1]
    for h in (G, Gx):
        h1, h2 = h.subs(x, x1), h.subs(x, x2)
        anti = sympy.quo(sympy.expand(h1 - h2), x1 - x2, x1)
        for e in (sympy.expand(h1 + h2), sympy.expand(anti)):
            sym, rest, defs = symmetrize(e, [x1, x2], formal=True)
            if rest != 0:
                raise ValueError("double-limit equation is not symmetric")
            names = {d: (s if v == x1 + x2 else m) for d, v in defs}
            d_sys.append(sympy.expand(sym.subs(names)))
    out["D"] = eliminate(d_sys, [T, s, m, lam], params)
    return out


def merge(systems):
    """Union of per-boundary results (each a list of systems)."""
    out = []
    for s in systems:
        if s == "dense":
            return "dense"
        for system in s:
            if system not in out:
                out.append(system)
    return out


def boundary(G, params, inner):
    (u_lo, u_hi), (l_lo, l_hi) = [(sympy.Rational(a), sympy.Rational(b))
                                  for a, b in BOX]
    Gx, Gl = sympy.diff(G, x), sympy.diff(G, lam)
    out = {}
    out["L_C"] = merge([[[canonical(G.subs({x: u, lam: l}), params)]]
                        for u in (u_lo, u_hi) for l in (l_lo, l_hi)])
    out["L_SH"] = merge([eliminate([G.subs(x, u), Gx.subs(x, u)], [lam],
                                   params) for u in (u_lo, u_hi)])
    out["L_T"] = merge([eliminate([G.subs(x, u), Gl.subs(x, u)], [lam],
                                  params) for u in (u_lo, u_hi)])
    out["L_SV"] = merge([eliminate([G.subs(lam, l), Gx.subs(lam, l)], [x],
                                   params) for l in (l_lo, l_hi)])
    # a zero on the boundary x = u and a limit point at the same lambda; the
    # closure includes the limit points on the boundary itself (x = u), whose
    # projection is the L_SH polynomial
    out["G_1"] = merge([eliminate([G.subs(x, u), G, Gx], [x, lam], params)
                        for u in (u_lo, u_hi)])
    out["G_2"] = eliminate([G.subs(x, u_lo), G.subs(x, u_hi)], [lam], params)
    out["L_B"], out["L_H"], out["G_D"] = inner["B"], inner["H"], inner["D"]
    return out


def main():
    refs = {"families": {}, "box": {}}
    for name, (text, nparams) in FAMILIES.items():
        params = sympy.symbols(" ".join("a%d" % (i + 1)
                                        for i in range(nparams)))
        params = params if isinstance(params, tuple) else (params,)
        G = sympy.sympify(text.replace("^", "**"))
        refs["families"][name] = interior(G, params)
        print(name, refs["families"][name], flush=True)
    text, nparams = FAMILIES["winged-cusp"]
    params = sympy.symbols("a1 a2 a3")
    refs["box"]["winged-cusp"] = boundary(
        sympy.sympify(text.replace("^", "**")), params,
        refs["families"]["winged-cusp"])
    print("box", refs["box"]["winged-cusp"], flush=True)
    with open(os.path.join(HERE, "sigma.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
