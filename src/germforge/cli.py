"""Command-line front end: germ analysis, unfoldings, transition sets, and
local-ring algebra with text or JSON output."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .germexpr import (
    GermSyntaxError,
    NonUnitDivisorError,
    UnknownVariableError,
    parse_and_expand,
    parse_germ,
)
from .intrinsic import (
    INCREASE_BOUND_WARNING,
    _is_polynomial_expr,
    _upper_bound,
    intrinsic_part,
    verify_germ,
    verify_ideal,
)
from .jets import GrLexOrder, Jet, LexOrder, LocalOrder, mdeg
from .localalg import (
    InfiniteCodimensionError,
    colon_ideal,
    mora_divide,
    mult_matrix,
    normal_set,
    standard_basis,
)
from .singularity import (
    NotEquivalentError,
    UnfoldingGerm,
    alg_objects,
    check_universal,
    normal_form,
    recognition_normal_form,
    recognition_unfolding,
    transformation,
    universal_unfolding,
)
from .bifurcation import (
    bifurcation_diagram,
    classify_regions,
    nonpersistent_sets,
    persistent_truncation_degree,
    render_diagram,
    render_transition_slice,
    transition_set,
    truncate_xlam,
)

RING_NAMES = {
    "smooth": "Ring of smooth germs",
    "formal": "Ring of formal power series",
    "fractional": "Ring of fractional germs",
    "polynomial": "Ring of polynomials",
}

ORDERS = {"local": LocalOrder, "grlex": GrLexOrder, "lex": LexOrder}


def render_desc(jet: Jet) -> str:
    """Descending-degree rendering (x^3 - lambda rather than -lambda + x^3)."""
    from .jets import format_term

    if not jet.terms:
        return "0"
    parts = []
    for m, c in sorted(jet.terms.items(), key=lambda t: (mdeg(t[0]), t[0]),
                       reverse=True):
        parts.append(format_term(m, c, jet.variables, not parts))
    return "".join(parts)


def _split_names(text: str):
    return tuple(n.strip() for n in text.split(",") if n.strip())


def _parse_vars(args) -> tuple:
    names = _split_names(args.vars)
    if len(names) != 2:
        raise SystemExit2("--vars needs exactly 2 names (state, parameter)")
    return names


class SystemExit2(Exception):
    """Usage error; exits with status 2."""


class MathError(Exception):
    """Mathematical failure; exits with status 1."""


def _expander(text, variables):
    tree = parse_germ(text, variables)

    def expand(k):
        from .germexpr import taylor_expand

        return taylor_expand(tree, variables, k)

    return expand, _is_polynomial_expr(tree)


def _unfolding_from_text(text, variables, params, degree):
    all_vars = tuple(variables) + tuple(params)
    k = degree if degree is not None else 2 * _upper_bound(None)
    body = parse_and_expand(text, all_vars, k)
    body = Jet(dict(body.terms), all_vars, None)
    return UnfoldingGerm(body, tuple(params))


def _emit(args, command, inputs, result, warnings, text_lines):
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"command": command, "inputs": inputs,
                          "result": result, "warnings": warnings},
                         sort_keys=True))
    else:
        for line in text_lines:
            print(line)
        for w in warnings:
            print(w)


# ------------------------------------------------------------- subcommands


def cmd_verify(args):
    variables = _parse_vars(args)
    bound = args.upper_bound
    if args.persistent:
        expand, poly_in = _expander(args.germ[0], variables)
        # persistent analysis is contact-qualitative: work on the normal form
        # so inessential high-order Taylor terms cannot postpone stability
        G, _w = universal_unfolding(expand, normalform=True,
                                    polynomial_input=poly_in)
        k, warnings = persistent_truncation_degree(G,
                                                   upper_bound=bound or 12)
        if k is None:
            _emit(args, "verify", {"germ": args.germ[0]},
                  {"truncation_degree": None},
                  [INCREASE_BOUND_WARNING] + warnings, [])
            return
        _emit(args, "verify", {"germ": args.germ[0], "mode": "persistent"},
              {"truncation_degree": k}, warnings,
              ["The least permissible truncation degree is: %d" % k])
        return
    if args.ideal:
        k = args.degree if args.degree is not None else 12
        jets = [parse_and_expand(t, variables, k) for t in args.germ]
        rep = verify_ideal(jets, upper_bound=bound)
        header = "The following rings are allowed as means of computations:"
        degree_line = "The truncated degree must be: %s"
    else:
        expand, poly_in = _expander(args.germ[0], variables)
        rep = verify_germ(expand, upper_bound=bound,
                          polynomial_input=poly_in)
        header = ("The following rings are allowed as the means of "
                  "computations:")
        degree_line = "The truncation degree must be: %s"
    lines = []
    if rep.truncation_degree is not None:
        lines.append(header)
        for ring in rep.permissible_rings:
            lines.append("")
            lines.append(RING_NAMES[ring])
        lines.append("")
        lines.append(degree_line % rep.truncation_degree)
    _emit(args, "verify", {"germ": args.germ},
          {"rings": rep.permissible_rings,
           "truncation_degree": rep.truncation_degree},
          rep.warnings, lines)


def cmd_normalform(args):
    variables = _parse_vars(args)
    expand, poly_in = _expander(args.germ[0], variables)
    nf = normal_form(expand, k=args.degree, ring=args.ring,
                     polynomial_input=poly_in)
    _emit(args, "normalform", {"germ": args.germ[0], "ring": args.ring},
          {"normal_form": render_desc(nf.germ), "degree": nf.degree},
          nf.warnings, [render_desc(nf.germ)])


def cmd_unfolding(args):
    variables = _parse_vars(args)
    expand, poly_in = _expander(args.germ[0], variables)
    out, warnings = universal_unfolding(
        expand, k=args.degree, normalform=args.normalform,
        want_list=args.list, ring=args.ring, polynomial_input=poly_in)
    germs = out if args.list else [out]
    lines = [str(u) for u in germs]
    _emit(args, "unfolding", {"germ": args.germ[0]},
          {"unfoldings": [str(u) for u in germs],
           "params": [list(u.params) for u in germs]},
          warnings, lines)


def cmd_recognize(args):
    variables = _parse_vars(args)
    k = args.degree if args.degree is not None else 6
    g = parse_and_expand(args.germ[0], variables, k)
    if args.matrix is not None:
        M = recognition_unfolding(g, args.matrix, k)
        rows = M.render()
        lines = ["[" + ", ".join(r) + "]" for r in rows]
        _emit(args, "recognize", {"germ": args.germ[0], "matrix": args.matrix},
              {"columns": [list(c) for c in M.columns], "rows": rows},
              [], lines)
    else:
        rc = recognition_normal_form(g)
        _emit(args, "recognize", {"germ": args.germ[0]},
              {"zero": [list(m) for m in rc.zero],
               "nonzero": [list(m) for m in rc.nonzero]},
              [], [rc.render()])


def cmd_check_universal(args):
    variables = _parse_vars(args)
    params = _split_names(args.params)
    G = _unfolding_from_text(args.germ[0], variables, params, args.degree)
    answer = check_universal(G)
    _emit(args, "check-universal", {"germ": args.germ[0]},
          {"universal": answer}, [], [answer])


def cmd_transform(args):
    variables = _parse_vars(args)
    k = args.degree if args.degree is not None else 4
    g = parse_and_expand(args.germ[0], variables, k)
    f = parse_and_expand(args.germ[1], variables, k)
    tr = transformation(g, f, k)
    lines = ["X = %s" % tr.X, "Lambda = %s" % tr.L, "S = %s" % tr.S]
    _emit(args, "transform", {"g": args.germ[0], "f": args.germ[1]},
          {"X": str(tr.X), "Lambda": str(tr.L), "S": str(tr.S)}, [], lines)


def _transition_result(ts):
    out = {}
    for name, comp in ts.components.items():
        out[name] = {
            "systems": [[str(p) for p in system] for system in comp.systems],
            "side_conditions": [str(c) for c in comp.side_conditions],
            "note": comp.note,
        }
    return out


def cmd_transition_set(args):
    variables = _parse_vars(args)
    params = _split_names(args.params)
    G = _unfolding_from_text(args.germ[0], variables, params, None)
    if args.degree is not None:
        G = UnfoldingGerm(truncate_xlam(G.body, args.degree), G.params)
    ts = transition_set(G)
    lines = [str(ts)]
    files = []
    if args.plot:
        files = render_transition_slice(ts, args.plot)
    _emit(args, "transition-set", {"germ": args.germ[0]},
          {"components": _transition_result(ts), "files": files},
          ts.warnings, lines)


def cmd_nonpersistent(args):
    variables = _parse_vars(args)
    params = _split_names(args.params)
    G = _unfolding_from_text(args.germ[0], variables, params, None)
    if args.boundary is None:
        raise SystemExit2("nonpersistent requires --boundary "
                          "U_lo,U_hi,L_lo,L_hi")
    vals = [Fraction(v) for v in _split_names(args.boundary)]
    if len(vals) != 4:
        raise SystemExit2("--boundary needs four values")
    ts = nonpersistent_sets(G, (vals[0], vals[1]), (vals[2], vals[3]),
                            vertical=args.vertical,
                            horizontal=args.horizontal, k=args.degree)
    lines = [str(ts)]
    files = []
    if args.plot:
        files = render_transition_slice(ts, args.plot)
    _emit(args, "nonpersistent", {"germ": args.germ[0]},
          {"components": _transition_result(ts), "files": files},
          ts.warnings, lines)


def cmd_persistent(args):
    variables = _parse_vars(args)
    params = _split_names(args.params)
    G = _unfolding_from_text(args.germ[0], variables, params, args.degree)
    ts = transition_set(G)
    box = None
    if args.box:
        nums = [Fraction(v) for v in _split_names(args.box)]
        box = [(nums[2 * i], nums[2 * i + 1]) for i in range(len(nums) // 2)]
    catalog = classify_regions(ts, box=box, grid=args.grid,
                               granularity=args.granularity)
    lines = []
    for i, (point, signs, _tag) in enumerate(catalog.representatives):
        lines.append("region %d: alpha = (%s), signs = (%s)" % (
            i + 1, ", ".join(str(v) for v in point),
            ", ".join("+" if s > 0 else "-" for s in signs)))
    files = []
    if args.plot:
        window = ((-1.0, 1.0), (-1.0, 1.0))
        if args.window:
            nums = [float(Fraction(v)) for v in _split_names(args.window)]
            window = ((nums[0], nums[1]), (nums[2], nums[3]))
        for i, (point, _signs, _tag) in enumerate(catalog.representatives):
            d = bifurcation_diagram(G, point, window=window,
                                    resolution=args.resolution)
            files += render_diagram(d, "%s/diagram_%03d.svg"
                                    % (args.plot, i + 1))
    _emit(args, "persistent", {"germ": args.germ[0]},
          {"representatives": [[str(v) for v in point]
                               for point, _s, _t in catalog.representatives],
           "files": files},
          ts.warnings + catalog.warnings, lines)


def cmd_intrinsic(args):
    variables = _parse_vars(args)
    k = args.degree if args.degree is not None else 8
    jets = [parse_and_expand(t, variables, k) for t in args.germ]
    res = intrinsic_part(jets, None, args.degree)
    warnings = [res.remark] if res.remark else []
    _emit(args, "intrinsic", {"germs": args.germ},
          {"ideal": str(res.ideal),
           "blocks": [list(b) for b in res.ideal.blocks]},
          warnings, [str(res.ideal)])


def cmd_algobjects(args):
    variables = _parse_vars(args)
    k = args.degree if args.degree is not None else 6
    g = parse_and_expand(args.germ[0], variables, k)
    ao = alg_objects(g, k)
    def fm(monos):
        from .jets import format_monomial

        return "{%s}" % ", ".join(format_monomial(m, variables)
                                  for m in monos)
    lines = [
        "RT = %s" % ao.rt,
        "T = %s" % ao.t,
        "P = %s" % ao.p,
        "S = %s" % ao.s,
        "E/T basis = %s" % fm(ao.e_over_t),
        "S-perp basis = %s" % fm(ao.s_perp),
        "intrinsic generators = %s" % fm(ao.intrinsic_generators),
    ]
    _emit(args, "algobjects", {"germ": args.germ[0]},
          {"rt": str(ao.rt), "t": str(ao.t), "p": str(ao.p),
           "s": str(ao.s),
           "e_over_t": [list(m) for m in ao.e_over_t],
           "s_perp": [list(m) for m in ao.s_perp],
           "intrinsic_generators": [list(m) for m in
                                    ao.intrinsic_generators]},
          [], lines)


def _order_from(args):
    return ORDERS[args.order]()


def cmd_division(args):
    variables = _parse_vars(args)
    k = args.degree
    if k is None:
        raise SystemExit2("division requires --degree")
    g = parse_and_expand(args.germ[0], variables, k)
    divisors = [parse_and_expand(t, variables, k) for t in args.germ[1:]]
    res = mora_divide(g, divisors, _order_from(args), k)
    lines = (["unit = %s" % res.unit]
             + ["q%d = %s" % (i + 1, q) for i, q in enumerate(res.quotients)]
             + ["remainder = %s" % res.remainder])
    _emit(args, "division", {"germ": args.germ[0]},
          {"unit": str(res.unit), "quotients": [str(q) for q in res.quotients],
           "remainder": str(res.remainder)}, [], lines)


def cmd_standard_basis(args):
    variables = _parse_vars(args)
    k = args.degree
    jets = [parse_and_expand(t, variables, k if k is not None else 10)
            for t in args.germ]
    sb = standard_basis(jets, _order_from(args), k)
    warnings = [sb.warning] if sb.warning else []
    lines = [str(f) for f in sb.generators]
    _emit(args, "standard-basis", {"germs": args.germ},
          {"basis": [str(f) for f in sb.generators]}, warnings, lines)


def cmd_colon_ideal(args):
    variables = _parse_vars(args)
    k = args.degree
    jets = [parse_and_expand(t, variables, k if k is not None else 10)
            for t in args.germ]
    g = parse_and_expand(args.by, variables, k if k is not None else 10)
    basis = colon_ideal(jets, g, k)
    lines = [str(f) for f in basis]
    _emit(args, "colon-ideal", {"germs": args.germ, "by": args.by},
          {"basis": [str(f) for f in basis]}, [], lines)


def cmd_normalset(args):
    variables = _parse_vars(args)
    k = args.degree
    jets = [parse_and_expand(t, variables, k if k is not None else 10)
            for t in args.germ]
    try:
        basis = normal_set(jets, k)
    except InfiniteCodimensionError as exc:
        raise MathError(str(exc))
    from .jets import format_monomial

    lines = ["{%s}" % ", ".join(format_monomial(m, variables)
                                for m in basis)]
    _emit(args, "normalset", {"germs": args.germ},
          {"basis": [format_monomial(m, variables) for m in basis]},
          [], lines)


def cmd_multmatrix(args):
    variables = _parse_vars(args)
    k = args.degree
    jets = [parse_and_expand(t, variables, k if k is not None else 10)
            for t in args.germ]
    u = parse_and_expand(args.by, variables, k if k is not None else 10)
    if len(u.terms) != 1 or list(u.terms.values())[0] != 1:
        raise SystemExit2("--by must be a single monomial")
    mono = list(u.terms.keys())[0]
    try:
        matrix, basis = mult_matrix(jets, mono, k)
    except InfiniteCodimensionError as exc:
        raise MathError(str(exc))
    from .jets import format_monomial

    lines = ["basis: {%s}" % ", ".join(format_monomial(m, variables)
                                       for m in basis)]
    for row in matrix:
        lines.append("[" + ", ".join(str(c) for c in row) + "]")
    _emit(args, "multmatrix", {"germs": args.germ, "by": args.by},
          {"basis": [format_monomial(m, variables) for m in basis],
           "matrix": [[str(c) for c in row] for row in matrix]},
          [], lines)


# ------------------------------------------------------------------ parser


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and `main` runs many times in one process when the CLI is
    driven as a library."""
    p = argparse.ArgumentParser(
        prog="germforge",
        description="Qualitative analysis of local zeros of scalar germs "
                    "g(x, lambda): normal forms, unfoldings, recognition, "
                    "transition sets, and local-ring algebra.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, ngerms="+"):
        sp.add_argument("germ", nargs=ngerms, help="germ expression(s)")
        sp.add_argument("--vars", required=True,
                        help="state variable and parameter, e.g. x,lambda")
        sp.add_argument("--degree", type=int, default=None)
        sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("verify")
    common(sp)
    sp.add_argument("--ideal", action="store_true")
    sp.add_argument("--persistent", action="store_true")
    sp.add_argument("--upper-bound", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("normalform")
    common(sp)
    sp.add_argument("--ring", default="fractional",
                    choices=["fractional", "formal", "smooth", "polynomial"])
    sp.set_defaults(func=cmd_normalform)

    sp = sub.add_parser("unfolding")
    common(sp)
    sp.add_argument("--ring", default="fractional",
                    choices=["fractional", "formal", "smooth", "polynomial"])
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--normalform", action="store_true")
    sp.set_defaults(func=cmd_unfolding)

    sp = sub.add_parser("recognize")
    common(sp)
    sp.add_argument("--matrix", type=int, default=None,
                    help="number of unfolding parameters for the "
                         "recognition matrix")
    sp.set_defaults(func=cmd_recognize)

    sp = sub.add_parser("check-universal")
    common(sp)
    sp.add_argument("--params", required=True)
    sp.set_defaults(func=cmd_check_universal)

    sp = sub.add_parser("transform")
    common(sp)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("transition-set")
    common(sp)
    sp.add_argument("--params", required=True)
    sp.add_argument("--plot", default=None)
    sp.set_defaults(func=cmd_transition_set)

    sp = sub.add_parser("nonpersistent")
    common(sp)
    sp.add_argument("--params", required=True)
    sp.add_argument("--boundary", default=None)
    sp.add_argument("--vertical", action="store_true")
    sp.add_argument("--horizontal", action="store_true")
    sp.add_argument("--plot", default=None)
    sp.set_defaults(func=cmd_nonpersistent)

    sp = sub.add_parser("persistent")
    common(sp)
    sp.add_argument("--params", required=True)
    sp.add_argument("--box", default=None)
    sp.add_argument("--grid", type=int, default=41)
    sp.add_argument("--granularity", default="complete",
                    choices=["short", "intermediate", "complete"])
    sp.add_argument("--plot", default=None)
    sp.add_argument("--window", default=None)
    sp.add_argument("--resolution", type=int, default=400)
    sp.set_defaults(func=cmd_persistent)

    sp = sub.add_parser("intrinsic")
    common(sp)
    sp.set_defaults(func=cmd_intrinsic)

    sp = sub.add_parser("algobjects")
    common(sp)
    sp.set_defaults(func=cmd_algobjects)

    sp = sub.add_parser("division")
    common(sp)
    sp.add_argument("--order", default="local", choices=sorted(ORDERS))
    sp.set_defaults(func=cmd_division)

    sp = sub.add_parser("standard-basis")
    common(sp)
    sp.add_argument("--order", default="local", choices=sorted(ORDERS))
    sp.set_defaults(func=cmd_standard_basis)

    sp = sub.add_parser("colon-ideal")
    common(sp)
    sp.add_argument("--by", required=True, help="the germ g in (I : g)")
    sp.set_defaults(func=cmd_colon_ideal)

    sp = sub.add_parser("normalset")
    common(sp)
    sp.set_defaults(func=cmd_normalset)

    sp = sub.add_parser("multmatrix")
    common(sp)
    sp.add_argument("--by", required=True, help="multiplier monomial")
    sp.set_defaults(func=cmd_multmatrix)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (GermSyntaxError, UnknownVariableError,
            NonUnitDivisorError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (MathError, InfiniteCodimensionError,
            NotEquivalentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
