"""Command-line front end: germ analysis, unfoldings, transition sets, and
local-ring algebra with text or JSON output.

Each `cmd_*` handler takes the parsed arguments and the (state, parameter)
names from `--vars`, and returns (inputs, result, warnings, lines): the
`inputs` and `result` objects of the JSON output, the warnings, and the
text output.  Only `main` parses `--vars`, prints, and turns exceptions into
exit codes."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .germexpr import (
    GermSyntaxError,
    NonUnitDivisorError,
    UnknownVariableError,
    parse_germ,
    taylor_expand,
)
from .intrinsic import (
    DEFAULT_UPPER_BOUND,
    intrinsic_part,
    verify_germ,
    verify_ideal,
    working_degree,
)
from .jets import (
    GrLexOrder,
    Jet,
    LexOrder,
    LocalOrder,
    format_monomial,
    format_terms,
)
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
    ParameterCountError,
    UnfoldingGerm,
    ZeroGermError,
    alg_objects,
    check_universal,
    normal_form,
    recognition_normal_form,
    recognition_unfolding,
    require_nonzero,
    transformation,
    universal_unfolding,
)
from .bifurcation import (
    bifurcation_diagram,
    classify_regions,
    nonpersistent_sets,
    plot_window,
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
NF_POLY_WARNING = (
    "The polynomial germ ring is not suitable for normal form computations."
)
UNFOLDING_POLY_WARNING = (
    "The ring of polynomial germs is not suitable for normal form "
    "computations of g."
)

ORDERS = {"local": LocalOrder, "grlex": GrLexOrder, "lex": LexOrder}

# the least value of each integer flag, refused below it before anything
# is computed
FLAG_MINIMA = {"--degree": 1, "--upper-bound": 1, "--grid": 1,
               "--resolution": 1, "--matrix": 0}

# the number of germs of each command that takes a fixed number (verify
# takes any number with --ideal), refused otherwise before anything is
# computed
GERM_COUNTS = {"verify": 1, "normalform": 1, "unfolding": 1, "recognize": 1,
               "algobjects": 1, "check-universal": 1, "transition-set": 1,
               "nonpersistent": 1, "persistent": 1, "transform": 2}

NUMBER_WORDS = ("no", "one", "two", "three", "four", "five", "six", "seven",
                "eight", "nine", "ten")


class InputError(Exception):
    """Malformed input: exits 2."""


def _split_names(text: str):
    return tuple(n.strip() for n in text.split(",") if n.strip())


def _distinct_names(variables, params):
    """Refuse a name given twice across --vars and --params."""
    names = variables + params
    for name in names:
        if names.count(name) > 1:
            flags = [flag for flag, group in (("--vars", variables),
                                             ("--params", params))
                     if name in group]
            raise InputError("%r is named twice in %s"
                             % (name, " and ".join(flags)))


def _rationals(text, count, flag):
    """The comma-separated rationals of a flag value; there must be `count`
    of them."""
    try:
        values = [Fraction(v) for v in _split_names(text)]
    except (ValueError, ZeroDivisionError):
        raise InputError("%s takes comma-separated rationals, not %r"
                         % (flag, text)) from None
    if len(values) != count:
        word = NUMBER_WORDS[count] if count < len(NUMBER_WORDS) else count
        raise InputError("%s needs %s values" % (flag, word))
    return values


def _germ(text, variables):
    """expand(k), the germ's k-jet, and whether the germ is a polynomial.
    A polynomial is expanded once, exactly: expand(k) truncates it, and
    expand(None) is the polynomial.  Any other germ keeps its highest jet
    expanded so far, which truncates to every lower k, and is expanded no
    higher than asked; expand(None) asks for --degree."""
    tree = parse_germ(text, variables)
    if tree.polynomial:
        exact = taylor_expand(tree, variables, None)
        return exact.truncate, True
    top = None

    def expand(k):
        nonlocal top
        if k is None:
            raise InputError("%r is not a polynomial; give --degree" % text)
        if top is None or top.degree < k:
            top = taylor_expand(tree, variables, k)
        return top.truncate(k)

    return expand, False


def _jets(texts, variables, k):
    """Each germ's k-jet; with k None, each germ exactly, which only a
    polynomial allows."""
    return [_germ(text, variables)[0](k) for text in texts]


def _answer_jet(args, variables):
    """(g, mrt, warnings): the first germ's jet at the degree where
    `recognize` and `algobjects` answer, and M*RT(g) there when the
    truncation search built it.  The degree is --degree; else one degree
    above the working degree, where `verify_germ` read P from M*RT and
    M^(k+1) shows; else the working degree, with the warning that no
    truncation degree was found."""
    expand, _polynomial = _germ(args.germ[0], variables)
    k, mrt, warnings = working_degree(expand, args.degree)
    g = require_nonzero(expand(k if mrt is None else k + 1))
    return g, mrt, warnings


def _plot_directory(directory):
    """Refuse a --plot into a missing directory before anything is
    computed."""
    if not os.path.isdir(directory or "."):
        raise InputError("--plot directory %r does not exist" % directory)


def _ring_warnings(args, polynomial, warning, warnings):
    """`warnings`, led by `warning` when --ring polynomial is asked of a germ
    that is not a polynomial.  The ring changes no computation."""
    if args.ring == "polynomial" and not polynomial:
        return [warning] + warnings
    return warnings


def _unfolding(args, variables):
    """The germ as an unfolding in --params: a polynomial exactly; any other
    germ needs --degree and is expanded at twice the truncation-degree
    bound.  --degree then cuts its x and lambda degree (`truncate_xlam`),
    here for every unfolding command; the parameters are left alone."""
    params = _split_names(args.params)
    all_vars = tuple(variables) + params
    expand, polynomial = _germ(args.germ[0], all_vars)
    body = expand(None if polynomial or args.degree is None
                  else 2 * DEFAULT_UPPER_BOUND)
    if args.degree is not None:
        body = truncate_xlam(body, args.degree)
    return UnfoldingGerm(Jet(dict(body.terms), all_vars, None), params)


def _transition_unfolding(args, variables):
    """The unfolding of a command that prints a transition set.  A --plot
    slice needs two parameters and an existing directory, both checked
    before any elimination."""
    G = _unfolding(args, variables)
    if args.plot:
        if len(G.params) != 2:
            raise InputError("--plot draws a slice in exactly 2 parameters, "
                             "not %d" % len(G.params))
        _plot_directory(os.path.dirname(args.plot))
    return G


def _transition_output(args, ts):
    files = render_transition_slice(ts, args.plot) if args.plot else []
    components = {
        name: {"systems": [[str(p) for p in system]
                           for system in comp.systems],
               "side_conditions": [str(c) for c in comp.side_conditions],
               "note": comp.note}
        for name, comp in ts.components.items()}
    return ({"germ": args.germ[0]},
            {"components": components, "files": files},
            ts.warnings, [str(ts)])


# ------------------------------------------------------------- subcommands


def cmd_verify(args, variables):
    bound = args.upper_bound
    if args.ideal and args.persistent:
        raise InputError("--persistent takes one germ, not an --ideal")
    if args.degree is not None and not args.ideal:
        raise InputError("verify reads --degree only with --ideal; a germ's "
                         "truncation degree is what verify finds")
    if args.ideal:
        # expanded at the search bound, so every degree searched is a jet
        k = args.degree if args.degree is not None else bound
        rep = verify_ideal(_jets(args.germ, variables, k), upper_bound=bound)
        polynomial = False
        header = "The following rings are allowed as means of computations:"
        degree_line = "The truncated degree must be: %s"
    else:
        expand, polynomial = _germ(args.germ[0], variables)
        rep = verify_germ(expand, upper_bound=bound)
        if rep.truncation_degree is None:
            # a raised bound cannot help a germ that is zero up to it
            require_nonzero(expand(bound))
        if args.persistent:
            # the determinacy degree is a contact invariant and bounds the
            # x-lambda degree of the normal form's universal unfolding
            k = rep.truncation_degree
            if k is None:
                return ({"germ": args.germ[0]}, {"truncation_degree": None},
                        rep.warnings, [])
            return ({"germ": args.germ[0], "mode": "persistent"},
                    {"truncation_degree": k}, [],
                    ["The least permissible truncation degree is: %d" % k])
        header = ("The following rings are allowed as the means of "
                  "computations:")
        degree_line = "The truncation degree must be: %s"
    rings = ["smooth", "formal"]
    lines = []
    if rep.truncation_degree is not None:
        rings.append("fractional")
        if polynomial:
            rings.append("polynomial")
        lines.append(header)
        for ring in rings:
            lines.append("")
            lines.append(RING_NAMES[ring])
        lines.append("")
        lines.append(degree_line % rep.truncation_degree)
    return ({"germ": args.germ},
            {"rings": rings, "truncation_degree": rep.truncation_degree},
            rep.warnings, lines)


def cmd_normalform(args, variables):
    expand, polynomial = _germ(args.germ[0], variables)
    nf = normal_form(expand, k=args.degree)
    # descending degree: x^3 - lambda rather than -lambda + x^3
    text = format_terms(nf.germ.sorted_terms(GrLexOrder()), nf.germ.variables)
    return ({"germ": args.germ[0], "ring": args.ring},
            {"normal_form": text, "degree": nf.germ.degree},
            _ring_warnings(args, polynomial, NF_POLY_WARNING, nf.warnings),
            [text])


def cmd_unfolding(args, variables):
    expand, polynomial = _germ(args.germ[0], variables)
    out, warnings = universal_unfolding(
        expand, k=args.degree, normalform=args.normalform,
        want_list=args.list)
    unfoldings = out if args.list else [out]
    germs = [str(u) for u in unfoldings]
    return ({"germ": args.germ[0]},
            {"unfoldings": germs,
             "params": [list(u.params) for u in unfoldings]},
            _ring_warnings(args, polynomial, UNFOLDING_POLY_WARNING,
                           warnings), germs)


def cmd_recognize(args, variables):
    g, mrt, warnings = _answer_jet(args, variables)
    if args.matrix is not None:
        M = recognition_unfolding(g, args.matrix, mrt)
        rows = M.render()
        return ({"germ": args.germ[0], "matrix": args.matrix},
                {"columns": [list(c) for c in M.columns], "rows": rows},
                warnings, ["[" + ", ".join(r) + "]" for r in rows])
    rc = recognition_normal_form(g)
    return ({"germ": args.germ[0]},
            {"zero": [list(m) for m in rc.zero],
             "nonzero": [list(m) for m in rc.nonzero]},
            warnings, [rc.render()])


def cmd_check_universal(args, variables):
    answer, warnings = check_universal(_unfolding(args, variables),
                                       args.degree)
    return {"germ": args.germ[0]}, {"universal": answer}, warnings, [answer]


def cmd_transform(args, variables):
    expands = [_germ(text, variables)[0] for text in args.germ]
    k, warnings = args.degree, []
    if k is None:
        # one degree above both truncation degrees, both jets determine
        # their germs, so a witness proves the germs equivalent
        found = [working_degree(expand) for expand in expands]
        k = max(d for d, *_ in found) + 1
        warnings = list(dict.fromkeys(w for *_, ws in found for w in ws))
        # the truncation degree verify finds is a contact invariant, so two
        # found degrees that differ prove the germs inequivalent
        if (all(span is not None for _d, span, _w in found)
                and found[0][0] != found[1][0]):
            raise NotEquivalentError("not equivalent up to degree %d" % k)
    tr = transformation(expands[0](k), expands[1](k), k)
    return ({"g": args.germ[0], "f": args.germ[1]},
            {"X": str(tr.X), "Lambda": str(tr.L), "S": str(tr.S)}, warnings,
            ["X = %s" % tr.X, "Lambda = %s" % tr.L, "S = %s" % tr.S])


def cmd_transition_set(args, variables):
    G = _transition_unfolding(args, variables)
    return _transition_output(args, transition_set(G))


def cmd_nonpersistent(args, variables):
    G = _transition_unfolding(args, variables)
    if args.boundary is None:
        raise InputError("nonpersistent requires --boundary "
                         "U_lo,U_hi,L_lo,L_hi")
    u_lo, u_hi, l_lo, l_hi = _rationals(args.boundary, 4, "--boundary")
    ts = nonpersistent_sets(G, (u_lo, u_hi), (l_lo, l_hi),
                            vertical=args.vertical,
                            horizontal=args.horizontal)
    return _transition_output(args, ts)


def cmd_persistent(args, variables):
    G = _unfolding(args, variables)
    box = None
    if args.box:
        nums = _rationals(args.box, 2 * len(G.params), "--box")
        box = list(zip(nums[::2], nums[1::2]))
    window = ((-1, 1), (-1, 1))
    if args.window:
        nums = _rationals(args.window, 4, "--window")
        window = (nums[:2], nums[2:])
    try:
        window = plot_window(window)
    except ValueError as exc:
        raise InputError("--window=%s: %s" % (args.window, exc)) from None
    if args.plot:
        _plot_directory(args.plot)
    ts = transition_set(G)
    catalog = classify_regions(ts, box=box, grid=args.grid,
                               granularity=args.granularity)
    points = [point for point, _signs, _tag in catalog.representatives]
    lines = ["region %d: alpha = (%s), signs = (%s)" % (
        i + 1, ", ".join(str(v) for v in point),
        ", ".join("+" if s > 0 else "-" for s in signs))
        for i, (point, signs, _tag) in enumerate(catalog.representatives)]
    files = []
    if args.plot:
        for i, point in enumerate(points):
            d = bifurcation_diagram(G, point, window=window,
                                    resolution=args.resolution)
            files += render_diagram(d, "%s/diagram_%03d.svg"
                                    % (args.plot, i + 1))
    return ({"germ": args.germ[0]},
            {"representatives": [[str(v) for v in point]
                                 for point in points],
             "files": files},
            ts.warnings + catalog.warnings, lines)


def cmd_intrinsic(args, variables):
    res = intrinsic_part(_jets(args.germ, variables, args.degree), args.degree)
    return ({"germs": args.germ},
            {"ideal": str(res.ideal),
             "blocks": [list(b) for b in res.ideal.blocks]},
            [res.remark] if res.remark else [], [str(res.ideal)])


def cmd_algobjects(args, variables):
    g, mrt, warnings = _answer_jet(args, variables)
    ao = alg_objects(g, mrt)

    def fm(monos):
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
    return ({"germ": args.germ[0]},
            {"rt": str(ao.rt), "t": str(ao.t), "p": str(ao.p),
             "s": str(ao.s),
             "e_over_t": [list(m) for m in ao.e_over_t],
             "s_perp": [list(m) for m in ao.s_perp],
             "intrinsic_generators": [list(m) for m in
                                      ao.intrinsic_generators]},
            warnings, lines)


def cmd_division(args, variables):
    if args.degree is None:
        raise InputError("division requires --degree")
    if len(args.germ) < 2:
        raise InputError("division needs a germ and at least one divisor")
    g, *divisors = _jets(args.germ, variables, args.degree)
    for text, f in zip(args.germ[1:], divisors):
        if f.is_zero():
            raise InputError("divisor %r is zero up to degree %d"
                             % (text, args.degree))
    res = mora_divide(g, divisors, ORDERS[args.order](), args.degree)
    return ({"germ": args.germ[0]},
            {"unit": str(res.unit),
             "quotients": [str(q) for q in res.quotients],
             "remainder": str(res.remainder)}, [],
            ["unit = %s" % res.unit]
            + ["q%d = %s" % (i + 1, q) for i, q in enumerate(res.quotients)]
            + ["remainder = %s" % res.remainder])


def cmd_standard_basis(args, variables):
    sb = standard_basis(_jets(args.germ, variables, args.degree),
                        ORDERS[args.order](), args.degree)
    basis = [str(f) for f in sb.generators]
    return ({"germs": args.germ}, {"basis": basis},
            [sb.warning] if sb.warning else [], basis)


def cmd_colon_ideal(args, variables):
    *jets, g = _jets(args.germ + [args.by], variables, args.degree)
    if g.is_zero():
        raise InputError("--by is zero" if g.degree is None
                         else "--by is zero up to degree %d" % g.degree)
    basis = [str(f) for f in colon_ideal(jets, g, args.degree)]
    return ({"germs": args.germ, "by": args.by}, {"basis": basis}, [],
            basis)


def cmd_normalset(args, variables):
    basis = normal_set(_jets(args.germ, variables, args.degree), args.degree)
    names = [format_monomial(m, variables) for m in basis]
    return ({"germs": args.germ}, {"basis": names}, [],
            ["{%s}" % ", ".join(names)])


def cmd_multmatrix(args, variables):
    *jets, u = _jets(args.germ + [args.by], variables, args.degree)
    if len(u.terms) != 1 or list(u.terms.values())[0] != 1:
        raise InputError("--by must be a single monomial")
    [mono] = u.terms
    matrix, basis = mult_matrix(jets, mono, args.degree)
    names = [format_monomial(m, variables) for m in basis]
    return ({"germs": args.germ, "by": args.by},
            {"basis": names,
             "matrix": [[str(c) for c in row] for row in matrix]}, [],
            ["basis: {%s}" % ", ".join(names)]
            + ["[" + ", ".join(str(c) for c in row) + "]" for row in matrix])


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

    def command(name, func, *flags):
        """Subcommand `name` with the common arguments, then `flags`, each a
        (flag, add_argument options) pair."""
        sp = sub.add_parser(name)
        sp.add_argument("germ", nargs="+", help="germ expression(s)")
        sp.add_argument("--vars", required=True,
                        help="state variable and parameter, e.g. x,lambda")
        sp.add_argument("--degree", type=int, default=None)
        sp.add_argument("--format", choices=["text", "json"], default="text")
        for flag, options in flags:
            sp.add_argument(flag, **options)
        sp.set_defaults(func=func)

    switch = {"action": "store_true"}
    ring = ("--ring", {"default": "fractional",
                       "choices": ["fractional", "formal", "smooth",
                                   "polynomial"]})
    order = ("--order", {"default": "local", "choices": sorted(ORDERS)})
    params = ("--params", {"required": True})
    plot = ("--plot", {"default": None})

    command("verify", cmd_verify, ("--ideal", switch),
            ("--persistent", switch),
            ("--upper-bound", {"type": int, "default": DEFAULT_UPPER_BOUND}))
    command("normalform", cmd_normalform, ring)
    command("unfolding", cmd_unfolding, ring, ("--list", switch),
            ("--normalform", switch))
    command("recognize", cmd_recognize,
            ("--matrix", {"type": int, "default": None,
                          "help": "number of unfolding parameters for the "
                                  "recognition matrix"}))
    command("check-universal", cmd_check_universal, params)
    command("transform", cmd_transform)
    command("transition-set", cmd_transition_set, params, plot)
    command("nonpersistent", cmd_nonpersistent, params,
            ("--boundary", {"default": None}), ("--vertical", switch),
            ("--horizontal", switch), plot)
    command("persistent", cmd_persistent, params,
            ("--box", {"default": None}),
            ("--grid", {"type": int, "default": 41}),
            ("--granularity", {"default": "complete",
                               "choices": ["short", "intermediate",
                                           "complete"]}),
            plot, ("--window", {"default": None}),
            ("--resolution", {"type": int, "default": 400}))
    command("intrinsic", cmd_intrinsic)
    command("algobjects", cmd_algobjects)
    command("division", cmd_division, order)
    command("standard-basis", cmd_standard_basis, order)
    command("colon-ideal", cmd_colon_ideal,
            ("--by", {"required": True, "help": "the germ g in (I : g)"}))
    command("normalset", cmd_normalset)
    command("multmatrix", cmd_multmatrix,
            ("--by", {"required": True, "help": "multiplier monomial"}))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        variables = _split_names(args.vars)
        if len(variables) != 2:
            raise InputError("--vars needs exactly 2 names "
                             "(state, parameter)")
        _distinct_names(variables, _split_names(getattr(args, "params", "")))
        for flag, least in FLAG_MINIMA.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and value < least:
                raise InputError("%s must be at least %d, not %d"
                                 % (flag, least, value))
        count = GERM_COUNTS.get(args.command)
        if (count and len(args.germ) != count
                and not getattr(args, "ideal", False)):
            raise InputError("%s takes %s germ%s, not %d"
                             % (args.command, NUMBER_WORDS[count],
                                "s" * (count > 1), len(args.germ)))
        inputs, result, warnings, lines = args.func(args, variables)
    except (InputError, GermSyntaxError, UnknownVariableError,
            NonUnitDivisorError) as exc:
        error, status = str(exc), 2
    except (InfiniteCodimensionError, NotEquivalentError,
            ParameterCountError, ZeroGermError) as exc:
        error, status = str(exc), 1
    else:
        if args.format == "json":
            print(json.dumps({"command": args.command, "inputs": inputs,
                              "result": result, "warnings": warnings},
                             sort_keys=True))
        else:
            for line in lines + warnings:
                print(line)
        return 0
    print("error: %s" % error, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
