"""Outside-in tracing of germforge's layers.

``Tracer.install`` replaces public functions at each module boundary (and
the sympy entry points germforge calls) with wrappers that record spans.  A
wrapped name is replaced in every germforge module namespace that binds the
same object, so calls across modules are seen too.  A name that no longer
exists is reported as absent and skipped.  Nothing under ``src/`` changes,
and nothing is wrapped unless a traced run asks for it.

Per group the tracer keeps the call count, the inclusive seconds of its
outermost spans, and the self seconds (span time minus time covered by child
spans).  Exceptions that propagate out of a wrapped call count as errors of
its layer.
"""

import importlib
import os
import sys
import time

# (group, layer, module, attribute) -- the group names the metrics.
SPECS = [
    ("cli", "cli", "germforge.cli", "main"),
    ("germexpr", "germexpr", "germforge.germexpr", "parse_germ"),
    ("germexpr", "germexpr", "germforge.germexpr", "taylor_expand"),
    ("germexpr", "germexpr", "germforge.germexpr", "parse_and_expand"),
    ("linalg", "linalg", "germforge.linalg", "RowSpace.add"),
    ("linalg", "linalg", "germforge.linalg", "rref"),
    ("linalg", "linalg", "germforge.linalg", "solve_linear"),
    ("linalg", "linalg", "germforge.linalg", "nullspace"),
    ("linalg", "linalg", "germforge.linalg", "rank"),
    ("jets.evaluate", "jets", "germforge.jets", "Jet.evaluate"),
    ("localalg.mora_divide", "localalg", "germforge.localalg", "mora_divide"),
    ("localalg.standard_basis", "localalg", "germforge.localalg",
     "standard_basis"),
    ("localalg.standard_basis", "localalg", "germforge.localalg",
     "buchberger"),
    ("localalg.colon_ideal", "localalg", "germforge.localalg",
     "colon_ideal"),
    ("localalg.colon_ideal", "localalg", "germforge.localalg",
     "ideal_intersection"),
    ("localalg.eliminate", "localalg", "germforge.localalg", "eliminate"),
    ("intrinsic", "intrinsic", "germforge.intrinsic", "verify_germ"),
    ("intrinsic", "intrinsic", "germforge.intrinsic", "verify_ideal"),
    ("intrinsic", "intrinsic", "germforge.intrinsic", "intrinsic_part"),
    ("intrinsic", "intrinsic", "germforge.intrinsic", "high_order_part"),
    ("intrinsic", "intrinsic", "germforge.intrinsic", "smallest_intrinsic"),
    ("singularity.tangent", "singularity", "germforge.singularity",
     "tangent_perp"),
    ("singularity.tangent", "singularity", "germforge.singularity",
     "tangent_space"),
    ("singularity.tangent", "singularity", "germforge.singularity",
     "restricted_tangent"),
    ("singularity.normal_form", "singularity", "germforge.singularity",
     "normal_form"),
    ("singularity.transformation", "singularity", "germforge.singularity",
     "transformation"),
    ("singularity.transformation", "singularity", "germforge.singularity",
     "equivalent"),
    ("singularity.unfolding", "singularity", "germforge.singularity",
     "universal_unfolding"),
    ("singularity.unfolding", "singularity", "germforge.singularity",
     "check_universal"),
    ("bifurcation.transition_set", "bifurcation", "germforge.bifurcation",
     "transition_set"),
    ("bifurcation.nonpersistent", "bifurcation", "germforge.bifurcation",
     "nonpersistent_sets"),
    ("bifurcation.classify", "bifurcation", "germforge.bifurcation",
     "classify_regions"),
    ("bifurcation.diagram", "bifurcation", "germforge.bifurcation",
     "bifurcation_diagram"),
    ("bifurcation.render", "bifurcation", "germforge.bifurcation",
     "render_diagram"),
    ("bifurcation.render", "bifurcation", "germforge.bifurcation",
     "render_transition_slice"),
    ("sympy.solve", "sympy", "sympy", "solve"),
    ("sympy.resultant", "sympy", "sympy", "resultant"),
    ("sympy.groebner", "sympy", "sympy", "groebner"),
    ("sympy.factor_list", "sympy", "sympy", "factor_list"),
]

LAYERS = ("cli", "germexpr", "jets", "linalg", "localalg", "intrinsic",
          "singularity", "bifurcation", "sympy")


def _solve_yield(result):
    return bool(result)


def _regions(result):
    return len(result.representatives)


def _vertices(result):
    return sum(len(c) for c in result.curves)


def _bytes(result):
    return sum(os.path.getsize(p) for p in result)


# group -> (extra counter name, function of the return value)
EXTRAS = {
    "sympy.solve": ("yield", _solve_yield),
    "bifurcation.classify": ("regions", _regions),
    "bifurcation.diagram": ("vertices", _vertices),
    "bifurcation.render": ("bytes", _bytes),
}


class Stats:
    __slots__ = ("calls", "incl", "self_s", "extra", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.extra = 0
        self.active = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.groups = {g: Stats() for g, *_ in SPECS}
        self.layer_of = {g: layer for g, layer, *_ in SPECS}
        self.errors = {layer: 0 for layer in LAYERS}
        self.stack = []  # [group, child seconds]
        self.covered = 0.0  # top-level non-cli span time
        self.absent = []
        self.installed = []

    def _wrap(self, group, fn):
        stats = self.groups[group]
        layer = self.layer_of[group]
        extra = EXTRAS.get(group)
        stack = self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [group, 0.0]
            stack.append(frame)
            stats.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stats.active -= 1
                stats.calls += 1
                stats.self_s += dur - frame[1]
                if not stats.active:
                    stats.incl += dur
                if stack:
                    stack[-1][1] += dur
                if group != "cli" and all(f[0] == "cli" for f in stack):
                    self.covered += dur
            if extra is not None:
                stats.extra += extra[1](result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        return traced

    def install(self):
        """Wrap every spec; report the ones that no longer exist."""
        for group, _layer, modname, attr in SPECS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self._absent(modname + "." + attr)
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, name, None) if owner is not None else None
            if orig is None:
                self._absent(modname + "." + attr)
                continue
            wrapper = self._wrap(group, orig)
            if owner_name:
                setattr(owner, name, wrapper)
                self.installed.append((owner, name, orig))
                continue
            targets = [mod] + [m for n, m in list(sys.modules.items())
                               if m is not None and m is not mod
                               and (n == "germforge"
                                    or n.startswith("germforge."))]
            for m in targets:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self.installed.append((m, key, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self.installed):
            setattr(owner, name, orig)
        self.installed = []

    def _absent(self, name):
        self.absent.append(name)
        print("warning: traced name %s is absent; its metrics read 0" % name,
              file=sys.stderr)

    def metrics(self, job_seconds):
        """Per-layer metrics as {name: (value, unit)}."""
        g = self.groups
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        put("cli.self_s", g["cli"].self_s, "s")
        for grp, label in (("germexpr", "germexpr"), ("linalg", "linalg")):
            put(label + ".s", g[grp].incl, "s")
            put(label + ".calls", g[grp].calls, "count")
        for grp in ("localalg.mora_divide", "singularity.transformation",
                    "localalg.eliminate", "bifurcation.transition_set"):
            put(grp + "_s", g[grp].incl, "s")
            put(grp + "_calls", g[grp].calls, "count")
        for grp in ("localalg.standard_basis", "localalg.colon_ideal",
                    "singularity.tangent", "singularity.normal_form",
                    "singularity.unfolding", "bifurcation.nonpersistent",
                    "bifurcation.classify", "bifurcation.diagram",
                    "bifurcation.render"):
            put(grp + "_s", g[grp].incl, "s")
        put("intrinsic.s", g["intrinsic"].incl, "s")
        for fn in ("solve", "resultant", "groebner", "factor_list"):
            put("sympy.%s_s" % fn, g["sympy." + fn].incl, "s")
            put("sympy.%s_calls" % fn, g["sympy." + fn].calls, "count")
        solve = g["sympy.solve"]
        put("sympy.solve_yield",
            solve.extra / solve.calls if solve.calls else 0.0, "frac")
        put("jets.evaluate_calls", g["jets.evaluate"].calls, "count")
        put("bifurcation.regions", g["bifurcation.classify"].extra, "count")
        put("bifurcation.diagram_vertices", g["bifurcation.diagram"].extra,
            "count")
        put("bifurcation.render_bytes", g["bifurcation.render"].extra,
            "bytes")
        for layer in LAYERS:
            self_s = sum(s.self_s for grp, s in g.items()
                         if self.layer_of[grp] == layer)
            if layer != "cli":
                put(layer + ".self_s", self_s, "s")
            put(layer + ".errors", self.errors[layer], "count")
        put("trace.unattributed_frac",
            1.0 - self.covered / job_seconds if job_seconds else 0.0, "frac")
        return out
