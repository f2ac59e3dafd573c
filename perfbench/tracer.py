"""Per-layer tracing of susyfactor from outside the program.

The layers are the package's modules.  ``Tracer.attach`` builds a timing
wrapper for every function a layer defines and for the methods of ``Poly``,
``QuasiFunction`` and ``DiffOp``, also under each name another module took
with ``from .x import ...`` (associated, degenerate and numeric import from
principal; numeric binds scipy's ``quad`` and ``solve_ivp``); ``install`` and
``uninstall`` switch the wrappers in and out.  Wrappers do
not record one span per call: each key keeps aggregated calls, inclusive time
and self time, which is what the hot ``core`` methods can afford.  Self time
is a call's duration minus the time of the wrapped calls nested in it, so the
self times of all keys plus the harness's own share add up to the traced
request wall time.
"""

from __future__ import annotations

import inspect
import time
from fractions import Fraction

from oracle import KNOWN_DEFECTS

LAYERS = ("core", "diffop", "principal", "associated", "degenerate",
          "numeric", "cli")
CLASSES = {"core": ("Poly", "QuasiFunction"), "diffop": ("DiffOp",)}
# trivial accessors: wrapping them would cost more than they do, and their
# time stays with the caller's layer
SKIP = {"__getitem__", "__hash__", "__repr__", "is_zero", "coeff",
        "_as_fraction", "_as_qf"}
ROOT = "harness.request"


def _pq_key(prob):
    return prob.p.coeffs, prob.q.coeffs


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # key -> [calls, incl_s, self_s]
        self.distinct: dict[str, set] = {}   # key -> distinct argument keys
        self.counts: dict[str, int] = {}     # derived counters
        self._stack = [0.0]                  # child time of each open call
        self._patches = []                   # (owner, name, original, wrapper)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, key, fn, note=None):
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
            if note is not None:
                note(args, result)
            return result
        return wrapper

    def _wrap_eval(self, fn):
        """Poly.__call__, split into exact and float evaluation."""
        exact = self.wrap("core.Poly.__call__.exact", fn)
        flt = self.wrap("core.Poly.__call__", fn)

        def wrapper(self_, x):
            if isinstance(x, (int, Fraction)):
                return exact(self_, x)
            return flt(self_, x)
        return wrapper

    def _note_distinct(self, key, argkey, built=None):
        seen = self.distinct.setdefault(key, set())

        def note(args, result):
            seen.add(argkey(args))
            if built:
                self.counts[built] = self.counts.get(built, 0) + len(result)
        return note

    def _note_absorb(self, args, result):
        if result.s != args[0].s:
            self.counts["canonicalize.absorbed"] = \
                self.counts.get("canonicalize.absorbed", 0) + 1

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name), value))

    def attach(self, package):
        """Build the wrappers for every layer of the imported package;
        ``install`` and ``uninstall`` then switch them in and out."""
        mods = {layer: getattr(package, layer) for layer in LAYERS}
        notes = {
            "principal.factor_table": self._note_distinct(
                "principal.factor_table",
                lambda a: (_pq_key(a[0]), a[1], a[2]), "factor_table.levels"),
            "principal.principal_eigenfunction": self._note_distinct(
                "principal.principal_eigenfunction",
                lambda a: (_pq_key(a[0]), a[1])),
            "core.QuasiFunction.canonicalize": self._note_absorb,
        }
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name in SKIP or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                wrapped[id(obj)] = self.wrap(key, obj, notes.get(key))
            for cname in CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                for name, obj in list(vars(cls).items()):
                    if name in SKIP or not inspect.isfunction(obj):
                        continue
                    key = f"{layer}.{cname}.{name}"
                    self._patch(cls, name, self._wrap_eval(obj)
                                if key == "core.Poly.__call__"
                                else self.wrap(key, obj, notes.get(key)))
        # rebind the defining names and every `from .x import name` copy
        for mod in (package, *mods.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])
        for name in ("quad", "solve_ivp"):
            self._patch(mods["numeric"], name,
                        self.wrap(f"numeric.{name}",
                                  getattr(mods["numeric"], name)))

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    # -- readout ------------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def self_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def busy_s(self, key) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def layer_self_s(self, layer) -> float:
        return sum(st[2] for k, st in self.stats.items()
                   if k.startswith(layer + "."))

    def distinct_ratio(self, key) -> float:
        n = self.calls(key)
        return len(self.distinct.get(key, ())) / n if n else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


# (name, unit, better, reading); a reading takes the tracer and the run's
# extra figures.  Each line of the benchmark's README names the end-to-end
# metric and workload a group should move.
PER_LAYER = [
    ("core.self_s", "s", "lower", lambda t, x: t.layer_self_s("core")),
    ("core.poly_mul.calls", "count", "lower",
     lambda t, x: t.calls("core.Poly.__mul__", "core.Poly.__rmul__")),
    ("core.poly_divmod.calls", "count", "lower",
     lambda t, x: t.calls("core.Poly.divmod")),
    ("core.canonicalize.calls", "count", "lower",
     lambda t, x: t.calls("core.QuasiFunction.canonicalize")),
    ("core.canonicalize.self_s", "s", "lower",
     lambda t, x: t.self_s("core.QuasiFunction.canonicalize")),
    ("core.canonicalize.absorb_ratio", "ratio", "higher",
     lambda t, x: _ratio(t.counts.get("canonicalize.absorbed", 0),
                         t.calls("core.QuasiFunction.canonicalize"))),
    ("core.derive.calls", "count", "lower",
     lambda t, x: t.calls("core.QuasiFunction.derive")),
    ("core.derive.self_s", "s", "lower",
     lambda t, x: t.self_s("core.QuasiFunction.derive")),
    ("core.poly_eval.calls", "count", "lower",
     lambda t, x: t.calls("core.Poly.__call__")),
    ("core.poly_eval.self_s", "s", "lower",
     lambda t, x: t.self_s("core.Poly.__call__")),
    ("core.coeff_bits_max", "bits", "lower",
     lambda t, x: x["coeff_bits_max"]),
    ("diffop.self_s", "s", "lower", lambda t, x: t.layer_self_s("diffop")),
    ("diffop.compose.calls", "count", "lower",
     lambda t, x: t.calls("diffop.DiffOp.compose")),
    ("diffop.compose.self_s", "s", "lower",
     lambda t, x: t.self_s("diffop.DiffOp.compose")),
    ("diffop.conjugate.calls", "count", "lower",
     lambda t, x: t.calls("diffop.DiffOp.conjugate")),
    ("diffop.conjugate.self_s", "s", "lower",
     lambda t, x: t.self_s("diffop.DiffOp.conjugate")),
    ("diffop.apply.calls", "count", "lower",
     lambda t, x: t.calls("diffop.DiffOp.apply")),
    ("diffop.apply.self_s", "s", "lower",
     lambda t, x: t.self_s("diffop.DiffOp.apply")),
    ("principal.self_s", "s", "lower",
     lambda t, x: t.layer_self_s("principal")),
    ("principal.factor_table.calls", "count", "lower",
     lambda t, x: t.calls("principal.factor_table")),
    ("principal.factor_table.levels_built", "count", "lower",
     lambda t, x: t.counts.get("factor_table.levels", 0)),
    ("principal.factor_table.distinct_ratio", "ratio", "higher",
     lambda t, x: t.distinct_ratio("principal.factor_table")),
    ("principal.principal_eigenfunction.calls", "count", "lower",
     lambda t, x: t.calls("principal.principal_eigenfunction")),
    ("principal.principal_eigenfunction.distinct_ratio", "ratio", "higher",
     lambda t, x: t.distinct_ratio("principal.principal_eigenfunction")),
    ("principal.principal_eigenfunction.self_s", "s", "lower",
     lambda t, x: t.self_s("principal.principal_eigenfunction")),
    ("principal.ladder_pair.calls", "count", "lower",
     lambda t, x: t.calls("principal.ladder_pair")),
    ("associated.self_s", "s", "lower",
     lambda t, x: t.layer_self_s("associated")),
    ("associated.verify_associated.self_s", "s", "lower",
     lambda t, x: t.self_s("associated.verify_associated")),
    ("associated.pHm_factorization.self_s", "s", "lower",
     lambda t, x: t.self_s("associated.pHm_factorization")),
    ("associated.assoc_top_down.self_s", "s", "lower",
     lambda t, x: t.self_s("associated.assoc_top_down")),
    ("associated.assoc_bottom_up.calls", "count", "lower",
     lambda t, x: t.calls("associated.assoc_bottom_up")),
    ("associated.classify_expanded.self_s", "s", "lower",
     lambda t, x: t.self_s("associated.classify_expanded")),
    ("degenerate.self_s", "s", "lower",
     lambda t, x: t.layer_self_s("degenerate")),
    ("degenerate.collapse_check.calls", "count", "lower",
     lambda t, x: t.calls("degenerate.collapse_check")),
    ("numeric.self_s", "s", "lower", lambda t, x: t.layer_self_s("numeric")),
    ("numeric.quad.calls", "count", "lower",
     lambda t, x: t.calls("numeric.quad")),
    ("numeric.quad.busy_s", "s", "lower",
     lambda t, x: t.busy_s("numeric.quad")),
    ("numeric.solve_ivp.calls", "count", "lower",
     lambda t, x: t.calls("numeric.solve_ivp")),
    ("numeric.solve_ivp.busy_s", "s", "lower",
     lambda t, x: t.busy_s("numeric.solve_ivp")),
    ("numeric.coordinate_maps.self_s", "s", "lower",
     lambda t, x: t.self_s("numeric.coordinate_maps")),
    ("numeric.schrodinger_residual.self_s", "s", "lower",
     lambda t, x: t.self_s("numeric.schrodinger_residual")),
    ("numeric.orthogonality_matrix.self_s", "s", "lower",
     lambda t, x: t.self_s("numeric.orthogonality_matrix")),
    ("cli.self_s", "s", "lower", lambda t, x: t.layer_self_s("cli")),
    ("cli.stdout_bytes", "bytes", "lower", lambda t, x: x["stdout_bytes"]),
    ("harness.self_s", "s", "lower", lambda t, x: t.layer_self_s("harness")),
    ("trace.requests", "count", "higher", lambda t, x: x["requests"]),
    ("trace.request_wall_s", "s", "lower", lambda t, x: t.busy_s(ROOT)),
    ("trace.attributed_share", "ratio", "higher",
     lambda t, x: _ratio(sum(t.layer_self_s(l) for l in LAYERS),
                         t.busy_s(ROOT))),
    ("trace.overhead_ratio", "ratio", "higher",
     lambda t, x: x["overhead_ratio"]),
    ("setup.import.susyfactor_s", "s", "lower",
     lambda t, x: x["imports"]["susyfactor"]),
    ("setup.import.numpy_s", "s", "lower",
     lambda t, x: x["imports"]["numpy"]),
    ("setup.import.scipy_s", "s", "lower",
     lambda t, x: x["imports"]["scipy"]),
    ("error_rate", "fraction", "lower", lambda t, x: x["error_rate"]),
] + [(f"errors.{kind}", "count", "lower",
      lambda t, x, kind=kind: x["errors"].get(kind, 0))
     for kind in KNOWN_DEFECTS]


def per_layer(tracer: Tracer, extras: dict) -> dict:
    return {name: {"value": reading(tracer, extras), "unit": unit}
            for name, unit, _, reading in PER_LAYER}
