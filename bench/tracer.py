"""Spans and counts at resweil's layer boundaries, installed from outside.

`Tracer.install()` replaces each traced public function by a wrapper on
every loaded resweil module that binds it, so calls between modules
(finalg and weilres both import `buchberger`, say) are seen as well as
calls from the benchmark.  `AlgebraPresentation.__init__` is wrapped on
the class.  Each span records (name, start, end, parent span, operation
id); spans stay in memory and are written out once the pass is over.
Self time is a span's duration minus the time its direct children cover.
"""

import inspect
import statistics
import sys
import time

TRACED = {
    "exactfield": ("roots_in", "factor_univariate", "make_ext_field"),
    "multipoly": ("buchberger", "s_polynomial", "normal_form"),
    "_linalg": ("rref", "rank", "kernel_basis", "solve", "invert",
                "mat_mul", "mat_vec", "identity"),
    "finalg": ("decompose_local", "tensor_extend", "etale_check"),
    "weilres": ("weil_restrict", "zero_dim_solve", "enumerate_points",
                "algebra_points", "adjunction_check", "open_cover_check",
                "product_formula_check"),
    "gammaset": ("pi0_points", "fiber", "evaluation_map", "reduction_map"),
    "versuite.dsl": ("parse_case",),
    "versuite.verify": ("verify_case",),
}


def _layer_name(module, func):
    return "%s.%s" % (module.split(".")[0], func)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.roots_max_degree = 0
        self.input_hashes = {"multipoly.buchberger": set(),
                             "finalg.AlgebraPresentation": set()}

    # -- installation ---------------------------------------------------

    def _wrap(self, name, fn, note=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if note is not None else None

        def wrapper(*args, **kwargs):
            if note is not None:
                bound = sig.bind(*args, **kwargs)
                note(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    # The notes see the bound arguments before the call.  They turn
    # one-shot iterables into tuples so hashing does not consume them.

    def _note_roots(self, a):
        self.roots_max_degree = max(self.roots_max_degree, a["f"].degree)

    def _note_buchberger(self, a):
        a["generators"] = tuple(a["generators"])
        self.input_hashes["multipoly.buchberger"].add(hash(a["generators"]))

    def _note_presentation(self, a):
        a["relations"] = tuple(a["relations"])
        self.input_hashes["finalg.AlgebraPresentation"].add(
            hash((a["field"], tuple(a["variables"]), a["relations"])))

    def install(self):
        notes = {"exactfield.roots_in": self._note_roots,
                 "multipoly.buchberger": self._note_buchberger}
        mods = [m for n, m in sys.modules.items()
                if n == "resweil" or n.startswith("resweil.")]
        for module, funcs in TRACED.items():
            home = sys.modules["resweil." + module]
            for func in funcs:
                orig = getattr(home, func)
                name = _layer_name(module, func)
                wrapped = self._wrap(name, orig, notes.get(name))
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
        cls = sys.modules["resweil.finalg"].AlgebraPresentation
        cls.__init__ = self._wrap("finalg.AlgebraPresentation", cls.__init__,
                                  self._note_presentation)

    # -- summary ----------------------------------------------------------

    def summary(self):
        """Calls and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls, self_s = {}, {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
        return calls, self_s


def _ratio(distinct, calls):
    return distinct / calls if calls else 0.0


def layer_metrics(tracer, reports):
    """The per-layer metrics of one traced pass.

    `reports` are the verify_case reports of the pass, whose
    timings_ms give the phase split of the verifier.
    """
    calls, self_s = tracer.summary()
    c = lambda n: calls.get(n, 0)  # noqa: E731
    s = lambda n: self_s.get(n, 0.0)  # noqa: E731
    linalg = [n for n in calls if n.startswith("_linalg.")]
    out = {
        "exactfield.roots_in.calls": c("exactfield.roots_in"),
        "exactfield.roots_in.self_s": s("exactfield.roots_in"),
        "exactfield.roots_in.max_degree": tracer.roots_max_degree,
        "exactfield.factor_univariate.self_s": s("exactfield.factor_univariate"),
        "exactfield.make_ext_field.calls": c("exactfield.make_ext_field"),
        "multipoly.buchberger.calls": c("multipoly.buchberger"),
        "multipoly.buchberger.self_s": s("multipoly.buchberger"),
        "multipoly.buchberger.distinct_ratio": _ratio(
            len(tracer.input_hashes["multipoly.buchberger"]),
            c("multipoly.buchberger")),
        "multipoly.s_polynomial.calls": c("multipoly.s_polynomial"),
        "multipoly.normal_form.calls": c("multipoly.normal_form"),
        "multipoly.normal_form.self_s": s("multipoly.normal_form"),
        "linalg.calls": sum(calls[n] for n in linalg),
        "linalg.self_s": sum(self_s[n] for n in linalg),
        "finalg.AlgebraPresentation.builds": c("finalg.AlgebraPresentation"),
        "finalg.AlgebraPresentation.distinct_ratio": _ratio(
            len(tracer.input_hashes["finalg.AlgebraPresentation"]),
            c("finalg.AlgebraPresentation")),
        "finalg.decompose_local.calls": c("finalg.decompose_local"),
        "finalg.decompose_local.self_s": s("finalg.decompose_local"),
        "finalg.tensor_extend.calls": c("finalg.tensor_extend"),
        "finalg.etale_check.self_s": s("finalg.etale_check"),
        "weilres.weil_restrict.self_s": s("weilres.weil_restrict"),
        "weilres.zero_dim_solve.calls": c("weilres.zero_dim_solve"),
        "weilres.zero_dim_solve.self_s": s("weilres.zero_dim_solve"),
        "weilres.enumerate_points.calls": c("weilres.enumerate_points"),
        "weilres.algebra_points.self_s": s("weilres.algebra_points"),
        "weilres.adjunction_check.self_s": s("weilres.adjunction_check"),
        "weilres.open_cover_check.self_s": s("weilres.open_cover_check"),
        "weilres.product_formula_check.self_s": s("weilres.product_formula_check"),
        "gammaset.pi0_points.self_s": s("gammaset.pi0_points"),
        "gammaset.fiber.calls": c("gammaset.fiber"),
        "gammaset.evaluation_map.self_s": s("gammaset.evaluation_map"),
        "gammaset.reduction_map.self_s": s("gammaset.reduction_map"),
        "versuite.parse_case.self_s": s("versuite.parse_case"),
    }
    for phase in ("restrict", "components", "checks"):
        out["versuite.verify_case.%s_s" % phase] = sum(
            r["timings_ms"][phase] for r in reports if r.get("timings_ms")
        ) / 1000.0
    return out


def kernel_ns(resweil, repeats=5, n=4000):
    """ns per multiply and per inverse in F_7 and F_81, on fixed inputs."""
    out = {}
    for label, field in (("f7", resweil.PrimeField(7)),
                         ("f81", resweil.make_ext_field(3, 4))):
        elems = [x for x in field if not x.is_zero()][:16]
        pairs = [(elems[i], elems[(3 * i + 5) % len(elems)])
                 for i in range(len(elems))]
        for op in ("mul", "inv"):
            rounds = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                for _ in range(n // len(pairs)):
                    for a, b in pairs:
                        if op == "mul":
                            a * b
                        else:
                            a.inverse()
                rounds.append((time.perf_counter_ns() - t0)
                              / (n // len(pairs) * len(pairs)))
            out["exactfield.%s_ns.%s" % (op, label)] = statistics.median(rounds)
    return out
