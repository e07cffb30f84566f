"""Case verification: stage selection, the component comparison
pipeline, and report assembly.

verify_case drives everything a case asks for.  It restricts X once
and computes the component data once, at the least stage F_{p^N} where
the base points, every fiber and the restriction's components are all
rational; each check reads those objects.  N is read off the minimal
polynomials of the coordinates of A, of X's total coordinate ring and
of `R.quotient`: every presentation computes them once (`B.min_polys`),
and the point solver reads the same ones at every stage.  Verification
failures, a `CertificateFailure` included, are recorded in the report,
never raised; only resource guards escape.

The restriction owns its coordinate ring (`R.quotient`): the report,
the stage rule and the left component set read it, and since it
keeps its points per stage, the components, the adjunction check and
the cover check (which takes R) share one solve per stage.  X owns its
total coordinate ring (`X.coordinate_ring`), which the stage rule, the
fibers, `reduction_map`, the cover probe and `etale_check` read (its
points pair a base point with a point of its fiber, and it keeps them
per stage, so every fiber reads one solve), and its etale certificate
(`X.etale_certificate`, one `etale_check` run), which the theorem and
non-smooth prechecks and the adjunction route's solver at every stage
read.  Lemma-local reads the component data: one base point means a
local base with rational residue, and the evaluation witness is then
the reduction to the special fiber.  `reduction_map` stays public as
the acceptance tests' independent route over local factors.  Three
routes stay apart on purpose, since each cross-checks the shared data
and would certify nothing by reading it:

* `algebra_points`, which reads the points over A tensor K off the
  rank-one components of X's coordinate ring, one local factor of
  A tensor K at a time, without the restriction: the adjunction check
  compares them with R's points at each stage it names, and the
  theorem's per-factor count is their number at stage N (X keeps them
  per stage, so an adjunction stage equal to N reads the same run);
* the product check's `buchberger` run on the juxtaposed factor
  restrictions;
* the acceptance tests' exhaustive `enumerate_points` on `R.relations`.
"""

import math
import time

from ..errors import (
    CertificateFailure,
    NotCovering,
    NotFinite,
    NotLocalBase,
    NotSquareSystem,
    NotZeroDimensional,
    PositiveDimensionalFiber,
    ResweilError,
)
from ..exactfield import _packed, stage_field
from ..gammaset import (
    evaluation_map,
    fiber,
    gamma_iso,
    pi0_points,
    product_gamma_set,
)
from ..multipoly import INFINITE
from ..weilres import (
    adjunction_check,
    algebra_points,
    open_cover_check,
    product_formula_check,
    weil_restrict,
)

PSI_CONVENTION = (
    "psi-hat evaluates restriction coordinates at each base point; "
    "the orbit-matched psi sorts orbits by (size, least label) and "
    "anchors each at its least element")


class CheckOutcome:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        self.name = name
        self.ok = ok
        self.detail = detail


def ambient_degree(A, X, R):
    """The least stage at which every point set of the comparison is rational.

    A geometric point is rational over F_{p^N} exactly when each of its
    coordinates is, so N is the lcm of the irreducible factor degrees of
    every coordinate's minimal polynomial, over the base algebra, X's
    total coordinate ring `X.coordinate_ring` (whose points pair a base
    point with a point of its fiber) and the restriction's `R.quotient`.
    The squarefree parts and the distinct-degree pass give those degrees;
    no factor is split off.
    """
    XB = X.coordinate_ring
    if XB.basis_monomials is INFINITE:
        raise PositiveDimensionalFiber("a fiber of X is not a finite point set")
    if R.quotient.basis_monomials is INFINITE:
        raise NotZeroDimensional("the restriction is not a finite point set")
    N = 1
    for B in (A, XB, R.quotient):
        for mu in B.min_polys:
            S, fp = _packed(mu, mu.field)
            for part, _ in S.squarefree(fp):
                for _, d in S.degree_blocks(part):
                    N = math.lcm(N, d)
    return N


class ComponentData:
    """Both sides of the comparison at one shared stage.

    `equivariant` is `ev.check()`, read by the report and the checks.
    """

    __slots__ = ("N", "S", "fibers", "left", "prod", "ev", "equivariant")

    def __init__(self, N: int, S, fibers: dict, left, prod, ev, equivariant: bool):
        self.N = N
        self.S = S
        self.fibers = fibers
        self.left = left
        self.prod = prod
        self.ev = ev
        self.equivariant = equivariant


def compute_components(A, X, R) -> ComponentData:
    N = ambient_degree(A, X, R)
    S = pi0_points(A, N)
    fibs = {s: fiber(X, s, N) for s in S.elements}
    left = pi0_points(R.quotient, N)
    prod = product_gamma_set(S, fibs, N)
    ev = evaluation_map(R, left, S, prod, N)
    return ComponentData(N, S, fibs, left, prod, ev, ev.check())


class Report:
    """Everything a case run computed, with a stable serialized shape.

    to_obj always returns the same key order; timings are reported as
    null there so serialized reports compare byte for byte between
    runs, while the measured values stay on the object for display.
    """

    def __init__(self, case_name, seed=0):
        self.case = case_name
        self.inputs = None
        self.dims = None
        self.S = None
        self.fibers = None
        self.restriction = None
        self.pi0_left = None
        self.pi0_right = None
        self.cycle_types = None
        self.psi_witness = None
        self.checks = []
        self.timings_ms = None
        self.seed = seed

    def ok(self):
        return all(c.ok for c in self.checks)

    def to_obj(self):
        return {
            "case": self.case,
            "inputs": self.inputs,
            "dims": self.dims,
            "S": self.S,
            "fibers": self.fibers,
            "restriction": self.restriction,
            "pi0_left": self.pi0_left,
            "pi0_right": self.pi0_right,
            "cycle_types": self.cycle_types,
            "psi_witness": self.psi_witness,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
            "timings_ms": None,
            "seed": self.seed,
        }


def _expect_outcome(key, vals, comp, comp_error):
    name = "expect " + key
    if comp is None:
        return CheckOutcome(name, False,
                            "no component data: %s" % comp_error)
    if key in ("S", "pi0_res"):
        if len(vals) != 1:
            return CheckOutcome(name, False, "expected a single integer")
        got = len(comp.S) if key == "S" else len(comp.left)
        if got == vals[0]:
            return CheckOutcome(name, True, "%d as expected" % got)
        return CheckOutcome(name, False,
                            "computed %d, expected %d" % (got, vals[0]))
    if key == "fibers":
        got = [len(comp.fibers[s]) for s in comp.S.elements]
        if got == list(vals):
            return CheckOutcome(name, True, "sizes %r" % (got,))
        return CheckOutcome(name, False,
                            "computed %r, expected %r" % (got, list(vals)))
    got = list(comp.left.cycle_type())
    want = sorted(vals)
    if got == want:
        return CheckOutcome(name, True, "cycle type %r" % (tuple(got),))
    return CheckOutcome(name, False,
                        "computed %r, expected %r"
                        % (tuple(got), tuple(want)))


def _check_theorem(X, comp, comp_error):
    try:
        cert = X.etale_certificate
    except (NotSquareSystem, NotFinite) as e:
        return CheckOutcome("theorem", False,
                            "smoothness precheck: %s" % e)
    if not cert.ok:
        return CheckOutcome(
            "theorem", False,
            "smoothness precheck: the relative Jacobian determinant "
            "is not a unit")
    if comp is None:
        return CheckOutcome("theorem", False,
                            "no component data: %s" % comp_error)
    nl, nr = len(comp.left), len(comp.prod)
    if nl != nr:
        return CheckOutcome("theorem", False,
                            "component counts differ: %d vs %d" % (nl, nr))
    tl, tr = comp.left.cycle_type(), comp.prod.cycle_type()
    if tl != tr:
        return CheckOutcome("theorem", False,
                            "cycle types differ: %r vs %r" % (tl, tr))
    if gamma_iso(comp.left, comp.prod) is None:
        return CheckOutcome("theorem", False,
                            "no orbit matching despite equal cycle types")
    if not comp.equivariant:
        return CheckOutcome("theorem", False,
                            "the evaluation witness is not equivariant")
    if not comp.ev.is_bijective():
        return CheckOutcome("theorem", False,
                            "the evaluation witness is not a bijection")
    cross = len(algebra_points(X, stage_field(X.field.p, comp.N)))
    if cross != nl:
        return CheckOutcome(
            "theorem", False,
            "per-factor count %d disagrees with the direct count %d"
            % (cross, nl))
    return CheckOutcome(
        "theorem", True,
        "stage %d; %d component(s) on each side; cycle type %r; "
        "evaluation witness bijective; per-factor cross-check %d"
        % (comp.N, nl, tl, cross))


def _check_lemma_local(comp, comp_error):
    if comp is None:
        return CheckOutcome("lemma-local", False,
                            "no component data: %s" % comp_error)
    if len(comp.S) != 1:
        return CheckOutcome(
            "lemma-local", False,
            "reduction needs a local base with rational residue")
    if not comp.equivariant:
        return CheckOutcome("lemma-local", False,
                            "the evaluation witness is not equivariant")
    if comp.ev.is_bijective():
        return CheckOutcome(
            "lemma-local", True,
            "reduction is a bijection on %d component(s) at stage %d"
            % (len(comp.left), comp.N))
    return CheckOutcome(
        "lemma-local", False,
        "reduction relates %d component(s) to %d, not a bijection"
        % (len(comp.left), len(comp.prod)))


def _check_adjunction(R, stages):
    parts = []
    ok = True
    for m in stages:
        K = stage_field(R.base_field.p, m)
        cert = adjunction_check(R, K)
        ok = ok and cert.ok
        parts.append("stage %d: %d = %d"
                     % (m, len(cert.left_points), len(cert.right_points)))
    return CheckOutcome("adjunction", ok, "; ".join(parts))


def _check_cover(R, hs):
    try:
        cert = open_cover_check(R, hs, (1, 2))
    except (NotCovering, NotLocalBase) as e:
        return CheckOutcome("cover", False, str(e))
    parts = ["stage %d: %d point(s), chart counts %r"
             % (st["stage"], st["points"], st["chart_counts"])
             for st in cert.per_stage]
    return CheckOutcome("cover", cert.ok, "; ".join(parts))


def _check_product(prod, X):
    cert = product_formula_check(prod, X, (1, 2, 3))
    parts = ["stage %d: %d = %d * %d" % c for c in cert.counts]
    lead = ("restricted ideals match; " if cert.ideal_match
            else "restricted ideals differ; ")
    return CheckOutcome("product", cert.ok, lead + "; ".join(parts))


def _check_empty(R):
    gb = [str(g) for g in R.groebner.polys]
    if R.is_empty() and gb == ["1"]:
        return CheckOutcome("empty", True,
                            "restricted ideal has reduced basis {1}")
    return CheckOutcome("empty", False, "reduced basis %r" % (gb,))


def _check_non_smooth(X, comp, comp_error):
    try:
        cert = X.etale_certificate
        if cert.ok:
            return CheckOutcome("non-smooth", False,
                                "smoothness precheck passes unexpectedly")
        why = "the Jacobian determinant is annihilated"
    except NotSquareSystem as e:
        why = str(e)
    except NotFinite as e:
        return CheckOutcome("non-smooth", False,
                            "smoothness precheck: %s" % e)
    if comp is None:
        return CheckOutcome("non-smooth", False,
                            "no component data: %s" % comp_error)
    nl, nr = len(comp.left), len(comp.prod)
    if nl == nr:
        return CheckOutcome(
            "non-smooth", False,
            "component counts agree (%d) despite the failed precheck" % nl)
    return CheckOutcome(
        "non-smooth", True,
        "precheck fails (%s); component counts %d vs %d" % (why, nl, nr))


def verify_case(case, seed=0):
    """Run every expectation and requested check of one case.

    Component data that cannot be assembled (infinite fibers or an
    infinite restriction) turns into per-check failures rather than an
    exception, so degenerate cases report honestly.
    """
    rep = Report(case.name, seed)
    t0 = time.perf_counter()
    A, X = case.algebra, case.scheme
    rep.inputs = {
        "p": case.p,
        "algebras": [{"name": lbl, "vars": list(vs),
                      "rels": [str(r) for r in rels]}
                     for lbl, vs, rels in case.algebra_blocks],
        "scheme": {"name": case.scheme_label,
                   "vars": list(case.scheme_vars),
                   "rels": [str(r) for r in case.scheme_rels]},
    }
    R = weil_restrict(A, X)
    rep.dims = {
        "algebra": A.dimension,
        "scheme_vars": len(X.vars),
        "scheme_rels": len(X.relations),
        "restriction_vars": len(R.vars),
        "restriction_rels": len(R.relations),
    }
    rep.restriction = {
        "vars": list(R.vars),
        "rels": [str(r) for r in R.relations],
        "groebner": [str(g) for g in R.groebner.polys],
        "empty": R.is_empty(),
    }
    t1 = time.perf_counter()

    comp = None
    comp_error = None
    try:
        comp = compute_components(A, X, R)
    except (NotZeroDimensional, PositiveDimensionalFiber, NotFinite,
            CertificateFailure) as e:
        comp_error = e
    if comp is not None:
        rep.S = {
            "ambient_degree": comp.N,
            "count": len(comp.S),
            "cycle_type": list(comp.S.cycle_type()),
            "labels": [s.label() for s in comp.S.elements],
        }
        rep.fibers = [
            {"base_point": s.label(),
             "count": len(comp.fibers[s]),
             "labels": [q.label() for q in comp.fibers[s]]}
            for s in comp.S.elements]
        rep.pi0_left = {
            "count": len(comp.left),
            "cycle_type": list(comp.left.cycle_type()),
            "labels": [el.label() for el in comp.left.elements],
        }
        rep.pi0_right = {
            "count": len(comp.prod),
            "cycle_type": list(comp.prod.cycle_type()),
            "labels": [el.label() for el in comp.prod.elements],
        }
        rep.cycle_types = {
            "left": list(comp.left.cycle_type()),
            "right": list(comp.prod.cycle_type()),
            "equal": comp.left.cycle_type() == comp.prod.cycle_type(),
        }
        rep.psi_witness = {
            "convention": PSI_CONVENTION,
            "equivariant": comp.equivariant,
            "bijective": comp.ev.is_bijective(),
            "pairs": [[el.label(), comp.ev.mapping[el].label()]
                      for el in comp.left.elements],
        }
    t2 = time.perf_counter()

    for key, vals in case.expects:
        rep.checks.append(_expect_outcome(key, vals, comp, comp_error))
    for chk in case.checks:
        kind = chk[0]
        try:
            if kind == "theorem":
                out = _check_theorem(X, comp, comp_error)
            elif kind == "lemma-local":
                out = _check_lemma_local(comp, comp_error)
            elif kind == "adjunction":
                out = _check_adjunction(R, chk[1])
            elif kind == "cover":
                out = _check_cover(R, chk[1])
            elif kind == "product":
                out = _check_product(case.product, X)
            elif kind == "empty":
                out = _check_empty(R)
            elif kind == "non-smooth":
                out = _check_non_smooth(X, comp, comp_error)
            else:
                raise ResweilError("unknown check %r" % (chk,))
        except CertificateFailure as e:
            out = CheckOutcome(kind, False, "certificate failure: %s" % e)
        rep.checks.append(out)
    t3 = time.perf_counter()
    rep.timings_ms = {
        "restrict": round((t1 - t0) * 1000.0, 3),
        "components": round((t2 - t1) * 1000.0, 3),
        "checks": round((t3 - t2) * 1000.0, 3),
        "total": round((t3 - t0) * 1000.0, 3),
    }
    return rep
