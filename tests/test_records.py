"""The result records: plain classes with slots, built the way their call
sites build them, and points with value equality."""

import pytest

from resweil import AlgebraHom, LocalFactor, PrimeField
from resweil.finalg import EtaleCertificate, ProductAlgebra
from resweil.gammaset import EquivariantMap, GeometricPoint
from resweil.weilres import (
    AdjunctionCertificate,
    CoverCertificate,
    ProductFormulaCertificate,
)
from resweil.versuite import CheckOutcome, ComponentData, SuiteResult

F5 = PrimeField(5)

RECORDS = {
    LocalFactor: ("idempotent", "presentation", "residue_degree"),
    AlgebraHom: ("source", "target", "images"),
    ProductAlgebra: ("presentation", "idempotent_var", "left_vars", "right_vars",
                     "idempotent_left", "idempotent_right", "proj_left",
                     "proj_right"),
    EtaleCertificate: ("ok", "jacobian_det", "inverse", "obstruction"),
    AdjunctionCertificate: ("ok", "left_points", "right_points", "pairs"),
    ProductFormulaCertificate: ("ok", "ideal_match", "counts"),
    CoverCertificate: ("ok", "per_stage"),
    GeometricPoint: ("coords",),
    EquivariantMap: ("source", "target", "mapping"),
    CheckOutcome: ("name", "ok", "detail"),
    ComponentData: ("N", "S", "fibers", "left", "prod", "ev", "equivariant"),
    SuiteResult: ("reports", "problems", "exit_code"),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_builds_positionally_and_by_keyword(cls):
    fields = RECORDS[cls]
    values = [object() for _ in fields]
    for rec in (cls(*values), cls(**dict(zip(fields, values)))):
        assert [getattr(rec, f) for f in fields] == values
        assert not hasattr(rec, "__dict__"), "a record keeps its fields in slots"
    assert cls.__slots__ == fields


def test_suite_results_share_no_list():
    a, b = SuiteResult(), SuiteResult()
    assert a.reports == [] and a.problems == [] and a.exit_code == 0
    a.reports.append("r")
    a.problems.append(("path", "input", "message"))
    assert b.reports == [] and b.problems == []
    assert a.reports is not b.reports and a.problems is not b.problems


def _field_coords(*cs):
    return tuple(F5.from_int(c) for c in cs)


def _point_coords(*cs):
    # an element of a product of fibers: its coordinates are fiber points
    return tuple(GeometricPoint(_field_coords(c, c + 1)) for c in cs)


@pytest.mark.parametrize("make", [_field_coords, _point_coords],
                         ids=["GeometricPoint", "GeometricPoint-of-points"])
def test_points_compare_and_hash_by_value(make):
    coords = make(1, 3)
    a = GeometricPoint(coords)
    b = GeometricPoint(make(1, 3))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash((coords,))
    assert a.label() == tuple(x.label() for x in make(1, 3))
    assert a != GeometricPoint(make(3, 1))
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert a != coords and coords != a
    assert a != (coords,)
