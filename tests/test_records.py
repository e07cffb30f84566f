"""The result records: plain classes with slots, built the way their call
sites build them, and the two point classes with value equality."""

import pytest

from resweil import (
    AdjunctionCertificate,
    AlgebraHom,
    CoverCertificate,
    EquivariantMap,
    EtaleCertificate,
    GeometricPoint,
    LocalFactor,
    PrimeField,
    ProductAlgebra,
    ProductFormulaCertificate,
    ProductPoint,
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
    CoverCertificate: ("ok", "unit_ideal", "per_stage"),
    GeometricPoint: ("coords",),
    ProductPoint: ("components",),
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


@pytest.mark.parametrize("cls", [GeometricPoint, ProductPoint],
                         ids=lambda c: c.__name__)
def test_points_compare_and_hash_by_value(cls):
    coords = (F5.from_int(1), F5.from_int(3))
    a = cls(coords)
    b = cls(tuple(F5.from_int(c) for c in (1, 3)))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash((coords,))
    assert a != cls((F5.from_int(3), F5.from_int(1)))
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    other = ProductPoint if cls is GeometricPoint else GeometricPoint
    assert a != other(coords) and other(coords) != a
    assert a != coords and coords != a
    assert a != (coords,)
