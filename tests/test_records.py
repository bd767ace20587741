"""The package's records keep the semantics callers rely on.

Immutable records reject assignment and deletion of a field.  The hashed
value types hash as the tuple of their fields, so set and dict iteration
orders, and with them the enumerators' output orders, do not depend on how
a record is written.  The field elements of Q(cos(pi/n)) are numbers, not
records: they compare by value and are not hashed.  A record class with an
`__eq__` of its own compares equal only to instances of the same class.
`DegreeReport`, the record of acceptance criterion 13's degree step, is
held to the same rules.
"""

from collections import namedtuple
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from reptile_lab.angles import PI, AngleForm, RelationSet
from reptile_lab.coxeter import KnTables, kn_tables
from reptile_lab.exactmath import RealCyclotomic, RootInterval, cos_pi
from reptile_lab.hill import EuclideanSimplex, LatticeTile
from reptile_lab.realize import (Candidate, EdgeMatch, EdgeNearest, TileSpec,
                                 edge_combination, enumerate_candidates)
from reptile_lab.spherical import ValidityReport, is_valid
from test_acceptance import DegreeReport, algebraic_degree

TILE = TileSpec.from_pi_fractions(F(1, 4), F(1, 3), F(1, 2))


def immutable_records():
    """(record, one of its fields) for every immutable record class."""
    cand = enumerate_candidates(TILE, F(1, 4))[0]
    return [
        (AngleForm.of(pi=F(1, 2), beta=1), "row"),
        (RelationSet.of(("gamma", F(1, 2) * PI)), "rules"),
        (RootInterval(F(0), F(1), False), "lo"),
        (cos_pi(F(1, 5)), "poly"),
        (is_valid([F(1, 4), F(1, 3), F(1, 2)]), "ok"),
        (EuclideanSimplex(((0, 0), (1, 0), (0, 1))), "rows"),
        (LatticeTile((1, 1), ((1, 0),)), "center2"),
        (TILE, "angles_pi"),
        (edge_combination(TILE.edges[0], TILE.edges), "gap"),
        (edge_combination(0.01, TILE.edges), "gap"),
        (cand, "edge_status"),
        (algebraic_degree(2, 3), "degree"),
        (kn_tables(3), "edges"),
    ]


def test_every_immutable_record_class_is_listed():
    classes = {type(rec) for rec, _ in immutable_records()}
    assert classes == {AngleForm, RelationSet, RootInterval, RealCyclotomic, ValidityReport,
                       EuclideanSimplex, LatticeTile, TileSpec, EdgeMatch,
                       EdgeNearest, Candidate, DegreeReport, KnTables}


@pytest.mark.parametrize("rec,name", immutable_records(),
                         ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_immutable_records_reject_assignment(rec, name):
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, before)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    assert getattr(rec, name) is before


def test_cached_properties_still_fill_in():
    tile = TileSpec.from_pi_fractions(F(1, 5), F(1, 3), F(1, 2))
    assert "edges" not in vars(tile)
    assert tile.edges is tile.edges and "edges" in vars(tile)


def fields(rec) -> tuple:
    slots = type(rec).__slots__
    return tuple(getattr(rec, name) for name in slots) if slots else tuple(rec)


@pytest.mark.parametrize("rec", [
    AngleForm.of(pi=F(1, 3), alpha=F(-2, 7)),
    LatticeTile((1, -1, 3), ((1, 2), (-1, 0))),
    RelationSet.of(("gamma", F(1, 2) * PI)),
    RootInterval(F(1, 3), F(1, 2), False),
    ValidityReport(False, "angle outside (0, pi)"),
    EdgeMatch((1, 0, 2), 1.5, 1e-9),
    EdgeNearest(0.1),
    DegreeReport(2, 3, 3),
], ids=lambda rec: type(rec).__name__)
def test_hash_is_the_hash_of_the_fields(rec):
    assert hash(rec) == hash(fields(rec))
    assert rec == type(rec)(*fields(rec))


def test_quadratic_element_equals_numbers_not_records():
    # cos(pi/4)^2 + 1/4 equals the Fraction 3/4, also lifted to Q(cos(pi/20));
    # one value has a representation in every field above its own, so no
    # hash could agree with this equality, and there is none
    c = cos_pi(F(1, 4))
    x = c * c + F(1, 4)
    assert x == F(3, 4) and x.lift(20) == F(3, 4) and x.lift(20).n == 20
    with pytest.raises(TypeError):
        hash(x)
    y = cos_pi(F(1, 6))
    for other in ((y.poly, y.n), SimpleNamespace(poly=y.poly, n=y.n)):
        assert y != other and not y == other


@pytest.mark.parametrize("rec", [
    AngleForm.of(pi=1, gamma=F(1, 2)),
    LatticeTile((1, 1), ((-1, 1),)),
], ids=lambda rec: type(rec).__name__)
def test_equality_is_limited_to_the_same_class(rec):
    cls = type(rec)
    twin = cls(*fields(rec))
    assert rec == twin and not rec != twin

    class Sub(cls):
        __slots__ = ()

    look_alikes = [Sub(*fields(rec)), SimpleNamespace(**dict(zip(cls.__slots__, fields(rec)))),
                   fields(rec), namedtuple("Twin", cls.__slots__)(*fields(rec))]
    for other in look_alikes:
        assert rec != other and not rec == other
        assert other != rec and not other == rec
