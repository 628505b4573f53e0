"""The value contract of the package's immutable record types: equality,
hashing and repr over the fields, no mutation, and the checks each
constructor runs."""

from __future__ import annotations

import pytest

import covertype as ct
from covertype.engine import COLLAPSE
from covertype.errors import DomainError, InconsistencyError, PreconditionError
from covertype.homology import chain_data
from covertype.value import per_complex

# each factory builds a fresh instance; one of its fields is named
VALUES = {
    "Gf2Vector": (lambda: ct.Gf2Vector(4, 0b1010), "bits"),
    "Gf2Matrix": (lambda: ct.Gf2Matrix(2, 3, (0b101, 0b011)), "row_bits"),
    "SimplicialComplex": (lambda: ct.build_complex([("a", "b", "c")]), "by_dim"),
    "MoveRecord": (
        lambda: ct.MoveRecord(COLLAPSE, (("a", "b"), ("a", "b", "c")), (3, 3, 1), (3, 2, 0)),
        "aux",
    ),
    "Cochain": (lambda: ct.Cochain(1, ct.Gf2Vector(3, 0b101)), "values"),
    "PairingTensor": (lambda: ct.PairingTensor(1, 1, (((1,),),)), "entries"),
    "SurfaceClass": (lambda: ct.SurfaceClass(False, 2), "genus"),
    "SurfaceCheckReport": (lambda: ct.SurfaceCheckReport(True, True, True, True), "bad_edges"),
    "ReductionTrace": (
        lambda: ct.ReductionTrace((4, 6, 4), (4, 6, 4), (), ((1, 0, 1),), True),
        "moves",
    ),
    "BoundCertificate": (lambda: ct.BoundCertificate(2, (4, 6, 4), 4), "rho"),
    "ComplexFile": (lambda: ct.ComplexFile((("a", "b"),), "S2"), "sha256"),
}
NAMES = sorted(VALUES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_values_and_hashes(name):
    make, _ = VALUES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_another_class_is_never_equal(name):
    make, _ = VALUES[name]
    a = make()
    other = VALUES[NAMES[NAMES.index(name) - 1]][0]()
    assert a != other and other != a
    assert a.__eq__(other) is NotImplemented
    assert a != tuple(vars(a).values())


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, field = VALUES[name]
    a = make()
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, field) is before
    assert a == make()


@pytest.mark.parametrize("name", NAMES)
def test_keyword_construction_equals_positional(name):
    make, _ = VALUES[name]
    a = make()
    cls, fields, args = type(a), a._fields, a._values()
    assert cls(*args) == cls(**dict(zip(fields, args))) == a
    # the last field by keyword, the rest by position
    assert cls(*args[:-1], **{fields[-1]: args[-1]}) == a


@pytest.mark.parametrize("name", NAMES)
def test_arguments_bind_as_in_a_call(name):
    make, _ = VALUES[name]
    a = make()
    cls, fields, args = type(a), a._fields, a._values()
    first = fields[0]
    with pytest.raises(TypeError, match=f"missing required arguments: '{first}'"):
        cls(**dict(zip(fields[1:], args[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError, match=f"takes {len(fields)} arguments but {len(fields) + 1}"):
        cls(*args, None)


def test_repr_lists_the_fields_in_declaration_order():
    assert repr(ct.Gf2Vector(4, 10)) == "Gf2Vector(length=4, bits=10)"
    assert repr(ct.SurfaceClass(True, 1)) == "SurfaceClass(orientable=True, genus=1)"
    assert repr(ct.SurfaceCheckReport(True, False, True, True, bad_edges=((("a", "b"), 3),))) == (
        "SurfaceCheckReport(pure_two_dimensional=True, every_edge_in_two_triangles=False,"
        " strongly_connected=True, all_links_single_circles=True, bad_maximal_simplices=(),"
        " bad_edges=((('a', 'b'), 3),), bad_vertices=(), component_count=0)"
    )


def test_a_subclass_keeps_the_fields_but_is_another_class():
    class Tagged(ct.Gf2Vector):
        pass

    assert Tagged(3, 5) == Tagged(3, 5) != Tagged(3, 4)
    assert Tagged(3, 5) != ct.Gf2Vector(3, 5)
    assert repr(Tagged(3, 5)).endswith("Tagged(length=3, bits=5)")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ct.Gf2Vector(-1), PreconditionError),
        (lambda: ct.Gf2Vector(2, 0b100), PreconditionError),
        (lambda: ct.Gf2Vector(2, -1), PreconditionError),
        (lambda: ct.Gf2Matrix(-1, 0, ()), PreconditionError),
        (lambda: ct.Gf2Matrix(2, 2, (0,)), PreconditionError),
        (lambda: ct.Gf2Matrix(1, 2, (0b100,)), PreconditionError),
        (lambda: ct.Gf2Matrix(1, 2, (-1,)), PreconditionError),
        (lambda: ct.SurfaceClass(True, -1), DomainError),
        (lambda: ct.SurfaceClass(False, 0), DomainError),
        (lambda: ct.ReductionTrace((4, 6, 4), (4, 6, 4), (), (), True), InconsistencyError),
        (lambda: ct.BoundCertificate(1, (4, 6, 4), 4), InconsistencyError),
        (lambda: ct.BoundCertificate(2, (4, 6, 4), 5), InconsistencyError),
        (lambda: ct.BoundCertificate(1, (3, 3, 1), 6), InconsistencyError),
    ],
)
def test_constructors_check_their_fields(build, error):
    with pytest.raises(error):
        build()


def test_equal_complexes_keep_their_own_chain_data_and_invariants(torus, monkeypatch):
    """An equal but distinct complex builds its own chain data and runs
    its own reductions: nothing derived is shared by equality."""
    reductions = []
    original = ct.Gf2Matrix._reduction
    monkeypatch.setattr(
        ct.Gf2Matrix, "_reduction", per_complex(lambda m: reductions.append(m) or original(m))
    )
    a = ct.SimplicialComplex(torus.by_dim)
    b = ct.SimplicialComplex(torus.by_dim)
    assert chain_data(a) is chain_data(a)
    assert chain_data(b) == chain_data(b) and chain_data(a) is not chain_data(b)
    tensor = ct.pairing_tensor(a)
    assert ct.pairing_tensor(a) is tensor
    ran = len(reductions)
    assert ran > 0
    assert ct.pairing_tensor(b) == tensor and ct.pairing_tensor(b) is not tensor
    assert len(reductions) == 2 * ran
    assert not {id(m) for m in reductions[:ran]} & {id(m) for m in reductions[ran:]}
    # the kept values are outside equality and hashing
    assert a == b and hash(a) == hash(b) == hash(ct.SimplicialComplex(torus.by_dim))
