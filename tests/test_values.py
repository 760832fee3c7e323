"""The package's value classes behave as frozen plain values: keyword or
positional construction, field-wise equality and hashing, a repr that
names every field, and no assignment."""

import copy
import pickle

import pytest

from pairpack.algebra import ModRing
from pairpack.conjectures import ScanReport
from pairpack.dyson import DysonInstance
from pairpack.nullstellensatz import GridSpec
from pairpack.solvers import (Infeasible, PackingInstance, PackingReport,
                              PairPartition, PartitionInstance,
                              VectorPartitionInstance)
from pairpack.sumsets import CDReport, SumsetInstance

# (class, keyword arguments, the same value's repr); the arguments are
# given in field order, so they also make the positional construction
VALUES = [
    (Infeasible, {"nodes": 11}, "Infeasible(nodes=11)"),
    (PartitionInstance, {"n": 5, "d": (1, 2), "universe": "nonzero"},
     "PartitionInstance(n=5, d=(1, 2), universe='nonzero')"),
    (PartitionInstance, {"n": 4, "d": (1, 1), "universe": "full"},
     "PartitionInstance(n=4, d=(1, 1), universe='full')"),
    (PairPartition, {"pairs": ((2, 3), (4, 1))},
     "PairPartition(pairs=((2, 3), (4, 1)))"),
    (VectorPartitionInstance, {"p": 3, "k": 1, "bases": (((1,),),)},
     "VectorPartitionInstance(p=3, k=1, bases=(((1,),),))"),
    (PackingInstance, {"ambient": 7, "X": ((0,), (0, 1)),
                       "T": ((0, 1), (0, 1)), "d": 1},
     "PackingInstance(ambient=7, X=((0,), (0, 1)), T=((0, 1), (0, 1)), d=1)"),
    (PackingReport, {"m": 2, "d": 1, "factorial_nonzero": True,
                     "difference_bound": True, "translate_bound": False,
                     "squares_bound": None},
     "PackingReport(m=2, d=1, factorial_nonzero=True, difference_bound=True,"
     " translate_bound=False, squares_bound=None)"),
    (ScanReport, {"n": 7, "universe": "nonzero", "instances_total": 216,
                  "instances_feasible": 213, "failures": ((2, 2, 3),)},
     "ScanReport(n=7, universe='nonzero', instances_total=216,"
     " instances_feasible=213, failures=((2, 2, 3),))"),
    (SumsetInstance, {"p": 5, "alpha": 1, "A": (1, 3), "B": (0, 1)},
     "SumsetInstance(p=5, alpha=1, A=(1, 3), B=(0, 1))"),
    (CDReport, {"p": 2, "alpha": 2, "pairs": 225, "violations": (),
                "tight_count": 5, "tight": (((0,), (1, 2)),)},
     "CDReport(p=2, alpha=2, pairs=225, violations=(), tight_count=5,"
     " tight=(((0,), (1, 2)),))"),
    (DysonInstance, {"a": (2, 1, 3)}, "DysonInstance(a=(2, 1, 3))"),
    (GridSpec, {"sets": ((0, 1), (2, 3, 4))},
     "GridSpec(sets=((0, 1), (2, 3, 4)))"),
    (ModRing, {"n": 7}, "ModRing(7)"),
]


@pytest.mark.parametrize("cls, kwargs, text", VALUES,
                         ids=[f"{c.__name__}-{i}"
                              for i, (c, _, _) in enumerate(VALUES)])
def test_value_class(cls, kwargs, text):
    value = cls(**kwargs)
    same = cls(*kwargs.values())
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert len({value, same}) == 1 and {value: 1}[same] == 1
    assert repr(value) == text
    for name, field in kwargs.items():
        assert getattr(value, name) == field
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value
        assert [getattr(twin, f) for f in kwargs] == list(kwargs.values())
    # a value is not the tuple of its fields, nor iterable
    assert value != tuple(kwargs.values())
    with pytest.raises(TypeError):
        iter(value)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == kwargs[name]


def test_values_of_different_fields_or_classes_differ():
    assert Infeasible(3) != Infeasible(4)
    assert hash(Infeasible(3)) != hash(Infeasible(4))
    assert PartitionInstance(5, (1, 2)) != PartitionInstance(5, (2, 1))
    assert DysonInstance((2,)) != GridSpec(((0, 1, 2),))
    assert Infeasible(3) != 3 and Infeasible(3) != (3,)
    assert (Infeasible(3) == object()) is False


def test_defaults_and_normalisation():
    assert PartitionInstance(5, (6, 2)) == PartitionInstance(
        n=5, d=[1, 2], universe="nonzero")
    assert PartitionInstance(5, (1, 2)).universe == "nonzero"
    assert PackingInstance(ambient=5, X=[[5, 1]], T=[[7]], d=1).X == ((0, 1),)
    assert SumsetInstance(5, 1, (6, 1, 1), (0, 1)).A == (1,)
    assert DysonInstance([2, 1]).a == (2, 1)
    assert GridSpec([[0, 1]]).sets == ((0, 1),)
    # check defaults to True: a slot without a basis is refused
    with pytest.raises(ValueError, match="basis"):
        VectorPartitionInstance(3, 1, (((0,),),))
    VectorPartitionInstance(3, 1, (((0,),),), check=False)


def test_check_is_not_part_of_the_value():
    checked = VectorPartitionInstance(3, 1, (((1,),),))
    unchecked = VectorPartitionInstance(3, 1, (((1,),),), check=False)
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert repr(checked) == repr(unchecked)
    assert "check" not in repr(unchecked)


def test_missing_or_unknown_fields_raise_type_error():
    with pytest.raises(TypeError):
        Infeasible()
    with pytest.raises(TypeError):
        Infeasible(1, 2)
    with pytest.raises(TypeError):
        Infeasible(nodez=1)
    with pytest.raises(TypeError):
        Infeasible(1, nodes=1)
    with pytest.raises(TypeError):
        ScanReport(5, "nonzero", 16, 16)
    with pytest.raises(TypeError):
        PartitionInstance(5)
    with pytest.raises(TypeError):
        PartitionInstance(n=5, d=(1, 2), universes="full")
