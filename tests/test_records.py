"""Value types are slotted classes; results of constructions are NamedTuple records.

No arrowcat class is a dataclass: a cold CLI call would pay for importing
dataclasses (and inspect behind it) and for the __init__/__eq__/__hash__/
__repr__ source generated and exec-ed for each class at import.  A value
type checks or interns its fields when it is built: BaseRing, BaseObject,
BaseMorphism, TwoObject, TwoMorphism, TwoCell, ComplexSequence and ChainMap
are hand-written classes over rings._Value, with __slots__ (no instance
carries a __dict__), pinned __match_args__, no assignment or deletion, the
dataclass-format repr, and equality and hashing over the field tuple (rings
and objects are interned and compare by identity).  Every other record is a
typing.NamedTuple.  The field order below is pinned because reprs and the
key order of cli._flags_json follow it.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random

import pytest

import arrowcat
from arrowcat import GF, ZZ, base_morphism, z_object
from arrowcat.core2 import TwoObject, identity2, identity_cell
from arrowcat.generators import Bounds, random_complex_extension, to_chain_maps

VALUE_TYPES = {
    "rings.BaseRing": ("p",),
    "baseobj.BaseObject": ("ring", "orders"),
    "basemor.BaseMorphism": ("src", "dst", "mat"),
    "core2.TwoObject": ("boundary",),
    "core2.TwoMorphism": ("src", "dst", "top", "bottom"),
    "core2.TwoCell": ("cfrom", "cto", "mat"),
    "sequences.ComplexSequence": ("lo", "objects", "diffs", "cells"),
    "sequences.ChainMap": ("src", "dst", "squares", "cells"),
}
# interned: one instance per value, so equality and hashing are identity
INTERNED = {"rings.BaseRing", "baseobj.BaseObject"}

RECORDS = {
    "limits2.SequenceData": ("iota", "pmap"),
    "limits2.KernelData": ("obj", "kmor", "kappa", "kfull"),
    "limits2.CokernelData": ("obj", "qmor", "zeta", "qfull"),
    "limits2.LoopData": ("obj", "loop"),
    "limits2.UnitData": ("obj", "unit"),
    "limits2.RootData": ("obj", "rmor", "kalpha"),
    "limits2.RelKernelData": ("obj", "kmor", "kappa", "kernel", "root"),
    "limits2.RelCokernelData": ("obj", "qmor", "zeta", "cokernel", "coroot"),
    "limits2.Biproduct2": ("obj", "injections", "projections"),
    "limits2.Pullback2": ("obj", "p1", "p2", "cell"),
    "limits2.Pushout2": ("obj", "i1", "i2", "cell", "cokernel", "diff"),
    "snake.KernelSide": ("obj", "kmor", "kappa"),
    "snake.CokernelSide": ("obj", "qmor", "zeta"),
    "snake.ColumnData": ("mor", "ker", "coker"),
    "snake.SnakeResult": ("fbar", "etabar", "gbar", "delta", "d", "delta_prime", "fbar2", "etabar2", "gbar2",
                          "mu_a", "mu_b", "mu_c", "col_a", "col_b", "col_c"),
    "classify2.ArrowClassification": ("faithful", "full", "fully_faithful", "cofaithful", "fully_cofaithful",
                                      "normal_faithful", "normal_fully_faithful", "normal_cofaithful",
                                      "normal_fully_cofaithful", "equivalence", "discrete_source",
                                      "connected_source", "split_source"),
    "classify2.EquivalenceData": ("v1", "v0", "epsilon", "eta"),
    "factor2.Factorization": ("e", "l", "mhat", "im_obj", "imfull_obj", "ehat", "mbar", "m", "wbar", "wbar_flags",
                              "w", "w_flags", "e_flags", "l_flags", "mhat_flags"),
    "factor2.OrthogonalityReport": ("holds", "fillers", "unique"),
    "factor2.GoodnessReport": ("a_comparison", "b_comparison", "a_epi", "b_mono"),
    "lemmas.ThreeByThree": ("f", "g", "eta", "a", "b", "c", "alpha", "beta", "gamma", "phi", "psi"),
    "lemmas.ShortFiveInput": ("f", "eta", "g", "f2", "eta2", "g2", "a", "b", "c", "phi", "psi"),
    "les.LesResult": ("degrees", "h_objects", "maps", "cells", "snakes"),
    "anaconda.AnacondaResult": ("objects", "maps", "cells", "snake", "composite_signs"),
    "puppe.PuppeSequence": ("objects", "maps", "cells", "mu"),
    "matrix2.AssembledMorphism": ("mor", "src_bp", "dst_bp"),
    "sequences.HomologyResult": ("obj", "qprime", "kprime", "zeta_prime", "kappa_prime", "eta", "comparison",
                                 "comparison_flags", "rel_kernel", "rel_cokernel", "a_induced", "b_induced"),
    "baselin.Presentation": ("obj", "to_canon", "from_canon"),
    "baselin._Unknown": ("src", "dst", "offset"),
    "core2.SquareUnknown": ("src", "dst", "top", "bottom"),
    "core2.CellUnknown": ("src", "dst", "name"),
    "snf.SnfDecomposition": ("u", "d", "v", "u_inv", "u_rhs"),
    "generators.ExtensionInstance": ("m", "cell", "e"),
    "generators.ComplexInstance": ("lo", "hi", "objects", "diffs", "cells"),
    "generators.ComplexExtensionInstance": ("sub", "total", "quot", "maps_in", "maps_in_cells", "maps_out",
                                            "maps_out_cells", "omegas"),
    "generators.SnakeInstance": ("row1", "row2", "cols", "cells"),
    "generators.ThreeByThreeInstance": ("f", "g", "eta", "a", "b", "c", "alpha", "beta", "gamma", "phi", "psi"),
}


def _classes():
    """Every class defined in an arrowcat module, keyed "module.Name"."""
    out = {}
    for info in pkgutil.iter_modules(arrowcat.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"arrowcat.{info.name}")
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                out[f"{info.name}.{name}"] = obj
    return out


CLASSES = _classes()


def _values():
    """One instance of each value type, keyed like VALUE_TYPES."""
    boundary = base_morphism(z_object(1), z_object(0, (2,)), [[1]])
    x = TwoObject(boundary)
    fmap, _, _ = to_chain_maps(random_complex_extension(random.Random(25), ZZ, 3, Bounds(max_dim=2)))
    return {
        "rings.BaseRing": GF(3),
        "baseobj.BaseObject": boundary.dst,
        "basemor.BaseMorphism": boundary,
        "core2.TwoObject": x,
        "core2.TwoMorphism": identity2(x),
        "core2.TwoCell": identity_cell(identity2(x)),
        "sequences.ComplexSequence": fmap.src,
        "sequences.ChainMap": fmap,
    }


VALUES = _values()


def test_no_class_is_a_dataclass():
    assert not [name for name, cls in CLASSES.items() if dataclasses.is_dataclass(cls)]
    assert VALUE_TYPES.keys() <= CLASSES.keys()


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_type_contract(name):
    cls, value = CLASSES[name], VALUES[name]
    assert type(value) is cls
    assert cls.__match_args__ == VALUE_TYPES[name]
    assert not hasattr(value, "__dict__")
    fields = tuple(getattr(value, f) for f in cls.__match_args__)
    for attr in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert tuple(getattr(value, f) for f in cls.__match_args__) == fields
    for copier in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        twin = copier(value)
        assert twin == value and type(twin) is cls
        if name in INTERNED:
            assert twin is value
    # another class, even the field tuple itself, is left to its own __eq__
    assert value.__eq__(fields) is NotImplemented
    if name in INTERNED:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    else:
        assert hash(value) == hash(fields)


def test_every_tuple_class_is_a_listed_record():
    assert {name for name, cls in CLASSES.items() if issubclass(cls, tuple)} == RECORDS.keys()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_named_tuple(name):
    cls = CLASSES[name]
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == RECORDS[name]
    # no field shadows a tuple method such as count or index
    assert not set(cls._fields) & set(dir(tuple))
    rec = cls(*range(len(cls._fields)))
    for attr in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
