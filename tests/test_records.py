"""Value types are dataclasses; results of constructions are NamedTuple records.

A value type checks or interns its fields when it is built, so it keeps its
dataclass: BaseRing, BaseObject, BaseMorphism, TwoObject, TwoMorphism,
TwoCell, ComplexSequence and ChainMap, plus the mutable or defaulted
Workspace, Report, Bounds and SuiteResult.  Every other record is a
typing.NamedTuple, whose class is built without generating and exec-ing
__init__/__eq__/__hash__/__repr__ source at import, a cost a cold CLI call
pays for every dataclass it loads.  The field order below is pinned because
reprs and the key order of cli._flags_json follow it.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest

import arrowcat

DATACLASSES = {
    "rings.BaseRing",
    "baseobj.BaseObject",
    "basemor.BaseMorphism",
    "core2.TwoObject",
    "core2.TwoMorphism",
    "core2.TwoCell",
    "sequences.ComplexSequence",
    "sequences.ChainMap",
    "workspace.Workspace",
    "lemmas.Report",
    "generators.Bounds",
    "selftest.SuiteResult",
}

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


def test_only_value_and_mutable_types_are_dataclasses():
    assert {name for name, cls in CLASSES.items() if dataclasses.is_dataclass(cls)} <= DATACLASSES
    assert DATACLASSES <= CLASSES.keys()


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
