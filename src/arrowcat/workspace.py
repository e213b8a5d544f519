"""Workspace files: a single JSON document naming objects, squares, cells,
complexes and chain maps over one base ring.

The format is canonical - fixed key order, entries sorted by name, matrices
as row-major integer arrays - so parse(serialize(w)) is the identity and
serialized documents are byte-stable for golden testing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .baseobj import BaseObject, field_object, z_object
from .basemor import BaseMorphism, base_morphism
from .core2 import TwoCell, TwoMorphism, TwoObject, two_cell, two_morphism, two_object
from .rings import GF, ZZ, BaseRing

if TYPE_CHECKING:
    from .sequences import ChainMap, ComplexSequence


class WorkspaceError(ValueError):
    pass


# a base object with more generators than this is refused before it is built
MAX_GENERATORS = 1000
# so is a matrix entry or torsion order of more bits than this: results
# computed from larger entries can pass Python's 4,300-digit limit on
# converting an integer to text, and a report could not be written
MAX_ENTRY_BITS = 256
# and an integer literal longer than such an entry, as it is read
MAX_ENTRY_DIGITS = len(str(2**MAX_ENTRY_BITS - 1))


@dataclass
class Workspace:
    ring: BaseRing
    objects: dict[str, TwoObject] = field(default_factory=dict)
    morphisms: dict[str, TwoMorphism] = field(default_factory=dict)
    cells: dict[str, TwoCell] = field(default_factory=dict)
    complexes: dict[str, ComplexSequence] = field(default_factory=dict)
    chainmaps: dict[str, ChainMap] = field(default_factory=dict)

    def object(self, name: str) -> TwoObject:
        return self._get(self.objects, name, "object")

    def morphism(self, name: str) -> TwoMorphism:
        return self._get(self.morphisms, name, "morphism")

    def cell(self, name: str) -> TwoCell:
        return self._get(self.cells, name, "cell")

    def complex(self, name: str) -> ComplexSequence:
        return self._get(self.complexes, name, "complex")

    def chainmap(self, name: str) -> ChainMap:
        return self._get(self.chainmaps, name, "chain map")

    def _get(self, table, name, kind):
        if name not in table:
            raise WorkspaceError(f"unknown {kind} {name!r}")
        return table[name]


def _ring_to_json(ring: BaseRing):
    return {"field": ring.p} if ring.is_field else {"ring": "Z"}


def _ring_from_json(data) -> BaseRing:
    if not isinstance(data, dict):
        raise WorkspaceError("ring must be an object")
    if "field" in data:
        return _build("ring", GF, _int(data["field"], "ring: field"))
    if data.get("ring") == "Z":
        return ZZ
    raise WorkspaceError(f"unrecognized ring {data!r}")


def _int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise WorkspaceError(f"{where} must be an integer")
    return value


def _base_obj_to_json(x: BaseObject):
    if x.ring.is_field:
        return {"dim": x.ngens}
    return {"free": x.free_rank, "torsion": list(x.torsion)}


def _base_obj_from_json(ring: BaseRing, data, where: str) -> BaseObject:
    if not isinstance(data, dict):
        raise WorkspaceError(f"{where}: object must be a JSON object")
    if ring.is_field:
        if "dim" not in data:
            raise WorkspaceError(f"{where}: field objects need a dim")
        dim = _int(data["dim"], f"{where}: dim")
        _check_generators(dim, where)
        return _build(where, field_object, ring, dim)
    torsion = data.get("torsion", [])
    if not isinstance(torsion, list):
        raise WorkspaceError(f"{where}: torsion must be a list")
    orders = tuple(_int(d, f"{where}: torsion order") for d in torsion)
    for k, d in enumerate(orders):
        _check_bits(d, f"torsion order [{k}]", where)
    free = _int(data.get("free", 0), f"{where}: free")
    _check_generators(free + len(orders), where)
    return _build(where, z_object, free, orders)


def _check_generators(count: int, where: str):
    if count > MAX_GENERATORS:
        raise WorkspaceError(f"{where}: more than {MAX_GENERATORS} generators")


def _check_bits(x: int, what: str, where: str):
    if x.bit_length() > MAX_ENTRY_BITS:
        raise WorkspaceError(f"{where}: {what} has more than {MAX_ENTRY_BITS} bits")


def _obj_to_json(x: TwoObject):
    return {
        "top": _base_obj_to_json(x.top),
        "bottom": _base_obj_to_json(x.bottom),
        "boundary": _matrix_to_json(x.boundary),
    }


def _matrix_to_json(m: BaseMorphism):
    return [list(r) for r in m.mat]


def _check_matrix(data, where: str):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise WorkspaceError(f"{where}: matrix must be a list of rows")
    for i, r in enumerate(data):
        for j, x in enumerate(r):
            _check_bits(_int(x, f"{where}: matrix entry"), f"matrix entry [{i}][{j}]", where)
    widths = {len(r) for r in data}
    if len(widths) > 1:
        raise WorkspaceError(f"{where}: ragged matrix")
    return data


def _mor_from_json(src: BaseObject, dst: BaseObject, data, where: str) -> BaseMorphism:
    rows = _check_matrix(data, where)
    if len(rows) != dst.ngens or any(len(r) != src.ngens for r in rows):
        raise WorkspaceError(
            f"{where}: matrix shape {len(rows)}x{len(rows[0]) if rows else 0} "
            f"does not match {dst.ngens}x{src.ngens}"
        )
    return _build(where, base_morphism, src, dst, rows)


def _build(where: str, make, *args):
    """make(*args), a ValueError from the constructor reported at where."""
    try:
        return make(*args)
    except ValueError as e:
        raise WorkspaceError(f"{where}: {e}") from e


def _entries(data: dict, section: str, kind: str):
    """(name, where, entry) for every entry of a section, sorted by name."""
    table = data.get(section, {})
    if not isinstance(table, dict):
        raise WorkspaceError(f"{section} must be a JSON object")
    for name in sorted(table):
        where = f"{kind} {name!r}"
        if not isinstance(table[name], dict):
            raise WorkspaceError(f"{where} must be a JSON object")
        yield name, where, table[name]


def _name(entry: dict, key: str, where: str) -> str:
    name = entry.get(key)
    if not isinstance(name, str):
        raise WorkspaceError(f"{where}: {key} must be a name")
    return name


def _names(entry: dict, key: str, where: str) -> list[str]:
    names = entry.get(key, [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise WorkspaceError(f"{where}: {key} must be a list of names")
    return names


def _parse_int(literal: str) -> int:
    if len(literal.lstrip("-")) > MAX_ENTRY_DIGITS:
        raise WorkspaceError(f"integer literal of more than {MAX_ENTRY_DIGITS} digits")
    return int(literal)


def parse_workspace(text: str) -> Workspace:
    try:
        data = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as e:
        raise WorkspaceError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(data, dict) or "ring" not in data:
        raise WorkspaceError("workspace must be a JSON object with a ring")
    ring = _ring_from_json(data["ring"])
    ws = Workspace(ring)
    for name, where, od in _entries(data, "objects", "object"):
        top = _base_obj_from_json(ring, od.get("top"), where)
        bottom = _base_obj_from_json(ring, od.get("bottom"), where)
        ws.objects[name] = two_object(_mor_from_json(top, bottom, od.get("boundary"), where))
    for name, where, md in _entries(data, "morphisms", "morphism"):
        src = ws.object(_name(md, "source", where))
        dst = ws.object(_name(md, "target", where))
        top = _mor_from_json(src.top, dst.top, md.get("top"), where)
        bottom = _mor_from_json(src.bottom, dst.bottom, md.get("bottom"), where)
        ws.morphisms[name] = _build(where, two_morphism, src, dst, top, bottom)
    for name, where, cd in _entries(data, "cells", "cell"):
        cfrom = ws.morphism(_name(cd, "from", where))
        cto = ws.morphism(_name(cd, "to", where))
        mat = _mor_from_json(cfrom.src.bottom, cfrom.dst.top, cd.get("matrix"), where)
        ws.cells[name] = _build(where, two_cell, cfrom, cto, mat)
    if data.get("complexes") or data.get("chainmaps"):
        # sequences pulls in limits2 and classify2: load it only for a
        # workspace that holds complexes
        from .sequences import ChainMap, ComplexSequence
    for name, where, xd in _entries(data, "complexes", "complex"):
        lo = _int(xd.get("lo", 0), f"{where}: lo")
        objs = tuple(ws.object(n) for n in _names(xd, "objects", where))
        diffs = tuple(ws.morphism(n) for n in _names(xd, "differentials", where))
        cells = tuple(ws.cell(n) for n in _names(xd, "nullhomotopies", where))
        ws.complexes[name] = _build(where, ComplexSequence, lo, objs, diffs, cells)
    for name, where, md in _entries(data, "chainmaps", "chain map"):
        src = ws.complex(_name(md, "source", where))
        dst = ws.complex(_name(md, "target", where))
        squares = tuple(ws.morphism(n) for n in _names(md, "squares", where))
        cells = tuple(ws.cell(n) for n in _names(md, "homotopies", where))
        ws.chainmaps[name] = _build(where, ChainMap, src, dst, squares, cells)
    return ws


def serialize_workspace(ws: Workspace) -> str:
    doc: dict = {"ring": _ring_to_json(ws.ring)}
    objs = {}
    for name in sorted(ws.objects):
        objs[name] = _obj_to_json(ws.objects[name])
    doc["objects"] = objs
    mors = {}
    for name in sorted(ws.morphisms):
        u = ws.morphisms[name]
        mors[name] = {
            "source": _find_name(ws.objects, u.src, f"morphism {name!r} source"),
            "target": _find_name(ws.objects, u.dst, f"morphism {name!r} target"),
            "top": _matrix_to_json(u.top),
            "bottom": _matrix_to_json(u.bottom),
        }
    doc["morphisms"] = mors
    cells = {}
    for name in sorted(ws.cells):
        c = ws.cells[name]
        cells[name] = {
            "from": _find_name(ws.morphisms, c.cfrom, f"cell {name!r} source"),
            "to": _find_name(ws.morphisms, c.cto, f"cell {name!r} target"),
            "matrix": _matrix_to_json(c.mat),
        }
    doc["cells"] = cells
    cxs = {}
    for name in sorted(ws.complexes):
        cx = ws.complexes[name]
        cxs[name] = {
            "lo": cx.lo,
            "objects": [_find_name(ws.objects, o, f"complex {name!r}") for o in cx.objects],
            "differentials": [_find_name(ws.morphisms, d, f"complex {name!r}") for d in cx.diffs],
            "nullhomotopies": [_find_name(ws.cells, c, f"complex {name!r}") for c in cx.cells],
        }
    doc["complexes"] = cxs
    cms = {}
    for name in sorted(ws.chainmaps):
        cm = ws.chainmaps[name]
        cms[name] = {
            "source": _find_name(ws.complexes, cm.src, f"chain map {name!r}"),
            "target": _find_name(ws.complexes, cm.dst, f"chain map {name!r}"),
            "squares": [_find_name(ws.morphisms, s, f"chain map {name!r}") for s in cm.squares],
            "homotopies": [_find_name(ws.cells, c, f"chain map {name!r}") for c in cm.cells],
        }
    doc["chainmaps"] = cms
    return json.dumps(doc, indent=2) + "\n"


def _find_name(table: dict, value, where: str) -> str:
    for k, v in table.items():
        if v == value:
            return k
    raise WorkspaceError(f"{where}: entity is not named in the workspace")
