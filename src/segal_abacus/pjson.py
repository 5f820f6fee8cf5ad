"""JSON forms for presheaves and maps.

Element ids are flattened to canonical strings on write; a load/save
cycle is therefore stable byte for byte, with levels and action keys in
sorted order.  A document whose values have the wrong JSON type is
rejected on read with a ``ValueError`` that names the value.
"""

from __future__ import annotations

import json
from importlib import import_module

from .presheaf import (
    BULK_KINDS,
    BiSSet,
    DSet,
    SMap,
    SigmaSet,
    TruncSSet,
    action_label,
    fmt_id,
    level_name,
)


def _table(d: dict) -> dict:
    return {fmt_id(k): fmt_id(v) for k, v in d.items()}


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _typed(value, kind, what: str):
    """value, if it has the JSON type ``kind``; else a ValueError."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}")
    return value


def _field(data: dict, key: str, kind):
    """data[key], which must have the JSON type ``kind``."""
    return _typed(data[key], kind, repr(key))


def _strings(values, what: str) -> None:
    if not set(map(type, values)) <= {str}:
        raise ValueError(f"{what} must hold strings only")


def _ids(data, what: str) -> tuple:
    """A list of element ids."""
    _strings(_typed(data, list, what), what)
    return tuple(data)


def _read_table(data, what: str) -> dict:
    """A table from element ids to element ids."""
    _strings(_typed(data, dict, what).values(), what)
    return dict(data)


def _unique(data: dict, parse, read, what: str) -> dict:
    """``{parse(key): read(value, f"{what} {key}")}``; two keys that parse
    alike (``"01"`` and ``"1"``) are a ValueError, never an overwrite."""
    out, spelled = {}, {}
    for key, value in data.items():
        parsed = parse(key)
        if spelled.setdefault(parsed, key) != key:
            raise ValueError(f"{what} {key!r} names the same {what} as {spelled[parsed]!r}")
        out[parsed] = read(value, f"{what} {key}")
    return out


def _parse_lvl(key: str):
    if key.startswith("("):
        i, j = key[1:-1].split(",")
        return int(i), int(j)
    return int(key)


def smap_to_dict(F: SMap) -> dict:
    return {
        "shape": "smap",
        "source": _grid_to_dict(F.source, "sset"),
        "target": _grid_to_dict(F.target, "sset"),
        "levels": {str(n): _table(F.levels[n]) for n in sorted(F.levels)},
    }


def smap_from_dict(data: dict) -> SMap:
    return SMap(
        _sset(data, "source"),
        _sset(data, "target"),
        _unique(_field(data, "levels", dict), int, _read_table, "level"),
    )


def _grid_to_dict(B, shape: str) -> dict:
    """The file form of a presheaf with ``levels`` and one ``actions`` table."""
    return {
        "shape": shape,
        "trunc": B.trunc,
        "levels": {level_name(lvl): [fmt_id(x) for x in xs] for lvl, xs in B.levels.items()},
        "actions": {action_label(*key): _table(table) for key, table in B.actions.items()},
    }


def _parse_grid(data, kinds):
    """Truncation, levels and actions of a file form; action keys name a
    kind in ``kinds``."""
    trunc = _field(data, "trunc", int)
    levels = _unique(_field(data, "levels", dict), _parse_lvl, _ids, "level")
    actions = _unique(_field(data, "actions", dict), lambda key: _action_key(key, kinds),
                      _read_table, "action")
    return trunc, levels, actions


def _action_key(label: str, kinds) -> tuple:
    """The ``actions`` key of an action label, whose kind is in ``kinds``."""
    head, at = label.split("@")
    kind = head.rstrip("0123456789")
    if kind not in kinds:
        raise KeyError(label)
    return kind, int(head[len(kind):]) if head != kind else None, _parse_lvl(at)


def _sset(data: dict, key: str) -> TruncSSet:
    """The simplicial set in the field ``key`` of a file form."""
    return TruncSSet(*_parse_grid(_field(data, key, dict), ("d", "s")))


def _pointing_to_dict(P, shape: str, key: str, inner: dict) -> dict:
    """The file form of the pointing of P, with ``inner``, the file form of
    what P points, under ``key``."""
    return {
        "shape": shape,
        key: inner,
        "pointing": {
            "levels": [fmt_id(c) for c in P.point_set],
            "map": _table(P.pointing),
        },
    }


def _pointing(data: dict) -> tuple:
    """The point set and the pointing map of a file form."""
    pointing = _field(data, "pointing", dict)
    return (_ids(pointing["levels"], "the point set"),
            _read_table(pointing["map"], "the pointing map"))


def split_to_dict(A) -> dict:
    return {
        "shape": "split",
        "sset": _grid_to_dict(A.sset, "sset"),
        "split": {str(n): _table(t) for n, t in sorted(A.split.items())},
    }


def split_from_dict(data: dict):
    from .decalage import BottomSplitSSet

    return BottomSplitSSet(
        _sset(data, "sset"),
        _unique(_field(data, "split", dict), int, _read_table, "split"),
    )


def dset_from_dict(data: dict) -> DSet:
    from .abacus import SHIFT

    return DSet(*_parse_grid(data, SHIFT))


def pointed_from_dict(data: dict):
    from .decalage import PointedSSet

    return PointedSSet(_sset(data, "sset"), *_pointing(data))


# shape tag: (the module and name of its class, writer, reader).  The
# classes of decalage come last and are imported only when reached, so a
# presheaf is read or written without loading decalage.
_SHAPES = {
    "sset": ("presheaf", "TruncSSet", lambda X: _grid_to_dict(X, "sset"),
             lambda data: TruncSSet(*_parse_grid(data, ("d", "s")))),
    "smap": ("presheaf", "SMap", smap_to_dict, smap_from_dict),
    "bisset": ("presheaf", "BiSSet", lambda B: _grid_to_dict(B, "bisset"),
               lambda data: BiSSet(*_parse_grid(data, BULK_KINDS))),
    "dset": ("presheaf", "DSet", lambda B: _grid_to_dict(B, "dset"), dset_from_dict),
    "sigmaset": ("presheaf", "SigmaSet",
                 lambda A: _pointing_to_dict(A, "sigmaset", "bulk", _grid_to_dict(A.bulk, "bisset")),
                 lambda data: SigmaSet(BiSSet(*_parse_grid(_field(data, "bulk", dict), BULK_KINDS)),
                                       *_pointing(data))),
    "pointed": ("decalage", "PointedSSet",
                lambda P: _pointing_to_dict(P, "pointed", "sset", _grid_to_dict(P.sset, "sset")),
                pointed_from_dict),
    "split": ("decalage", "BottomSplitSSet", split_to_dict, split_from_dict),
}


def shape_of(P) -> str:
    """The shape tag P is written with."""
    for shape, (home, name, _, _) in _SHAPES.items():
        if isinstance(P, getattr(import_module(f"{__package__}.{home}"), name)):
            return shape
    raise TypeError(f"cannot serialize {type(P).__name__}")


def to_dict(P) -> dict:
    return _SHAPES[shape_of(P)][2](P)


def from_dict(data: dict):
    return _SHAPES[_field(_typed(data, dict, "the document"), "shape", str)][3](data)


def dump(P, path: str):
    text = dumps(P)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load(path: str):
    with open(path) as fh:
        return from_dict(json.load(fh))


def dumps(P) -> str:
    return json.dumps(to_dict(P), sort_keys=True, indent=1)
