"""JSON forms for presheaves and maps.

Element ids are flattened to canonical strings on write; a load/save
cycle is therefore stable byte for byte, with levels and action keys in
sorted order.
"""

from __future__ import annotations

import json

from .abacus import SHIFT
from .decalage import BottomSplitSSet, PointedSSet
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


def _parse_lvl(key: str):
    if key.startswith("("):
        i, j = key[1:-1].split(",")
        return int(i), int(j)
    return int(key)


def sset_to_dict(X: TruncSSet) -> dict:
    return _grid_to_dict(X, "sset")


def sset_from_dict(data: dict) -> TruncSSet:
    return TruncSSet(data["trunc"], *_parse_grid(data, ("d", "s")))


def smap_to_dict(F: SMap) -> dict:
    return {
        "shape": "smap",
        "source": sset_to_dict(F.source),
        "target": sset_to_dict(F.target),
        "levels": {str(n): _table(F.levels[n]) for n in sorted(F.levels)},
    }


def smap_from_dict(data: dict) -> SMap:
    return SMap(
        sset_from_dict(data["source"]),
        sset_from_dict(data["target"]),
        {int(n): dict(t) for n, t in data["levels"].items()},
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
    """Levels and actions of a file form; action keys name a kind in ``kinds``."""
    levels = {_parse_lvl(key): tuple(xs) for key, xs in data["levels"].items()}
    actions = {}
    for key, table in data["actions"].items():
        head, at = key.split("@")
        kind = head.rstrip("0123456789")
        if kind not in kinds:
            raise KeyError(key)
        k = int(head[len(kind):]) if head != kind else None
        actions[kind, k, _parse_lvl(at)] = dict(table)
    return levels, actions


def bisset_to_dict(B: BiSSet) -> dict:
    return _grid_to_dict(B, "bisset")


def bisset_from_dict(data: dict) -> BiSSet:
    return BiSSet(data["trunc"], *_parse_grid(data, BULK_KINDS))


def dset_to_dict(B: DSet) -> dict:
    return _grid_to_dict(B, "dset")


def dset_from_dict(data: dict) -> DSet:
    return DSet(data["trunc"], *_parse_grid(data, SHIFT))


def sigmaset_to_dict(A: SigmaSet) -> dict:
    return {
        "shape": "sigmaset",
        "bulk": bisset_to_dict(A.bulk),
        "pointing": {
            "levels": [fmt_id(c) for c in A.point_set],
            "map": _table(A.pointing),
        },
    }


def sigmaset_from_dict(data: dict) -> SigmaSet:
    return SigmaSet(
        bisset_from_dict(data["bulk"]),
        tuple(data["pointing"]["levels"]),
        dict(data["pointing"]["map"]),
    )


def pointed_to_dict(P: PointedSSet) -> dict:
    return {
        "shape": "pointed",
        "sset": sset_to_dict(P.sset),
        "pointing": {
            "levels": [fmt_id(c) for c in P.point_set],
            "map": _table(P.pointing),
        },
    }


def pointed_from_dict(data: dict) -> PointedSSet:
    return PointedSSet(
        sset_from_dict(data["sset"]),
        tuple(data["pointing"]["levels"]),
        dict(data["pointing"]["map"]),
    )


def split_to_dict(A: BottomSplitSSet) -> dict:
    return {
        "shape": "split",
        "sset": sset_to_dict(A.sset),
        "split": {str(n): _table(t) for n, t in sorted(A.split.items())},
    }


def split_from_dict(data: dict) -> BottomSplitSSet:
    return BottomSplitSSet(
        sset_from_dict(data["sset"]),
        {int(n): dict(t) for n, t in data["split"].items()},
    )


# shape tag: (class, writer, reader)
_SHAPES = {
    "sset": (TruncSSet, sset_to_dict, sset_from_dict),
    "smap": (SMap, smap_to_dict, smap_from_dict),
    "bisset": (BiSSet, bisset_to_dict, bisset_from_dict),
    "dset": (DSet, dset_to_dict, dset_from_dict),
    "sigmaset": (SigmaSet, sigmaset_to_dict, sigmaset_from_dict),
    "pointed": (PointedSSet, pointed_to_dict, pointed_from_dict),
    "split": (BottomSplitSSet, split_to_dict, split_from_dict),
}


def shape_of(P) -> str:
    """The shape tag P is written with."""
    for shape, (cls, _, _) in _SHAPES.items():
        if isinstance(P, cls):
            return shape
    raise TypeError(f"cannot serialize {type(P).__name__}")


def to_dict(P) -> dict:
    return _SHAPES[shape_of(P)][1](P)


def from_dict(data: dict):
    return _SHAPES[data["shape"]][2](data)


def dump(P, path: str):
    with open(path, "w") as fh:
        json.dump(to_dict(P), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load(path: str):
    with open(path) as fh:
        return from_dict(json.load(fh))


def dumps(P) -> str:
    return json.dumps(to_dict(P), sort_keys=True, indent=1)
