"""The library's records against reference copies of the ``@dataclass``
classes they replaced.

Each record is a ``__slots__`` class on ``reports.Record`` or
``reports.Frozen``.  Every library record and its reference are built from
the same arguments, and must agree on ``==``, ``hash`` and ``repr``, on
what assigning or deleting a field does, on ``copy.deepcopy`` and on the
message of every rejected input.
"""

import copy
import pickle
from dataclasses import dataclass, field
from itertools import product
from types import SimpleNamespace

import pytest

from segal_abacus import abacus, corpus, presheaf, reports, simplex

# ---------------------------------------------------------------------------
# Reference copies of the dataclasses, fields and checks as they were


@dataclass(frozen=True)
class Witness:
    site: str
    equation: str
    offenders: tuple


@dataclass
class CheckReport:
    name: str
    witnesses: list = field(default_factory=list)
    checked: int = 0
    coverage: list = field(default_factory=list)
    precondition: str | None = None


@dataclass(frozen=True)
class MonotoneMap:
    dom: int
    cod: int
    values: tuple

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0:
            raise ValueError("ordinal sizes must be nonnegative")
        vals = self.values
        if len(vals) != self.dom:
            raise ValueError(f"expected {self.dom} values, got {len(vals)}")
        if list(vals) != sorted(vals):
            raise ValueError(f"values not weakly increasing: {vals}")
        if vals and not (vals[0] >= 0 and vals[-1] < self.cod):
            v = vals[0] if vals[0] < 0 else next(v for v in vals if v >= self.cod)
            raise ValueError(f"value {v} outside codomain of size {self.cod}")

    def __str__(self) -> str:
        return f"[{','.join(map(str, self.values))}]:{self.dom}->{self.cod}"


@dataclass(frozen=True)
class GeneratorWord:
    tokens: tuple
    source: object


@dataclass(frozen=True)
class DObject:
    i: int
    j: int

    def __post_init__(self):
        if self.i < -1 or self.j < -1:
            raise ValueError("bead counts need i, j >= -1")
        if self.i == -1 and self.j == -1:
            raise ValueError("[-1,-1] is not an object")

    @property
    def size(self) -> int:
        return self.i + self.j + 2

    @property
    def blacks(self) -> int:
        return self.i + 1

    def __str__(self) -> str:
        return f"[{self.i},{self.j}]"


@dataclass(frozen=True)
class BeadMap:
    src: DObject
    tgt: DObject
    carrier: MonotoneMap

    def __post_init__(self):
        if self.carrier.dom != self.src.size or self.carrier.cod != self.tgt.size:
            raise ValueError(
                f"carrier {self.carrier} does not fit {self.src} -> {self.tgt}"
            )
        vals, blacks, top = self.carrier.values, self.src.blacks, self.tgt.blacks
        if blacks and vals[blacks - 1] >= top:
            k = next(k for k in range(blacks) if vals[k] >= top)
            raise ValueError(
                f"black bead {k} escapes the black zone in {self.src} -> {self.tgt}"
            )


@dataclass
class SMap:
    source: object
    target: object
    levels: dict


@dataclass(frozen=True)
class Square:
    name: str
    p_elems: tuple
    a_elems: tuple
    b_elems: tuple
    p_to_a: dict
    p_to_b: dict
    a_to_c: dict
    b_to_c: dict


@dataclass(frozen=True)
class FinCat:
    name: str
    objects: tuple
    morphisms: tuple
    src: dict
    tgt: dict
    comp: dict
    ident: dict


@dataclass(frozen=True)
class FinFunctor:
    name: str
    source: FinCat
    target: FinCat
    on_obj: dict
    on_mor: dict


REFERENCE = SimpleNamespace(**{name: cls for name, cls in globals().items()
                               if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")})
LIBRARY = SimpleNamespace(
    Witness=reports.Witness, CheckReport=reports.CheckReport,
    MonotoneMap=simplex.MonotoneMap, GeneratorWord=simplex.GeneratorWord,
    DObject=abacus.DObject, BeadMap=abacus.BeadMap,
    SMap=presheaf.SMap, Square=presheaf.Square,
    FinCat=corpus.FinCat, FinFunctor=corpus.FinFunctor,
)


# ---------------------------------------------------------------------------
# Samples, each a builder given the namespace of classes to build with


def _fincat(m, name="one"):
    return m.FinCat(name, ("a",), ("1a",), {"1a": "a"}, {"1a": "a"}, {("1a", "1a"): "1a"}, {"a": "1a"})


SAMPLES = {
    "Witness": [lambda m: m.Witness("s", "eq", ()), lambda m: m.Witness("s", "eq", (1, "x")),
                lambda m: m.Witness("t", "eq", (1, "x")), lambda m: m.Witness(site="s", equation="e", offenders=(2,))],
    "CheckReport": [lambda m: m.CheckReport("r"), lambda m: m.CheckReport("r", [m.Witness("s", "e", (1,))], 3),
                    lambda m: m.CheckReport("r", checked=2, coverage=["c"], precondition="p"),
                    lambda m: m.CheckReport(name="q", precondition=None)],
    "MonotoneMap": [lambda m: m.MonotoneMap(0, 1, ()), lambda m: m.MonotoneMap(3, 3, (0, 0, 2)),
                    lambda m: m.MonotoneMap(dom=2, cod=3, values=(1, 2))],
    "GeneratorWord": [lambda m: m.GeneratorWord((), 2), lambda m: m.GeneratorWord((("d", 1), ("s", 0)), 2),
                      lambda m: m.GeneratorWord((("f", None),), m.DObject(0, 0))],
    "DObject": [lambda m: m.DObject(-1, 0), lambda m: m.DObject(2, 1), lambda m: m.DObject(i=0, j=-1)],
    "BeadMap": [lambda m: m.BeadMap(m.DObject(0, 0), m.DObject(1, -1), m.MonotoneMap(2, 2, (0, 1))),
                lambda m: m.BeadMap(m.DObject(0, 0), m.DObject(0, 0), m.MonotoneMap(2, 2, (0, 1)))],
    "SMap": [lambda m: m.SMap("X", "Y", {0: {"a": "b"}}), lambda m: m.SMap("X", "X", {})],
    "Square": [lambda m: m.Square("sq", ("p",), ("a",), ("b",), {"p": "a"}, {"p": "b"}, {"a": "c"}, {"b": "c"}),
               lambda m: m.Square("sq", (), (), (), {}, {}, {}, {})],
    "FinCat": [_fincat, lambda m: _fincat(m, "other")],
    "FinFunctor": [lambda m: m.FinFunctor("id", _fincat(m), _fincat(m), {"a": "a"}, {"1a": "1a"})],
}


def _outcome(thunk):
    """What calling ``thunk`` gives: its value, or its exception's base
    class (``FrozenInstanceError`` is an ``AttributeError``) and message."""
    try:
        return "ok", thunk()
    except (AttributeError, TypeError, ValueError) as exc:
        base = next(c for c in (AttributeError, TypeError, ValueError) if isinstance(exc, c))
        return base.__name__, str(exc)


def _pairs(name: str) -> list:
    """Each sample of the record ``name``, built as a record and as its reference."""
    return [(build(LIBRARY), build(REFERENCE)) for build in SAMPLES[name]]


@pytest.mark.parametrize("name", list(SAMPLES))
def test_records_compare_hash_and_show_as_the_dataclasses_did(name):
    pairs = _pairs(name)
    for new, ref in pairs:
        assert type(new) is getattr(LIBRARY, name)
        assert repr(new) == repr(ref)
        assert _outcome(lambda: hash(new)) == _outcome(lambda: hash(ref))
        assert (new == ref, new != ref) == (False, True)  # a record equals only its own class
        for other_new, other_ref in pairs:
            assert (new == other_new, new != other_new) == (ref == other_ref, ref != other_ref)


@pytest.mark.parametrize("name", list(SAMPLES))
def test_records_copy_assign_and_delete_as_the_dataclasses_did(name):
    frozen = getattr(REFERENCE, name).__dataclass_params__.frozen
    for new, ref in _pairs(name):
        for twin in (copy.deepcopy(new), copy.copy(new), pickle.loads(pickle.dumps(new))):
            assert type(twin) is type(new) and twin == new and repr(twin) == repr(new)
        for attr in ref.__dataclass_fields__:
            assert _outcome(lambda: setattr(new, attr, 0)) == _outcome(lambda: setattr(ref, attr, 0)), attr
            assert repr(new) == repr(ref)
        if frozen:
            assert _outcome(lambda: setattr(new, "extra", 0)) == _outcome(lambda: setattr(ref, "extra", 0))
        else:  # a slotted record has no room for other attributes
            assert _outcome(lambda: setattr(new, "extra", 0))[0] == "AttributeError"
        for attr in ref.__dataclass_fields__:
            assert _outcome(lambda: delattr(new, attr)) == _outcome(lambda: delattr(ref, attr)), attr


def test_check_report_defaults_are_fresh_lists():
    first, second = reports.CheckReport("a"), reports.CheckReport("b")
    assert first.witnesses == first.coverage == [] and first.checked == 0 and first.precondition is None
    assert first.witnesses is not second.witnesses and first.coverage is not second.coverage
    assert first.witnesses is not first.coverage


def test_validated_records_accept_and_reject_as_the_dataclasses_did():
    """Every small MonotoneMap, DObject and BeadMap argument list, valid or
    not, gives the reference's record or the reference's message."""
    def agree(build):
        new, ref = _outcome(lambda: build(LIBRARY)), _outcome(lambda: build(REFERENCE))
        assert (new[0], repr(new[1])) == (ref[0], repr(ref[1]))
        return new[0] == "ok"

    monotone = [agree(lambda m: m.MonotoneMap(dom, cod, values))
                for dom, cod in product(range(-1, 4), repeat=2)
                for n in range(4) for values in product(range(-1, 4), repeat=n)]
    objects = [(i, j) for i, j in product(range(-2, 3), repeat=2)
               if agree(lambda m: m.DObject(i, j)) and i + j <= 1]
    beads = []
    for (i, j), (k, l), size in product(objects, objects, range(1, 5)):
        for values in product(range(k + l + 2), repeat=size):
            beads.append(agree(lambda m: m.BeadMap(
                m.DObject(i, j), m.DObject(k, l), m.MonotoneMap(size, k + l + 2, values))))
    # valid and rejected input both occur
    assert all(any(oks) and not all(oks) for oks in (monotone, beads))
