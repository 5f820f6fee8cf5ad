"""Verdicts with witnesses and coverage bookkeeping.

Every checker returns a CheckReport, and this module is the one place
that turns a report's witnesses, ``checked`` count and precondition into a
verdict or an exit code.  The verdict is, in this order: ``precondition``
when a precondition failed, ``fail`` when there are witnesses (witnesses
always mean fail), ``vacuous`` when nothing was checkable under the
truncation, else ``pass``.

A refuted report may leave its witnesses unbuilt: ``CheckReport.refutation``
takes a function that builds them, and ``from_witnesses`` and
``conjunction`` defer their sort and merge the same way.  The verdict
needs only to know that the report is refuted; the witnesses are built
and sorted by ``str`` once, when ``witnesses`` is first read, so a caller
that reads only verdicts never formats or sorts a witness.

``passed`` means "not refuted": pass or vacuous.  It is what gates read
(an empty presheaf validates).  ``holds`` is the decided truth: True on
pass, False on fail, None when vacuous or a precondition failed; the
suites read it so that an undecided check is never counted as an
instance, let alone as a pass.

A suite report is a plain dict of entries built by ``_entry`` and its
helpers, one per checked statement, and closed by ``_finish``.

The library's records (reports, witnesses, maps, words, objects) are
``__slots__`` classes on ``Record``, which reads their fields off their
slots: field-wise ``==``, ``repr`` and copying, and for ``Frozen``
records also a field-wise hash and no assignment after ``__init__``.
"""

from __future__ import annotations

from operator import attrgetter

EXIT_CODES = {"pass": 0, "fail": 1, "precondition": 2, "vacuous": 3}


def verdict_of(witnesses, checked: int, precondition: str | None = None) -> str:
    if precondition is not None:
        return "precondition"
    if witnesses:
        return "fail"
    return "pass" if checked else "vacuous"


class TruncationError(ValueError):
    """A construction needs a higher truncation than its input has."""


class Record:
    """A record whose fields are its ``__slots__``, in order: equal to a
    record of the same class with equal fields, shown as
    ``Name(field=value, ...)``, and rebuilt from its fields by ``copy`` and
    ``pickle``.  A plain record is mutable, so it is unhashable.  A
    subclass that adds no slots has its base's fields, read by name, so it
    may put a property over one."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        if cls.__slots__:  # a record's fields, as a tuple: every record has two or more
            cls._names = cls.__slots__
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._fields(self)))
        return f"{type(self).__qualname__}({values})"

    def __reduce__(self):
        return type(self), self._fields(self)


class Frozen(Record):
    """A record that cannot change after ``__init__``, which sets its
    fields with ``object.__setattr__``; hashed by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Witness(Frozen):
    __slots__ = ("site", "equation", "offenders")

    def __init__(self, site: str, equation: str, offenders: tuple):
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "equation", equation)
        object.__setattr__(self, "offenders", offenders)

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "equation": self.equation,
            "offenders": [str(o) for o in self.offenders],
        }

    def __str__(self) -> str:
        return f"{self.site}: {self.equation} offenders={list(map(str, self.offenders))}"


class _ReportFields(Record):
    __slots__ = ("name", "witnesses", "checked", "coverage", "precondition")


# ``witnesses`` as stored: a list, or a pending explanation
_held = _ReportFields.witnesses.__get__
_hold = _ReportFields.witnesses.__set__


class CheckReport(_ReportFields):
    """A check's verdict, witnesses and coverage.

    ``witnesses`` may be given as a zero-argument function that returns a
    non-empty list of them: a pending explanation.  A pending report is
    refuted, so its verdict never calls the function; the first read of
    ``witnesses`` calls it once and keeps its list, sorted by ``str``.
    Every read of the fields (``to_dict``, ``str``, ``==``, ``repr``,
    copy, pickle) goes through that read."""

    __slots__ = ()

    def __init__(self, name: str, witnesses: list[Witness] | None = None, checked: int = 0,
                 coverage: list[str] | None = None, precondition: str | None = None):
        self.name = name
        self.witnesses = [] if witnesses is None else witnesses
        self.checked = checked
        self.coverage = [] if coverage is None else coverage
        self.precondition = precondition

    def _explained(self) -> list:
        held = _held(self)
        if callable(held):
            held = sorted(held(), key=str)
            _hold(self, held)
        return held

    witnesses = property(_explained, _hold, _ReportFields.witnesses.__delete__)

    @property
    def verdict(self) -> str:
        return verdict_of(_held(self), self.checked, self.precondition)

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "vacuous")

    @property
    def holds(self) -> bool | None:
        return {"pass": True, "fail": False}.get(self.verdict)

    @staticmethod
    def from_witnesses(name: str, witnesses, checked: int, coverage=None) -> "CheckReport":
        """A report of the witnesses found, sorted by ``str`` when first read."""
        witnesses = list(witnesses)
        return CheckReport(name, (lambda: witnesses) if witnesses else [], checked, sorted(coverage or []))

    @staticmethod
    def refutation(name: str, explain, checked: int) -> "CheckReport":
        """A refuted report whose witnesses ``explain()`` returns (a
        non-empty list), called only when they are first read."""
        return CheckReport(name, explain, checked)

    @staticmethod
    def precondition_failure(name: str, reason: str) -> "CheckReport":
        return CheckReport(name, precondition=reason)

    @staticmethod
    def conjunction(name: str, reports) -> "CheckReport":
        """The reports together: their witnesses, merged and sorted by
        ``str`` when first read, their checks and coverage, and the first
        failed precondition."""
        reports = list(reports)
        refuted = [r for r in reports if _held(r)]
        return CheckReport(
            name,
            (lambda: [w for r in refuted for w in r.witnesses]) if refuted else [],
            sum(r.checked for r in reports),
            sorted({c for r in reports for c in r.coverage}),
            precondition=next((r.precondition for r in reports if r.precondition), None),
        )

    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "verdict": self.verdict,
            "checked": self.checked,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }
        if self.coverage:
            out["coverage"] = list(self.coverage)
        if self.precondition is not None:
            out["precondition"] = self.precondition
        return out

    def __str__(self) -> str:
        head = f"{self.name}: {self.verdict} ({self.checked} checked)"
        if self.witnesses:
            shown = "\n  ".join(str(w) for w in self.witnesses[:5])
            more = "" if len(self.witnesses) <= 5 else f"\n  ... {len(self.witnesses) - 5} more"
            return f"{head}\n  {shown}{more}"
        return head


# ---------------------------------------------------------------------------
# Suite entries


def _entry(eid: str, statement: str, instances: int, witnesses=()):
    return {
        "id": eid,
        "statement": statement,
        "verdict": verdict_of(witnesses, instances),
        "instances": instances,
        "witnesses": sorted(str(w) for w in witnesses),
    }


def _tally(eid: str, statement: str, rows):
    """An entry over rows ``(name, outcome)``: a True or False outcome makes
    the row an instance, False also a witness; None (undecided) neither."""
    decided = [(name, ok) for name, ok in rows if ok is not None]
    return _entry(eid, statement, len(decided), [name for name, ok in decided if not ok])


def _entry_from_report(eid: str, statement: str, rep: CheckReport):
    return _entry(eid, statement, 0 if rep.holds is None else max(rep.checked, 1), rep.witnesses)


def _finish(name: str, entries, depth) -> dict:
    verdict = "pass"
    if any(e["verdict"] == "fail" for e in entries):
        verdict = "fail"
    elif any(e["verdict"] == "vacuous" for e in entries):
        verdict = "vacuous"
    return {"suite": name, "depth": depth, "verdict": verdict,
            "entries": sorted(entries, key=lambda e: e["id"])}
