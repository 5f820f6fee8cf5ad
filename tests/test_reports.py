"""The one verdict derivation, and suites that count only decided rows."""

import copy
import pickle
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus import configurations
from segal_abacus.reports import EXIT_CODES, CheckReport, Witness
from segal_abacus.suites import _exists, boors_suite, edgewise_suite, star_suite

witnesses = st.lists(
    st.builds(Witness, st.sampled_from(["a", "b"]), st.just("eq"), st.tuples(st.integers(0, 3))),
    max_size=3,
)
leaves = st.one_of(
    st.builds(CheckReport.from_witnesses, st.just("leaf"), witnesses, st.integers(0, 4)),
    st.builds(CheckReport.precondition_failure, st.just("leaf"), st.sampled_from(["p", "q"])),
    st.builds(CheckReport, st.just("leaf"), coverage=st.just(["unverifiable:leaf"])),
)
reports = st.recursive(
    leaves,
    lambda children: st.builds(CheckReport.conjunction, st.just("conj"), st.lists(children)),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(reports)
def test_verdict_is_derived_once(rep):
    verdict = rep.verdict
    assert rep.to_dict()["verdict"] == verdict
    assert rep.exit_code() == EXIT_CODES[verdict]
    assert rep.passed == (verdict in ("pass", "vacuous"))
    assert rep.holds == {"pass": True, "fail": False}.get(verdict)
    if rep.witnesses:
        assert verdict in ("fail", "precondition")
    if verdict == "vacuous":
        assert not rep.witnesses and rep.checked == 0


# a report tree: a leaf is ``(witnesses, checked, pending)``, a conjunction a list
specs = st.recursive(st.tuples(witnesses, st.integers(0, 4), st.booleans()), st.lists, max_leaves=8)


def _eager(spec) -> CheckReport:
    """The report of ``spec`` as it was built when witnesses were sorted at
    once: each leaf's, then each conjunction's merge, again."""
    if isinstance(spec, tuple):
        return CheckReport("leaf", sorted(spec[0], key=str), spec[1])
    parts = [_eager(part) for part in spec]
    return CheckReport("conj", sorted((w for r in parts for w in r.witnesses), key=str),
                       sum(r.checked for r in parts))


def _deferred(spec, explained, ids) -> CheckReport:
    """The report of ``spec``, each refuted leaf a ``refutation`` (when
    pending) or ``from_witnesses``; each explanation that runs logs its
    leaf's number to ``explained``."""
    if isinstance(spec, list):
        return CheckReport.conjunction("conj", [_deferred(part, explained, ids) for part in spec])
    ws, checked, pending = spec
    if not (ws and pending):
        return CheckReport.from_witnesses("leaf", ws, checked)
    leaf = next(ids)

    def explain():
        explained.append(leaf)
        return list(ws)

    return CheckReport.refutation("leaf", explain, checked)


@settings(max_examples=300, deadline=None)
@given(specs, st.booleans())
def test_witnesses_are_explained_and_sorted_once_when_read(spec, children_first):
    """A tree of pending reports has the verdicts of the eager tree before
    anything is explained, and its fields once read; each explanation runs
    at most once, whichever report is read first and however often."""
    explained, ids = [], count()
    parts = [_deferred(part, explained, ids) for part in spec] if isinstance(spec, list) else []
    rep = CheckReport.conjunction("conj", parts) if parts else _deferred(spec, explained, ids)
    ref = _eager(spec)
    assert (rep.verdict, rep.checked) == (ref.verdict, ref.checked) and explained == []
    if children_first and parts:
        assert [r.witnesses for r in parts] == [_eager(part).witnesses for part in spec]
    for _ in range(2):
        assert rep.to_dict() == ref.to_dict() and str(rep) == str(ref) and repr(rep) == repr(ref)
        assert rep == ref == copy.deepcopy(rep) == pickle.loads(pickle.dumps(rep))
    assert sorted(explained) == sorted(set(explained))


def test_a_report_holds_no_list_its_caller_holds():
    found = [Witness("b", "eq", (1,)), Witness("a", "eq", (0,))]
    rep = CheckReport.from_witnesses("r", found, 1)
    found.append(Witness("c", "eq", (2,)))
    assert rep.witnesses == [Witness("a", "eq", (0,)), Witness("b", "eq", (1,))]
    rep.witnesses.append(Witness("d", "eq", (3,)))
    assert len(found) == 3
    conj = CheckReport.conjunction("c", [rep])
    assert conj.witnesses == rep.witnesses and conj.witnesses is not rep.witnesses


def _entries(suite):
    return {e["id"]: e for e in suite["entries"]}


def test_edgewise_undecided_subdivision_is_vacuous():
    # at truncation 3 and 4, sd X has truncation 1: no Segal square of sd X to check
    for trunc in (4, 3):
        entries = _entries(edgewise_suite(trunc=trunc))
        segal = entries["edgewise:2segal-iff-sd-segal"]
        assert (segal["verdict"], segal["instances"], segal["witnesses"]) == ("vacuous", 0, [])
        rfib = entries["edgewise:culf-iff-sd-rfib"]
        assert (rfib["verdict"], rfib["instances"]) == ("pass", 12)
    suite = edgewise_suite(trunc=2)
    assert suite["verdict"] == "vacuous"
    assert {e["verdict"] for e in suite["entries"]} == {"vacuous"}


def test_star_suite_at_trunc_1_is_vacuous_not_passed():
    entries = _entries(star_suite(trunc=1))
    for eid in ("star:biconditional", "star:images-satisfy", "star:negative-fails"):
        assert entries[eid]["verdict"] == "vacuous", eid
        assert entries[eid]["instances"] == 0, eid


def test_broken_extension_fails_boors_suite(monkeypatch):
    # on 2-Segal inputs the extension must exist: a splitting that cannot be
    # built is a refutation, never an undecided row
    monkeypatch.setattr(configurations, "lift",
                        lambda upper, first, second, wants: ({}, [b for b, _ in wants]))
    suite = boors_suite(trunc=3)
    assert suite["verdict"] == "fail"
    ext = _entries(suite)["boors:extension_valid"]
    assert (ext["verdict"], ext["instances"], len(ext["witnesses"])) == ("fail", 21, 21)


def test_exists_counts_decided_refutations():
    assert _exists("e", "s", [None, None], 1)["verdict"] == "vacuous"
    short = _exists("e", "s", [True, False, None], 2)
    assert (short["verdict"], short["instances"], short["witnesses"]) == (
        "fail", 1, ["1 found, want at least 2"])
    assert _exists("e", "s", [False, False, True], 2)["verdict"] == "pass"
