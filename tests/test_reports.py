"""The one verdict derivation, and suites that count only decided rows."""

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
