"""Property tests over random poset nerves, and negatives on random
punctured chains and graphs.

Each poset example is the first poset of ``random_poset_corpus(1, MAX_SIZE,
seed, trunc)`` at truncation 3 or 4, with its nerve (the BOORS round trip
also at 5, with a smaller budget); the properties are the statements the
suites check on hand-picked fixtures, and the identities between the
constructions that the paper's equivalences rest on.  The round trips and
the packaged-total-space dictionary are also compared, report by report,
with the code they replaced.
"""

import json
import random
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus import pjson
from segal_abacus.configurations import (
    _restrict_dset,
    boors_axioms,
    boors_roundtrip,
    build_M,
    condition_star,
    dictionary_conditions,
    dset_iso_report,
    extend_sigma_to_d,
    extract_from_M,
    half_roundtrip,
    has_invertible_abacus,
    j_upper_star,
    m_2segal_dictionary,
    p_star_tot,
    pointed_col0,
    q_lower_star,
    q_upper_star,
    r_star,
    sigmaset_equal,
    splitting_checks,
    tot_roundtrip_iso,
    unit_iso,
)
from segal_abacus.corpus import (
    downset_inclusion,
    graph_sset,
    nerve,
    punctured_chain_sset,
    random_poset,
    random_poset_corpus,
    standard_map_corpus,
    upset_inclusion,
)
from segal_abacus.decalage import is_local_terminal
from segal_abacus.fibrations import is_2segal, is_segal
from segal_abacus.presheaf import (
    CheckReport,
    Witness,
    dset_levels,
    identity_smap,
    sub_trunc,
    validate,
)

MAX_SIZE = 4


@cache
def _poset_nerve(seed: int, trunc: int):
    """The first poset of the seeded corpus and the corpus's nerve of it."""
    rng = random.Random(seed)
    cat = random_poset(rng.randint(2, MAX_SIZE), rng)
    [(_, X)] = random_poset_corpus(1, MAX_SIZE, seed, trunc)
    assert X.levels == nerve(cat, trunc).levels
    return cat, X


posets = st.builds(_poset_nerve, st.integers(0, 39), st.sampled_from([3, 4]))
# at truncation 3 the splitting compatibility of the BOORS round trip is vacuous
posets_t4 = st.builds(_poset_nerve, st.integers(0, 39), st.just(4))
posets_t5 = st.builds(_poset_nerve, st.integers(0, 39), st.just(5))


@settings(max_examples=30, deadline=None)
@given(posets)
def test_random_nerves_are_segal_and_2segal(fixture):
    _, X = fixture
    assert is_segal(X).holds is True
    assert is_2segal(X, "both").holds is True


@settings(max_examples=25, deadline=None)
@given(posets, st.data())
def test_kan_extensions_satisfy_star_and_unit(fixture, data):
    cat, X = fixture
    base = data.draw(st.sampled_from(sorted(cat.objects)))
    for F in (identity_smap(X), upset_inclusion(cat, base, X.trunc)):
        B = q_lower_star(F)
        assert validate(B).holds is True
        assert condition_star(B).holds is True
        assert unit_iso(B).holds is True


@settings(max_examples=25, deadline=None)
@given(posets)
def test_total_decalage_validates_and_packages_losslessly(fixture):
    _, X = fixture
    B = r_star(X)
    assert validate(B).holds is True
    fib = extract_from_M(*build_M(B))
    assert {lvl: tuple(x for _, x in ms) for lvl, ms in fib.items()} == B.levels


def _reloaded(text: str) -> str:
    return pjson.dumps(pjson.from_dict(json.loads(text)))


@settings(max_examples=25, deadline=None)
@given(posets)
def test_pjson_round_trip_is_byte_stable(fixture):
    _, X = fixture
    F = identity_smap(X)
    B = q_lower_star(F)
    for P in (X, F, B, j_upper_star(B)):
        text = pjson.dumps(P)
        assert _reloaded(text) == text, pjson.shape_of(P)


@settings(max_examples=25, deadline=None)
@given(posets)
def test_p_star_tot_is_j_upper_star_of_r_star(fixture):
    # p = r . j on the index categories, so restricting along p is
    # restricting along r and then along j; this also checks the pointing
    # s_0 against ssub at [0, -1]
    _, X = fixture
    assert pjson.dumps(p_star_tot(X)) == pjson.dumps(j_upper_star(r_star(X)))


def _assert_round_trip_passes(X):
    verdicts = {name: rep.verdict for name, rep in boors_roundtrip(X).items()}
    assert set(verdicts.values()) == {"pass"}, verdicts


@settings(max_examples=25, deadline=None)
@given(posets_t4)
def test_boors_roundtrip_on_random_nerves(fixture):
    _assert_round_trip_passes(fixture[1])


@settings(max_examples=8, deadline=None)
@given(posets_t5)
def test_boors_roundtrip_on_random_nerves_at_trunc_5(fixture):
    _assert_round_trip_passes(fixture[1])


@settings(max_examples=20, deadline=None)
@given(posets, st.data())
def test_inclusions_round_trip(fixture, data):
    cat, X = fixture
    base = data.draw(st.sampled_from(sorted(cat.objects)))
    for F in (upset_inclusion(cat, base, X.trunc), downset_inclusion(cat, base, X.trunc)):
        half = {name: rep.verdict for name, rep in half_roundtrip(F).items()}
        del half["vertical_pointing"]
        assert set(half.values()) == {"pass"}, half
        assert pjson.dumps(q_upper_star(q_lower_star(F))) == pjson.dumps(F)
        assert m_2segal_dictionary(dictionary_conditions(F), q_lower_star(F)).holds is True


def test_punctured_chains_fail_2segal_and_the_boors_axioms():
    # (witnesses of is_2segal, witnesses of boors_axioms) at truncation 4
    for n, counts in {3: (4, 12), 4: (20, 60)}.items():
        X = punctured_chain_sset(n, 4)
        reps = is_2segal(X, "both"), boors_axioms(p_star_tot(X))
        assert [rep.verdict for rep in reps] == ["fail", "fail"], n
        assert tuple(len(rep.witnesses) for rep in reps) == counts, n


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 5), st.sampled_from([3, 4]), st.data())
def test_random_punctured_chains_fail_2segal_and_the_boors_axioms(n, trunc, data):
    """Keeping the chains of [n] with at most k distinct vertices drops a
    k-simplex whose triangulations are all kept when 3 <= k <= min(n, T):
    then both checks fail with witnesses.  Otherwise nothing or no such
    simplex is dropped, and both pass; neither is ever vacuous."""
    k = data.draw(st.integers(1, n + 1))
    X = punctured_chain_sset(n, trunc, k)
    holds = not 3 <= k <= min(n, trunc)
    for rep in (is_2segal(X, "both"), boors_axioms(p_star_tot(X))):
        assert rep.holds is holds and bool(rep.witnesses) is not holds, (k, rep.name)


_ARROWS = [(u, v) for u in "abcd" for v in "abcd" if u != v]


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(_ARROWS), max_size=5), st.sampled_from([3, 4]))
def test_random_graphs_fail_segal_exactly_at_a_composable_pair(edges, trunc):
    """A simplex of a graph's simplicial set takes at most one step, so two
    composable edges have no composite: Segal fails with witnesses exactly
    then.  Gluing two such triangles along a diagonal leaves one step, so
    every graph is 2-Segal, and the BOORS axioms hold, never vacuously."""
    X = graph_sset(tuple("abcd"), edges, trunc)
    composable = any(v == w for _, v in edges for w, _ in edges)
    segal = is_segal(X)
    assert segal.holds is not composable and bool(segal.witnesses) is composable
    assert is_2segal(X, "both").holds is True
    assert boors_axioms(p_star_tot(X)).holds is True


# ---------------------------------------------------------------------------
# The round trips and the dictionary against the code they replaced


def _reference_sub_trunc_dset(B, T):
    keep = set(dset_levels(T, with_aug_row=B.has_aug_row()))
    return _restrict_dset(B, T, {lv: xs for lv, xs in B.levels.items() if lv in keep})


def _reference_drop_aug_row(B):
    return _restrict_dset(B, B.trunc, {lv: xs for lv, xs in B.levels.items() if lv[0] >= 0})


def _reference_boors_roundtrip(X):
    """``boors_roundtrip`` with the axioms decided beside the extension's
    own gate, and the Kan extension of the identity built at X's
    truncation and then cut to the extension's."""
    out = {}
    A = p_star_tot(X)
    out["axioms"] = boors_axioms(A)
    B, rep, _ = extend_sigma_to_d(A)
    out["extension_valid"] = rep
    if B is None:
        return out
    out["invertible_abacus"] = has_invertible_abacus(B)
    out["ts_compat"] = splitting_checks(B)["ts_compat"]
    out["invertibility_pair"] = splitting_checks(B)["invertibility_pair"]
    recovered = sigmaset_equal(j_upper_star(B), A)
    out["pointing_restriction"] = CheckReport.from_witnesses(
        "pointing_restriction",
        [] if recovered else [Witness("j*", "restriction differs from input", ())], 1)
    Q = _reference_sub_trunc_dset(q_lower_star(identity_smap(X)), B.trunc)
    out["iso_with_kan"] = dset_iso_report(B, Q, tot_roundtrip_iso(X, B), "iso_with_kan")
    return out


def _reference_half_roundtrip(F):
    """``half_roundtrip`` with the half axioms decided beside the extension's
    own gate, and the Kan extension cut to the extension's truncation and
    then off its augmentation row."""
    out = {}
    B = q_lower_star(F)
    A = j_upper_star(B)
    out["half_axioms"] = boors_axioms(A, half=True)
    out["vertical_pointing"] = is_local_terminal(pointed_col0(A))
    Bh, rep, _ = extend_sigma_to_d(A, half=True)
    out["extension_valid"] = rep
    if Bh is None:
        return out
    recovered = sigmaset_equal(j_upper_star(Bh), A)
    out["pointing_restriction"] = CheckReport.from_witnesses(
        "pointing_restriction",
        [] if recovered else [Witness("restrict", "restriction differs from input", ())], 1)
    Q = _reference_drop_aug_row(_reference_sub_trunc_dset(B, Bh.trunc))
    maps = {}
    for (i, j) in dset_levels(Bh.trunc, with_aug_row=False):
        if j >= 0 or i == 0:
            maps[(i, j)] = {x: x for x in Bh.level(i, j)}
        else:
            maps[(i, -1)] = {z: B.actions["d", 0, (i, 0)][z] for z in Bh.level(i, -1)}
    out["iso_with_kan"] = dset_iso_report(Bh, Q, maps, "iso_with_kan")
    return out


def _reference_m_2segal_dictionary(F):
    """``m_2segal_dictionary`` building its own conditions and Kan extension."""
    name = "m_2segal_dictionary"
    conds = dictionary_conditions(F).values()
    M, proj = build_M(q_lower_star(F))
    rhs_rep = is_2segal(M, "both", "m-total-2segal")
    holds = [r.holds for r in conds]
    if None in holds or rhs_rep.holds is None:
        return CheckReport(name, coverage=[f"unverifiable:{name}:undecided-side"])
    lhs, rhs = all(holds), rhs_rep.holds
    witnesses = []
    if lhs != rhs:
        witnesses.append(Witness(name, "conditions on F match 2-Segal total space",
                                 (f"conditions={lhs}", f"total={rhs}")))
    checked = rhs_rep.checked + sum(r.checked for r in conds)
    return CheckReport.from_witnesses(name, witnesses, checked)


def _same_reports(got, ref):
    """The same report keys, in the same order, with equal reports."""
    assert [(k, r.to_dict()) for k, r in got.items()] == [(k, r.to_dict()) for k, r in ref.items()]


def _same_dset(got, ref):
    """Equal levels and action tables, order included."""
    assert got.trunc == ref.trunc
    assert list(got.levels.items()) == list(ref.levels.items())
    assert [(key, list(t.items())) for key, t in got.actions.items()] == \
        [(key, list(t.items())) for key, t in ref.actions.items()]


@cache
def _map_corpus():
    return tuple(F for _, F in standard_map_corpus(4))


posets_t3_to_5 = st.builds(_poset_nerve, st.integers(0, 39), st.sampled_from([3, 4, 5]))


@st.composite
def _round_trip_inputs(draw):
    """A random poset nerve at truncation 3 to 5, or a punctured chain that
    fails the axioms at some of them."""
    if draw(st.booleans()):
        return draw(posets_t3_to_5)[1]
    n = draw(st.integers(3, 4))
    return punctured_chain_sset(n, draw(st.sampled_from([3, 4, 5])), draw(st.integers(1, n + 1)))


@st.composite
def _maps(draw):
    """An up-set or down-set inclusion of a random poset at truncation 3 to
    5, or a map of the standard corpus."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_map_corpus()))
    cat, X = draw(posets_t3_to_5)
    base = draw(st.sampled_from(sorted(cat.objects)))
    inclusion = draw(st.sampled_from([upset_inclusion, downset_inclusion]))
    return inclusion(cat, base, X.trunc)


@settings(max_examples=15, deadline=None)
@given(_round_trip_inputs())
def test_boors_roundtrip_matches_reference(X):
    _same_reports(boors_roundtrip(X), _reference_boors_roundtrip(X))
    # the Kan extension of the identity, built at the depth it is compared at
    T = X.trunc - 2
    _same_dset(q_lower_star(identity_smap(sub_trunc(X, T))),
               _reference_sub_trunc_dset(q_lower_star(identity_smap(X)), T))


@settings(max_examples=15, deadline=None)
@given(_maps())
def test_half_roundtrip_and_dictionary_match_references(F):
    _same_reports(half_roundtrip(F), _reference_half_roundtrip(F))
    B = q_lower_star(F)
    assert (m_2segal_dictionary(dictionary_conditions(F), B).to_dict()
            == _reference_m_2segal_dictionary(F).to_dict())
    # the Kan extension away from its augmentation row, one restriction
    T = B.trunc - 2
    kept = dset_levels(T, with_aug_row=False)
    _same_dset(_restrict_dset(B, T, {lvl: B.levels[lvl] for lvl in kept}),
               _reference_drop_aug_row(_reference_sub_trunc_dset(B, T)))
