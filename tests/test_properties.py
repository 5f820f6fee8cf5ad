"""Property tests over random poset nerves, and negatives on random
punctured chains and graphs.

Each poset example is the first poset of ``random_poset_corpus(1, MAX_SIZE,
seed, trunc)`` at truncation 3 or 4, with its nerve; the properties are the
statements the suites check on hand-picked fixtures, and the identities
between the constructions that the paper's equivalences rest on.
"""

import json
import random
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus import pjson
from segal_abacus.configurations import (
    boors_axioms,
    boors_roundtrip,
    build_M,
    condition_star,
    extract_from_M,
    half_roundtrip,
    j_upper_star,
    m_2segal_dictionary,
    p_star_tot,
    q_lower_star,
    q_upper_star,
    r_star,
    unit_iso,
)
from segal_abacus.corpus import (
    downset_inclusion,
    graph_sset,
    nerve,
    punctured_chain_sset,
    random_poset,
    random_poset_corpus,
    upset_inclusion,
)
from segal_abacus.fibrations import is_2segal, is_segal
from segal_abacus.presheaf import identity_smap, validate

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


@settings(max_examples=25, deadline=None)
@given(posets_t4)
def test_boors_roundtrip_on_random_nerves(fixture):
    _, X = fixture
    verdicts = {name: rep.verdict for name, rep in boors_roundtrip(X).items()}
    assert set(verdicts.values()) == {"pass"}, verdicts


@settings(max_examples=20, deadline=None)
@given(posets, st.data())
def test_inclusions_round_trip(fixture, data):
    cat, X = fixture
    base = data.draw(st.sampled_from(sorted(cat.objects)))
    for F in (upset_inclusion(cat, base, X.trunc), downset_inclusion(cat, base, X.trunc)):
        half = {name: rep.verdict for name, rep in half_roundtrip(F).items()}
        del half["full_axioms"]
        assert set(half.values()) == {"pass"}, half
        assert pjson.dumps(q_upper_star(q_lower_star(F))) == pjson.dumps(F)
        assert m_2segal_dictionary(F).holds is True


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
