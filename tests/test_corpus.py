import hashlib

from segal_abacus import suites
from segal_abacus.corpus import (
    PartialTable,
    boolean_lattice,
    chain_poset,
    cyclic_monoid,
    nerve,
    partial_monoid_sset,
    path_graph_sset,
    random_poset_corpus,
    standard_map_corpus,
    standard_nerve_corpus,
    two_segal_partial_monoid,
    walking_iso_cat,
)
from segal_abacus.presheaf import SMap, validate

import pytest


def test_chain_nerve_counts():
    N = nerve(chain_poset(2), 5)
    assert len(N.level(1)) == 6  # monotone maps [1] -> [2]
    assert len(N.level(0)) == 3
    N1 = nerve(chain_poset(1), 5)
    assert [len(N1.level(n)) for n in range(6)] == [2, 3, 4, 5, 6, 7]


def test_standard_corpus_size_and_validity():
    corpus = standard_nerve_corpus(3)
    assert len(corpus) >= 21
    for name, X in corpus:
        assert validate(X).passed, name


def test_map_corpus_validity():
    for name, F in standard_map_corpus(3):
        assert validate(F).passed, name
    assert len(standard_map_corpus(3)) >= 10


def test_partial_monoid_shape():
    P = two_segal_partial_monoid(4)
    assert P.level(1) == (("a",), ("e",))
    assert ("a", "a") not in P.level(2)
    assert len(P.level(2)) == 3


def test_partial_table_associativity_check():
    good = PartialTable(("e", "a"), "e", {})
    assert good.check_associative_where_defined()
    # (xy)z defined but x(yz) undefined
    bad = PartialTable(
        ("e", "a", "b", "c", "ab", "q"), "e",
        {("a", "b"): "ab", ("ab", "c"): "q", ("b", "c"): "q"},
    )
    assert not bad.check_associative_where_defined()
    with pytest.raises(ValueError):
        partial_monoid_sset(bad, 3)


def test_boolean_lattice_and_monoids():
    assert validate(nerve(boolean_lattice(2), 3)).passed
    assert validate(nerve(cyclic_monoid(3), 3)).passed
    assert validate(nerve(walking_iso_cat(), 4)).passed
    assert len(nerve(walking_iso_cat(), 4).level(4)) == 2 * 2 ** 4


def test_graph_fixture_levels():
    G = path_graph_sset(2, 3)
    assert validate(G).passed
    assert len(G.level(0)) == 3


def test_random_posets_are_deterministic_per_seed():
    a = random_poset_corpus(3, 4, seed=11, trunc=3)
    b = random_poset_corpus(3, 4, seed=11, trunc=3)
    assert [x.levels for _, x in a] == [y.levels for _, y in b]
    for name, X in a:
        assert validate(X).passed


def _digest(fixture) -> str:
    """sha256 of every level and action table of a simplicial set, or of a
    map's levels and both its ends."""
    if isinstance(fixture, SMap):
        parts = (fixture.levels, _digest(fixture.source), _digest(fixture.target))
    else:
        parts = (fixture.trunc, fixture.levels, fixture.actions)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_standard_fixtures_are_shared_and_never_changed(monkeypatch):
    """The map corpus's nerves are the nerve corpus's own objects; each
    call returns a fresh list of the same entries; the ``star-simplicial``
    suites (star t4, cheatsheet t5, edgewise t5 and t4) share them across
    suites of one truncation and change none of them."""
    nerves, maps = dict(standard_nerve_corpus(5)), dict(standard_map_corpus(5))
    assert maps["id-chain2"].source is nerves["chain2"]
    assert maps["id-partial"].source is nerves["partial-ea"]
    assert maps["incl-chain12"].target is nerves["chain2"]
    for corpus in (standard_nerve_corpus, standard_map_corpus):
        first, again = corpus(5), corpus(5)
        assert first is not again
        assert len(first) == len(again) and all(a is b for a, b in zip(first, again))

    handed = []  # (suite trunc, entry, digest when handed out)

    def recording(corpus):
        def handing(trunc):
            out = corpus(trunc)
            handed.extend((trunc, entry, _digest(entry[1])) for entry in out)
            return out
        return handing

    for name in ("standard_nerve_corpus", "standard_map_corpus"):
        monkeypatch.setattr(suites, name, recording(getattr(suites, name)))
    suites.star_suite(trunc=4)
    suites.cheatsheet_suite(trunc=5, seed=3)
    t5_before_edgewise = len(handed)
    suites.edgewise_suite(trunc=5)
    suites.edgewise_suite(trunc=4)
    assert all(_digest(entry[1]) == digest for _, entry, digest in handed)
    cheatsheet = {id(entry) for trunc, entry, _ in handed[:t5_before_edgewise] if trunc == 5}
    edgewise = [entry for trunc, entry, _ in handed[t5_before_edgewise:] if trunc == 5]
    assert edgewise and all(id(entry) in cheatsheet for entry in edgewise)


def test_random_nerves_are_never_standard_nerves():
    """The random corpus builds its own nerves, even where one has the
    content of a standard nerve."""
    standard = [X for _, X in standard_nerve_corpus(5)]
    standard += [end for _, F in standard_map_corpus(5) for end in (F.source, F.target)]
    random_nerves = [X for _, X in random_poset_corpus(4, 4, 7, 5)]
    assert not any(X is Y for X in random_nerves for Y in standard)
    assert {_digest(X) for X in random_nerves} & {_digest(X) for X in standard}
