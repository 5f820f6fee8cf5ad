import copy
from functools import cache
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus.corpus import (
    chain_poset,
    cyclic_monoid,
    diamond_poset,
    downset_inclusion,
    glued_edges_sset,
    nerve,
    nerve_map,
    projection_functor,
    punctured_chain_sset,
    random_poset_corpus,
    standard_nerve_corpus,
    two_segal_partial_monoid,
    upset_inclusion,
)
from segal_abacus.decalage import counit, dec, tot
from segal_abacus.fibrations import (
    cartesian_on,
    is_culf,
    is_double_segal,
    is_left_fibration,
    is_right_fibration,
    is_segal,
    is_2segal,
    reduced_stability,
    stability,
)
from segal_abacus.presheaf import BiSSet, SMap, bisset_actions, constant_sset, identity_smap, validate
from segal_abacus.simplex import codegeneracy, coface


def test_levelwise_bijection_is_cartesian_everywhere():
    X = nerve(chain_poset(2), 4)
    assert cartesian_on(identity_smap(X), "all").passed


def test_nerves_are_segal_partial_monoid_is_not():
    for name, X in standard_nerve_corpus(4):
        rep = is_segal(X)
        if name == "partial-ea":
            assert not rep.passed
        else:
            assert rep.passed, name


def test_partial_monoid_segal_failure_witness():
    # the composable pair (a, a) has no filler
    P = two_segal_partial_monoid(4)
    rep = is_segal(P)
    offenders = {w.offenders for w in rep.witnesses}
    assert (("a",), ("a",)) in offenders


def test_empty_sset_is_vacuously_segal():
    rep = is_segal(constant_sset((), 4))
    assert rep.passed and rep.checked >= 1


def test_glued_edges_not_segal_but_2segal():
    G = glued_edges_sset(5)
    assert not is_segal(G).passed
    assert is_2segal(G, "both").passed


def test_punctured_chain_not_2segal():
    X = punctured_chain_sset(3, 4)
    assert validate(X).passed
    assert not is_2segal(X, "lower").passed
    assert not is_2segal(X, "upper").passed


def test_2segal_compositional_definition():
    P = two_segal_partial_monoid(5)
    assert is_2segal(P, "upper").passed == is_segal(dec(P, "top")).passed
    assert is_2segal(P, "lower").passed == is_segal(dec(P, "bottom")).passed
    assert is_2segal(P, "both").passed


def test_counit_and_fibration_classes():
    N = nerve(diamond_poset(), 5)
    assert is_right_fibration(counit(N, "top")).passed
    assert is_left_fibration(counit(N, "bottom")).passed
    assert is_culf(identity_smap(N)).passed


def test_projection_to_non_segal_base_fails_d_top():
    # constant two-point set over the glued-edge base
    G = glued_edges_sset(3)
    C = constant_sset(["p", "q"], 3)
    drop = {n: {x: ("u",) * (n + 1) if n else "u" for x in C.level(n)} for n in range(4)}
    F = SMap(C, G, drop)
    assert validate(F).passed
    assert not cartesian_on(F, "d_top").passed


def test_fibrations_are_culf_but_projections_are_not():
    up = upset_inclusion(chain_poset(2), 1, 4)
    down = downset_inclusion(chain_poset(2), 1, 4)
    assert is_left_fibration(up).passed
    assert is_right_fibration(down).passed
    assert is_culf(up).passed
    assert is_culf(down).passed
    # a product projection has non-unique factorization lifts
    F = nerve_map(projection_functor(chain_poset(2), chain_poset(1)), 4)
    rep = is_culf(F)
    assert not rep.passed
    assert any("not injective" in w.equation for w in rep.witnesses)


def test_stability_of_total_decalage():
    N = nerve(chain_poset(2), 5)
    T = tot(N)
    assert stability(T, "both").passed
    assert is_double_segal(T).passed
    P = tot(two_segal_partial_monoid(5))
    assert stability(P, "both").passed
    # upper 2-Segal only input gives upper stability at least
    X = punctured_chain_sset(3, 5)
    TX = tot(X)
    assert not stability(TX, "both").passed


def test_reduced_stability_agrees_on_double_segal():
    T = tot(nerve(chain_poset(2), 5))
    full = stability(T, "both")
    red = reduced_stability(T)
    assert full.passed and red.passed

    bad = copy.deepcopy(T)
    key = ("e", 0, (1, 1))
    tbl = bad.actions[key]
    x = sorted(tbl, key=str)[0]
    others = [v for v in bad.level(0, 1) if v != tbl[x]]
    tbl[x] = others[0]
    # the corruption breaks both the full and the reduced checks
    red_bad = reduced_stability(bad)
    full_bad = stability(bad, "both")
    assert not (red_bad.passed and red_bad.precondition is None) or not full_bad.passed


@cache
def grid_nerve(m: int, T: int) -> BiSSet:
    """The double nerve of the grid poset: B_{i,j} is the set of monotone
    maps [i] x [j] -> [m], each stored as its tuple of rows, and every
    generator acts by precomposition with a coface or codegeneracy in its
    coordinate (``e``/``t`` on the rows, ``d``/``s`` within each row)."""
    def monotone(i, j):
        rows = [r for r in product(range(m + 1), repeat=j + 1) if list(r) == sorted(r)]
        return [f for f in product(rows, repeat=i + 1)
                if all(a <= b for r, q in zip(f, f[1:]) for a, b in zip(r, q))]

    levels = {(i, j): monotone(i, j) for i in range(T + 1) for j in range(T + 1 - i)}
    actions = {}
    for (i, j), gens in bisset_actions(T).items():
        for kind, k, _ in gens:
            vertical = kind in ("e", "t")
            g = (coface if kind in ("e", "d") else codegeneracy)(k, i if vertical else j)
            actions[kind, k, (i, j)] = {
                f: tuple(f[v] for v in g.values) if vertical
                else tuple(tuple(r[v] for v in g.values) for r in f)
                for f in levels[i, j]}
    return BiSSet(T, levels, actions)


def test_grid_nerve_is_double_segal_but_not_stable():
    """At (1, 1) there are 6 monotone maps [1] x [1] -> [1] but only 5 pairs
    of edges out of a corner that they could be, so neither the full nor the
    reduced stability check holds on this double-Segal input."""
    assert len(grid_nerve(1, 2).level(1, 1)) == 6
    for m in (1, 2):
        for T in (2, 3, 4):
            B = grid_nerve(m, T)
            assert validate(B).passed and is_double_segal(B).passed, (m, T)
            assert stability(B).holds is False, (m, T)
            assert reduced_stability(B).holds is False, (m, T)


@cache
def _tot_of_random_nerve(seed: int):
    [(_, X)] = random_poset_corpus(1, 4, seed, 4)
    return tot(X)


@settings(max_examples=20, deadline=None)
@given(st.booleans(), st.integers(1, 2), st.integers(2, 4), st.integers(0, 40))
def test_reduced_stability_decides_stability_on_double_segal_input(grid, m, T, seed):
    """On double-Segal input the two (1, 1) squares decide stability: both
    outcomes are drawn, grid nerves failing and total decalages of nerves
    (which are 2-Segal) passing."""
    B = grid_nerve(m, T) if grid else _tot_of_random_nerve(seed)
    assert is_double_segal(B).passed
    holds = stability(B).holds
    assert reduced_stability(B).holds == holds
    assert holds is not grid


def test_reduced_stability_precondition():
    G = tot(glued_edges_sset(5))
    if not is_double_segal(G).passed:
        rep = reduced_stability(G)
        assert rep.precondition is not None


def test_double_segal_rows_and_columns():
    T = tot(nerve(cyclic_monoid(2), 5))
    assert is_double_segal(T).passed
    # rows of a total decalage are decalages, so 2-Segal input suffices
    TP = tot(two_segal_partial_monoid(5))
    assert is_double_segal(TP).passed
    # but a non-2-Segal input fails somewhere
    TX = tot(punctured_chain_sset(3, 5))
    assert not is_double_segal(TX).passed


def test_mutation_flips_segal():
    X = nerve(chain_poset(2), 4)
    bad = copy.deepcopy(X)
    tbl = bad.actions["d", 0, 2]
    x = next(c for c in bad.level(2) if len({c[0][0], c[0][1], c[1][1]}) == 3)
    tbl[x] = next(v for v in bad.level(1) if v != tbl[x])
    rep = is_segal(bad)
    assert not rep.passed and rep.witnesses
