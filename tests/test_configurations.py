import copy

from segal_abacus.configurations import (
    abacus_row_map,
    boors_axioms,
    boors_roundtrip,
    build_M,
    collapse_aug_row,
    condition_star,
    dictionary_conditions,
    dset_iso_report,
    extend_sigma_to_d,
    extract_from_M,
    half_roundtrip,
    has_invertible_abacus,
    invertibility_pair_check,
    is_bicomodule_config,
    is_rel_upper_2segal,
    j_upper_star,
    m_2segal_dictionary,
    p_star_tot,
    q_lower_star,
    q_upper_star,
    r_star,
    ts_compat,
    unit_iso,
)
from segal_abacus.corpus import (
    chain_poset,
    collapse_functor,
    diamond_poset,
    nerve,
    nerve_map,
    poset_inclusion,
    punctured_chain_sset,
    two_segal_partial_monoid,
    walking_iso_cat,
)
from segal_abacus.decalage import dec
from segal_abacus.presheaf import (
    SMap,
    col_sset,
    constant_sset,
    dset_levels,
    fmt_id,
    identity_smap,
    sub_trunc,
    validate,
)
from segal_abacus.reports import Witness


def test_qstar_levels_of_identity():
    N = nerve(chain_poset(1), 5)
    B = q_lower_star(identity_smap(N))
    assert validate(B).passed
    assert len(B.level(0, 0)) == 3
    assert len(B.level(1, 0)) == 4
    assert len(B.level(0, 1)) == 4
    # augmentations are the source and target themselves
    assert B.level(2, -1) == N.level(2)
    assert B.level(-1, 2) == N.level(2)
    assert has_invertible_abacus(B).passed


def test_qstar_over_point_gives_constant_rows():
    X = nerve(diamond_poset(), 4)
    pt = constant_sset(["*"], 4)
    F = SMap(X, pt, {n: {x: "*" for x in X.level(n)} for n in range(5)})
    B = q_lower_star(F)
    assert validate(B).passed
    for j in range(-1, 3):
        lvl = B.level(1, j)
        assert len(lvl) == len(X.level(1))


def test_qstar_matches_total_decalage_for_identity():
    N = nerve(chain_poset(1), 4)
    B = q_lower_star(identity_smap(N))
    R = r_star(N)
    assert validate(R).passed
    for lvl in R.levels:
        assert len(R.level(*lvl)) == len(B.level(*lvl))


def test_condition_star_and_unit_on_images():
    for F in (
        identity_smap(nerve(chain_poset(2), 4)),
        poset_inclusion(chain_poset(1), chain_poset(2), 4),
        nerve_map(collapse_functor(diamond_poset()), 4),
    ):
        B = q_lower_star(F)
        assert validate(B).passed
        assert condition_star(B).passed
        assert unit_iso(B).passed


def test_collapsed_fixture_is_valid_and_fails_star():
    B = q_lower_star(identity_smap(nerve(chain_poset(1), 5)))
    neg = collapse_aug_row(B)
    assert validate(neg).passed
    star = condition_star(neg)
    unit = unit_iso(neg)
    assert not star.passed and not unit.passed
    assert star.witnesses and unit.witnesses


def test_unit_identity_on_augmentations_by_construction():
    N = nerve(chain_poset(1), 4)
    B = q_lower_star(identity_smap(N))
    F = q_upper_star(B)
    for n in range(4):
        assert F.source.level(n) == N.level(n)
        assert F.target.level(n) == N.level(n)
        assert F.levels[n] == {x: x for x in N.level(n)}


def test_bicomodule_dictionary_positive_and_negative():
    F = identity_smap(nerve(walking_iso_cat(), 4))
    B = q_lower_star(F)
    conds = dictionary_conditions(F)
    assert all(r.passed for r in conds.values())
    assert is_bicomodule_config(B).passed

    Fbad = identity_smap(punctured_chain_sset(3, 4))
    Bbad = q_lower_star(Fbad)
    assert validate(Bbad).passed
    conds = dictionary_conditions(Fbad)
    assert not all(r.passed for r in conds.values())
    assert not is_bicomodule_config(Bbad).passed


def test_rel_upper_2segal_examples():
    assert is_rel_upper_2segal(identity_smap(nerve(chain_poset(2), 4))).passed
    assert is_rel_upper_2segal(
        poset_inclusion(chain_poset(1), chain_poset(2), 4)
    ).passed
    # over a point the condition reduces to a Segal check of the source
    P = two_segal_partial_monoid(4)
    pt = constant_sset(["*"], 4)
    F = SMap(P, pt, {n: {x: "*" for x in P.level(n)} for n in range(5)})
    rep = is_rel_upper_2segal(F)
    from segal_abacus.fibrations import is_segal

    assert rep.passed == is_segal(P, "src").passed


def test_invertible_abacus_iff_bijective():
    F = poset_inclusion(chain_poset(1), chain_poset(2), 4)
    B = q_lower_star(F)
    rep = has_invertible_abacus(B)
    assert not rep.passed
    assert any("not surjective" in w.equation for w in rep.witnesses)
    B2 = q_lower_star(identity_smap(nerve(chain_poset(2), 4)))
    assert has_invertible_abacus(B2).passed


def test_abacus_row_map_is_simplicial():
    B = q_lower_star(identity_smap(nerve(chain_poset(2), 5)))
    F = abacus_row_map(B, -1)
    assert validate(F).passed
    F0 = abacus_row_map(B, 0)
    assert validate(F0).passed


def test_m_sizes_and_extraction():
    N = nerve(chain_poset(1), 4)
    F = identity_smap(N)
    B = q_lower_star(F)
    M, proj = build_M(B)
    assert validate(M).passed and validate(proj).passed
    assert len(M.level(1)) == len(N.level(1)) + len(B.level(0, 0)) + len(N.level(1))
    fib = extract_from_M(M, proj)
    for lvl in B.levels:
        assert tuple(x[1] for x in fib[lvl]) == B.level(*lvl)


def test_m_on_point_is_the_arrow_nerve():
    pt = nerve(chain_poset(0), 4)
    M, proj = build_M(q_lower_star(identity_smap(pt)))
    for n in range(5):
        assert len(M.level(n)) == n + 2


def test_m_dictionary_biconditional():
    fixtures = [
        identity_smap(nerve(chain_poset(2), 4)),
        identity_smap(punctured_chain_sset(3, 4)),
        poset_inclusion(chain_poset(1), chain_poset(2), 4),
    ]
    for F in fixtures:
        assert m_2segal_dictionary(F).passed


def test_p_star_tot_shapes():
    X = nerve(chain_poset(1), 5)
    A = p_star_tot(X)
    assert validate(A).passed
    assert len(A.bulk.level(0, 0)) == 3
    assert A.point_set == X.level(0)
    pt = nerve(chain_poset(0), 3)
    Apt = p_star_tot(pt)
    assert all(len(Apt.bulk.level(i, j)) == 1 for (i, j) in Apt.bulk.levels)


def test_boors_axioms_positive_and_mutated_pointing():
    X = nerve(chain_poset(2), 5)
    A = p_star_tot(X)
    assert boors_axioms(A).passed
    bad = p_star_tot(X)
    # move one pointing value off the degenerate edge
    c = bad.point_set[0]
    other = next(z for z in bad.bulk.level(0, 0) if z != bad.pointing[c])
    bad.pointing = dict(bad.pointing)
    bad.pointing[c] = other
    rep = boors_axioms(bad)
    assert not rep.passed


def test_boors_roundtrip_partial_monoid():
    rt = boors_roundtrip(two_segal_partial_monoid(5))
    assert all(r.passed for r in rt.values()), {
        k: r.passed for k, r in rt.items()
    }


def test_extension_precondition():
    X = punctured_chain_sset(3, 5)
    A = p_star_tot(X)
    B, rep = extend_sigma_to_d(A)
    assert B is None and rep.precondition is not None
    assert rep.exit_code() == 2


def test_half_roundtrip_and_vertical_failure():
    F = poset_inclusion(chain_poset(1), chain_poset(2), 5)
    rt = half_roundtrip(F)
    assert rt["half_axioms"].passed
    assert not rt["full_axioms"].passed
    assert rt["extension_valid"].passed
    assert rt["pointing_restriction"].passed
    assert rt["iso_with_kan"].passed


def test_ts_compat_and_pair_on_canonical_splittings():
    B = q_lower_star(identity_smap(nerve(chain_poset(2), 4)))
    assert ts_compat(B).passed
    assert invertibility_pair_check(B).passed


def test_ts_compat_needs_invertibility_without_stored_splittings():
    F = poset_inclusion(chain_poset(1), chain_poset(2), 4)
    B = q_lower_star(F)
    rep = ts_compat(B)
    assert rep.precondition is not None


def test_mutation_detection_condition_star():
    B = q_lower_star(identity_smap(nerve(chain_poset(1), 4)))
    bad = copy.deepcopy(B)
    tbl = bad.actions["f", None, (0, 0)]
    x = sorted(tbl, key=str)[0]
    tbl[x] = next(v for v in bad.level(-1, 1) if v != tbl[x])
    assert not (validate(bad).passed and condition_star(bad).passed)


def test_mutation_detection_bicomodule():
    B = q_lower_star(identity_smap(nerve(chain_poset(2), 4)))
    bad = copy.deepcopy(B)
    tbl = bad.actions["e", 0, (1, 1)]
    x = sorted(tbl, key=str)[0]
    tbl[x] = next(v for v in bad.level(0, 1) if v != tbl[x])
    rep = is_bicomodule_config(bad)
    vrep = validate(bad)
    assert not (vrep.passed and rep.passed)


def test_restrictions_along_r_j_p_q():
    N = nerve(chain_poset(1), 4)
    R = r_star(N)
    assert len(R.level(0, 0)) == 3
    # restricting the augmented total decalage to the pointing shape
    # recovers the zeroth degeneracy as pointing
    A = j_upper_star(R)
    assert A.point_set == N.level(0)
    assert A.pointing == N.degens[(0, 0)]
    # and agrees levelwise with the directly pointed total decalage
    A2 = p_star_tot(N)
    assert A.bulk.levels == A2.bulk.levels and A.pointing == A2.pointing
    F = identity_smap(N)
    F2 = q_upper_star(q_lower_star(F))
    assert all(F2.levels[n] == F.levels[n] for n in F2.levels)


def abacus_col_map(B, j):
    """The abacus maps as a simplicial map from the top decalage of
    column j to column j+1 (j >= -1)."""
    src = dec(col_sset(B, j), "top")
    tgt = col_sset(B, j + 1)
    T = min(src.trunc, tgt.trunc)
    levels = {n: {x: B.actions["f", None, (n + 1, j)][x] for x in B.level(n + 1, j)}
              for n in range(T + 1)}
    return SMap(sub_trunc(src, T), sub_trunc(tgt, T), levels)


def test_column_abacus_maps_are_right_fibrations():
    # upper stable with Segal bulk columns makes the column-wise abacus
    # maps right fibrations, including out of the augmentation column
    from segal_abacus.fibrations import is_right_fibration

    for F in (
        identity_smap(nerve(chain_poset(2), 5)),
        poset_inclusion(chain_poset(1), chain_poset(2), 5),
    ):
        B = q_lower_star(F)
        for j in (-1, 0, 1):
            m = abacus_col_map(B, j)
            if m.source.trunc >= 1:
                assert is_right_fibration(m).passed


def _old_level_witnesses(B1, B2, maps):
    """The bijection test as a multiset comparison of formatted ids."""
    aug = B1.has_aug_row() and B2.has_aug_row()
    return [Witness(f"level@{lvl}", "not a bijection", (lvl,))
            for lvl in dset_levels(min(B1.trunc, B2.trunc), with_aug_row=aug)
            if lvl not in maps or set(maps[lvl]) != set(B1.level(*lvl))
            or sorted(map(fmt_id, maps[lvl].values())) != sorted(map(fmt_id, B2.level(*lvl)))]


def test_dset_iso_report_bijection_matches_multiset_rule():
    B = q_lower_star(identity_smap(nerve(chain_poset(1), 3)))
    levels = dset_levels(B.trunc)
    ident = {lvl: {x: x for x in B.level(*lvl)} for lvl in levels}
    assert dset_iso_report(B, B, ident).holds is True
    a, b = B.level(0, 0)[:2]
    not_injective = {**ident, (0, 0): {**ident[0, 0], b: a}}
    c = B.level(-1, 1)[0]
    not_surjective = {**ident, (-1, 1): {**ident[-1, 1], c: "fresh"}}
    both = {**not_injective, (-1, 1): not_surjective[-1, 1]}
    for maps in (not_injective, not_surjective, both):
        rep = dset_iso_report(B, B, maps)
        assert rep.holds is False and rep.checked == len(levels)
        assert rep.witnesses == _old_level_witnesses(B, B, maps)
