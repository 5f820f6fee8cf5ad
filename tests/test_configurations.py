import copy
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus import configurations, presheaf
from segal_abacus.abacus import generators_into
from segal_abacus.configurations import (
    _pointing_sections,
    _top_splittings,
    abacus_row_map,
    aug_row_map,
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
    is_bicomodule_config,
    is_rel_upper_2segal,
    j_upper_star,
    m_2segal_dictionary,
    p_star_tot,
    pointed_col0,
    pointed_row0,
    q_lower_star,
    q_upper_star,
    r_star,
    splitting_checks,
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
    standard_map_corpus,
    standard_nerve_corpus,
    two_segal_partial_monoid,
    walking_iso_cat,
)
from segal_abacus.decalage import (
    AugBottomSplitSSet,
    BottomSplitSSet,
    PointedSSet,
    alpha_aug,
    comult,
    counit,
    dec,
    gamma,
    h_lower,
    h_unit_report,
    h_upper,
    h_counit_map,
    is_local_initial,
    is_local_terminal,
    pointing_comparison,
    sd_map,
)
from segal_abacus.fibrations import is_2segal
from segal_abacus.presheaf import (
    BULK_KINDS,
    BiSSet,
    CheckReport,
    DSet,
    SMap,
    SigmaSet,
    TruncSSet,
    _sorted_ids,
    action_target,
    bijection_witnesses,
    col_sset,
    colimit0,
    constant_sset,
    dset_levels,
    fmt_id,
    identity_smap,
    lift,
    pullback_pairs,
    row_sset,
    sub_trunc,
    through,
    validate,
)
from segal_abacus.reports import Witness
from segal_abacus.simplex import MonotoneMap


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
        assert m_2segal_dictionary(dictionary_conditions(F), q_lower_star(F)).passed


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


def test_boors_axioms_say_what_truncation_2_cannot_check():
    # at truncation 2 the bulk of p_*tot has no (1, 1) level and no row or
    # column of truncation 2: the pass rests on the pointings alone, and the
    # two bulk checks say so
    rep = boors_axioms(p_star_tot(punctured_chain_sset(3, 2, 3)))
    assert (rep.verdict, rep.checked) == ("pass", 20)
    assert rep.coverage == ["unverifiable:boors:double-segal:trunc<2",
                            "unverifiable:boors:stability:trunc<2"]
    half = boors_axioms(p_star_tot(punctured_chain_sset(3, 2, 3)), half=True)
    assert half.coverage == ["unverifiable:half:upper-stability:trunc<2"]
    # from truncation 3 on the squares see the defect, with no such line
    rep = boors_axioms(p_star_tot(punctured_chain_sset(3, 3, 3)))
    assert (rep.verdict, rep.checked, rep.coverage) == ("fail", 332, [])
    assert {w.site for w in rep.witnesses} == {"segal@2", "lower@(1,1)", "upper@(1,1)"}


def test_boors_roundtrip_partial_monoid():
    rt = boors_roundtrip(two_segal_partial_monoid(5))
    assert all(r.passed for r in rt.values()), {
        k: r.passed for k, r in rt.items()
    }


def test_extension_precondition():
    X = punctured_chain_sset(3, 5)
    A = p_star_tot(X)
    B, rep, _ = extend_sigma_to_d(A)
    assert B is None and rep.precondition is not None
    assert rep.exit_code() == 2


def test_half_roundtrip_and_vertical_failure():
    F = poset_inclusion(chain_poset(1), chain_poset(2), 5)
    rt = half_roundtrip(F)
    assert rt["half_axioms"].passed
    assert not rt["vertical_pointing"].passed
    assert rt["extension_valid"].passed
    assert rt["pointing_restriction"].passed
    assert rt["iso_with_kan"].passed


def test_ts_compat_and_pair_on_canonical_splittings():
    B = q_lower_star(identity_smap(nerve(chain_poset(2), 4)))
    assert splitting_checks(B)["ts_compat"].passed
    assert splitting_checks(B)["invertibility_pair"].passed


def _reference_top_splittings(A):
    """The top splittings ``extend_sigma_to_d`` once built and stored beside
    its result: column zero split by inverting the local-terminal
    comparison, each further column lifted from the one before through
    (e_top, d_top), and the augmentation row split through e_0 of row one.
    ``{(i, j): table}`` on the levels of the extension, or None when a lift
    misses (the stored code failed the extension there)."""
    bulk = A.bulk
    Tb, TD = bulk.trunc, bulk.trunc - 1
    col0 = _pointing_sections(pointing_comparison(pointed_col0(A), "top"))
    tcol = {0: {i: {b: cb[1] for b, cb in inv.items()} for i, inv in col0.items()}}
    for j in range(1, Tb + 1):
        tcol[j] = {}
        for i in range(Tb - j):
            d_top = bulk.actions["d", j, (i, j)]
            tcol[j][i], misses = lift(
                bulk.level(i + 1, j), bulk.actions["e", i + 1, (i + 1, j)],
                bulk.actions["d", j, (i + 1, j)],
                ((b, tcol[j - 1][i][d_top[b]]) for b in bulk.level(i, j)))
            if misses:
                return None
    levels = set(dset_levels(TD))
    out = {(i, j): dict(tcol[j][i]) for j in sorted(tcol) for i in sorted(tcol[j])
           if (i, j) in levels and action_target("t", (i, j)) in levels}
    for j in range(TD):  # the splitting out of (-1, j) lands in (0, j), of degree j + 1
        out[(-1, j)] = {z: bulk.actions["e", 0, (1, j)][tcol[j][0][z]]
                        for z in colimit0(col_sset(bulk, j))[0]}
    return out


@cache
def _nerve_extensions() -> list:
    """``(name, A, extension of A)`` for the pointed total decalage A of
    each 2-Segal nerve of the standard corpus."""
    return [(name, A, extend_sigma_to_d(A)[0])
            for name, X in standard_nerve_corpus(5) if is_2segal(X, "both").holds
            for A in [p_star_tot(X)]]


def test_stored_top_splittings_stay_on_the_extension():
    """An extension stores no top splittings; each one derived from it,
    out of level (i, j), is defined on that level and lands in level
    (i + 1, j): both are levels of the extension."""
    for name, _, B in _nerve_extensions():
        tsharp = _top_splittings(B)
        assert tsharp, name
        for lvl, table in tsharp.items():
            assert set(table) == set(B.level(*lvl)), (name, lvl)
            assert set(table.values()) <= set(B.level(*action_target("t", lvl))), (name, lvl)


def test_stored_and_derived_top_splittings_agree():
    """The top splittings the extension once lifted and stored
    (``_reference_top_splittings``) and those ``splitting_checks`` now
    derives as f^-1 s_0: on the 2-Segal
    nerves of the standard corpus the lift never misses, so its "no lift
    through (e_top, d_top)" failure had no input there, and the two agree
    wherever both are defined."""
    extensions = _nerve_extensions()
    assert len(extensions) == 21
    for name, A, B in extensions:
        stored = _reference_top_splittings(A)
        assert stored is not None, name
        derived = _top_splittings(B)
        shared = set(stored) & set(derived)
        assert shared, name
        assert all(stored[lvl] == derived[lvl] for lvl in shared), name


def test_splitting_checks_share_one_precondition():
    """Both splitting checks are undecided, for the one reason "abacus not
    invertible", exactly when t# = f^-1 s_0 cannot be derived; an
    invertible abacus with no top splitting (the Kan extension at
    truncation 0) leaves both vacuous."""
    empty = q_lower_star(identity_smap(nerve(chain_poset(1), 0)))
    assert has_invertible_abacus(empty).passed and _top_splittings(empty) == {}
    not_invertible = q_lower_star(poset_inclusion(chain_poset(1), chain_poset(2), 4))
    assert not has_invertible_abacus(not_invertible).passed
    for name in ("ts_compat", "invertibility_pair"):
        assert splitting_checks(empty)[name].verdict == "vacuous", name
        rep = splitting_checks(not_invertible)[name]
        assert (rep.verdict, rep.precondition) == ("precondition", "abacus not invertible"), name


def test_ts_compat_needs_invertibility_without_stored_splittings():
    F = poset_inclusion(chain_poset(1), chain_poset(2), 4)
    B = q_lower_star(F)
    rep = splitting_checks(B)["ts_compat"]
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
    assert A.pointing == N.actions["s", 0, 0]
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


def test_derived_structures_share_their_source_tables():
    """A derived map, pointing or extension table whose table is an
    existing table holds that table object, never a copy."""
    X = nerve(chain_poset(2), 4)
    for side, dropped in (("bottom", lambda n: 0), ("top", lambda n: n + 1)):
        eps = counit(X, side)
        assert all(eps.levels[n] is X.actions["d", dropped(n), n + 1] for n in range(4))
    delta = comult(X)
    assert all(delta.levels[n] is X.actions["s", 0, n + 1] for n in range(3))
    D = dec(X, "bottom")
    split = BottomSplitSSet(sub_trunc(D, D.trunc), {n: delta.levels[n] for n in range(D.trunc)})
    assert all(gamma(split).levels[n] is split.split[n] for n in range(D.trunc))
    F = identity_smap(X)
    assert all(sd_map(F).levels[n] is F.levels[2 * n + 1] for n in range(2))

    R = r_star(X)
    assert R.actions["d", 0, (0, 1)] is X.actions["d", 1, 2] and R.actions["e", 0, (1, 0)] is X.actions["d", 0, 2]
    Q = q_lower_star(F)
    assert all(aug_row_map(Q).levels[n] is Q.actions["e", 0, (0, n)] for n in range(4))
    assert all(abacus_row_map(Q, 0).levels[n] is Q.actions["f", None, (1, n)] for n in range(3))

    A = p_star_tot(X)
    assert A.pointing is X.actions["s", 0, 0]
    assert pointed_row0(A).pointing is A.pointing and pointed_col0(A).pointing is A.pointing
    B, rep, _ = extend_sigma_to_d(A)
    assert rep.passed
    shared = [key for key in B.actions
              if key[0] in BULK_KINDS and min(key[2]) >= 0 and min(action_target(key[0], key[2])) >= 0]
    assert shared and all(B.actions[key] is A.bulk.actions[key] for key in shared)
    assert j_upper_star(B).pointing is B.actions["ssub", None, (0, -1)]
    H = h_lower(PointedSSet(X, ("c",), {"c": 0}))
    assert h_upper(H).pointing is H.aug_split

    C = constant_sset(["p", "q"], 3)
    assert len({id(table) for table in C.actions.values()}) == 1
    assert C.actions["d", 0, 1] == {"p": "p", "q": "q"}


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


# ---------------------------------------------------------------------------
# The bijection checks against their loop-by-loop references


def _reference_unit_iso(B):
    """``unit_iso`` with the pullback filtered out of a product and its own
    injective and surjective loops."""
    witnesses = []
    checked = 0
    rows = {i for (i, j) in B.levels}
    if -1 not in rows:
        return CheckReport.precondition_failure("unit_iso", "no augmentation row")
    for (i, j) in sorted(B.levels, key=lambda lv: (lv[0] + 1 + lv[1], lv)):
        if i < 0 or j < 0:
            continue
        eta = {}
        for b in B.level(i, j):
            lvl, cur = (i, j), b
            for k in range(j, -1, -1):
                lvl, cur = action_target("d", lvl), B.actions["d", k, lvl][cur]
            xc = cur
            lvl, cur = (i, j), b
            for _ in range(i + 1):
                lvl, cur = action_target("f", lvl), B.actions["f", None, lvl][cur]
            eta[b] = (xc, cur)
        want = set()
        fx = {}
        for x in B.level(i, -1):
            lvl, cur = (i, -1), x
            for _ in range(i + 1):
                lvl, cur = action_target("f", lvl), B.actions["f", None, lvl][cur]
            fx[x] = cur
        for x in B.level(i, -1):
            for y in B.level(-1, i + 1 + j):
                lvl, cur = (-1, i + 1 + j), y
                for k in range(i + 1 + j, i, -1):
                    lvl, cur = action_target("d", lvl), B.actions["d", k, lvl][cur]
                if cur == fx[x]:
                    want.add((x, y))
        seen = {}
        for b, im in eta.items():
            checked += 1
            if im not in want:
                witnesses.append(Witness(f"unit@({i},{j})", "unit leaves the pullback", (b,)))
            elif im in seen:
                witnesses.append(Witness(f"unit@({i},{j})", "unit not injective", (seen[im], b)))
            seen[im] = b
        for im in sorted(want - set(seen), key=fmt_id):
            witnesses.append(Witness(f"unit@({i},{j})", "unit not surjective", im))
    return CheckReport.from_witnesses("unit_iso", witnesses, checked)


def _reference_has_invertible_abacus(B):
    witnesses = []
    checked = 0
    for lvl, table in B.abacus_tables("f"):
        tgt = B.level(*action_target("f", lvl))
        checked += 1
        seen = {}
        for x, y in table.items():
            if y in seen:
                witnesses.append(Witness(f"f@{lvl}", "abacus not injective", (seen[y], x)))
            seen[y] = x
        for y in tgt:
            if y not in seen:
                witnesses.append(Witness(f"f@{lvl}", "abacus not surjective", (y,)))
    return CheckReport.from_witnesses("has_invertible_abacus", witnesses, checked)


# ``ts_compat``, ``_top_splittings`` and ``invertibility_pair_check`` as
# they stood before ``splitting_checks`` decided invertibility once for both
_NOT_INVERTIBLE = "abacus not invertible"


def _reference_ts_compat(B: DSet) -> CheckReport:
    """The key splitting compatibility: the top degeneracy and the top
    splitting agree after the bottom splitting, including on the
    augmentation column."""
    witnesses = []
    checked = 0
    tsharp = _reference_derived_top_splittings(B)
    if tsharp is None:
        return CheckReport.precondition_failure("ts_compat", _NOT_INVERTIBLE)
    for (i, j), ssub in B.abacus_tables("ssub"):
        if i < 0:
            continue
        mid = action_target("ssub", (i, j))
        t_top = B.actions.get(("t", i, mid))
        if mid not in tsharp or t_top is None:
            continue
        for b in B.level(i, j):
            checked += 1
            sb = ssub[b]
            if t_top[sb] != tsharp[mid][sb]:
                witnesses.append(Witness(f"ts@({i},{j})", "t_top s# = t# s#", (b,)))
    return CheckReport.from_witnesses("ts_compat", witnesses, checked)


def _reference_derived_top_splittings(B: DSet):
    """The top splittings t# = f^{-1} s_0 (s# in place of s_0 on the
    augmentation column), read off B itself: ``{(i, j): table}``, empty
    when no level has one, None when the abacus maps are not invertible.
    ``ts_compat`` and ``invertibility_pair_check`` read only these, so an
    extension and its ``dset`` file are judged alike."""
    if not has_invertible_abacus(B).passed:
        return None
    inv = {lvl: {v: k for k, v in tab.items()} for lvl, tab in B.abacus_tables("f")}
    out = {}
    for lvl in B.levels:
        up = action_target("t", lvl)
        # s_0 on the bulk, the splitting s# on the augmentation column
        sec = B.actions.get(("s", 0, lvl) if lvl[1] >= 0 else ("ssub", None, lvl))
        if up in inv and sec is not None:
            out[lvl] = {b: inv[up][sec[b]] for b in B.level(*lvl)}
    return out


def _reference_invertibility_pair_check(B: DSet) -> CheckReport:
    """g = d_bot t# inverts f = e_top s# wherever both splittings exist."""
    witnesses = []
    checked = 0
    tsharp = _reference_derived_top_splittings(B)
    if tsharp is None:
        return CheckReport.precondition_failure("invertibility_pair", _NOT_INVERTIBLE)
    for (i, j), ftab in B.abacus_tables("f"):
        tgt = action_target("f", (i, j))
        d_bot = B.actions.get(("d", 0, action_target("t", tgt)))
        if tgt not in tsharp or d_bot is None:
            continue
        g = {y: d_bot[tsharp[tgt][y]] for y in B.level(*tgt)}
        for b in B.level(i, j):
            checked += 1
            if g[ftab[b]] != b:
                witnesses.append(Witness(f"gf@({i},{j})", "d_bot t# f = id", (b,)))
        for y in B.level(*tgt):
            checked += 1
            if ftab[g[y]] != y:
                witnesses.append(Witness(f"fg@({i},{j})", "f d_bot t# = id", (y,)))
    return CheckReport.from_witnesses("invertibility_pair", witnesses, checked)


def _reference_alpha_aug(X, side):
    """``alpha_aug``'s levels, each element walked through ``TruncSSet.face``:
    d_m out of level m, m = n + 1 ... 1, on the bottom side; d_0 on the top."""
    D = dec(X, side)
    levels = {}
    for n in range(D.trunc + 1):
        table = {}
        for x in D.level(n):
            y, m = x, n + 1
            while m > 0:
                y = X.face(m, m if side == "bottom" else 0, y)
                m -= 1
            table[x] = y
        levels[n] = table
    return levels


def _reference_local_report(P, side, name):
    """``is_local_initial`` (bottom) or ``is_local_terminal`` (top) with the
    pullback filtered out of a product."""
    X = P.sset
    if X.trunc < 1:
        return CheckReport.precondition_failure(name, "trunc too small")
    al = _reference_alpha_aug(X, side)
    eps = counit(X, side)
    compare = {
        n: {(c, x): eps.at(n, x)
            for c in P.point_set for x in X.level(n + 1) if al[n][x] == P.pointing[c]}
        for n in al
    }
    witnesses = []
    checked = 0
    for n in sorted(compare):
        seen = {}
        for z, img in compare[n].items():
            checked += 1
            if img in seen:
                witnesses.append(Witness(f"level@{n}", "comparison not injective", (seen[img], z)))
            seen[img] = z
        for x in X.level(n):
            if x not in seen:
                witnesses.append(Witness(f"level@{n}", "comparison not surjective", (x,)))
    return CheckReport.from_witnesses(name, witnesses, checked)


def _reference_aug_pullback_compare(P, side):
    """``pointing_comparison`` as it was first written: per level n, the
    comparison composite to X on the pullback of the pointed constant
    against dec's canonical augmentation."""
    X = P.sset
    al = _reference_alpha_aug(X, side)
    eps = counit(X, side)
    return {
        n: {(c, x): eps.at(n, x)
            for c, x in pullback_pairs(P.pointing, al[n], P.point_set, X.level(n + 1))}
        for n in al
    }


def _reference_pointing_sections(A, kind):
    """The extension's inverted pointing comparisons before
    ``pointing_comparison``, read off the bulk of the pointed bisimplicial
    set A: ``{n: {b: (c, b')}}`` along row zero (``kind`` "d") or column
    zero ("e"), or None when one is not a bijection."""
    bulk = A.bulk
    row = kind == "d"

    def at(m):
        return (0, m) if row else (m, 0)

    out = {}
    for n in range(bulk.trunc):
        upper = bulk.level(*at(n + 1))
        down = [bulk.actions[kind, m if row else 0, at(m)] for m in range(n + 1, 0, -1)]
        key = bulk.actions[kind, 0 if row else n + 1, at(n + 1)]
        pairs = pullback_pairs(A.pointing, {b: through(down, b) for b in upper}, A.point_set, upper)
        if bijection_witnesses("", "", ((p, (key[p[1]],)) for p in pairs),
                               [(b,) for b in bulk.level(*at(n))]):
            return None
        out[n] = {key[b]: (c, b) for c, b in pairs}
    return out


def _reference_h_unit_report(A, name="h_unit"):
    B = h_lower(h_upper(A))
    X = A.sset
    witnesses = []
    checked = 0
    for n in range(B.sset.trunc + 1):
        img = {}
        for x in X.level(n):
            checked += 1
            y, m = x, n
            while m > 0:
                y = X.face(m, m, y)
                m -= 1
            target = (A.aug[y], A.split[n][x])
            if target not in set(B.sset.level(n)):
                witnesses.append(Witness(f"unit@{n}", "unit misses the pullback", (x,)))
                continue
            if target in img:
                witnesses.append(Witness(f"unit@{n}", "unit not injective", (img[target], x)))
            img[target] = x
        for z in B.sset.level(n):
            if z not in img:
                witnesses.append(Witness(f"unit@{n}", "unit not surjective", (z,)))
    return CheckReport.from_witnesses(name, witnesses, checked)


def _reference_q_lower_star(F):
    """``q_lower_star`` element by element: each element's x and y parts
    read, and its image packed, once per generator."""

    def x_part(lvl, elem):
        i, j = lvl
        return elem if j == -1 else None if i == -1 else elem[0]

    def y_part(lvl, elem):
        i, j = lvl
        return F.at(i, elem) if j == -1 else elem if i == -1 else elem[1]

    def pack(lvl, x, y):
        i, j = lvl
        return x if j == -1 else y if i == -1 else (x, y)

    X, Y = F.source, F.target
    T = min(X.trunc, Y.trunc)
    levels = {}
    for (i, j) in dset_levels(T):
        if j == -1:
            levels[(i, j)] = X.level(i)
        elif i == -1:
            levels[(i, j)] = Y.level(j)
        else:
            inc = Y.act_tables(MonotoneMap(i + 1, i + j + 2, tuple(range(i + 1))))
            ys = Y.level(i + 1 + j)
            levels[(i, j)] = _sorted_ids(pullback_pairs(
                F.levels[i], {y: through(inc, y) for y in ys}, X.level(i), ys))
    actions = {}
    for lvl, gens in generators_into(T).items():
        for kind, k, tgt, g in gens:
            x_tables = X.act_tables(g.top_part()) if tgt[0] >= 0 else None
            y_tables = Y.act_tables(g.carrier)
            table = {}
            for elem in levels[lvl]:
                nx = through(x_tables, x_part(lvl, elem)) if x_tables is not None else None
                ny = through(y_tables, y_part(lvl, elem))
                table[elem] = pack(tgt, nx, ny)
            actions[kind, k, lvl] = table
    return DSet(T, levels, actions)


def test_q_lower_star_matches_reference():
    """The same levels, in the same order, and the same action tables as the
    element-by-element construction, on every standard map and on the
    punctured-chain identities of the dictionary suite."""
    maps = [F for _, F in standard_map_corpus(4)]
    maps += [identity_smap(punctured_chain_sset(m, 4)) for m in (3, 4)]
    for F in maps:
        B, ref = q_lower_star(F), _reference_q_lower_star(F)
        assert list(B.levels.items()) == list(ref.levels.items())
        assert list(B.actions) == list(ref.actions)
        for key, table in ref.actions.items():
            assert list(B.actions[key].items()) == list(table.items()), key


@cache
def _kan_extensions():
    """The Kan extensions of the standard maps at truncation 4."""
    return tuple(q_lower_star(F) for _, F in standard_map_corpus(4))


def _redirect(draw, tables: dict, target_of, times):
    """Copy ``tables`` with up to ``times`` entries sent to another element
    of their target level."""
    tables = dict(tables)
    keys = sorted(tables, key=str)
    for _ in range(draw(st.integers(0, times))):
        key = draw(st.sampled_from(keys))
        targets = target_of(key)
        if tables[key] and targets:
            x = draw(st.sampled_from(sorted(tables[key], key=fmt_id)))
            tables[key] = {**tables[key], x: draw(st.sampled_from(targets))}
    return tables


@st.composite
def _mutated_kan_extensions(draw):
    B = draw(st.sampled_from(_kan_extensions()))
    # the unit and the invertibility check read only the d and f actions
    read = {key: table for key, table in B.actions.items() if key[0] in ("d", "f")}
    actions = _redirect(draw, read, lambda key: B.level(*action_target(key[0], key[2])), 3)
    levels = dict(B.levels)
    if draw(st.booleans()):
        # a bulk level missing one element: a unit into the pullback, one to
        # one, that misses a pair
        lvl = draw(st.sampled_from(sorted((lv for lv in levels if min(lv) >= 0 and levels[lv]), key=str)))
        levels[lvl] = levels[lvl][1:]
    return DSet(B.trunc, levels, {**B.actions, **actions})


@st.composite
def _mutated_sigmasets(draw):
    """A Kan extension's pointing restriction with its pointing and its
    point set mutated."""
    A = j_upper_star(draw(st.sampled_from(_kan_extensions())))
    level0 = A.bulk.level(0, 0)
    extra = [f"extra{k}" for k in range(draw(st.integers(0, 1)))]
    pointing = {**A.pointing, **{c: draw(st.sampled_from(level0)) for c in extra}}
    for c in draw(st.lists(st.sampled_from(A.point_set), max_size=2)):
        pointing[c] = draw(st.sampled_from(level0))
    return SigmaSet(A.bulk, A.point_set + tuple(extra), pointing)


@st.composite
def _mutated_pointings(draw):
    """Row zero or column zero of a mutated pointing restriction."""
    pointed = draw(st.sampled_from([pointed_row0, pointed_col0]))
    return pointed(draw(_mutated_sigmasets()))


def _same_report(got, ref):
    assert (got.verdict, got.checked, got.witnesses) == (ref.verdict, ref.checked, ref.witnesses)


def _ordered(levels):
    """Nested level tables as lists, so that equality also compares order."""
    return [(n, list(table.items())) for n, table in levels.items()]


def _eager_unit_iso(B):
    """``unit_iso`` as it stood before it explained only when read: every
    level's witnesses built at once."""
    witnesses = []
    checked = 0
    if -1 not in {i for (i, j) in B.levels}:
        return CheckReport.precondition_failure("unit_iso", "no augmentation row")
    for (i, j) in sorted(B.levels, key=lambda lv: (lv[0] + 1 + lv[1], lv)):
        if i < 0 or j < 0:
            continue
        to_col = [B.actions["d", k, (i, k)] for k in range(j, -1, -1)]
        to_row = [B.actions["f", None, (i - m, j + m)] for m in range(i + 1)]
        eta = {b: (through(to_col, b), through(to_row, b)) for b in B.level(i, j)}
        col_to_row = [B.actions["f", None, (i - m, m - 1)] for m in range(i + 1)]
        fx = {x: through(col_to_row, x) for x in B.level(i, -1)}
        top = [B.actions["d", k, (-1, k)] for k in range(i + 1 + j, i, -1)]
        ys = B.level(-1, i + 1 + j)
        want = pullback_pairs(fx, {y: through(top, y) for y in ys}, B.level(i, -1), ys)
        inside = set(want)
        site = f"unit@({i},{j})"
        checked += len(eta)
        witnesses += [Witness(site, "unit leaves the pullback", (b,)) for b, im in eta.items()
                      if im not in inside]
        witnesses += bijection_witnesses(
            site, "unit", ((b, im) for b, im in eta.items() if im in inside), want)
    return CheckReport.from_witnesses("unit_iso", witnesses, checked)


def _eager_has_invertible_abacus(B):
    """``has_invertible_abacus`` as it stood before it explained only when
    read."""
    witnesses = []
    checked = 0
    for lvl, table in B.abacus_tables("f"):
        checked += 1
        witnesses += bijection_witnesses(f"f@{lvl}", "abacus", ((x, (y,)) for x, y in table.items()),
                                         [(y,) for y in B.level(*action_target("f", lvl))])
    return CheckReport.from_witnesses("has_invertible_abacus", witnesses, checked)


@settings(max_examples=60, deadline=None)
@given(_mutated_kan_extensions())
def test_unit_and_invertibility_match_references(B):
    """Against loop-by-loop references and against the eager versions: a
    refuted report is pending until its witnesses are read, and then
    equals the eager report, field for field."""
    from segal_abacus.reports import _held

    for check, reference, eager in ((unit_iso, _reference_unit_iso, _eager_unit_iso),
                                    (has_invertible_abacus, _reference_has_invertible_abacus,
                                     _eager_has_invertible_abacus)):
        got = check(B)
        assert callable(_held(got)) == (got.verdict == "fail")
        _same_report(got, reference(B))
        assert got == eager(B) and got.to_dict() == eager(B).to_dict()


@st.composite
def _mutated_splittings(draw):
    """A 2-Segal nerve's extension or a Kan extension with one entry of a
    copy of one of its ``f``, ``ssub``, ``t`` or ``s`` tables sent to
    another element of that table's target level."""
    B = draw(st.sampled_from([B for _, _, B in _nerve_extensions()] + list(_kan_extensions())))
    kind = draw(st.sampled_from(("f", "ssub", "t", "s")))
    key = draw(st.sampled_from(sorted((key for key in B.actions if key[0] == kind), key=str)))
    table = B.actions[key]
    x = draw(st.sampled_from(sorted(table, key=fmt_id)))
    others = [y for y in B.level(*action_target(kind, key[2])) if y != table[x]]
    y = draw(st.sampled_from(others)) if others else table[x]
    return DSet(B.trunc, B.levels, {**B.actions, key: {**table, x: y}})


def test_splitting_checks_match_references():
    """``splitting_checks`` reports what ``has_invertible_abacus`` and the
    two splitting checks that each derived t# on their own report, on
    mutated extensions that reach both outcomes of each check."""
    outcomes = set()

    @settings(max_examples=100, deadline=None)
    @given(_mutated_splittings())
    def agree(B):
        got = splitting_checks(B)
        assert list(got.items()) == [("invertible_abacus", has_invertible_abacus(B)),
                                     ("ts_compat", _reference_ts_compat(B)),
                                     ("invertibility_pair", _reference_invertibility_pair_check(B))]
        outcomes.update((name, rep.verdict) for name, rep in got.items())

    agree()
    assert {(name, verdict) for name in ("invertible_abacus", "ts_compat", "invertibility_pair")
            for verdict in ("pass", "fail")} <= outcomes


@settings(max_examples=60, deadline=None)
@given(_mutated_pointings(), st.data())
def test_local_pointings_and_h_unit_match_references(P, data):
    X = P.sset
    faces = {key: table for key, table in X.actions.items() if key[0] == "d"}
    faces = _redirect(data.draw, faces, lambda key: X.level(key[2] - 1), 2)
    Q = PointedSSet(TruncSSet(X.trunc, X.levels, {**X.actions, **faces}), P.point_set, P.pointing)
    for side in ("bottom", "top"):
        assert _ordered(alpha_aug(Q.sset, side).levels) == _ordered(_reference_alpha_aug(Q.sset, side))
    _same_report(is_local_initial(Q), _reference_local_report(Q, "bottom", "is_local_initial"))
    _same_report(is_local_terminal(Q), _reference_local_report(Q, "top", "is_local_terminal"))
    # the unit needs a genuine simplicial set under the split structure
    A = h_lower(P)
    split = _redirect(data.draw, A.split, lambda n: A.sset.level(n + 1), 2)
    aug = _redirect(data.draw, {0: A.aug}, lambda _: A.aug_level, 1)[0]
    A = AugBottomSplitSSet(A.sset, split, A.aug_level, aug, A.aug_split)
    _same_report(h_unit_report(A), _reference_h_unit_report(A))


@settings(max_examples=60, deadline=None)
@given(_mutated_sigmasets(), st.data())
def test_pointing_comparison_and_sections_match_references(A, data):
    """One comparison backs the local checks, ``h_lower``, ``h_counit_map``
    and the extension's first splittings; on mutated pointings and faces it
    equals the pullback each of them used to build, and its inverse equals
    the old sections exactly where the local check passes."""
    # the faces along row zero and column zero, which the comparisons read
    faces = {key: table for key, table in A.bulk.actions.items()
             if key[0] == "d" and key[2][0] == 0 or key[0] == "e" and key[2][1] == 0}
    faces = _redirect(data.draw, faces, lambda key: A.bulk.level(*action_target(key[0], key[2])), 2)
    A = SigmaSet(BiSSet(A.bulk.trunc, A.bulk.levels, {**A.bulk.actions, **faces}),
                 A.point_set, A.pointing)
    for pointed, side, kind, local in ((pointed_row0, "bottom", "d", is_local_initial),
                                       (pointed_col0, "top", "e", is_local_terminal)):
        P = pointed(A)
        compare = pointing_comparison(P, side)
        assert _ordered(compare) == _ordered(_reference_aug_pullback_compare(P, side))
        ref = _reference_pointing_sections(A, kind)
        assert (ref is not None) == local(P).passed
        if ref is not None:
            assert _ordered(_pointing_sections(compare)) == _ordered(ref)
        if side == "bottom":
            assert h_lower(P).sset.levels == {n: _sorted_ids(pairs) for n, pairs in compare.items()}
            assert h_counit_map(P).levels == compare


def _assert_levels_keyed(levels: dict):
    for lv, xs in levels.items():
        assert type(xs) is presheaf._Canonical, lv
        assert list(xs.keys) == [fmt_id(x) for x in xs], lv


def test_every_level_keeps_the_keys_of_its_elements(tmp_path, monkeypatch):
    """Every level the constructions and the file loader build is canonical
    and keeps the ``fmt_id`` of each element: the corpus, the Kan
    extensions, the relative upper 2-Segal pullbacks, the packaged total
    spaces and ``h_lower``'s levels, sorted with their parts' keys; the
    extensions; the punctured chains and the colimit classes, which are
    cuts; and every structure read back from its file."""
    from segal_abacus import configurations, pjson

    pulled = []
    monkeypatch.setattr(configurations, "is_segal", lambda P: pulled.append(P.levels) or CheckReport("s"))
    found = [X.levels for _, X in standard_nerve_corpus(4)]
    for _, F in standard_map_corpus(3):
        B = q_lower_star(F)
        M, proj = build_M(B)
        configurations.is_rel_upper_2segal(F)
        found += [B.levels, M.levels, proj.target.levels]
    assert pulled
    found += pulled
    for _, A, B in _nerve_extensions():
        found += [A.bulk.levels, B.levels, h_lower(pointed_row0(A)).sset.levels]
        found.append({i: colimit0(row_sset(A.bulk, i))[0] for i in range(A.bulk.trunc)})
    found.append(punctured_chain_sset(4, 4).levels)
    path = str(tmp_path / "file.json")
    for P in (nerve(chain_poset(2), 3), q_lower_star(standard_map_corpus(3)[0][1]),
              standard_map_corpus(3)[1][1], p_star_tot(nerve(chain_poset(2), 3))):
        pjson.dump(P, path)
        Q = pjson.load(path)
        for part in (Q, getattr(Q, "source", None), getattr(Q, "target", None), getattr(Q, "bulk", None)):
            if isinstance(getattr(part, "levels", None), dict) and not isinstance(part, SMap):
                found.append(part.levels)
        if isinstance(Q, SigmaSet):
            found.append({"point": Q.point_set})
    for levels in found:
        _assert_levels_keyed(levels)


def _changed_restriction(A: SigmaSet, part: str) -> SigmaSet:
    """A with one level, its pointing or one action table changed."""
    bulk = A.bulk
    if part == "level":
        levels = {**bulk.levels, (1, 0): bulk.level(1, 0)[1:]}
        return SigmaSet(BiSSet(bulk.trunc, levels, bulk.actions), A.point_set, A.pointing)
    if part == "pointing":
        c = A.point_set[0]
        other = next(b for b in bulk.level(0, 0) if b != A.pointing[c])
        return SigmaSet(bulk, A.point_set, {**A.pointing, c: other})
    key = ("d", 0, (0, 1))
    x = bulk.level(0, 1)[0]
    other = next(b for b in bulk.level(0, 0) if b != bulk.actions[key][x])
    actions = {**bulk.actions, key: {**bulk.actions[key], x: other}}
    return SigmaSet(BiSSet(bulk.trunc, bulk.levels, actions), A.point_set, A.pointing)


@pytest.mark.parametrize("part", ["level", "pointing", "table"])
def test_pointing_restriction_fails_on_a_changed_restriction(monkeypatch, part):
    """``boors_roundtrip`` compares the extension's pointing restriction
    with its input: a restriction that differs in one level, in the
    pointing or in one action table reads ``pointing_restriction: fail``."""
    X = nerve(chain_poset(2), 5)
    assert boors_roundtrip(X)["pointing_restriction"].verdict == "pass"
    real = configurations.j_upper_star
    monkeypatch.setattr(configurations, "j_upper_star", lambda B: _changed_restriction(real(B), part))
    assert boors_roundtrip(X)["pointing_restriction"].verdict == "fail"


def test_half_roundtrip_stops_at_a_failed_gate():
    """On a punctured chain, which is not 2-Segal, the half axioms fail, so
    no extension is built and nothing after it is reported."""
    out = half_roundtrip(identity_smap(punctured_chain_sset(3, 4)))
    assert list(out) == ["half_axioms", "vertical_pointing", "extension_valid"]
    assert out["half_axioms"].verdict == "fail"
    assert out["extension_valid"].verdict == "precondition"


def test_preconditions_name_what_is_missing():
    """Each check says why it cannot decide: a pointed set with no level
    above zero, a half extension with no augmentation row, and a map too
    shallow for the relative upper 2-Segal check, beside which the
    dictionary is undecided."""
    P = PointedSSet(nerve(chain_poset(1), 0), (0,), {0: 0})
    assert is_local_initial(P).precondition == "trunc too small"
    X = nerve(chain_poset(2), 4)
    Bh, rep, _ = extend_sigma_to_d(j_upper_star(q_lower_star(identity_smap(X))), half=True)
    assert rep.passed
    assert unit_iso(Bh).precondition == "no augmentation row"
    F = identity_smap(nerve(chain_poset(2), 2))
    assert is_rel_upper_2segal(F).precondition == "needs trunc >= 3"
    dictionary = m_2segal_dictionary(dictionary_conditions(F), q_lower_star(F))
    assert dictionary.verdict == "vacuous"
    assert dictionary.coverage == ["unverifiable:m_2segal_dictionary:undecided-side"]


def test_extension_of_a_bulk_at_truncation_0_fails_the_pointing_axioms():
    """A bulk of truncation 0 has a zeroth row too shallow to point, so its
    axioms gate stops the extension, with or without the augmentation
    row: on every nerve of ``standard_nerve_corpus(1)`` the horizontal
    pointing reports "trunc too small" and the extension the failed
    axioms."""
    cases = [(p_star_tot(X), half) for _, X in standard_nerve_corpus(1) for half in (False, True)]
    assert len(cases) == 42
    for A, half in cases:
        assert A.bulk.trunc == 0
        B, rep, axioms = extend_sigma_to_d(A, half=half)
        assert B is None
        assert rep.precondition == "pointing axioms fail"
        assert axioms.precondition == "trunc too small"


def test_dictionary_names_the_two_sides_that_disagree():
    """``m_2segal_dictionary`` compares the conditions it is handed with the
    total space of the configuration it is handed: the conditions of the
    identity of a chain's nerve hold, but the total space of a punctured
    chain is not 2-Segal, so it fails and names both sides."""
    conds = dictionary_conditions(identity_smap(nerve(chain_poset(2), 4)))
    report = m_2segal_dictionary(conds, q_lower_star(identity_smap(punctured_chain_sset(4, 4))))
    assert report.verdict == "fail"
    assert [(w.site, w.equation, w.offenders) for w in report.witnesses] == [
        ("m_2segal_dictionary", "conditions on F match 2-Segal total space",
         ("conditions=True", "total=False"))]
