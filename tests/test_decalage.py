import copy
import random
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus.corpus import (
    chain_poset,
    diamond_poset,
    downset_inclusion,
    nerve,
    poset_cat,
    random_poset_corpus,
    two_segal_partial_monoid,
    upset_inclusion,
    vee_poset,
)
from segal_abacus.decalage import (
    AugBottomSplitSSet,
    BottomSplitSSet,
    PointedSSet,
    alpha_aug,
    comult,
    counit,
    dec,
    dec_map,
    h_counit_map,
    h_lower,
    h_unit_report,
    h_upper,
    is_local_initial,
    is_local_terminal,
    is_rigid,
    pointing_comparison,
    sd,
    sd_map,
    tot,
)
from segal_abacus.fibrations import (
    cartesian_on,
    is_left_fibration,
    is_right_fibration,
)
from segal_abacus.presheaf import (
    CheckReport,
    SMap,
    TruncSSet,
    Witness,
    constant_sset,
    identity_smap,
    lift,
    sub_trunc,
    validate,
    validate_coalgebra,
)

from reference import Square


def test_dec_levels_and_counts():
    N = nerve(chain_poset(1), 5)
    D = dec(N, "bottom")
    assert D.trunc == 4
    assert len(D.level(0)) == len(N.level(1)) == 3
    assert validate(D).passed
    C = constant_sset(["x"], 3)
    DC = dec(C, "bottom")
    assert DC.level(2) == C.level(3)


def test_dec_sides_commute():
    for X in (nerve(chain_poset(2), 5), two_segal_partial_monoid(5)):
        A = dec(dec(X, "top"), "bottom")
        B = dec(dec(X, "bottom"), "top")
        assert A.levels == B.levels
        assert A.actions == B.actions


def test_counit_and_comult_laws():
    X = nerve(chain_poset(2), 5)
    eps = counit(X, "bottom")
    assert validate(eps).passed
    delta = comult(X)
    assert validate(delta).passed
    D = dec(X, "bottom")
    # counit law on the canonical coalgebra
    for n in range(delta.source.trunc):
        for x in delta.source.level(n):
            assert D.face(n + 1, 0, delta.at(n, x)) == x


def test_alpha_aug_degree_zero_is_second_face():
    X = nerve(chain_poset(2), 4)
    al = alpha_aug(X, "bottom")
    assert validate(al).passed
    for x in al.source.level(0):
        assert al.at(0, x) == X.face(1, 1, x)


def test_tot_and_sd_shapes():
    X = nerve(chain_poset(2), 5)
    T = tot(X)
    assert validate(T).passed
    assert len(T.level(0, 0)) == 6
    S = sd(X)
    assert validate(S).passed
    assert S.level(0) == X.level(1)


def test_counit_fibration_characterization():
    # Segal sets: the top counit is a right fibration, the bottom a left one
    N = nerve(diamond_poset(), 5)
    assert is_right_fibration(counit(N, "top")).passed
    assert is_left_fibration(counit(N, "bottom")).passed
    P = two_segal_partial_monoid(5)
    assert not is_right_fibration(counit(P, "top")).passed


def test_dec_of_left_fibration_is_cartesian():
    N = nerve(chain_poset(2), 5)
    eps = counit(N, "bottom")  # a left fibration over a Segal base
    assert is_left_fibration(eps).passed
    assert cartesian_on(dec_map(eps, "bottom"), "all").passed


def canonical_split(X):
    """The comultiplication coalgebra on the bottom decalage."""
    D = dec(X, "bottom")
    delta = comult(X)
    split = {n: dict(delta.levels[n]) for n in range(D.trunc)}
    return BottomSplitSSet(sub_trunc(D, D.trunc), split)


def test_coalgebra_validation_and_rigidity():
    P = two_segal_partial_monoid(5)
    BS = canonical_split(P)
    assert validate_coalgebra(BS).passed
    assert is_rigid(BS).passed


def nonrigid_split_fixture():
    """A valid bottom-split set whose structure map is not cartesian.

    One vertex b with a loop e and a filler Z with faces (e, sb, sb); the
    splitting sends b to its degenerate edge and e to Z.  The degenerate
    square witness: s_0 e also sits over the basepoint but is not split.
    """
    levels = {0: ("b",), 1: ("e", "sb"), 2: ("Z", "s0e", "s1e", "ssb")}
    actions = {
        ("d", 0, 1): {"sb": "b", "e": "b"},
        ("d", 1, 1): {"sb": "b", "e": "b"},
        ("d", 0, 2): {"ssb": "sb", "s0e": "e", "s1e": "sb", "Z": "e"},
        ("d", 1, 2): {"ssb": "sb", "s0e": "e", "s1e": "e", "Z": "sb"},
        ("d", 2, 2): {"ssb": "sb", "s0e": "sb", "s1e": "e", "Z": "sb"},
        ("s", 0, 0): {"b": "sb"},
        ("s", 0, 1): {"sb": "ssb", "e": "s0e"},
        ("s", 1, 1): {"sb": "ssb", "e": "s1e"},
    }
    X = TruncSSet(2, levels, actions)
    split = {0: {"b": "sb"}, 1: {"sb": "ssb", "e": "Z"}}
    return BottomSplitSSet(X, split)


def test_non_rigid_coalgebra_detected():
    BS = nonrigid_split_fixture()
    assert validate(BS.sset).passed
    assert validate_coalgebra(BS).passed
    rep = is_rigid(BS)
    assert not rep.passed
    assert any("not surjective" in w.equation for w in rep.witnesses)
    # empty split structure is vacuously rigid
    empty = BottomSplitSSet(constant_sset((), 2), {0: {}, 1: {}})
    assert validate_coalgebra(empty).passed
    assert is_rigid(empty).passed


def test_coalgebra_mutation_detection():
    BS = canonical_split(nerve(chain_poset(2), 5))
    assert validate_coalgebra(BS).passed
    bad = copy.deepcopy(BS)
    tbl = bad.split[1]
    x = sorted(tbl, key=str)[0]
    others = [v for v in bad.sset.level(2) if v != tbl[x]]
    tbl[x] = others[0]
    rep = validate_coalgebra(bad)
    assert not rep.passed and rep.witnesses


def test_local_initial_objects():
    N = nerve(chain_poset(2), 5)
    assert is_local_initial(PointedSSet(N, ["c"], {"c": 0})).passed
    assert not is_local_initial(PointedSSet(N, ["c"], {"c": 1})).passed
    assert is_local_terminal(PointedSSet(N, ["c"], {"c": 2})).passed
    # locality: both bottoms of a two-component poset
    N2 = nerve(poset_cat("twocomp", ["a", "b", "p", "q"],
                         lambda x, y: x == y or (x, y) in {("a", "b"), ("p", "q")}), 5)
    assert is_local_initial(PointedSSet(N2, ["ca", "cp"], {"ca": "a", "cp": "p"})).passed
    assert not is_local_initial(PointedSSet(N2, ["ca"], {"ca": "a"})).passed


def test_h_roundtrip_on_local_initial():
    N = nerve(vee_poset(), 5)
    P = PointedSSet(N, ["c"], {"c": "a"})
    assert is_local_initial(P).passed
    A = h_lower(P)
    assert validate_coalgebra(A).passed
    assert is_rigid(BottomSplitSSet(A.sset, A.split)).passed
    # counit comparison is an isomorphism of pointed sets
    cm = h_counit_map(P)
    assert validate(cm).passed
    for n in range(cm.source.trunc + 1):
        vals = sorted(map(str, cm.levels[n].values()))
        assert vals == sorted(map(str, cm.target.level(n)))
        assert len(set(cm.levels[n].values())) == len(cm.levels[n])
    # the recovered pointing agrees
    P2 = h_upper(A)
    assert P2.point_set == P.point_set
    for c in P.point_set:
        assert cm.at(0, P2.pointing[c]) == P.pointing[c]


def test_h_counit_map_builds_the_comparison_once(monkeypatch):
    from segal_abacus import decalage

    built = []

    def counting(P, side):
        built.append(side)
        return pointing_comparison(P, side)

    monkeypatch.setattr(decalage, "pointing_comparison", counting)
    P = PointedSSet(nerve(chain_poset(2), 5), ("c",), {"c": 0})
    cm = h_counit_map(P)
    assert built == ["bottom"]
    assert cm.levels == pointing_comparison(P, "bottom")


def test_h_unit_iff_rigid():
    N = nerve(chain_poset(2), 5)
    P = PointedSSet(N, ["c"], {"c": 0})
    A = h_lower(P)
    assert h_unit_report(A).passed
    badP = PointedSSet(N, ["c"], {"c": 1})
    Abad = h_lower(badP)
    # the pullback of a bad pointing is still a coalgebra, but the counit
    # comparison fails
    cm = h_counit_map(badP)
    surj = all(
        sorted(map(str, cm.levels[n].values())) == sorted(map(str, cm.target.level(n)))
        for n in range(cm.source.trunc + 1)
    )
    assert not surj


def pullback_coalgebra(F: SMap, C_split: dict, name: str = "pullback_coalgebra"):
    """Pull a bottom splitting on the target back along a right fibration.

    ``C_split[n]`` splits the target.  The source splitting lifts through
    the d_0 pullback squares; returns (BottomSplitSSet, CheckReport).
    """
    pre = is_right_fibration(F)
    if not pre.passed:
        return None, CheckReport.precondition_failure(name, "map is not a right fibration")
    X, T = F.source, F.trunc
    split = {}
    witnesses = []
    for n in range(T):
        split[n], misses = lift(X.level(n + 1), X.actions["d", 0, n + 1], F.levels[n + 1],
                                ((x, C_split[n][F.at(n, x)]) for x in X.level(n)))
        witnesses += [Witness(f"lift@{n}", "no pullback lift", (x,)) for x in misses]
    if witnesses:
        return None, CheckReport.from_witnesses(name, witnesses, T)
    A = BottomSplitSSet(sub_trunc(X, T), split)
    rep = validate_coalgebra(A, name)
    return A, rep


def test_pullback_coalgebra_along_right_fibration():
    C = chain_poset(2)
    F = upset_inclusion(C, 0, 5)  # the whole poset: identity-like inclusion
    down = F
    # a genuine right fibration: the down-set inclusion
    from segal_abacus.corpus import downset_inclusion

    G = downset_inclusion(C, 2, 5)
    assert is_right_fibration(G).passed
    target_split = canonical_split_for_nerve(G.target)
    A, rep = pullback_coalgebra(G, target_split)
    assert rep.passed
    # the lifted splitting commutes with the map
    for n in range(A.trunc):
        for x in A.sset.level(n):
            assert G.at(n + 1, A.split[n][x]) == target_split[n][G.at(n, x)]


def canonical_split_for_nerve(N):
    """Bottom splittings on a nerve of a poset with bottom element 0-like."""
    split = {}
    bottom = min(N.level(0), key=str)
    for n in range(N.trunc):
        table = {}
        for ch in N.level(n):
            if n == 0:
                table[ch] = ((bottom, ch),)
            else:
                first = ch[0][0]
                table[ch] = ((bottom, first),) + ch
        split[n] = table
    return split


def test_pullback_coalgebra_requires_right_fibration():
    N = nerve(chain_poset(2), 4)
    P = two_segal_partial_monoid(4)
    # the collapse to a point is not a right fibration for the partial monoid
    from segal_abacus.presheaf import SMap, constant_sset

    pt = constant_sset(["*"], 4)
    coll = SMap(P, pt, {n: {x: "*" for x in P.level(n)} for n in range(5)})
    res, rep = pullback_coalgebra(coll, {n: {"*": "*"} for n in range(4)})
    assert res is None and rep.precondition is not None


def test_colimit0_absolute_for_split_objects():
    # for a split augmented structure the colimit agrees with the stored
    # augmentation level, and the induced section splits the quotient map
    from segal_abacus.presheaf import colimit0

    N = nerve(vee_poset(), 4)
    P = PointedSSet(N, ["c"], {"c": "a"})
    A = h_lower(P)
    classes, aug = colimit0(A.sset)
    assert len(classes) == len(A.aug_level)
    # section via the splitting: the second face of the split edge
    for x in A.sset.level(0):
        rep = A.sset.face(1, 1, A.split[0][x])
        assert aug[rep] == aug[x]
        assert A.aug[rep] == A.aug[x]
    for c in A.aug_level:
        assert A.aug[A.aug_split[c]] == c


def test_left_fibration_of_split_sets_is_cartesian_with_aug_square():
    # the rigid structure map is a left fibration of split sets and forms
    # a pullback against the degree-zero augmentations
    X = nerve(chain_poset(2), 5)
    BS = canonical_split(X)
    g = gamma_map(BS)
    assert is_left_fibration(g).passed
    assert cartesian_on(g, "all").passed
    from segal_abacus.presheaf import colimit0, is_pullback

    src_cls, src_aug = colimit0(g.source)
    tgt_cls, tgt_aug = colimit0(g.target)
    cls_map = {c: tgt_aug[g.at(0, next(x for x in g.source.level(0) if src_aug[x] == c))]
               for c in src_cls}
    sq = Square(
        "aug-square",
        g.source.level(0), src_cls, g.target.level(0),
        src_aug, {x: g.at(0, x) for x in g.source.level(0)},
        cls_map, tgt_aug,
    )
    assert is_pullback(*sq).passed


def gamma_map(BS):
    from segal_abacus.decalage import gamma

    return gamma(BS)


def test_right_fibration_cartesian_on_splittings():
    # right fibrations of split sets form pullbacks against every splitting
    from segal_abacus.corpus import downset_inclusion
    from segal_abacus.presheaf import is_pullback

    G = downset_inclusion(chain_poset(2), 1, 5)
    assert is_right_fibration(G).passed
    tgt_split = canonical_split_for_nerve(G.target)
    src, rep = pullback_coalgebra(G, tgt_split)
    assert rep.passed
    T = src.trunc
    for n in range(T - 1):
        sq = Square(
            f"split@{n}",
            src.sset.level(n), src.sset.level(n + 1), G.target.level(n),
            src.split[n], {x: G.at(n, x) for x in src.sset.level(n)},
            {z: G.at(n + 1, z) for z in src.sset.level(n + 1)}, tgt_split[n],
        )
        assert is_pullback(*sq).passed


def _reference_pullback_coalgebra(F, C_split, name="pullback_coalgebra"):
    """``pullback_coalgebra`` with its lookup loop, before ``lift``."""
    if not is_right_fibration(F).passed:
        return None, CheckReport.precondition_failure(name, "map is not a right fibration")
    X, Y = F.source, F.target
    T = min(X.trunc, Y.trunc)
    split = {}
    witnesses = []
    for n in range(T):
        table = {}
        want = {}
        for x in X.level(n):
            want[x] = (x, C_split[n][F.at(n, x)])
        lookup = {(X.face(n + 1, 0, z), F.at(n + 1, z)): z for z in X.level(n + 1)}
        for x, key in want.items():
            if key not in lookup:
                witnesses.append(Witness(f"lift@{n}", "no pullback lift", (x,)))
            else:
                table[x] = lookup[key]
        split[n] = table
    if witnesses:
        return None, CheckReport.from_witnesses(name, witnesses, T)
    A = BottomSplitSSet(sub_trunc(X, T), split)
    return A, validate_coalgebra(A, name)


@cache
def _maps_into_chain2():
    """Maps into the nerve of [2] at truncation 3: three right fibrations
    and an upset inclusion, which is not one."""
    c2 = chain_poset(2)
    return (identity_smap(nerve(c2, 3)), downset_inclusion(c2, 1, 3),
            downset_inclusion(c2, 2, 3), upset_inclusion(c2, 1, 3))


@st.composite
def _split_targets(draw):
    """A map into the nerve of [2] and its bottom splitting with up to two
    entries redirected, so that some lifts go missing."""
    F = draw(st.sampled_from(_maps_into_chain2()))
    split = canonical_split_for_nerve(F.target)
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.sampled_from(sorted(split)))
        y = draw(st.sampled_from(sorted(split[n], key=str)))
        split[n] = {**split[n], y: draw(st.sampled_from(F.target.level(n + 1)))}
    return F, split


@settings(max_examples=40, deadline=None)
@given(_split_targets())
def test_pullback_coalgebra_matches_reference(case):
    (A, rep), (ref_A, ref) = pullback_coalgebra(*case), _reference_pullback_coalgebra(*case)
    assert (rep.verdict, rep.checked, rep.witnesses, rep.precondition) == (
        ref.verdict, ref.checked, ref.witnesses, ref.precondition)
    assert (A is None) == (ref_A is None)
    if A is not None:
        assert A.sset.levels == ref_A.sset.levels
        assert [list(t.items()) for t in A.split.values()] == [
            list(t.items()) for t in ref_A.split.values()]


def _random_pointings():
    """One or two points sent to random vertices of the nerves of random
    posets at truncation 3, from a fixed seed."""
    rng = random.Random(0)
    for seed in range(20):
        [(_, X)] = random_poset_corpus(1, 4, seed, 3)
        for _ in range(3):
            points = [f"c{k}" for k in range(rng.randint(1, 2))]
            yield PointedSSet(X, points, {c: rng.choice(X.level(0)) for c in points})


def test_h_counit_bijective_iff_local_initial():
    outcomes = set()
    for P in _random_pointings():
        cm = h_counit_map(P)
        assert validate(cm).passed
        bijective = all(
            sorted(map(str, cm.levels[n].values())) == sorted(map(str, cm.target.level(n)))
            for n in cm.levels)
        local = is_local_initial(P).holds
        assert bijective == local
        outcomes.add(local)
    assert outcomes == {True, False}


def _augmented_nonrigid():
    """``nonrigid_split_fixture`` augmented over one point."""
    BS = nonrigid_split_fixture()
    return AugBottomSplitSSet(BS.sset, BS.split, ("*",), {"b": "*"}, {"*": "b"})


def _disjoint_union(A, B):
    """The coproduct of two augmented bottom-split sets of one truncation,
    each element tagged by the index of its summand."""
    def tagged(get):
        return {(t, x): (t, y) for t, S in enumerate((A, B)) for x, y in get(S).items()}

    T = A.sset.trunc
    levels = {n: [(t, x) for t, S in enumerate((A, B)) for x in S.sset.level(n)]
              for n in range(T + 1)}
    actions = {key: tagged(lambda S: S.sset.actions[key]) for key in A.sset.actions}
    split = {n: tagged(lambda S: S.split[n]) for n in A.split}
    return AugBottomSplitSSet(TruncSSet(T, levels, actions), split,
                              [(t, c) for t, S in enumerate((A, B)) for c in S.aug_level],
                              tagged(lambda S: S.aug), tagged(lambda S: S.aug_split))


def test_h_unit_holds_iff_rigid():
    """On the split structures of random pointings, alone (rigid) and beside
    the non-rigid fixture (not rigid)."""
    nonrigid = _augmented_nonrigid()
    outcomes = set()
    for P in _random_pointings():
        for A in (h_lower(P), _disjoint_union(h_lower(P), nonrigid)):
            assert validate_coalgebra(A).passed
            rigid = is_rigid(A).holds
            assert h_unit_report(A).holds == rigid
            outcomes.add(rigid)
    assert outcomes == {True, False}


def test_sd_map_of_a_map_shallower_than_its_source():
    """A valid map whose source is truncated deeper than its target is
    subdivided up to the map's own truncation: level n of ``sd_map(F)`` is
    F's level 2n + 1, and nothing past F's levels is read."""
    X, Y = nerve(chain_poset(2), 5), nerve(chain_poset(2), 3)
    F = SMap(X, Y, {n: {x: x for x in X.level(n)} for n in range(4)})
    assert validate(F).passed
    G = sd_map(F)
    assert validate(G).passed
    assert (G.source.trunc, G.target.trunc) == (1, 1)
    assert all(G.levels[n] is F.levels[2 * n + 1] for n in range(2))
    # the other way round, a source shallower than its target
    H = sd_map(SMap(Y, X, {n: {y: y for y in Y.level(n)} for n in range(4)}))
    assert validate(H).passed and (H.source.trunc, H.target.trunc) == (1, 2)
