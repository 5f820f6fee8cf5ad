"""Every presheaf validator against the loop-by-loop validator it replaced.

The validators check rows through one element loop.  Each ``_reference_*``
below is the earlier validator, one nested loop per family of identities.
On random mutations of corpus fixtures both give the same verdict,
``checked`` and witnesses, except where the rows count on purpose
differently, each stated at its test:

- a simplicial map also validates its source and target;
- a splitting is checked for totality like any other table, and
  ``split-face0@0``, an instance that compared nothing, is gone;
- a bisimplicial set checks the totality of each action once, not once
  more per row and column;
- a pointing is one more totality check, at site ``pointing``: a point
  it leaves undefined or sends off its level reads "action undefined" or
  "action leaves level", where the earlier loops read "pointing misses
  level 0", "pointing undefined" or "pointing leaves level (0,0)", and,
  like any totality witness, it ends the report before the identities.

An entry that leaves its level stops every validator after the totality
checks: that entry is then the only witness, where the earlier smap and
coalgebra loops went on and could raise ``KeyError``.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus.abacus import generators_into
from segal_abacus.configurations import dset_iso_report, q_lower_star
from segal_abacus.corpus import chain_poset, nerve, standard_map_corpus, standard_nerve_corpus
from segal_abacus.decalage import (
    AugBottomSplitSSet,
    BottomSplitSSet,
    PointedSSet,
    comult,
    dec,
    h_lower,
    tot,
)
from segal_abacus.presheaf import (
    BiSSet,
    CheckReport,
    DSet,
    SMap,
    SigmaSet,
    TruncSSet,
    Witness,
    _check_total,
    action_label,
    action_target,
    bisset_actions,
    bijection_witnesses,
    col_sset,
    dset_levels,
    fmt_id,
    identity_smap,
    row_sset,
    sub_trunc,
    validate_bisset,
    validate_coalgebra,
    validate_dset,
    validate_pointed,
    validate_sigmaset,
    validate_smap,
    validate_sset,
)

JUNK = "junk"


# ---------------------------------------------------------------------------
# The earlier validators


def _reference_validate_sset(X, name="sset"):
    witnesses = []
    checked = 0
    for n in range(X.trunc + 1):
        if n not in X.levels:
            witnesses.append(Witness(f"level@{n}", "level missing", ()))
    for n in range(1, X.trunc + 1):
        for k in range(n + 1):
            checked += _check_total(X.actions.get(("d", k, n)), X.level(n), X.level(n - 1),
                                    f"d{k}@{n}", witnesses)
    for n in range(X.trunc):
        for k in range(n + 1):
            checked += _check_total(X.actions.get(("s", k, n)), X.level(n), X.level(n + 1),
                                    f"s{k}@{n}", witnesses)
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    for n in range(2, X.trunc + 1):
        for j in range(n + 1):
            for i in range(j):
                for x in X.level(n):
                    checked += 1
                    if X.face(n - 1, i, X.face(n, j, x)) != X.face(n - 1, j - 1, X.face(n, i, x)):
                        witnesses.append(Witness(f"dd(i={i},j={j})@{n}", "d_i d_j = d_(j-1) d_i", (x,)))
    for n in range(X.trunc - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for x in X.level(n):
                    checked += 1
                    if X.deg(n + 1, j + 1, X.deg(n, i, x)) != X.deg(n + 1, i, X.deg(n, j, x)):
                        witnesses.append(Witness(f"ss(i={i},j={j})@{n}", "s_j+1 s_i = s_i s_j", (x,)))
    for n in range(X.trunc):
        for j in range(n + 1):
            for i in range(n + 2):
                for x in X.level(n):
                    checked += 1
                    y = X.face(n + 1, i, X.deg(n, j, x))
                    if i < j:
                        ok = n >= 1 and y == X.deg(n - 1, j - 1, X.face(n, i, x))
                    elif i in (j, j + 1):
                        ok = y == x
                    else:
                        ok = n >= 1 and y == X.deg(n - 1, j, X.face(n, i - 1, x))
                    if i in (j, j + 1) or n >= 1:
                        if not ok:
                            witnesses.append(Witness(f"ds(i={i},j={j})@{n}", "face-degeneracy identity", (x,)))
    return CheckReport.from_witnesses(name, witnesses, checked)


def _reference_validate_smap(F, name="smap"):
    X, Y = F.source, F.target
    witnesses = []
    checked = 0
    for n in range(min(X.trunc, Y.trunc) + 1):
        table = F.levels.get(n)
        checked += _check_total(table, X.level(n), Y.level(n), f"F@{n}", witnesses)
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    for n in range(1, min(X.trunc, Y.trunc) + 1):
        for k in range(n + 1):
            for x in X.level(n):
                checked += 1
                if F.at(n - 1, X.face(n, k, x)) != Y.face(n, k, F.at(n, x)):
                    witnesses.append(Witness(f"nat-d{k}@{n}", "F d_k = d_k F", (x,)))
    for n in range(min(X.trunc, Y.trunc)):
        for k in range(n + 1):
            for x in X.level(n):
                checked += 1
                if F.at(n + 1, X.deg(n, k, x)) != Y.deg(n, k, F.at(n, x)):
                    witnesses.append(Witness(f"nat-s{k}@{n}", "F s_k = s_k F", (x,)))
    return CheckReport.from_witnesses(name, witnesses, checked)


def _reference_validate_bisset(B, name="bisset"):
    checked = 0
    A = B.actions
    into = bisset_actions(B.trunc)
    witnesses = [Witness(f"level@{lvl}", "level beyond the truncation", ()) for lvl in B.levels
                 if lvl not in into]
    for lvl, gens in into.items():
        if lvl not in B.levels:
            continue
        for kind, k, tgt in gens:
            checked += _check_total(A.get((kind, k, lvl)), B.levels[lvl], B.level(*tgt),
                                    action_label(kind, k, lvl), witnesses)
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    for i in range(B.trunc + 1):
        rep = _reference_validate_sset(row_sset(B, i), f"row{i}")
        checked += rep.checked
        witnesses += [Witness(f"row{i}:{w.site}", w.equation, w.offenders) for w in rep.witnesses]
    for j in range(B.trunc + 1):
        rep = _reference_validate_sset(col_sset(B, j), f"col{j}")
        checked += rep.checked
        witnesses += [Witness(f"col{j}:{w.site}", w.equation, w.offenders) for w in rep.witnesses]
    for lvl, gens in into.items():
        xs = B.level(*lvl)
        for vkind, vk, vtgt in gens:
            if vkind not in ("e", "t"):
                continue
            for hkind, hk, htgt in gens:
                if hkind not in ("d", "s"):
                    continue
                corner = action_target(hkind, vtgt)
                if corner not in B.levels or sum(corner) > B.trunc:
                    continue
                if (hkind, hk, vtgt) not in A or (vkind, vk, htgt) not in A:
                    continue
                for x in xs:
                    checked += 1
                    vh = A[hkind, hk, vtgt][A[vkind, vk, lvl][x]]
                    if vh != A[vkind, vk, htgt][A[hkind, hk, lvl][x]]:
                        witnesses.append(
                            Witness(f"{vkind}{vk}.{hkind}{hk}@({lvl[0]},{lvl[1]})",
                                    "directions commute", (x,))
                        )
    return CheckReport.from_witnesses(name, witnesses, checked)


# the equations of the checks that run before any identity
_TOTALITY = {"level beyond the truncation", "level missing", "action table missing",
             "action undefined", "action leaves level"}


def _with_pointing(rep, totality, pointing, level):
    """``rep`` of what ``pointing`` points, with its ``totality`` instances
    before the identities, and the pointing's totality into ``level``: a
    bad pointing leaves only the totality witnesses and instances."""
    witnesses = []
    points = _check_total(pointing.pointing, pointing.point_set, level, "pointing", witnesses)
    if not witnesses:
        return CheckReport.from_witnesses(rep.name, rep.witnesses, rep.checked + points)
    before = [w for w in rep.witnesses if w.equation in _TOTALITY]
    return CheckReport.from_witnesses(rep.name, before + witnesses, totality + points)


def _bisset_totality(B) -> int:
    """Instances of the totality checks of B's actions."""
    return sum(len(B.level(*lv)) * len(gens) for lv, gens in bisset_actions(B.trunc).items())


def _reference_validate_sigmaset(A, name="sigmaset"):
    return _with_pointing(_reference_validate_bisset(A.bulk, name), _bisset_totality(A.bulk),
                          A, A.bulk.level(0, 0))


def _reference_validate_pointed(P, name="pointed"):
    return _with_pointing(_reference_validate_sset(P.sset, name), _sset_totality(P.sset),
                          P, P.sset.level(0))


def _reference_validate_coalgebra(A, name="split"):
    X = A.sset
    witnesses = []
    checked = 0
    base = _reference_validate_sset(X, name)
    witnesses += base.witnesses
    checked += base.checked
    for n in range(X.trunc):
        table = A.split.get(n)
        if table is None or set(table) != set(X.level(n)):
            witnesses.append(Witness(f"split@{n}", "splitting missing or partial", ()))
            continue
        for x in X.level(n):
            checked += 1
            if X.face(n + 1, 0, table[x]) != x:
                witnesses.append(Witness(f"split-counit@{n}", "d_0 s# = id", (x,)))
            for k in range(n + 1):
                checked += 1
                if n >= 1:
                    lhs = X.face(n + 1, k + 1, table[x])
                    rhs = A.split[n - 1][X.face(n, k, x)]
                    if lhs != rhs:
                        witnesses.append(Witness(f"split-face{k}@{n}", "d_k+1 s# = s# d_k", (x,)))
            if n + 1 < X.trunc:
                for k in range(n + 1):
                    checked += 1
                    if X.deg(n + 1, k + 1, table[x]) != A.split[n + 1][X.deg(n, k, x)]:
                        witnesses.append(Witness(f"split-deg{k}@{n}", "s_k+1 s# = s# s_k", (x,)))
                checked += 1
                if X.deg(n + 1, 0, table[x]) != A.split[n + 1][table[x]]:
                    witnesses.append(Witness(f"split-coassoc@{n}", "s_0 s# = s# s#", (x,)))
    if isinstance(A, AugBottomSplitSSet):
        aug_set = set(A.aug_level)
        for x in X.level(0):
            checked += 1
            if A.aug.get(x) not in aug_set:
                witnesses.append(Witness("aug", "augmentation missing", (x,)))
        for c in A.aug_level:
            checked += 1
            if A.aug.get(A.aug_split.get(c)) != c:
                witnesses.append(Witness("aug-counit", "d_0 s# = id at -1", (c,)))
            if X.trunc >= 1:
                checked += 1
                if X.face(1, 1, A.split[0][A.aug_split[c]]) != A.aug_split[c]:
                    witnesses.append(Witness("aug-split-face", "d_1 s# = s# d_0 at 0", (c,)))
                checked += 1
                if X.deg(0, 0, A.aug_split[c]) != A.split[0][A.aug_split[c]]:
                    witnesses.append(Witness("aug-split-coassoc", "s_0 s# = s# s# at -1", (c,)))
        for x in X.level(0):
            if X.trunc >= 1:
                checked += 1
                if X.face(1, 1, A.split[0][x]) != A.aug_split[A.aug[x]]:
                    witnesses.append(Witness("aug-shift", "d_1 s# = s# d_0 at 0", (x,)))
    return CheckReport.from_witnesses(name, witnesses, checked)


def _reference_dset_iso_report(B1, B2, maps, name="dset_iso"):
    witnesses = []
    checked = 0
    T = min(B1.trunc, B2.trunc)
    aug = B1.has_aug_row() and B2.has_aug_row()
    for lvl in dset_levels(T, with_aug_row=aug):
        m = maps.get(lvl)
        checked += 1
        level = B2.level(*lvl)
        if (m is None or set(m) != set(B1.level(*lvl)) or len(m) != len(level)
                or bijection_witnesses("", "", ((x, (y,)) for x, y in m.items()), [(y,) for y in level])):
            witnesses.append(Witness(f"level@{lvl}", "not a bijection", (lvl,)))
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    for lvl in dset_levels(T, with_aug_row=aug):
        for kind, k, tgt, _ in generators_into(T)[lvl]:
            if tgt[0] == -1 and not aug:
                continue
            for x in B1.level(*lvl):
                checked += 1
                y1 = B1.actions[kind, k, lvl][x]
                y2 = B2.actions[kind, k, lvl][maps[lvl][x]]
                if maps[tgt][y1] != y2:
                    witnesses.append(
                        Witness(f"{kind}{'' if k is None else k}@{lvl}", "iso does not commute", (x,))
                    )
    return CheckReport.from_witnesses(name, witnesses, checked)


# ---------------------------------------------------------------------------
# Fixtures and mutations


@cache
def _ssets():
    return [X for _, X in standard_nerve_corpus(3)]


@cache
def _maps():
    return [F for _, F in standard_map_corpus(3)]


@cache
def _splits():
    """The comultiplication splitting of each nerve's bottom decalage, and
    the split augmentation ``h_lower`` builds from each first vertex."""
    out = []
    for X in _ssets():
        D = dec(X, "bottom")
        out.append(BottomSplitSSet(sub_trunc(D, D.trunc), {n: dict(comult(X).levels[n]) for n in range(D.trunc)}))
        out.append(h_lower(PointedSSet(X, ("c",), {"c": X.level(0)[0]})))
    return out


@cache
def _kan_extensions():
    return [q_lower_star(F) for F in _maps()[:4]]


def _redirect(draw, tables, target_of, junk):
    """``tables`` with up to two entries redirected to elements of their
    target level, or, when ``junk``, possibly to ``JUNK``."""
    tables = dict(tables)
    keys = sorted((key for key, table in tables.items() if table), key=str)
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(keys))
        x = draw(st.sampled_from(sorted(tables[key], key=fmt_id)))
        targets = sorted(target_of(key), key=fmt_id) + [JUNK] * junk
        tables[key] = {**tables[key], x: draw(st.sampled_from(targets))}
    return tables


def _mutated_sset(draw, X, junk):
    """X with up to two face and up to two degeneracy entries redirected."""
    faces = {key: table for key, table in X.actions.items() if key[0] == "d"}
    degens = {key: table for key, table in X.actions.items() if key[0] == "s"}
    faces = _redirect(draw, faces, lambda key: X.level(key[2] - 1), junk)
    degens = _redirect(draw, degens, lambda key: X.level(key[2] + 1), junk)
    return TruncSSet(X.trunc, X.levels, {**faces, **degens})


def _junk_entries(*tables) -> int:
    return sum(1 for family in tables for table in family.values() for y in table.values() if y == JUNK)


def _only_junk(rep, count):
    """The report of a presheaf with ``count`` entries sent to ``JUNK``:
    each is a witness, and nothing else is."""
    assert rep.verdict == "fail"
    assert len(rep.witnesses) == count
    assert all(w.equation == "action leaves level" and w.offenders[1] == JUNK for w in rep.witnesses)


def _sset_totality(X) -> int:
    """Instances of the totality checks of X's faces and degeneracies."""
    return sum((n + 1) * len(X.level(n)) for n in range(1, X.trunc + 1)) + \
        sum((n + 1) * len(X.level(n)) for n in range(X.trunc))


def _prefixed(prefix, rep):
    return [Witness(prefix + w.site, w.equation, w.offenders) for w in rep.witnesses]


def _same_report(got, verdict, checked, witnesses):
    assert (got.verdict, got.checked, got.witnesses) == (verdict, checked, sorted(witnesses, key=str))


# ---------------------------------------------------------------------------
# The validators against their references


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_validate_sset_and_pointed_match_references(data):
    X = _mutated_sset(data.draw, data.draw(st.sampled_from(_ssets())), True)
    ref = _reference_validate_sset(X)
    _same_report(validate_sset(X), ref.verdict, ref.checked, ref.witnesses)
    point_set = ("c", "c2")
    pointing = {"c": data.draw(st.sampled_from(X.level(0) + (JUNK,)))}
    if data.draw(st.booleans()):  # else "c2" is undefined
        pointing["c2"] = X.level(0)[0]
    P = PointedSSet(X, point_set, pointing)
    ref = _reference_validate_pointed(P)
    _same_report(validate_pointed(P), ref.verdict, ref.checked, ref.witnesses)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_validate_bisset_and_sigmaset_match_references(data):
    """Equal, except that a bisimplicial set that passes its totality
    checks counts each of them once: the reference counted every action's
    totality a second time, in the row or column it re-validated, which a
    bad pointing never reaches."""
    B = tot(data.draw(st.sampled_from(_ssets())))
    actions = _redirect(data.draw, B.actions, lambda key: B.level(*action_target(key[0], key[2])), True)
    B = BiSSet(B.trunc, B.levels, actions)
    twice = 0 if _junk_entries(actions) else _bisset_totality(B)
    ref = _reference_validate_bisset(B)
    _same_report(validate_bisset(B), ref.verdict, ref.checked - twice, ref.witnesses)
    level00 = B.level(0, 0)
    pointing = {"c": level00[0], "c2": data.draw(st.sampled_from(level00 + (JUNK,)))}
    if data.draw(st.booleans()):  # else "c3" is undefined
        pointing["c3"] = level00[-1]
    A = SigmaSet(B, ("c", "c2", "c3"), pointing)
    ref = _reference_validate_sigmaset(A)
    if any(w.site == "pointing" for w in ref.witnesses):
        twice = 0
    _same_report(validate_sigmaset(A), ref.verdict, ref.checked - twice, ref.witnesses)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_validate_smap_matches_reference(data):
    """A map also validates its source and target: their simplex rows add
    their witnesses, prefixed ``source:`` and ``target:``, and their
    instances to the reference's."""
    F = data.draw(st.sampled_from(_maps()))
    junk = data.draw(st.booleans())
    X = _mutated_sset(data.draw, F.source, junk)
    Y = _mutated_sset(data.draw, F.target, junk)
    levels = _redirect(data.draw, F.levels, Y.level, junk)
    G = SMap(X, Y, levels)
    got = validate_smap(G)
    count = _junk_entries(X.actions, Y.actions, levels)
    if count:
        _only_junk(got, count)
        maps = sum(len(X.level(n)) for n in range(min(X.trunc, Y.trunc) + 1))
        assert got.checked == _sset_totality(X) + _sset_totality(Y) + maps
        return
    ref, ref_x, ref_y = _reference_validate_smap(G), _reference_validate_sset(X), _reference_validate_sset(Y)
    witnesses = ref.witnesses + _prefixed("source:", ref_x) + _prefixed("target:", ref_y)
    _same_report(got, "fail" if witnesses else ref.verdict, ref.checked + ref_x.checked + ref_y.checked,
                 witnesses)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_validate_coalgebra_matches_reference(data):
    """Equal, except in ``checked``: each splitting table's totality is
    checked per element, ``split-face0@0`` (one instance per vertex that
    compared nothing) is gone, and an augmentation's section is checked for
    totality too."""
    A = data.draw(st.sampled_from(_splits()))
    junk = data.draw(st.booleans())
    X = _mutated_sset(data.draw, A.sset, junk)
    split = _redirect(data.draw, A.split, lambda n: X.level(n + 1), junk)
    tables = [X.actions, split]
    totality = sum(len(X.level(n)) for n in range(X.trunc))  # the splitting's
    added = totality  # instances the reference did not count
    if isinstance(A, AugBottomSplitSSet):
        aug = _redirect(data.draw, {0: A.aug}, lambda _: A.aug_level, junk)
        section = _redirect(data.draw, {-1: A.aug_split}, lambda _: X.level(0), junk)
        tables += [aug, section]
        A = AugBottomSplitSSet(X, split, A.aug_level, aug[0], section[-1])
        # the reference's "aug" loop counted the augmentation's totality, not the section's
        totality += len(X.level(0)) + len(A.aug_level)
        added += len(A.aug_level)
    else:
        A = BottomSplitSSet(X, split)
    got = validate_coalgebra(A)
    count = _junk_entries(*tables)
    if count:
        _only_junk(got, count)
        assert got.checked == _sset_totality(X) + totality
        return
    ref = _reference_validate_coalgebra(A)
    phantom = len(X.level(0)) if X.trunc >= 1 else 0
    _same_report(got, ref.verdict, ref.checked - phantom + added, ref.witnesses)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dset_iso_report_matches_reference(data):
    B = data.draw(st.sampled_from(_kan_extensions()))
    actions = _redirect(data.draw, B.actions, lambda key: B.level(*action_target(key[0], key[2])), False)
    B2 = DSet(B.trunc, B.levels, actions)
    ident = {lvl: {x: x for x in B.level(*lvl)} for lvl in B.levels}
    maps = _redirect(data.draw, ident, lambda lvl: B.level(*lvl), False)
    ref = _reference_dset_iso_report(B, B2, maps)
    _same_report(dset_iso_report(B, B2, maps), ref.verdict, ref.checked, ref.witnesses)


def test_dset_iso_report_reports_missing_tables():
    """A table missing on either side is an "action table missing" witness
    naming it, not a ``KeyError``; ``checked`` counts the levels only."""
    B = q_lower_star(identity_smap(nerve(chain_poset(1), 3)))
    ident = {lvl: {x: x for x in B.level(*lvl)} for lvl in B.levels}
    key = ("s", 0, (-1, 0))
    lacking = DSet(B.trunc, B.levels, {k: table for k, table in B.actions.items() if k != key})
    assert dset_iso_report(B, B, ident).verdict == "pass"
    for B1, B2, side in ((B, lacking, "target"), (lacking, B, "source")):
        rep = dset_iso_report(B1, B2, ident)
        assert (rep.verdict, rep.checked) == ("fail", len(dset_levels(B.trunc)))
        assert rep.witnesses == [Witness(f"{side}:s0@(-1, 0)", "action table missing", ())]


def test_element_listed_twice_is_a_witness():
    """A level that lists an element more than once fails validation with
    one "element listed twice" witness per repeated element: of a
    simplicial set, of a map (named by its side key) and of an abacus
    presheaf."""
    X = nerve(chain_poset(1), 2)
    B = q_lower_star(identity_smap(X))
    x, b = X.level(0)[0], B.level(0, 0)[0]
    X2 = TruncSSet(X.trunc, {**X.levels, 0: X.level(0) + (x,)}, X.actions)
    B2 = DSet(B.trunc, {**B.levels, (0, 0): B.level(0, 0) + (b, b)}, B.actions)
    cases = ((validate_sset(X), validate_sset(X2), "level@0", x),
             (validate_smap(identity_smap(X)), validate_smap(SMap(X2, X, identity_smap(X).levels)),
              "level@('S', 0)", x),
             (validate_dset(B), validate_dset(B2), "level@(0, 0)", b))
    for good, bad, site, elem in cases:
        assert good.verdict == "pass"
        assert (bad.verdict, bad.witnesses) == ("fail", [Witness(site, "element listed twice", (elem,))])


def test_point_listed_twice_is_a_witness():
    """A point set that lists a point more than once fails validation with
    one "element listed twice" witness at ``level@point``, the point set's
    level, of a pointed simplicial set and of a pointed bisimplicial set.
    Like any witness of the totality checks it ends the report before the
    identities; each point is still checked once per listing."""
    X = nerve(chain_poset(1), 3)
    x = X.level(0)[0]
    B = tot(X)
    b = B.level(0, 0)[0]
    cases = ((validate_pointed, PointedSSet(X, ["c"], {"c": x}), PointedSSet(X, ["c", "c"], {"c": x}),
              _sset_totality(X)),
             (validate_sigmaset, SigmaSet(B, ["c"], {"c": b}), SigmaSet(B, ["c", "c"], {"c": b}),
              _bisset_totality(B)))
    for validator, good, bad, totality in cases:
        good_rep, bad_rep = validator(good), validator(bad)
        assert good_rep.verdict == "pass"
        assert (bad_rep.verdict, bad_rep.checked) == ("fail", totality + 2)
        assert bad_rep.witnesses == [Witness("level@point", "element listed twice", ("c",))]
