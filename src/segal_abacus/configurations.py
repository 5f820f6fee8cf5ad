"""The main constructions: right Kan extension along the augmentations,
the cartesian-abacus condition, bicomodule configurations, the pointing
axioms, and the extension from pointed bisimplicial sets back to abacus
presheaves.

Conventions.  A simplicial map F : X -> Y becomes an abacus presheaf
``q_lower_star(F)`` with bulk level (i, j) the pairs (x, y) in
X_i x Y_{i+1+j} agreeing over Y_i; the augmentation column stores X's
elements and the augmentation row Y's.  All actions are induced by
precomposition with the generator squares of the abacus category, so a
single generic formula covers every generator.
"""

from __future__ import annotations

from .abacus import generators_into
from .decalage import (
    _local_report,
    dec,
    is_local_terminal,
    pointing_comparison,
    tot,
)
from .fibrations import (
    cartesian_on,
    is_culf,
    is_double_segal,
    is_segal,
    is_2segal,
    line_map,
    stability,
)
from .presheaf import (
    BULK_KINDS,
    BiSSet,
    CheckReport,
    DSet,
    PointedSSet,
    SMap,
    SigmaSet,
    TruncationError,
    TruncSSet,
    VERTICAL,
    Witness,
    _cut,
    _sorted_ids,
    action_target,
    bijection_witnesses,
    built_once,
    col_sset,
    colimit0,
    deciding_once,
    delta_actions,
    dset_iso_report,
    dset_levels,
    identity_smap,
    lift,
    pullback_pairs,
    restrict_actions,
    row_sset,
    sub_trunc,
    through,
    validate,
)
from .simplex import MonotoneMap


# ---------------------------------------------------------------------------
# The right Kan extension of a simplicial map


def _through_each(tables, xs):
    """``through(tables, x)`` for each x of ``xs``, lazily, in turn."""
    for table in tables:
        xs = map(table.__getitem__, xs)
    return xs


def q_lower_star(F: SMap) -> DSet:
    """The abacus presheaf of a simplicial map.

    Bulk level (i, j) is the strict pullback X_i x_{Y_i} Y_{i+1+j}; the
    augmentation column is X itself and the augmentation row is Y.  Each
    generator acts by precomposition with its defining square.
    """
    X, Y = F.source, F.target
    T = F.trunc
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
                F.levels[i], {y: through(inc, y) for y in ys}, X.level(i), ys), (X.level(i), ys))
    actions = {}
    for (i, j), gens in generators_into(T).items():
        elems = levels[i, j]  # each element's x and y parts, read once per level
        if j == -1:
            xs, ys = elems, list(map(F.levels[i].__getitem__, elems))
        elif i == -1:
            xs, ys = None, elems
        else:
            xs, ys = [x for x, _ in elems], [y for _, y in elems]
        for kind, k, (ti, tj), g in gens:
            # a target element is an x (column), a y (row) or the pair (bulk)
            nx = _through_each(X.act_tables(g.top_part()), xs) if ti >= 0 else None
            ny = _through_each(Y.act_tables(g.carrier), ys) if tj >= 0 else None
            images = ny if nx is None else nx if ny is None else zip(nx, ny)
            actions[kind, k, (i, j)] = dict(zip(elems, images))
    return DSet(T, levels, actions)


def r_star(X: TruncSSet) -> DSet:
    """The total decalage with its row-and-column augmentations: level
    (i, j) is X_{i+1+j} and every generator acts through its carrier, by
    X's own table where that carrier is one face or degeneracy."""
    T = X.trunc
    levels = {lvl: X.level(lvl[0] + 1 + lvl[1]) for lvl in dset_levels(T)}
    actions = {}
    for lvl, gens in generators_into(T).items():
        for kind, k, _, g in gens:
            tables = X.act_tables(g.carrier)
            actions[kind, k, lvl] = (tables[0] if len(tables) == 1
                                     else {x: through(tables, x) for x in levels[lvl]})
    return DSet(T, levels, actions)


def q_upper_star(B: DSet) -> SMap:
    """Restrict to the augmentations: the simplicial map from the
    augmentation column to the augmentation row via abacus composites."""
    X = col_sset(B, -1)
    Y = row_sset(B, -1)
    T = min(X.trunc, Y.trunc)
    levels = {}
    for n in range(T + 1):
        tables = _path_tables(B, (n, -1), [("f", None)] * (n + 1))
        levels[n] = {z: through(tables, z) for z in B.level(n, -1)}
    return SMap(sub_trunc(X, T), sub_trunc(Y, T), levels)


def _path_tables(B: DSet, lvl: tuple, steps) -> list:
    """The tables B applies for the generators ``steps``, ``(kind, k)`` in
    turn, the first out of level ``lvl``."""
    tables = []
    for kind, k in steps:
        tables.append(B.actions[kind, k, lvl])
        lvl = action_target(kind, lvl)
    return tables


# ---------------------------------------------------------------------------
# Condition (star) and the unit


def abacus_row_map(B: DSet, i: int) -> SMap | None:
    """The abacus maps as a simplicial map from row i+1 to the bottom
    decalage of row i (i >= -1)."""
    upper, row = row_sset(B, i + 1), row_sset(B, i)
    if row.trunc < 1 or upper.trunc < 0:
        return None
    return line_map(B, "f", None, upper, dec(row, "bottom"), lambda n: (i + 1, n))


def condition_star(B: DSet) -> CheckReport:
    """Every abacus row map is cartesian, including the augmentation row."""
    reports = []
    rows = sorted({i for (i, j) in B.levels})
    for i in rows:
        if (i + 1) not in rows:
            continue
        F = abacus_row_map(B, i)
        if F is None:
            continue
        reports.append(cartesian_on(F, "all", f"star-row{i}"))
    return CheckReport.conjunction("condition_star", reports)


def unit_iso(B: DSet) -> CheckReport:
    """Bijectivity of the unit comparison into the Kan-extension levels.

    Decided level by level with one image set: the unit is a bijection
    onto the pullback when its images are as many as its elements and
    form the pullback's set.  The witnesses of a refuted level are named
    only when the report's witnesses are read."""
    refuted = []
    checked = 0
    rows = {i for (i, j) in B.levels}
    if -1 not in rows:
        return CheckReport.precondition_failure("unit_iso", "no augmentation row")
    for (i, j) in sorted(B.levels, key=lambda lv: (lv[0] + 1 + lv[1], lv)):
        if i < 0 or j < 0:
            continue
        # components: project to the augmentation column and row
        to_col = _path_tables(B, (i, j), [("d", k) for k in range(j, -1, -1)])
        to_row = _path_tables(B, (i, j), [("f", None)] * (i + 1))
        eta = {b: (through(to_col, b), through(to_row, b)) for b in B.level(i, j)}
        col_to_row = _path_tables(B, (i, -1), [("f", None)] * (i + 1))
        fx = {x: through(col_to_row, x) for x in B.level(i, -1)}
        top = _path_tables(B, (-1, i + 1 + j), [("d", k) for k in range(i + 1 + j, i, -1)])
        ys = B.level(-1, i + 1 + j)
        want = pullback_pairs(fx, {y: through(top, y) for y in ys}, B.level(i, -1), ys)
        checked += len(eta)
        images = set(eta.values())
        if len(images) != len(eta) or images != set(want):
            refuted.append((f"unit@({i},{j})", eta, want))
    if not refuted:
        return CheckReport("unit_iso", [], checked)
    return CheckReport.refutation("unit_iso", lambda: [
        w for site, eta, want in refuted for w in _unit_witnesses(site, eta, want)], checked)


def _unit_witnesses(site: str, eta: dict, want: list) -> list:
    """Why the unit ``eta`` at one level is not a bijection onto ``want``."""
    inside = set(want)
    witnesses = [Witness(site, "unit leaves the pullback", (b,)) for b, im in eta.items() if im not in inside]
    return witnesses + bijection_witnesses(
        site, "unit", ((b, im) for b, im in eta.items() if im in inside), want)


# ---------------------------------------------------------------------------
# Bicomodule configurations and the simplicial-map dictionary


def aug_row_map(B: DSet) -> SMap:
    """The vertical augmentation map from row 0 to the augmentation row."""
    return line_map(B, "e", 0, row_sset(B, 0), row_sset(B, -1), lambda n: (0, n))


def aug_col_map(B: DSet) -> SMap:
    return line_map(B, "d", 0, col_sset(B, 0), col_sset(B, -1), lambda n: (n, 0))


def is_bicomodule_config(B: DSet) -> CheckReport:
    """Stable, double Segal, 2-Segal augmentations, culf augmentation maps."""
    parts = [
        stability(B, "both", "bicomodule:stability"),
        is_double_segal(B, "bicomodule:double-segal"),
        is_2segal(row_sset(B, -1), "both", "bicomodule:aug-row-2segal"),
        is_2segal(col_sset(B, -1), "both", "bicomodule:aug-col-2segal"),
        CheckReport.conjunction("bicomodule:aug-row-culf", [is_culf(aug_row_map(B))]),
        CheckReport.conjunction("bicomodule:aug-col-culf", [is_culf(aug_col_map(B))]),
    ]
    return CheckReport.conjunction("is_bicomodule_config", parts)


def is_rel_upper_2segal(F: SMap) -> CheckReport:
    """The pullback of the top-decalage counit along F is Segal."""
    X, Y = F.source, F.target
    T = F.trunc - 1
    if T < 2:
        return CheckReport.precondition_failure("is_rel_upper_2segal", "needs trunc >= 3")
    levels = {}
    for n in range(T + 1):
        xs, ys = X.level(n), Y.level(n + 1)
        levels[n] = _sorted_ids(pullback_pairs(F.levels[n], Y.actions["d", n + 1, n + 1], xs, ys), (xs, ys))
    actions = {}
    for kind, k, n in delta_actions(T):
        x_table, y_table = X.actions[kind, k, n], Y.actions[kind, k, n + 1]
        actions[kind, k, n] = {(x, y): (x_table[x], y_table[y]) for (x, y) in levels[n]}
    P = TruncSSet(T, levels, actions)
    return CheckReport.conjunction("is_rel_upper_2segal", [is_segal(P)])


def dictionary_conditions(F: SMap) -> dict:
    return {
        "source_2segal": is_2segal(F.source, "both"),
        "target_2segal": is_2segal(F.target, "both"),
        "rel_upper_2segal": is_rel_upper_2segal(F),
    }


def has_invertible_abacus(B: DSet) -> CheckReport:
    """Every stored abacus action is a bijection onto its target level,
    decided with one image set per table; the witnesses of a refuted table
    are named only when the report's witnesses are read."""
    refuted = []
    tables = B.abacus_tables("f")
    for lvl, table in tables:
        level = B.level(*action_target("f", lvl))
        images = set(table.values())
        if len(images) != len(table) or not images.issuperset(level):
            refuted.append((lvl, list(table.items()), level))
    if not refuted:
        return CheckReport("has_invertible_abacus", [], len(tables))
    return CheckReport.refutation("has_invertible_abacus", lambda: [
        w for lvl, items, level in refuted
        for w in bijection_witnesses(f"f@{lvl}", "abacus", ((x, (y,)) for x, y in items), [(y,) for y in level])],
        len(tables))


# ---------------------------------------------------------------------------
# Pointed bisimplicial sets: restriction, axioms, total decalage


def j_upper_star(B: DSet) -> SigmaSet:
    """Forget down to the pointing shape: keep the bulk, point with the
    zeroth augmentation-column level via its splitting."""
    if B.trunc < 1:
        raise TruncationError("the pointing restriction needs trunc >= 1")
    Tb = B.trunc - 1
    levels = {
        lv: B.level(*lv)
        for lv in B.levels
        if lv[0] >= 0 and lv[1] >= 0 and lv[0] + lv[1] <= Tb
    }
    bulk = BiSSet(Tb, levels, restrict_actions(B.actions, levels, BULK_KINDS))
    return SigmaSet(bulk, B.level(0, -1), B.actions["ssub", None, (0, -1)])


def p_star_tot(X: TruncSSet) -> SigmaSet:
    """The total decalage pointed by the zeroth degeneracy."""
    return SigmaSet(tot(X), X.level(0), X.actions["s", 0, 0])


def pointed_row0(A: SigmaSet) -> PointedSSet:
    return PointedSSet(row_sset(A.bulk, 0), A.point_set, A.pointing)


def pointed_col0(A: SigmaSet) -> PointedSSet:
    return PointedSSet(col_sset(A.bulk, 0), A.point_set, A.pointing)


@deciding_once()
def boors_axioms(A: SigmaSet, half: bool = False) -> CheckReport:
    """Stability, double Segal, and the two pointing axioms.

    With ``half=True`` only the horizontal half is required: upper
    stability, Segal rows, and the pointing a local-initial structure on
    the zeroth row.

    Runs inside ``presheaf.deciding_once``, so each square is decided
    once per call: on a total decalage the stability, row-Segal and
    column-Segal checks meet the very same squares.  The horizontal
    pointing axiom decides ``_row0_comparison(A)``.
    """
    horizontal = _local_report(pointed_row0(A), "bottom", "is_local_initial", lambda: _row0_comparison(A))
    if half:
        rows = {i: row_sset(A.bulk, i) for i in sorted({i for (i, j) in A.bulk.levels})}
        segal_rows = [is_segal(row, f"row{i}") for i, row in rows.items() if row.trunc >= 2]
        parts = [
            stability(A.bulk, "upper", "half:upper-stability"),
            CheckReport.conjunction("half:segal-rows", segal_rows),
            CheckReport.conjunction("half:horizontal-pointing", [horizontal]),
        ]
        return CheckReport.conjunction("half_boors_axioms", parts)
    parts = [
        stability(A.bulk, "both", "boors:stability"),
        is_double_segal(A.bulk, "boors:double-segal"),
        CheckReport.conjunction("boors:horizontal-pointing", [horizontal]),
        CheckReport.conjunction("boors:vertical-pointing",
                                [is_local_terminal(pointed_col0(A))]),
    ]
    return CheckReport.conjunction("boors_axioms", parts)


# ---------------------------------------------------------------------------
# The extension from the pointing shape to the abacus shape


def _pointing_sections(compare: dict) -> dict:
    """The inverse of a ``decalage.pointing_comparison``, level by level:
    ``{n: {x: (c, b)}}``.  Along row zero (side "bottom") that is the
    local-initial comparison, along column zero ("top") the local-terminal
    one; the caller has checked that it is a bijection (``boors_axioms``)."""
    return {n: {x: pair for pair, x in level.items()} for n, level in compare.items()}


def _row0_comparison(A: SigmaSet) -> dict:
    """``decalage.pointing_comparison`` along A's row zero, the one the
    horizontal pointing axiom decides.  Built once per ``deciding_once``
    block (``presheaf.built_once``), so the extension, which runs in one,
    inverts for its first splittings the comparison its gate decided."""
    return built_once(("row0", A), lambda: pointing_comparison(pointed_row0(A), "bottom"))


def _extension_fails(site: str, equation: str, offenders: tuple) -> CheckReport:
    return CheckReport.from_witnesses("extend_sigma_to_d", [Witness(site, equation, offenders)], 1)


@deciding_once()
def extend_sigma_to_d(A: SigmaSet, half: bool = False):
    """Rebuild the abacus presheaf from a pointed bisimplicial set.

    Splittings propagate down the rows by upper stability; row-wise
    colimits build the augmentation column; column-wise colimits build
    the augmentation row (skipped for ``half=True``, which targets the
    shape without the augmentation row).  Every abacus map is read off
    the presentation's relation f = e_top ssub.  The top splittings are
    not built: they are t# = f^{-1} s_0 of the result (``_top_splittings``).
    Returns ``(B, report, axioms)``: the DSet (None when it cannot be
    built), its report, and the ``boors_axioms(A, half=half)`` report
    decided as the gate, so a caller that reports the axioms does not
    decide them again.  The extension runs inside
    ``presheaf.deciding_once``, its gate's block too, so the row-zero
    pointing comparison the gate decides is built once and inverted for
    the first splittings.  A precondition report means the input fails the
    pointing axioms or is too shallow; a splitting that cannot be built
    from an input meeting the axioms refutes the construction, so that
    report fails with a witness.
    """
    axioms = boors_axioms(A, half=half)
    if not axioms.passed:
        return None, CheckReport.precondition_failure(
            "extend_sigma_to_d", "pointing axioms fail"
        ), axioms
    bulk = A.bulk
    Tb = bulk.trunc
    TD = Tb - 1
    if TD < 0:
        return None, CheckReport.precondition_failure(
            "extend_sigma_to_d", "trunc too small"), axioms

    # the axioms passed, so the row-zero comparison their gate built is a bijection
    row0 = _pointing_sections(_row0_comparison(A))
    srow = {0: {j: {b: inv[b][1] for b in bulk.level(0, j)} for j, inv in row0.items()}}
    for i in range(1, Tb + 1):
        srow[i] = {}
        for j in range(Tb - i):
            e0 = bulk.actions["e", 0, (i, j)]
            srow[i][j], misses = lift(
                bulk.level(i, j + 1), bulk.actions["d", 0, (i, j + 1)],
                bulk.actions["e", 0, (i, j + 1)],
                ((b, srow[i - 1][j][e0[b]]) for b in bulk.level(i, j)))
            if misses:
                return None, _extension_fails(f"srow@({i},{j})", "no lift through (d_0, e_0)",
                                              (misses[0],)), axioms

    # augmentation column: the pointing set in row zero, row colimits below;
    # augmentation row: column colimits
    col_classes = {0: A.point_set}
    col_quot = {0: {b: row0[0][b][0] for b in bulk.level(0, 0)}}
    for i in range(1, TD + 1):
        col_classes[i], col_quot[i] = colimit0(row_sset(bulk, i))

    def rep_col(i, z):
        return A.pointing[z] if i == 0 else z

    row_classes = {}
    row_quot = {}
    if not half:
        for j in range(TD + 1):
            row_classes[j], row_quot[j] = colimit0(col_sset(bulk, j))

    levels = {}
    for lvl in dset_levels(TD, with_aug_row=not half):
        i, j = lvl
        if j == -1:
            levels[lvl] = col_classes[i]
        elif i == -1:
            levels[lvl] = row_classes[j]
        else:
            levels[lvl] = bulk.level(i, j)

    def table(kind, k, lvl, tgt):
        i, j = lvl
        if kind == "f":  # the relation f = e_top ssub
            mid = action_target("ssub", lvl)
            e_top = table("e", i, mid, tgt)
            return {b: e_top[s] for b, s in table("ssub", None, lvl, mid).items()}
        if i >= 0 and j >= 0:  # bulk sources
            if kind == "ssub":
                return srow[i][j]
            if kind == "e" and tgt[0] == -1:
                return row_quot[j]
            if kind == "d" and tgt[1] == -1:
                return col_quot[i]
            return bulk.actions[kind, k, lvl]
        if j == -1:  # augmentation column sources
            if kind in ("e", "t"):
                return {z: col_quot[tgt[0]][bulk.actions[kind, k, (i, 0)][rep_col(i, z)]]
                        for z in levels[lvl]}
            if i == 0:  # ssub: the pointing in row zero
                return {c: A.pointing[c] for c in levels[lvl]}
            d1 = bulk.actions["d", 1, (i, 1)]  # below it, d_1 after the splitting
            return {z: d1[srow[i][0][z]] for z in levels[lvl]}
        # augmentation row sources: d and s
        return {z: row_quot[tgt[1]][bulk.actions[kind, k, (0, j)][z]] for z in levels[lvl]}

    actions = {(kind, k, lvl): table(kind, k, lvl, tgt)
               for lvl, gens in generators_into(TD).items() if lvl in levels
               for kind, k, tgt, _ in gens if tgt in levels}

    B = DSet(TD, levels, actions)
    return B, validate(B, "extension"), axioms


def splitting_checks(B: DSet) -> dict:
    """The abacus maps f are invertible, and the top splitting t# = f^{-1} s_0
    they give satisfies ``ts_compat`` (the top degeneracy and t# agree
    after the bottom splitting, including on the augmentation column) and
    ``invertibility_pair`` (g = d_bot t# inverts f = e_top s# wherever both
    splittings exist).  Without invertible f, t# is undefined and both
    identities are undecided.  Named CheckReports."""
    out = {"invertible_abacus": has_invertible_abacus(B)}
    if not out["invertible_abacus"].passed:
        for name in ("ts_compat", "invertibility_pair"):
            out[name] = CheckReport.precondition_failure(name, "abacus not invertible")
        return out
    tsharp = _top_splittings(B)
    witnesses = []
    checked = 0
    for (i, j), ssub in B.abacus_tables("ssub"):
        mid = action_target("ssub", (i, j))
        t_top = B.actions.get(("t", i, mid))
        if mid not in tsharp or t_top is None:
            continue
        for b in B.level(i, j):
            checked += 1
            sb = ssub[b]
            if t_top[sb] != tsharp[mid][sb]:
                witnesses.append(Witness(f"ts@({i},{j})", "t_top s# = t# s#", (b,)))
    out["ts_compat"] = CheckReport.from_witnesses("ts_compat", witnesses, checked)
    witnesses = []
    checked = 0
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
    out["invertibility_pair"] = CheckReport.from_witnesses("invertibility_pair", witnesses, checked)
    return out


def _top_splittings(B: DSet) -> dict:
    """The top splittings t# = f^{-1} s_0 (s# in place of s_0 on the
    augmentation column), read off B itself: ``{(i, j): table}``, empty
    when no level has one.  B's abacus maps f must be invertible.
    ``splitting_checks`` reads only these, so an extension and its
    ``dset`` file are judged alike."""
    inv = {lvl: {v: k for k, v in tab.items()} for lvl, tab in B.abacus_tables("f")}
    out = {}
    for lvl in B.levels:
        up = action_target("t", lvl)
        # s_0 on the bulk, the splitting s# on the augmentation column
        sec = B.actions.get(("s", 0, lvl) if lvl[1] >= 0 else ("ssub", None, lvl))
        if up in inv and sec is not None:
            out[lvl] = {b: inv[up][sec[b]] for b in B.level(*lvl)}
    return out


# ---------------------------------------------------------------------------
# The cocartesian correspondence over the arrow


def build_M(B: DSet):
    """Package the slice-shaped levels as one simplicial set over the arrow.

    Level n is the disjoint union of the levels of total degree n, with
    faces the vertical ones below the marker and horizontal above; the
    projection lands in the nerve of the arrow.  Returns (M, proj SMap).
    """
    T = B.trunc
    slices = {n: [(lv, xs) for lv, xs in B.levels.items() if lv[0] + 1 + lv[1] == n] for n in range(T + 1)}
    # each element tagged with its level's own key object, formatted once per level
    levels = {n: _sorted_ids(((lv, x) for lv, xs in parts for x in xs), [xs for _, xs in parts])
              for n, parts in slices.items()}

    def generator(kind, k, n):
        """M's generator ``(kind, k, n)``: on the slice level (i, j) the
        vertical one, ``VERTICAL[kind]``, with index k for k <= i, else the
        horizontal one with index k - i - 1, each table taken once."""
        step = {}
        for (i, j) in {lv for lv, _ in levels[n]}:
            key = (VERTICAL[kind], k, (i, j)) if k <= i else (kind, k - i - 1, (i, j))
            step[i, j] = action_target(key[0], (i, j)), B.actions[key]
        return {(lv, x): (step[lv][0], step[lv][1][x]) for lv, x in levels[n]}

    from .corpus import chain_poset, nerve

    M = TruncSSet(T, levels, {key: generator(*key) for key in delta_actions(T)})
    arrow = nerve(chain_poset(1), T)
    proj_levels = {}
    for n in range(T + 1):
        table = {}
        for ((i, j), x) in levels[n]:
            if n == 0:
                table[((i, j), x)] = 0 if j == -1 else 1
            elif j == -1:
                table[((i, j), x)] = ((0, 0),) * n
            elif i == -1:
                table[((i, j), x)] = ((1, 1),) * n
            else:
                table[((i, j), x)] = ((0, 0),) * i + ((0, 1),) + ((1, 1),) * j
        proj_levels[n] = table
    return M, SMap(M, arrow, proj_levels)


def extract_from_M(M: TruncSSet, proj: SMap) -> dict:
    """Recover the slice-shaped levels from the fibers of the projection,
    each a cut of ``M.level(n)`` in level order (``_cut``), never sorted."""
    T = M.trunc
    out_levels = {}
    for n in range(T + 1):
        level = M.level(n)
        lvls = []  # each element's slice level
        for m in level:
            z = proj.at(n, m)
            if n == 0:
                lvl = (0, -1) if z == 0 else (-1, 0)
            else:
                zeros = sum(1 for c in z if c == (0, 0))
                ones = sum(1 for c in z if c == (1, 1))
                cross = sum(1 for c in z if c == (0, 1))
                lvl = (zeros, n - 1 - zeros) if cross else ((n, -1) if ones == 0 else (-1, n))
            lvls.append(lvl)
        for lvl in dict.fromkeys(lvls):
            out_levels[lvl] = _cut(level, (v == lvl for v in lvls))
    return out_levels


def m_2segal_dictionary(conds: dict, B: DSet) -> CheckReport:
    """Both sides of the correspondence computed independently must agree:
    the packaged total space is 2-Segal exactly when source and target are
    2-Segal and the map is relatively upper 2-Segal.  ``conds`` is
    ``dictionary_conditions(F)`` and ``B`` is ``q_lower_star(F)`` of one map
    F, as the caller already holds them.  Vacuous when either side is
    undecided (vacuous or a failed precondition) under the truncation."""
    name = "m_2segal_dictionary"
    conds = conds.values()
    M, proj = build_M(B)
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


# ---------------------------------------------------------------------------
# Comparison helpers


def sigmaset_equal(A1: SigmaSet, A2: SigmaSet) -> bool:
    T = min(A1.trunc, A2.trunc)
    for (i, j) in A1.bulk.levels:
        if i + j <= T and A1.bulk.level(i, j) != A2.bulk.level(i, j):
            return False
    if A1.point_set != A2.point_set or A1.pointing != A2.pointing:
        return False
    t2 = A2.bulk.actions
    for key, table in A1.bulk.actions.items():
        kind, _, lvl = key
        if sum(lvl) <= T and sum(action_target(kind, lvl)) <= T and key in t2:
            if table != t2[key]:
                return False
    return True


def collapse_aug_row(B: DSet) -> DSet:
    """A validated abacus presheaf failing the cartesian-abacus condition:
    the augmentation row is collapsed to the point ``"*"``."""
    levels = {lvl: ("*",) if lvl[0] == -1 else xs for lvl, xs in B.levels.items()}
    # every action landing in the augmentation row becomes constant
    actions = {
        (kind, k, lvl): {x: "*" for x in levels[lvl]}
        if action_target(kind, lvl)[0] == -1 else table
        for (kind, k, lvl), table in B.actions.items()
    }
    return DSet(B.trunc, levels, actions)


def tot_roundtrip_iso(X: TruncSSet, B_ext: DSet) -> dict:
    """The canonical level maps from the extension of the pointed total
    decalage onto the Kan extension of the identity.

    Bulk elements pair with their top-face projections; augmentation
    classes map through the face their representatives were split from.
    """
    TD = B_ext.trunc
    maps = {}
    for (i, j) in dset_levels(TD):
        if i >= 0 and j >= 0:
            front = X.act_tables(MonotoneMap(i + 1, i + j + 2, tuple(range(i + 1))))
            maps[(i, j)] = {u: (through(front, u), u) for u in B_ext.level(i, j)}
        elif j == -1 and i == 0:
            maps[(0, -1)] = {c: c for c in B_ext.level(0, -1)}
        elif j == -1:
            maps[(i, -1)] = {z: X.face(i + 1, i + 1, z) for z in B_ext.level(i, -1)}
        else:
            maps[(-1, j)] = {z: X.face(j + 1, 0, z) for z in B_ext.level(-1, j)}
    return maps


def star_roundtrip(F: SMap) -> dict:
    """The Kan extension of a simplicial map against its unit.

    Returns named CheckReports: the cartesian-abacus condition and unit
    bijectivity of ``q_lower_star(F)``, and exact recovery of F by
    restricting that extension to its augmentations.
    """
    B = q_lower_star(F)
    F2 = q_upper_star(B)
    differ = tuple(n for n in F2.levels if F2.levels[n] != F.levels[n])
    return {
        "star": condition_star(B),
        "unit": unit_iso(B),
        "restriction_recovers_map": CheckReport.from_witnesses(
            "restriction_recovers_map",
            [Witness("q^*", "restriction differs from the map", differ)] if differ else [],
            1),
    }


def m_roundtrip(P) -> dict:
    """The packaged total space over the arrow and its extraction.

    P is an abacus presheaf, or a simplicial map standing for its Kan
    extension.  Returns named CheckReports: validity of the total space M
    and of its projection, and exact recovery of every level from the
    projection's fibres.
    """
    B = q_lower_star(P) if isinstance(P, SMap) else P
    M, proj = build_M(B)
    fib = extract_from_M(M, proj)
    differ = tuple(lvl for lvl in B.levels
                   if tuple(x[1] for x in fib.get(lvl, ())) != B.level(*lvl))
    return {
        "m_validates": validate(M),
        "projection_validates": validate(proj),
        "extraction_identity": CheckReport.from_witnesses(
            "extraction_identity",
            [Witness("extract", "fibre differs from the level", differ)] if differ else [],
            len(B.levels)),
    }


def boors_roundtrip(X: TruncSSet) -> dict:
    """The full equivalence round trip on a single simplicial set.

    Returns named CheckReports: axioms of the pointed total decalage (the
    extension's own gate), validity of the extension, invertibility,
    splitting compatibility, exact recovery under the pointing
    restriction, and the canonical isomorphism with the Kan extension of
    the identity, built at the extension's depth ``B.trunc`` (X's
    truncation less two), where it is compared.
    """
    A = p_star_tot(X)
    B, rep, axioms = extend_sigma_to_d(A)
    out = {"axioms": axioms, "extension_valid": rep}
    if B is None:
        return out
    out.update(splitting_checks(B))
    recovered = sigmaset_equal(j_upper_star(B), A)
    out["pointing_restriction"] = CheckReport.from_witnesses(
        "pointing_restriction",
        [] if recovered else [Witness("j*", "restriction differs from input", ())], 1)
    Q = q_lower_star(identity_smap(sub_trunc(X, B.trunc)))
    out["iso_with_kan"] = dset_iso_report(B, Q, tot_roundtrip_iso(X, B), "iso_with_kan")
    return out


def half_roundtrip(F: SMap) -> dict:
    """The half-axiom equivalence round trip starting from a simplicial map.

    The pointed restriction of its Kan extension satisfies the horizontal
    half of the axioms; extending without the augmentation row must land
    back on the Kan extension away from that row.  The half axioms are the
    extension's own gate.  Beside it, ``vertical_pointing`` decides the
    vertical pointing axiom alone, which the half axioms leave out.
    """
    B = q_lower_star(F)
    A = j_upper_star(B)
    Bh, rep, half_axioms = extend_sigma_to_d(A, half=True)
    out = {"half_axioms": half_axioms,
           "vertical_pointing": is_local_terminal(pointed_col0(A)), "extension_valid": rep}
    if Bh is None:
        return out
    recovered = sigmaset_equal(j_upper_star(Bh), A)
    out["pointing_restriction"] = CheckReport.from_witnesses(
        "pointing_restriction",
        [] if recovered else [Witness("restrict", "restriction differs from input", ())], 1)
    kept = dset_levels(Bh.trunc, with_aug_row=False)
    Q = _restrict_dset(B, Bh.trunc, {lvl: B.levels[lvl] for lvl in kept})
    maps = {}
    for (i, j) in kept:
        if j >= 0 or i == 0:
            maps[(i, j)] = {x: x for x in Bh.level(i, j)}
        else:
            maps[(i, -1)] = {z: B.actions["d", 0, (i, 0)][z] for z in Bh.level(i, -1)}
    out["iso_with_kan"] = dset_iso_report(Bh, Q, maps, "iso_with_kan")
    return out


def _restrict_dset(B: DSet, T: int, levels: dict) -> DSet:
    """B on the given levels, with the actions between them."""
    return DSet(T, levels, restrict_actions(B.actions, levels))
