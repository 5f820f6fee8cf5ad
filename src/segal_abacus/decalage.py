"""Decalage, splittings, and local initial/terminal objects.

The lower decalage forgets bottom faces and reindexes; a bottom-split
simplicial set carries extra sections under the bottom faces, which is
the same data as a coalgebra for the lower-decalage comonad.  Rigidity
(the structure map being cartesian) is what makes a splitting behave
like a choice of local initial objects, and the pair of functors
``h_lower`` / ``h_upper`` exchanges the two descriptions.  The pointed
and split shapes (``PointedSSet``, ``BottomSplitSSet``,
``AugBottomSplitSSet``) and their validators live in ``presheaf`` with
every other shape; this module holds only constructions and checks.

The BOORS local-initial (and local-terminal) comparison and Carlier's
h-counit are one pullback, built by ``pointing_comparison``: the local
checks decide whether it is a bijection, ``h_lower`` takes its
bottom-side pairs as levels, ``h_counit_map`` reads its bottom side off
those levels, and ``configurations`` inverts it to start the extension's
splittings.  It reads the counit off X's face tables, as ``counit``
does, and builds no counit map and no second decalage.  An extension
builds the row-zero comparison once: it runs inside
``presheaf.deciding_once``, its ``boors_axioms`` gate decides the
comparison through ``_local_report``, and ``presheaf.built_once`` keeps
it in the block for the extension to invert.
"""

from __future__ import annotations

from .presheaf import (
    AugBottomSplitSSet,
    BiSSet,
    BottomSplitSSet,
    CheckReport,
    PointedSSet,
    SMap,
    TruncationError,
    TruncSSet,
    Witness,
    _sorted_ids,
    bijection_witnesses,
    bisset_actions,
    cartesian_on,
    constant_sset,
    delta_actions,
    is_bijection,
    pullback_pairs,
    sub_trunc,
    through,
)
from .simplex import MonotoneMap


# ---------------------------------------------------------------------------
# Decalage of simplicial sets and maps


def dec(X: TruncSSet, side: str) -> TruncSSet:
    """Shift down by one, dropping bottom (resp. top) faces and degeneracies."""
    if X.trunc < 1:
        raise TruncationError("decalage needs trunc >= 1")
    T = X.trunc - 1
    levels = {n: X.level(n + 1) for n in range(T + 1)}
    shift = 1 if side == "bottom" else 0
    return TruncSSet(T, levels, {(kind, k, n): X.actions[kind, k + shift, n + 1]
                                 for kind, k, n in delta_actions(T)})


def dec_map(F: SMap, side: str) -> SMap:
    return SMap(
        dec(F.source, side),
        dec(F.target, side),
        {n: F.levels[n + 1] for n in range(F.trunc)},
    )


def counit(X: TruncSSet, side: str) -> SMap:
    """The map dec(X) -> X given by the dropped face in each degree."""
    return SMap(dec(X, side), X, _counit_levels(X, side))


def _counit_levels(X: TruncSSet, side: str) -> dict:
    """The counit's level n: the face table that dec(X, side) drops out of X_{n+1}."""
    return {n: X.actions["d", 0 if side == "bottom" else n + 1, n + 1] for n in range(X.trunc)}


def comult(X: TruncSSet) -> SMap:
    """dec_bottom(X) -> dec_bottom(dec_bottom(X)) by bottom degeneracies."""
    if X.trunc < 2:
        raise TruncationError("comultiplication needs trunc >= 2")
    D = dec(X, "bottom")
    DD = dec(D, "bottom")
    levels = {n: X.actions["s", 0, n + 1] for n in range(DD.trunc + 1)}
    return SMap(sub_trunc(D, DD.trunc), DD, levels)


def alpha_aug(X: TruncSSet, side: str = "bottom") -> SMap:
    """The canonical augmentation of a decalage to the constant set on X_0.

    Bottom decalage augments by composites of top faces (degree zero is
    d_1); the top decalage dually augments by composites of bottom faces.
    """
    D = dec(X, side)
    C = constant_sset(X.level(0), D.trunc)
    levels = {}
    for n in range(D.trunc + 1):
        # d_m out of level m, m = n + 1 ... 1, on the bottom side; d_0 on the top
        faces = [X.actions["d", m if side == "bottom" else 0, m] for m in range(n + 1, 0, -1)]
        levels[n] = {x: through(faces, x) for x in D.level(n)}
    return SMap(D, C, levels)


# ---------------------------------------------------------------------------
# Total decalage and edgewise subdivision


def tot(X: TruncSSet):
    """The total decalage as a bisimplicial set of truncation T - 1."""
    if X.trunc < 1:
        raise TruncationError("total decalage needs trunc >= 1")
    T = X.trunc - 1
    levels = {}
    actions = {}
    for (i, j), gens in bisset_actions(T).items():
        n = i + 1 + j
        levels[(i, j)] = X.level(n)
        # vertical generators act by the first i + 1 indices, horizontal by the rest
        for kind, k, _ in gens:
            index = k if kind in ("e", "t") else i + 1 + k
            actions[kind, k, (i, j)] = X.actions["d" if kind in ("e", "d") else "s", index, n]
    return BiSSet(T, levels, actions)


def sd(X: TruncSSet) -> TruncSSet:
    """Edgewise subdivision: level n is X_{2n+1} with paired outer actions."""
    T = (X.trunc - 1) // 2
    if T < 0:
        raise TruncationError("subdivision needs trunc >= 1")
    levels = {n: X.level(2 * n + 1) for n in range(T + 1)}
    actions = {}
    for kind, k, n in delta_actions(T):
        # the paired outer actions: d_{n+1+k} then d_{n-k}, or s_{n-k} then s_{n+2+k}
        if kind == "d":
            first, then = X.actions["d", n + 1 + k, 2 * n + 1], X.actions["d", n - k, 2 * n]
        else:
            first, then = X.actions["s", n - k, 2 * n + 1], X.actions["s", n + 2 + k, 2 * n + 2]
        actions[kind, k, n] = {x: then[first[x]] for x in levels[n]}
    return TruncSSet(T, levels, actions)


def sd_map(F: SMap) -> SMap:
    """F's subdivision, up to F's own truncation: built on the source cut
    to it, as ``gamma`` is, so a source deeper than the target is not read
    past the map's levels."""
    S = sd(sub_trunc(F.source, F.trunc))
    return SMap(S, sd(F.target), {n: F.levels[2 * n + 1] for n in range(S.trunc + 1)})


# ---------------------------------------------------------------------------
# Split structures: rigidity


def gamma(A: BottomSplitSSet) -> SMap:
    """The coalgebra structure map X -> dec_bottom(X) built from the splitting."""
    D = dec(A.sset, "bottom")
    return SMap(sub_trunc(A.sset, D.trunc), D, {n: A.split[n] for n in range(D.trunc + 1)})


def is_rigid(A: BottomSplitSSet) -> CheckReport:
    """Rigidity: the structure map is cartesian on every operator."""
    return cartesian_on(gamma(A), "all", "is_rigid")


# ---------------------------------------------------------------------------
# Local initial and terminal objects


def pointing_comparison(P: PointedSSet, side: str) -> dict:
    """The pointing's comparison, ``{n: {(c, x): counit(x)}}``: on the
    pullback of the pointing against dec's canonical augmentation (``side``
    "bottom": x in X_{n+1} over c by its top faces; "top": by its bottom
    faces), the counit's face to X_n, looked up in X's face table (no
    counit map is built).  The local-initial (bottom) and local-terminal
    (top) checks ask that it be a bijection; its bottom side is Carlier's
    h-counit."""
    X = P.sset
    al = alpha_aug(X, side)
    faces = _counit_levels(X, side)
    return {
        n: {(c, x): faces[n][x]
            for c, x in pullback_pairs(P.pointing, al.levels[n], P.point_set, al.source.level(n))}
        for n in range(al.source.trunc + 1)
    }


def _local_report(P: PointedSSet, side: str, name: str, build=None) -> CheckReport:
    """Whether P's comparison on ``side`` is a bijection at every level,
    decided with one image set per level; the witnesses of a refuted level
    are named only when the report's witnesses are read.  ``build()``, when
    given, builds that comparison for a caller that keeps it."""
    X = P.sset
    if X.trunc < 1:
        return CheckReport.precondition_failure(name, "trunc too small")
    compare = build() if build else pointing_comparison(P, side)
    checked = sum(map(len, compare.values()))
    refuted = [(n, list(compare[n].items()), X.level(n)) for n in sorted(compare)
               if not is_bijection(compare[n].values(), X.level(n))]
    if not refuted:
        return CheckReport(name, [], checked)
    return CheckReport.refutation(name, lambda: [
        w for n, items, level in refuted
        for w in bijection_witnesses(f"level@{n}", "comparison", ((z, (x,)) for z, x in items),
                                     [(x,) for x in level])], checked)


def is_local_initial(P: PointedSSet) -> CheckReport:
    """The pointed comparison to the bottom decalage is a degreewise bijection."""
    return _local_report(P, "bottom", "is_local_initial")


def is_local_terminal(P: PointedSSet) -> CheckReport:
    return _local_report(P, "top", "is_local_terminal")


# ---------------------------------------------------------------------------
# The comparison functors between pointings and split structures


def h_lower(P: PointedSSet) -> AugBottomSplitSSet:
    """Pointed set to split-augmented set, by pulling back the shifted set.

    Level n is the pullback of C against X_{n+1} over X_0, the pairs of
    the bottom ``pointing_comparison``; the splitting comes from the bottom
    degeneracies that survive the shift.
    """
    X = P.sset
    if X.trunc < 1:
        raise TruncationError("h_lower needs trunc >= 1")
    T = X.trunc - 1
    levels = {n: _sorted_ids(pairs, (P.point_set, X.level(n + 1)))
              for n, pairs in pointing_comparison(P, "bottom").items()}
    actions = {}
    for kind, k, n in delta_actions(T):
        table = X.actions[kind, k + 1, n + 1]
        actions[kind, k, n] = {(c, x): (c, table[x]) for (c, x) in levels[n]}
    sset = TruncSSet(T, levels, actions)
    split = {
        n: {(c, x): (c, X.deg(n + 1, 0, x)) for (c, x) in levels[n]} for n in range(T)
    }
    aug = {(c, x): c for (c, x) in levels[0]}
    aug_split = {c: (c, X.deg(0, 0, P.pointing[c])) for c in P.point_set}
    return AugBottomSplitSSet(sset, split, P.point_set, aug, aug_split)


def h_upper(A: AugBottomSplitSSet) -> PointedSSet:
    """Forget the splitting, keeping the augmentation section as pointing."""
    return PointedSSet(A.sset, A.aug_level, A.aug_split)


def h_counit_map(P: PointedSSet) -> SMap:
    """The comparison from the underlying set of h_lower(P) back to P's set:
    the bottom ``pointing_comparison``, read off h_lower(P)'s levels (its
    pairs) and the counit's face tables rather than built a second time,
    so it is a bijection exactly when P is local initial."""
    A = h_lower(P)
    faces = _counit_levels(P.sset, "bottom")
    return SMap(A.sset, sub_trunc(P.sset, A.sset.trunc),
                {n: {(c, x): faces[n][x] for c, x in pairs} for n, pairs in A.sset.levels.items()})


def h_unit_report(A: AugBottomSplitSSet) -> CheckReport:
    """Bijectivity of the unit A -> h_lower(h_upper(A)), which holds exactly
    for rigid coalgebras."""
    B = h_lower(h_upper(A))
    X = A.sset
    witnesses = []
    checked = 0
    for n in range(B.sset.trunc + 1):
        inside = set(B.sset.level(n))
        images = []
        vertex0 = X.act_tables(MonotoneMap(1, n + 1, (0,)))
        for x in X.level(n):
            checked += 1
            target = (A.aug[through(vertex0, x)], A.split[n][x])
            if target in inside:
                images.append((x, (target,)))
            else:
                witnesses.append(Witness(f"unit@{n}", "unit misses the pullback", (x,)))
        witnesses += bijection_witnesses(f"unit@{n}", "unit", images,
                                         [(z,) for z in B.sset.level(n)])
    return CheckReport.from_witnesses("h_unit", witnesses, checked)
