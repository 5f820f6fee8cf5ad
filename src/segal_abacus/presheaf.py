"""Truncated finite Set-valued presheaves and their checkers.

Levels hold opaque element ids (strings, or tuples for constructed sets)
and actions are stored as dicts, one per generator per source level.
Bisimplicial sets and abacus presheaves keep every generator in one
``actions`` dict keyed ``(kind, k, (i, j))``; ``action_target`` reads the
level each action lands in off ``abacus.SHIFT``, the one table of where
each generator lands.
Presheaves are immutable by convention after construction: nothing here
mutates them, and all checkers are read-only.

The index-category combinatorics are computed once and then looked up.
Which levels and actions a truncated presheaf has is read off the one
generator table, ``abacus.generators_into`` (``dset_levels``,
``bisset_actions``, ``validate_dset``, ``validate_bisset``); nothing here
lists generator indices or objects itself.  ``validate_dset`` reads the
abacus relation table as rows of action keys, cached per bound on the
levels (``_relation_rows``), and ``TruncSSet.act`` reads the face and
degeneracy steps of a monotone map, cached per map (``_act_steps``).
Element loops only look tables up: a construction that applies one map
to a whole level takes its tables once (``TruncSSet.act_tables``).

Element order is canonical, by ``fmt_id``, and computed once.  Every level
goes through ``_sorted_ids``, which marks the tuple it returns; only
``_sorted_ids`` makes the mark, and it returns a marked tuple unchanged.
So a level re-indexed from an already sorted one (``dec``, ``row_sset``,
``sub_trunc``, ``r_star``) is neither formatted nor sorted again.

A pullback is enumerated in one place, ``pullback_pairs`` (a hash join),
and whether a map is a bijection onto a set is decided in one place,
``bijection_witnesses``.  Every pullback the library builds (the levels
of ``q_lower_star``, ``h_lower`` and the relative upper 2-Segal check,
the pointing pullbacks, nerve chains and composable pairs) and every
pullback, unit, pointing, invertibility or isomorphism check goes through
these two.

Every checker reports relative to the truncation: verdicts are "pass up
to T", with the checked instances counted, never silently vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import abacus
from .reports import CheckReport, Witness
from .simplex import MonotoneMap, epi_mono_indices


class TruncationError(ValueError):
    """A construction needs a higher truncation than its input has."""


def fmt_id(x) -> str:
    """Canonical string form of an element id (tuples nest with parens)."""
    if isinstance(x, tuple):
        return "(" + ",".join(fmt_id(v) for v in x) + ")"
    return str(x)


class _Canonical(tuple):
    """A tuple of element ids in canonical order; only ``_sorted_ids`` makes one."""

    __slots__ = ()


def _sorted_ids(xs) -> tuple:
    """The ids in canonical order (by ``fmt_id``), sorted once: a tuple this
    returned comes back unchanged.  Slices and other copies are plain
    tuples and are sorted again."""
    if type(xs) is _Canonical:
        return xs
    return _Canonical(sorted(xs, key=fmt_id))


# ---------------------------------------------------------------------------
# Simplicial sets


class TruncSSet:
    """A finite simplicial set truncated at degree T.

    ``levels[n]`` lists the n-simplices; ``faces[(n, k)]`` is the action
    of d_k : X_n -> X_{n-1} and ``degens[(n, k)]`` of s_k : X_n -> X_{n+1}.
    """

    def __init__(self, trunc: int, levels: dict, faces: dict, degens: dict):
        self.trunc = trunc
        self.levels = {n: _sorted_ids(xs) for n, xs in levels.items()}
        self.faces = faces
        self.degens = degens

    def level(self, n: int) -> tuple:
        return self.levels.get(n, ())

    def face(self, n: int, k: int, x):
        return self.faces[(n, k)][x]

    def deg(self, n: int, k: int, x):
        return self.degens[(n, k)][x]

    def act(self, f: MonotoneMap, x):
        """Contravariant action of an arbitrary monotone map.

        ``f : [m] -> [n]`` acts on an n-simplex and returns an m-simplex,
        by the canonical face-then-degeneracy decomposition.
        """
        return through(self.act_tables(f), x)

    def act_tables(self, f: MonotoneMap) -> list:
        """The face and degeneracy tables ``f`` acts through, in turn."""
        return [(self.faces if is_face else self.degens)[key] for is_face, key in _act_steps(f)]

    def __repr__(self):
        sizes = {n: len(xs) for n, xs in sorted(self.levels.items())}
        return f"TruncSSet(T={self.trunc}, sizes={sizes})"


def through(tables, x):
    """Look ``x`` up in each table in turn."""
    for table in tables:
        x = table[x]
    return x


@lru_cache(maxsize=None)
def _act_steps(f: MonotoneMap) -> tuple:
    """The steps ``(is_face, (n, k))`` by which ``f`` acts: its canonical
    factorization, computed once per distinct map."""
    n = f.cod_n
    degens, faces = epi_mono_indices(f.values, f.cod)
    steps = []
    for i in reversed(faces):  # faces, largest index first
        steps.append((True, (n, i)))
        n -= 1
    for j in reversed(degens):  # degeneracies, smallest index first
        steps.append((False, (n, j)))
        n += 1
    return tuple(steps)


@dataclass
class SMap:
    """A simplicial map: per-level functions between same-truncation sets."""

    source: TruncSSet
    target: TruncSSet
    levels: dict

    def at(self, n: int, x):
        return self.levels[n][x]


def constant_sset(elements, trunc: int) -> TruncSSet:
    """The constant (equivalently discrete) simplicial set on a finite set."""
    elems = _sorted_ids(elements)
    levels = {n: elems for n in range(trunc + 1)}
    ident = {x: x for x in elems}
    faces = {(n, k): dict(ident) for n in range(1, trunc + 1) for k in range(n + 1)}
    degens = {(n, k): dict(ident) for n in range(trunc) for k in range(n + 1)}
    return TruncSSet(trunc, levels, faces, degens)


def identity_smap(X: TruncSSet) -> SMap:
    return SMap(X, X, {n: {x: x for x in X.level(n)} for n in X.levels})


def sub_trunc(X: TruncSSet, T: int) -> TruncSSet:
    levels = {n: xs for n, xs in X.levels.items() if n <= T}
    faces = {(n, k): v for (n, k), v in X.faces.items() if n <= T}
    degens = {(n, k): v for (n, k), v in X.degens.items() if n < T}
    return TruncSSet(T, levels, faces, degens)


def validate_sset(X: TruncSSet, name: str = "sset") -> CheckReport:
    """Well-formedness plus all simplicial identities within truncation."""
    witnesses = []
    checked = 0
    for n in range(X.trunc + 1):
        if n not in X.levels:
            witnesses.append(Witness(f"level@{n}", "level missing", ()))
    for n in range(1, X.trunc + 1):
        for k in range(n + 1):
            checked += _check_total(X.faces.get((n, k)), X.level(n), X.level(n - 1),
                                    f"d{k}@{n}", witnesses)
    for n in range(X.trunc):
        for k in range(n + 1):
            checked += _check_total(X.degens.get((n, k)), X.level(n), X.level(n + 1),
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


def _check_total(table, src, tgt, label, witnesses) -> int:
    if table is None:
        witnesses.append(Witness(label, "action table missing", ()))
        return 0
    tgt_set = set(tgt)
    n = 0
    for x in src:
        n += 1
        if x not in table:
            witnesses.append(Witness(label, "action undefined", (x,)))
        elif table[x] not in tgt_set:
            witnesses.append(Witness(label, "action leaves level", (x, table[x])))
    return n


def validate_smap(F: SMap, name: str = "smap") -> CheckReport:
    """Naturality of a simplicial map against every stored generator."""
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


# ---------------------------------------------------------------------------
# Pullbacks of finite sets


def pullback_pairs(f: dict, g: dict, a_elems, b_elems) -> list:
    """The strict pullback of f : A -> C against g : B -> C: the pairs
    ``(a, b)`` with ``f[a] == g[b]``, a-major, each side in the order
    given.  A hash join: B is grouped by image once, then each a meets
    its group."""
    over: dict = {}
    for b in b_elems:
        over.setdefault(g[b], []).append(b)
    return [(a, b) for a in a_elems for b in over.get(f[a], ())]


def bijection_witnesses(site: str, noun: str, pairs, want) -> list:
    """Why the map given by ``pairs``, ``(preimage, image)`` in turn, is not
    a bijection onto ``want``: a "``noun`` not injective" witness
    ``(earlier, later)`` for each image met again, naming the preimage that
    met it last, then a "``noun`` not surjective" witness for each image of
    ``want`` never met, in ``want``'s order.  Images are offender tuples,
    so a missed image is reported as it stands.  An image outside ``want``
    is neither: a caller whose map may leave ``want`` reports that itself."""
    witnesses = []
    seen = {}
    for p, im in pairs:
        if im in seen:
            witnesses.append(Witness(site, f"{noun} not injective", (seen[im], p)))
        seen[im] = p
    witnesses += [Witness(site, f"{noun} not surjective", im) for im in want if im not in seen]
    return witnesses


@dataclass(frozen=True)
class Square:
    """A commuting square candidate, checked via its comparison map.

    ``p -> a -> c`` and ``p -> b -> c``; it is a pullback when
    ``p -> {(a, b) : a_to_c(a) = b_to_c(b)}`` is a bijection.
    """

    name: str
    p_elems: tuple
    a_elems: tuple
    b_elems: tuple
    p_to_a: dict
    p_to_b: dict
    a_to_c: dict
    b_to_c: dict


def is_pullback(sq: Square) -> CheckReport:
    checked = len(sq.p_elems)
    witnesses = [Witness(sq.name, "square does not commute", (p,)) for p in sq.p_elems
                 if sq.a_to_c[sq.p_to_a[p]] != sq.b_to_c[sq.p_to_b[p]]]
    if witnesses:
        return CheckReport.from_witnesses("is_pullback", witnesses, checked)
    witnesses = bijection_witnesses(
        sq.name, "comparison", ((p, (sq.p_to_a[p], sq.p_to_b[p])) for p in sq.p_elems),
        pullback_pairs(sq.a_to_c, sq.b_to_c, sq.a_elems, sq.b_elems))
    return CheckReport.from_witnesses("is_pullback", witnesses, 2 * checked or 1)


# ---------------------------------------------------------------------------
# Cartesian-on-a-class checks for simplicial maps

OPERATOR_CLASSES = ("all", "d_bot", "d_top", "inner_faces", "degeneracies", "active")


def _class_operators(n: int, cls: str, for_faces: bool):
    if for_faces:
        if cls == "all":
            return range(n + 1)
        if cls == "d_bot":
            return [0]
        if cls == "d_top":
            return [n]
        if cls in ("inner_faces", "active"):
            return range(1, n)
        return []
    if cls in ("all", "degeneracies", "active"):
        return range(n + 1)
    return []


def cartesian_on(F: SMap, cls: str, name: str | None = None) -> CheckReport:
    """Check that F forms pullback squares with the chosen operator class."""
    if cls not in OPERATOR_CLASSES:
        raise ValueError(f"unknown operator class {cls!r}")
    X, Y = F.source, F.target
    T = min(X.trunc, Y.trunc)
    reports = []
    for n in range(1, T + 1):
        for k in _class_operators(n, cls, True):
            sq = Square(
                f"d{k}@{n}",
                X.level(n), X.level(n - 1), Y.level(n),
                X.faces[(n, k)], F.levels[n], F.levels[n - 1], Y.faces[(n, k)],
            )
            reports.append(is_pullback(sq))
    for n in range(T):
        for k in _class_operators(n, cls, False):
            sq = Square(
                f"s{k}@{n}",
                X.level(n), X.level(n + 1), Y.level(n),
                X.degens[(n, k)], F.levels[n], F.levels[n + 1], Y.degens[(n, k)],
            )
            reports.append(is_pullback(sq))
    return CheckReport.conjunction(name or f"cartesian_on[{cls}]", reports)


# ---------------------------------------------------------------------------
# Colimit in degree zero (the discrete geometric realization)


def colimit0(X: TruncSSet):
    """Coequalize d_0, d_1 : X_1 => X_0; returns (classes, augmentation).

    Classes are named by their minimal representative.
    """
    if X.trunc < 1:
        raise TruncationError("colimit0 needs at least one level above zero")
    parent = {x: x for x in X.level(0)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in X.level(1):
        a, b = find(X.face(1, 0, e)), find(X.face(1, 1, e))
        if a != b:
            lo, hi = sorted((a, b), key=fmt_id)
            parent[hi] = lo
    members: dict = {}
    for x in X.level(0):
        members.setdefault(find(x), []).append(x)
    reps = {root: min(ms, key=fmt_id) for root, ms in members.items()}
    aug = {x: reps[find(x)] for x in X.level(0)}
    classes = _sorted_ids(reps.values())
    return classes, aug


# ---------------------------------------------------------------------------
# Bisimplicial sets and abacus presheaves

BULK_KINDS = ("e", "t", "d", "s")


def action_target(kind: str, lvl: tuple) -> tuple:
    """The level an action lands in: the generator's step, negated."""
    di, dj = abacus.SHIFT[kind]
    return lvl[0] - di, lvl[1] - dj


def action_label(kind: str, k, lvl: tuple) -> str:
    """The name of one action table: ``e0@(1,1)``, ``f@(0,0)``."""
    return f"{kind}{'' if k is None else k}@({lvl[0]},{lvl[1]})"


def restrict_actions(actions: dict, keep, kinds=tuple(abacus.SHIFT)) -> dict:
    """The actions of the given kinds whose source and target are in ``keep``."""
    return {
        key: table for key, table in actions.items()
        if key[0] in kinds and key[2] in keep and action_target(key[0], key[2]) in keep
    }


class _Grid:
    """Levels indexed by (i, j) and one action table.

    ``actions[(kind, k, (i, j))]`` is the table of generator ``kind`` with
    index ``k`` (None for ``f`` and ``ssub``) out of source level (i, j);
    it lands in ``action_target(kind, (i, j))``.
    """

    def __init__(self, trunc: int, levels: dict, actions: dict):
        self.trunc = trunc
        self.levels = {lv: _sorted_ids(xs) for lv, xs in levels.items()}
        self.actions = actions

    def level(self, i: int, j: int) -> tuple:
        return self.levels.get((i, j), ())

    def act(self, kind: str, k, lvl: tuple, x):
        """Apply one generator action from source level ``lvl``; returns
        (target_level, image)."""
        return action_target(kind, lvl), self.actions[kind, k, lvl][x]

    def __repr__(self):
        return f"{type(self).__name__}(T={self.trunc}, levels={len(self.levels)})"


class BiSSet(_Grid):
    """A bisimplicial set truncated at total degree i + j <= T, with the
    actions of ``BULK_KINDS`` in its ``actions`` table."""


def bisset_actions(trunc: int) -> dict:
    """The actions of a bisimplicial set truncated at i + j <= trunc:
    ``(i, j) -> [(kind, k, target level)]``, the ``BULK_KINDS`` part of the
    generator table at abacus degree trunc + 1 between bulk levels."""
    return {lvl: [(kind, k, tgt) for kind, k, tgt, _ in gens if kind in BULK_KINDS and min(tgt) >= 0]
            for lvl, gens in abacus.generators_into(trunc + 1).items() if min(lvl) >= 0}


def row_sset(B, i: int) -> TruncSSet:
    """Bulk row i as a simplicial set (horizontal structure)."""
    T = _row_trunc(B, i)
    levels = {n: B.level(i, n) for n in range(T + 1)}
    faces = {(n, k): B.actions["d", k, (i, n)] for n in range(1, T + 1) for k in range(n + 1)}
    degens = {(n, k): B.actions["s", k, (i, n)] for n in range(T) for k in range(n + 1)}
    return TruncSSet(T, levels, faces, degens)


def col_sset(B, j: int) -> TruncSSet:
    """Bulk column j as a simplicial set (vertical structure)."""
    T = _col_trunc(B, j)
    levels = {n: B.level(n, j) for n in range(T + 1)}
    faces = {(n, k): B.actions["e", k, (n, j)] for n in range(1, T + 1) for k in range(n + 1)}
    degens = {(n, k): B.actions["t", k, (n, j)] for n in range(T) for k in range(n + 1)}
    return TruncSSet(T, levels, faces, degens)


def _row_trunc(B, i: int) -> int:
    if isinstance(B, DSet):
        return B.trunc - i - 1
    return B.trunc - i


def _col_trunc(B, j: int) -> int:
    if isinstance(B, DSet):
        return B.trunc - j - 1
    return B.trunc - j


def _stray_levels(B, expect) -> list:
    """A witness for each level of B outside the truncation's levels."""
    return [Witness(f"level@{lvl}", "level beyond the truncation", ()) for lvl in B.levels
            if lvl not in expect]


def validate_bisset(B: BiSSet, name: str = "bisset") -> CheckReport:
    checked = 0
    A = B.actions
    into = bisset_actions(B.trunc)
    witnesses = _stray_levels(B, into)
    for lvl, gens in into.items():
        if lvl not in B.levels:
            continue
        for kind, k, tgt in gens:
            checked += _check_total(A.get((kind, k, lvl)), B.levels[lvl], B.level(*tgt),
                                    action_label(kind, k, lvl), witnesses)
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    for i in range(B.trunc + 1):
        rep = validate_sset(row_sset(B, i), f"row{i}")
        checked += rep.checked
        witnesses += [Witness(f"row{i}:{w.site}", w.equation, w.offenders) for w in rep.witnesses]
    for j in range(B.trunc + 1):
        rep = validate_sset(col_sset(B, j), f"col{j}")
        checked += rep.checked
        witnesses += [Witness(f"col{j}:{w.site}", w.equation, w.offenders) for w in rep.witnesses]
    # vertical operators commute with horizontal ones
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


# ---------------------------------------------------------------------------
# Presheaves on the abacus category


class DSet(_Grid):
    """A presheaf on the abacus category, truncated at i + 1 + j <= T.

    Levels exist for i, j >= -1 (not both).  Besides the bisimplicial
    actions its ``actions`` table holds the abacus actions
    ``f : B(i,j) -> B(i-1,j+1)`` and the splittings
    ``ssub : B(i,j) -> B(i,j+1)`` for i >= 0, keyed with ``k`` None.
    """

    def __init__(self, trunc: int, levels: dict, actions: dict, t_split=None):
        super().__init__(trunc, levels, actions)
        # vertical top splittings, populated by constructions that have them
        self.t_split = t_split or {}

    def has_aug_row(self) -> bool:
        return any(i == -1 for (i, j) in self.levels)

    def abacus_tables(self, kind: str) -> list:
        """(source level, table) of every ``f`` or ``ssub`` action, by
        degree then level."""
        return sorted(((lvl, tab) for (kd, _, lvl), tab in self.actions.items() if kd == kind),
                      key=lambda kv: (kv[0][0] + 1 + kv[0][1], kv[0]))


def dset_levels(trunc: int, with_aug_row: bool = True) -> list:
    """The levels of a ``trunc``-truncated abacus presheaf, by degree then
    level: the generator table's objects, less the augmentation row unless
    ``with_aug_row``."""
    return [lvl for lvl in abacus.generators_into(trunc) if with_aug_row or lvl[0] >= 0]


def validate_dset(B: DSet, name: str = "dset") -> CheckReport:
    """Well-formedness plus the full relation table of the abacus category,
    applied contravariantly to every element within truncation."""
    checked = 0
    with_aug = B.has_aug_row()
    into = abacus.generators_into(B.trunc)
    expect = dset_levels(B.trunc, with_aug)
    witnesses = _stray_levels(B, expect)
    for lvl in expect:
        if lvl not in B.levels:
            witnesses.append(Witness(f"level@{lvl}", "level missing", ()))
            continue
        for kind, k, tgt, _ in into[lvl]:
            if with_aug or tgt[0] >= 0:
                checked += _check_total(B.actions.get((kind, k, lvl)), B.levels[lvl], B.level(*tgt),
                                        action_label(kind, k, lvl), witnesses)
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    max_i = max((i for (i, j) in B.levels), default=-1)
    max_j = max((j for (i, j) in B.levels), default=-1)
    max_d = max((i + 1 + j for (i, j) in B.levels), default=-1)
    A = B.actions
    for rel_name, equation, needs, target, lhs, rhs in _relation_rows(max_i, max_j, max_d):
        xs = B.level(*target)
        if not xs or any(lv not in B.levels for lv in needs):
            continue
        lhs_tables = [A[key] for key in lhs]
        rhs_tables = [A[key] for key in rhs]
        for x in xs:
            checked += 1
            y = z = x
            for table in lhs_tables:
                y = table[y]
            for table in rhs_tables:
                z = table[z]
            if y != z:
                witnesses.append(Witness(rel_name, equation, (x,)))
    return CheckReport.from_witnesses(name, witnesses, checked)


@lru_cache(maxsize=None)
def _relation_rows(max_i: int, max_j: int, max_d: int) -> tuple:
    """The relation table of the abacus category on the levels (i, j) with
    i <= max_i, j <= max_j and degree i + 1 + j <= max_d, as rows
    ``(name, equation, levels needed, target level, lhs keys, rhs keys)``.

    One row per instance of ``abacus.relation_instances`` whose words stay
    on those levels.  The keys are ``actions`` keys in contravariant order,
    so a presheaf applies a side by looking its tables up in turn.  Names,
    levels and keys are interned, so the rows hold no words or bead maps.
    """
    interned: dict = {}

    def intern(v):
        return interned.setdefault(v, v)

    def within(lv):
        return lv[0] <= max_i and lv[1] <= max_j and lv[0] + 1 + lv[1] <= max_d

    rows = []
    for rel_name, lhs, rhs in abacus.relation_instances(max_i, max_j):
        if lhs.source.degree > max_d:  # spare the walk: the source is out of reach
            continue
        path_l, path_r = _word_levels(lhs), _word_levels(rhs)
        if path_l is None or path_r is None:
            continue
        assert path_l[-1] == path_r[-1], f"{lhs} and {rhs} end apart"
        needs = sorted(set(path_l + path_r))
        if not all(within(lv) for lv in needs):
            continue
        rows.append((
            intern(rel_name),
            f"{lhs} = {rhs}",
            intern(tuple(needs)),
            intern(path_l[-1]),
            _action_keys(lhs, path_l, intern),
            _action_keys(rhs, path_r, intern),
        ))
    return tuple(rows)


def _word_levels(word):
    """Source-to-target object path of a generator word, or None if a
    generator index does not exist where the word applies it."""
    cur = word.source
    path = [(cur.i, cur.j)]
    for kind, k in word.tokens:
        if k not in abacus.generator_range(kind, cur):
            return None
        di, dj = abacus.SHIFT[kind]
        cur = abacus.DObject(cur.i + di, cur.j + dj)
        path.append((cur.i, cur.j))
    return path


def _action_keys(word, path, intern) -> tuple:
    """The ``actions`` keys a presheaf applies for ``word``, last token first:
    token ``idx`` acts out of level ``path[idx + 1]``."""
    keys = [intern((kind, k, intern(path[idx + 1]))) for idx, (kind, k) in enumerate(word.tokens)]
    return intern(tuple(reversed(keys)))


# ---------------------------------------------------------------------------
# Pointed bisimplicial sets


class SigmaSet:
    """A bisimplicial set with a pointing set mapping into level (0, 0)."""

    def __init__(self, bulk: BiSSet, point_set, pointing: dict):
        self.bulk = bulk
        self.point_set = _sorted_ids(point_set)
        self.pointing = pointing

    @property
    def trunc(self) -> int:
        return self.bulk.trunc

    def __repr__(self):
        return f"SigmaSet(T={self.trunc}, |point|={len(self.point_set)})"


def validate_sigmaset(A: SigmaSet, name: str = "sigmaset") -> CheckReport:
    rep = validate_bisset(A.bulk, name)
    witnesses = list(rep.witnesses)
    checked = rep.checked
    level00 = set(A.bulk.level(0, 0))
    for c in A.point_set:
        checked += 1
        if c not in A.pointing:
            witnesses.append(Witness("pointing", "pointing undefined", (c,)))
        elif A.pointing[c] not in level00:
            witnesses.append(Witness("pointing", "pointing leaves level (0,0)", (c,)))
    return CheckReport.from_witnesses(name, witnesses, checked)


def validate(P, name: str | None = None) -> CheckReport:
    """Validate any presheaf-like value against its index category."""
    if isinstance(P, TruncSSet):
        return validate_sset(P, name or "sset")
    if isinstance(P, SMap):
        return validate_smap(P, name or "smap")
    if isinstance(P, DSet):
        return validate_dset(P, name or "dset")
    if isinstance(P, BiSSet):
        return validate_bisset(P, name or "bisset")
    if isinstance(P, SigmaSet):
        return validate_sigmaset(P, name or "sigmaset")
    from .decalage import AugBottomSplitSSet, BottomSplitSSet, PointedSSet, validate_coalgebra, validate_pointed

    if isinstance(P, (BottomSplitSSet, AugBottomSplitSSet)):
        return validate_coalgebra(P, name or "split")
    if isinstance(P, PointedSSet):
        return validate_pointed(P, name or "pointed")
    raise TypeError(f"cannot validate {type(P).__name__}")
