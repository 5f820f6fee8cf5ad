"""Truncated finite Set-valued presheaves and their checkers.

Levels hold opaque element ids (strings, or tuples for constructed sets).
Every shape keeps its actions in one ``actions`` dict, one table per
generator per source level: a simplicial set keys the face d_k and the
degeneracy s_k out of level n as ``("d", k, n)`` and ``("s", k, n)``, a
bisimplicial set or abacus presheaf keys generator ``kind`` out of level
(i, j) as ``(kind, k, (i, j))``; ``action_target`` reads the level a grid
action lands in off ``abacus.SHIFT``, which is read off the one
generator table, ``abacus._GENERATORS``.
Presheaves are plain classes, not changed after construction: nothing
here mutates them, and all checkers are read-only.  So a derived
structure (decalage, row, restriction, map, pointing, extension) whose
table is an existing table holds that table object, never a copy; a
caller that mutates one copies it first.  ``SMap`` and ``Square`` are
records (``reports.Record``); a ``Square`` is frozen.
The abacus category is imported only by the functions of grid
presheaves that read its generator table, so a simplicial set is built,
validated and checked without it.

The index-category combinatorics are computed once and then looked up.
The generators of the simplex category truncated at T are listed once,
in ``delta_actions``, and every construction of a simplicial set fills
its ``actions`` by walking that list.  Which levels and actions a
truncated grid presheaf has is read off that table, through
``abacus.generators_into`` (``dset_levels``, ``bisset_actions``); nothing
here lists abacus generators itself.  Every file shape, validator and
row table lives here, and no other module names a row helper.  A
validator reads its shape's identities as rows of table keys, computed
once per truncation: ``_delta_rows`` for simplicial sets (and, prefixed,
for the rows and columns of a bisimplicial set and the source and target
of a map), ``_bisset_rows``, ``_smap_rows``, ``_relation_rows`` for the
abacus category, ``_coalgebra_rows`` for split structures, and
``_pointed_rows`` adds a pointing to any of them: its point set is one
more level and the pointing one more totality row.  One element loop
checks them all: ``_check_rows`` reports every level beyond the
truncation or missing, every element listed twice and every table no
totality row names, and checks totality, then ``_compare_rows`` applies
both sides of each identity to every element, and only looks tables up;
``dset_iso_report`` runs it on ``_iso_rows``, a naturality row for each
totality row of ``_relation_rows``.  A construction that
applies one map to a whole level also takes its tables once
(``TruncSSet.act_tables``, the action keys of a monotone map cached per
map in ``_act_steps``).

Element order is canonical, by ``fmt_id``, and computed once: every level
goes through ``_sorted_ids``, which formats each tuple part once per sort
and returns a ``_Canonical`` tuple, one that keeps its keys (the
``fmt_id`` of each element) with it; a ``_Canonical`` tuple comes back
unchanged.  So a level re-indexed from an already sorted one (``dec``,
``row_sset``, ``sub_trunc``, ``r_star``) is neither formatted nor sorted
again.  A composite level reuses its parts' keys: the pairs of
``q_lower_star`` and of the relative upper 2-Segal check, the tagged
elements of ``configurations.build_M`` and the levels of
``decalage.h_lower`` are sorted with their canonical parts passed along,
so each element formats only itself.  A cut of a canonical level kept in
level order (``_cut``: ``colimit0``'s classes, ``corpus``'s punctured
chains) is canonical already, and is never sorted again.

A pullback is enumerated in one place, ``pullback_pairs`` (a hash join),
and an element is lifted through a pair of maps in one place, ``lift``
(the splittings that ``configurations.extend_sigma_to_d`` propagates).
Every pullback the library builds (the levels of ``q_lower_star`` and
the relative upper 2-Segal check, ``decalage.pointing_comparison``,
nerve chains and composable pairs) goes through ``pullback_pairs``.
Every check decides whether a map is a bijection onto a set one way,
``is_bijection``, with one image set (its size, and whether it contains
the set); only a refuted map is walked element by element, by
``bijection_witnesses``, to name witnesses.
``_decide_pullback`` decides its comparison map so, after reading
each of a square's four tables once over a whole level and comparing two
image lists, and explains a refuted square only when its report's
witnesses are read (``CheckReport.refutation``): "does not commute" from
the positions that differ, else ``bijection_witnesses``, both from lists
taken at the decision, so a table changed later does not change them.
``configurations.has_invertible_abacus`` and ``decalage``'s local checks
explain on read alike; ``dset_iso_report`` and
``suites.dictionary_suite``'s ``bijective`` column read the verdict only.

Derived structures share their source's tables, so one check run can
meet the same square many times: ``dec_map(F, "bottom")``'s d_k square
is F's d_{k+1} square, and on a total decalage the stability, row-Segal
and column-Segal squares are one another.  Inside ``deciding_once``
(which ``suites.cheatsheet_suite`` and each call of
``configurations.extend_sigma_to_d`` and ``configurations.boors_axioms``
run in) ``is_pullback`` decides a square once: a square made of the very
objects (``is``, never ``==``) of one already found to be a pullback in
the block passes at once, with the report a fresh decision gives.  Only
passing squares are kept: a failing square's witnesses carry its own
``name``, so it is decided again under each name.  The block also keeps
what ``built_once`` builds, once per key: the row-zero pointing
comparison that an extension's gate decides and the extension then
inverts.  The block is reentrant: a gate run inside an extension or the
cheatsheet shares its memo.  Outside any block ``is_pullback`` and
``built_once`` keep no state.

Every checker reports relative to the truncation: verdicts are "pass up
to T", with the checked instances counted, never silently vacuous.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from itertools import compress
from operator import itemgetter

from .reports import CheckReport, Frozen, Record, TruncationError, Witness
from .simplex import MonotoneMap, epi_mono_indices


def fmt_id(x) -> str:
    """Canonical string form of an element id (tuples nest with parens)."""
    if isinstance(x, tuple):
        return "(" + ",".join(fmt_id(v) for v in x) + ")"
    return str(x)


class _Canonical(tuple):
    """A tuple of element ids in canonical order, with ``keys``, the
    ``fmt_id`` of each in turn; only ``_canonical`` makes one."""


def _canonical(ids, keys) -> _Canonical:
    level = _Canonical(ids)
    level.keys = tuple(keys)
    return level


def _sorted_ids(xs, parts=()) -> tuple:
    """The ids in canonical order (by ``fmt_id``), sorted once: a tuple this
    returned comes back unchanged, with its keys.  Slices and other copies
    are plain tuples and are sorted again.  Each tuple is formatted once
    per call, memoized by ``id``, not by value ((1,) == (True,) format
    apart), and the memo starts from the keys of the canonical levels in
    ``parts`` (others are ignored), so a pair built from their elements
    formats only itself.  Exact, as the call keeps every id of ``xs`` and
    of ``parts``, and so every part, alive until it ends."""
    if type(xs) is _Canonical:
        return xs
    memo = {}
    for part in parts:
        if type(part) is _Canonical:
            memo.update(zip(map(id, part), part.keys))

    def key(x):
        if not isinstance(x, tuple):
            return str(x)
        k = memo.get(id(x))
        if k is None:
            k = memo[id(x)] = "(" + ",".join(map(key, x)) + ")"
        return k

    xs = tuple(xs)
    pairs = sorted(zip(map(key, xs), xs), key=itemgetter(0))
    return _canonical(map(itemgetter(1), pairs), map(itemgetter(0), pairs))


def _cut(level, keep) -> tuple:
    """The ids of ``level`` where the flags ``keep`` are true, in level
    order.  A cut of a canonical level is canonical, as a stable sort of a
    subsequence of a sorted sequence leaves it in place: it keeps its
    level's keys and is never sorted.  A cut of anything else is sorted."""
    keep = list(keep)
    if type(level) is not _Canonical:
        return _sorted_ids(compress(level, keep))
    return _canonical(compress(level, keep), compress(level.keys, keep))


# ---------------------------------------------------------------------------
# Simplicial sets


class TruncSSet:
    """A finite simplicial set truncated at degree T.

    ``levels[n]`` lists the n-simplices; ``actions[("d", k, n)]`` is the
    action of d_k : X_n -> X_{n-1} and ``actions[("s", k, n)]`` of
    s_k : X_n -> X_{n+1}, one table per key of ``delta_actions(T)``, as in
    every other shape's ``actions``.
    """

    def __init__(self, trunc: int, levels: dict, actions: dict):
        self.trunc = trunc
        self.levels = {n: _sorted_ids(xs) for n, xs in levels.items()}
        self.actions = actions

    def level(self, n: int) -> tuple:
        return self.levels.get(n, ())

    def face(self, n: int, k: int, x):
        return self.actions["d", k, n][x]

    def deg(self, n: int, k: int, x):
        return self.actions["s", k, n][x]

    def act_tables(self, f: MonotoneMap) -> list:
        """The face and degeneracy tables through which ``f : [m] -> [n]``
        acts on n-simplices, in turn: its canonical face-then-degeneracy
        decomposition."""
        return [self.actions[key] for key in _act_steps(f)]

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
    """The action keys by which ``f`` acts, in turn: its canonical
    factorization, computed once per distinct map."""
    n = f.cod_n
    degens, faces = epi_mono_indices(f.values, f.cod)
    steps = []
    for i in reversed(faces):  # faces, largest index first
        steps.append(("d", i, n))
        n -= 1
    for j in reversed(degens):  # degeneracies, smallest index first
        steps.append(("s", j, n))
        n += 1
    return tuple(steps)


@lru_cache(maxsize=None)
def delta_actions(T: int) -> tuple:
    """The generators of the simplex category truncated at degree T, as
    ``actions`` keys ``(kind, k, n)``: every face d_k out of level n,
    0 < n <= T, then every degeneracy s_k out of level n < T, each by n
    then k."""
    return tuple(("d", k, n) for n in range(1, T + 1) for k in range(n + 1)) + \
        tuple(("s", k, n) for n in range(T) for k in range(n + 1))


def _delta_target(kind: str, n: int) -> int:
    """The level a face (``d``) or degeneracy (``s``) out of level n lands in."""
    return n - 1 if kind == "d" else n + 1


class SMap(Record):
    """A simplicial map: per-level functions between same-truncation sets."""

    __slots__ = ("source", "target", "levels")

    def __init__(self, source: TruncSSet, target: TruncSSet, levels: dict):
        self.source = source
        self.target = target
        self.levels = levels

    @property
    def trunc(self) -> int:
        """The lesser of the source and target truncations: the depth of
        the map's Kan extension."""
        return min(self.source.trunc, self.target.trunc)

    def at(self, n: int, x):
        return self.levels[n][x]


def constant_sset(elements, trunc: int) -> TruncSSet:
    """The constant (equivalently discrete) simplicial set on a finite set."""
    elems = _sorted_ids(elements)
    levels = {n: elems for n in range(trunc + 1)}
    return TruncSSet(trunc, levels, dict.fromkeys(delta_actions(trunc), {x: x for x in elems}))


def identity_smap(X: TruncSSet) -> SMap:
    return SMap(X, X, {n: {x: x for x in X.level(n)} for n in X.levels})


def sub_trunc(X: TruncSSet, T: int) -> TruncSSet:
    levels = {n: xs for n, xs in X.levels.items() if n <= T}
    return TruncSSet(T, levels, {key: X.actions[key] for key in delta_actions(T) if key in X.actions})


def validate_sset(X: TruncSSet, name: str = "sset") -> CheckReport:
    """Well-formedness plus all simplicial identities within truncation."""
    return _check_rows(name, X.actions, X.levels, _delta_rows(X.trunc))


@lru_cache(maxsize=None)
def _delta_rows(T: int) -> tuple:
    """The rows of the simplex category truncated at degree T, keyed like
    ``TruncSSet.actions``: every level, the totality of every face and
    degeneracy, and the simplicial identities.  For ``i`` in ``{j, j + 1}``
    the face-degeneracy identity ``d_i s_j = id`` has an empty right side."""
    expect = tuple((f"level@{n}", n) for n in range(T + 1))
    totals = tuple((action_label(kind, k, n), (kind, k, n), n, _delta_target(kind, n))
                   for kind, k, n in delta_actions(T))
    relations = [(f"dd(i={i},j={j})@{n}", "d_i d_j = d_(j-1) d_i", n,
                  (("d", j, n), ("d", i, n - 1)), (("d", i, n), ("d", j - 1, n - 1)))
                 for n in range(2, T + 1) for j in range(n + 1) for i in range(j)]
    relations += [(f"ss(i={i},j={j})@{n}", "s_j+1 s_i = s_i s_j", n,
                   (("s", i, n), ("s", j + 1, n + 1)), (("s", j, n), ("s", i, n + 1)))
                  for n in range(T - 1) for j in range(n + 1) for i in range(j + 1)]
    for n in range(T):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    rhs = (("d", i, n), ("s", j - 1, n - 1))
                elif i <= j + 1:
                    rhs = ()
                else:
                    rhs = (("d", i - 1, n), ("s", j, n - 1))
                relations.append((f"ds(i={i},j={j})@{n}", "face-degeneracy identity", n,
                                  (("s", j, n), ("d", i, n + 1)), rhs))
    return expect, totals, tuple(relations)


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
    """Source and target as simplicial sets, plus naturality of the map
    against every generator both have."""
    X, Y = F.source, F.target
    tables, levels = _map_view(X.actions, Y.actions, F.levels, X.levels, Y.levels)
    return _check_rows(name, tables, levels, _smap_rows(X.trunc, Y.trunc))


@lru_cache(maxsize=None)
def _smap_rows(source_trunc: int, target_trunc: int) -> tuple:
    """The rows of a simplicial map, keyed as ``_map_view`` keys them: the
    simplex rows of source and target, sites prefixed ``source:`` and
    ``target:``, the totality of the map at each level, and naturality."""
    T = min(source_trunc, target_trunc)
    _, gens, _ = _delta_rows(T)
    maps = tuple((f"F@{n}", ("M", n), ("S", n), ("T", n)) for n in range(T + 1))
    natural = _naturality_rows(
        ("nat-" + label, f"F {key[0]}_k = {key[0]}_k F", key, src, tgt) for label, key, src, tgt in gens)
    return _concat(_rekey(_delta_rows(source_trunc), "source:", lambda key: ("S", key), lambda n: ("S", n)),
                   _rekey(_delta_rows(target_trunc), "target:", lambda key: ("T", key), lambda n: ("T", n)),
                   ((), maps, natural))


def _map_view(source_tables, target_tables, maps, source_levels, target_levels) -> tuple:
    """One ``(tables, levels)`` for a map M from S to T: S's and T's tables
    keyed ``("S", key)`` and ``("T", key)``, the map at level ``lv`` keyed
    ``("M", lv)``, and the levels keyed ``("S", lv)`` and ``("T", lv)``."""
    tables = {("M", lv): table for lv, table in maps.items()}
    tables.update({("S", key): table for key, table in source_tables.items()})
    tables.update({("T", key): table for key, table in target_tables.items()})
    levels = {("S", lv): xs for lv, xs in source_levels.items()}
    levels.update({("T", lv): xs for lv, xs in target_levels.items()})
    return tables, levels


def _naturality_rows(gens) -> tuple:
    """Rows saying that a map M from S to T commutes with each generator
    ``(site, equation, key, source level, target level)``: S's table then M,
    against M then T's table, keyed as ``_map_view`` keys them."""
    return tuple((site, equation, ("S", src), (("S", key), ("M", tgt)), (("M", src), ("T", key)))
                 for site, equation, key, src, tgt in gens)


# ---------------------------------------------------------------------------
# The element loop


def _check_rows(name: str, tables, levels, rows) -> CheckReport:
    """Check a presheaf against its rows ``(expect, totals, relations)``.
    Phase 1 reports each level that is not an expected level
    ``(label, level)`` as beyond the truncation, each element a level lists
    twice and each expected level missing, and each table that no totality
    row names as not in the category; and it checks that each totality
    row's ``(label, key, source, target)`` table is defined on its source
    level and lands in its target level.  A witness from it stops the
    report there; else phase 2, ``_compare_rows``, can look up every table
    its relation rows name."""
    expect, totals, relations = rows
    expected = {lv for _, lv in expect}
    witnesses = [Witness(f"level@{lv}", "level beyond the truncation", ())
                 for lv in levels if lv not in expected]
    witnesses += [Witness(f"level@{lv}", "element listed twice", (x,))
                  for lv, xs in levels.items() for x, n in Counter(xs).items() if n > 1]
    witnesses += [Witness(label, "level missing", ()) for label, lv in expect if lv not in levels]
    named = {key for _, key, _, _ in totals}
    witnesses += [Witness(_table_label(key), "table not in the category", ())
                  for key in tables if key not in named]
    checked = 0
    for label, key, src, tgt in totals:
        checked += _check_total(tables.get(key), levels.get(src, ()), levels.get(tgt, ()), label, witnesses)
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    return _compare_rows(name, checked, tables, levels, relations)


def _table_label(key) -> str:
    """The name a file gives the table keyed ``key``: ``d7@1``, ``split@4``,
    and in a map's view ``source:d7@1``, ``target:d7@1`` and ``F@7``."""
    if len(key) == 3:
        return action_label(*key)
    return f"F@{key[1]}" if key[0] == "M" else {"S": "source:", "T": "target:"}[key[0]] + action_label(*key[1])


def _compare_rows(name: str, checked: int, tables, levels, relations) -> CheckReport:
    """The one loop that compares identities element by element: for each
    relation row ``(site, equation, level, lhs keys, rhs keys)`` and each
    element of the level, both sides applied through their tables in turn.
    A row whose sides differ on x gives the witness ``(site, equation, (x,))``."""
    witnesses = []
    for site, equation, lv, lhs, rhs in relations:
        xs = levels.get(lv, ())
        lhs_tables = [tables[key] for key in lhs]
        rhs_tables = [tables[key] for key in rhs]
        checked += len(xs)
        witnesses += [Witness(site, equation, (x,)) for x in xs
                      if through(lhs_tables, x) != through(rhs_tables, x)]
    return CheckReport.from_witnesses(name, witnesses, checked)


def _rekey(rows, prefix: str, key, level) -> tuple:
    """``rows`` with every label and site prefixed, and every table key and
    level renamed by ``key`` and ``level``."""
    expect, totals, relations = rows
    return (tuple((prefix + label, level(lv)) for label, lv in expect),
            tuple((prefix + label, key(k), level(src), level(tgt)) for label, k, src, tgt in totals),
            tuple((prefix + site, equation, level(lv), tuple(map(key, lhs)), tuple(map(key, rhs)))
                  for site, equation, lv, lhs, rhs in relations))


def _concat(*rows) -> tuple:
    """Several row sets as one, part by part."""
    return tuple(tuple(row for part in parts for row in part) for parts in zip(*rows))


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


def lift(upper, first, second, wants) -> tuple:
    """Lift through the pair of maps ``first`` and ``second`` out of
    ``upper``: for each ``(b, w)`` of ``wants``, the z of ``upper`` with
    ``first[z] == b`` and ``second[z] == w`` (of several, the last in
    ``upper``).  Returns the lifts ``{b: z}`` and the list of the bs that
    have none, both in ``wants`` order."""
    over = {(first[z], second[z]): z for z in upper}
    lifts, misses = {}, []
    for want in wants:
        if want in over:
            lifts[want[0]] = over[want]
        else:
            misses.append(want[0])
    return lifts, misses


def is_bijection(images, want) -> bool:
    """Whether a map whose images, one per element, are the collection
    ``images`` is a bijection onto the collection ``want``, decided with one
    image set: it is injective when that set is as large as ``images``, and
    onto ``want`` when it contains ``want``.  An image outside ``want`` is
    not ruled out: a caller whose map may leave ``want`` checks that itself."""
    distinct = set(images)
    return len(distinct) == len(images) and distinct.issuperset(want)


def bijection_witnesses(site: str, noun: str, pairs, want) -> list:
    """Why the map given by ``pairs``, ``(preimage, image)`` in turn, is not
    a bijection onto the collection ``want``; empty when it is one, which
    ``is_bijection`` decides.  The map is walked element by element: a
    "``noun`` not injective" witness ``(earlier, later)`` for each image met
    again, naming the preimage that met it last, then a "``noun`` not
    surjective" witness for each image of ``want`` never met, in ``want``'s
    order.  Images are offender tuples, so a missed image is reported as it
    stands.  An image outside ``want`` is neither: a caller whose map may
    leave ``want`` reports that itself."""
    witnesses = []
    seen = {}
    for p, im in pairs:
        if im in seen:
            witnesses.append(Witness(site, f"{noun} not injective", (seen[im], p)))
        seen[im] = p
    witnesses += [Witness(site, f"{noun} not surjective", im) for im in want if im not in seen]
    return witnesses


class Square(Frozen):
    """A commuting square candidate, checked via its comparison map.

    ``p -> a -> c`` and ``p -> b -> c``; it is a pullback when
    ``p -> {(a, b) : a_to_c(a) = b_to_c(b)}`` is a bijection.
    """

    __slots__ = ("name", "p_elems", "a_elems", "b_elems", "p_to_a", "p_to_b", "a_to_c", "b_to_c")

    def __init__(self, name: str, p_elems: tuple, a_elems: tuple, b_elems: tuple,
                 p_to_a: dict, p_to_b: dict, a_to_c: dict, b_to_c: dict):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "p_elems", p_elems)
        object.__setattr__(self, "a_elems", a_elems)
        object.__setattr__(self, "b_elems", b_elems)
        object.__setattr__(self, "p_to_a", p_to_a)
        object.__setattr__(self, "p_to_b", p_to_b)
        object.__setattr__(self, "a_to_c", a_to_c)
        object.__setattr__(self, "b_to_c", b_to_c)


# Inside ``deciding_once``: the squares found to be pullbacks, keyed by the ids
# of their seven parts, and what ``built_once`` built, keyed by its inputs; each
# entry keeps what its key names alive, so no id is reused meanwhile.
_pullbacks = None


@contextmanager
def deciding_once():
    """Within this block ``is_pullback`` decides a square once: a square
    whose seven parts are the very objects (``is``) of a square already
    found to be a pullback in the block passes without being read again.
    The memo is dropped when the block ends, however it ends.  Reentrant: a
    block inside another shares the outer block's memo and leaves it in
    place when it ends."""
    global _pullbacks
    if _pullbacks is not None:
        yield
        return
    _pullbacks = {}
    try:
        yield
    finally:
        _pullbacks = None


def built_once(key, build):
    """``build()``, built once per ``deciding_once`` block and ``key``; the
    key holds the value's inputs, so they stay alive while it is kept.
    Outside any block every call builds."""
    if _pullbacks is None:
        return build()
    if key not in _pullbacks:
        _pullbacks[key] = build()
    return _pullbacks[key]


def is_pullback(sq: Square) -> CheckReport:
    """Whether ``sq`` commutes and its comparison map is a bijection onto
    the strict pullback of ``a_to_c`` against ``b_to_c``.

    Inside ``deciding_once`` a square already found to be a pullback
    passes at once, with the report a fresh decision gives; anything else
    is decided by ``_decide_pullback``."""
    if _pullbacks is None:
        return _decide_pullback(sq)
    key = (id(sq.p_elems), id(sq.a_elems), id(sq.b_elems),
           id(sq.p_to_a), id(sq.p_to_b), id(sq.a_to_c), id(sq.b_to_c))
    if key in _pullbacks:
        return CheckReport("is_pullback", [], 2 * len(sq.p_elems) or 1)
    report = _decide_pullback(sq)
    if report.passed:  # the verdict alone: a refutation is not explained here
        _pullbacks[key] = sq
    return report


def _decide_pullback(sq: Square) -> CheckReport:
    """``is_pullback`` in full.  Each of the four tables is read once over
    a whole level, so commuting is one comparison of two image lists, with
    ``checked`` ``|P|``.  A commuting square is then decided by
    ``is_bijection``, with ``checked`` ``2 |P|`` (at least 1).

    A refuted square is explained only when its witnesses are read:
    "square does not commute" from the positions where the image lists
    differ, else ``bijection_witnesses``.  The explanation reads lists
    taken here, never the square's tables, so a table changed after the
    decision does not change it."""
    name, p_elems, a_elems, b_elems = sq.name, sq.p_elems, sq.a_elems, sq.b_elems
    to_a = list(map(sq.p_to_a.__getitem__, p_elems))
    to_b = list(map(sq.p_to_b.__getitem__, p_elems))
    via_a = list(map(sq.a_to_c.__getitem__, to_a))
    via_b = list(map(sq.b_to_c.__getitem__, to_b))
    checked = len(p_elems)
    if via_a != via_b:
        return CheckReport.refutation("is_pullback", lambda: [
            Witness(name, "square does not commute", (p,))
            for p, c, d in zip(p_elems, via_a, via_b) if c != d], checked)
    if is_bijection(list(zip(to_a, to_b)), pullback_pairs(sq.a_to_c, sq.b_to_c, a_elems, b_elems)):
        return CheckReport("is_pullback", [], 2 * checked or 1)
    over_a = list(map(sq.a_to_c.__getitem__, a_elems))
    over_b = list(map(sq.b_to_c.__getitem__, b_elems))
    return CheckReport.refutation("is_pullback", lambda: bijection_witnesses(
        name, "comparison", zip(p_elems, zip(to_a, to_b)),
        pullback_pairs(dict(zip(a_elems, over_a)), dict(zip(b_elems, over_b)), a_elems, b_elems)),
        2 * checked or 1)


# ---------------------------------------------------------------------------
# Cartesian-on-a-class checks for simplicial maps

# operator class: whether it holds the generator ``(kind, k, n)``
OPERATOR_CLASSES = {
    "all": lambda kind, k, n: True,
    "d_bot": lambda kind, k, n: kind == "d" and k == 0,
    "d_top": lambda kind, k, n: kind == "d" and k == n,
    "active": lambda kind, k, n: kind == "s" or 0 < k < n,
}


def cartesian_on(F: SMap, cls: str, name: str | None = None) -> CheckReport:
    """Check that F forms pullback squares with the chosen operator class."""
    if cls not in OPERATOR_CLASSES:
        raise ValueError(f"unknown operator class {cls!r}")
    X, Y = F.source, F.target
    in_class = OPERATOR_CLASSES[cls]
    reports = []
    for key in delta_actions(F.trunc):
        if in_class(*key):
            n = key[2]
            tgt = _delta_target(key[0], n)
            sq = Square(
                action_label(*key),
                X.level(n), X.level(tgt), Y.level(n),
                X.actions[key], F.levels[n], F.levels[tgt], Y.actions[key],
            )
            reports.append(is_pullback(sq))
    return CheckReport.conjunction(name or f"cartesian_on[{cls}]", reports)


# ---------------------------------------------------------------------------
# Colimit in degree zero (the discrete geometric realization)


def colimit0(X: TruncSSet):
    """Coequalize d_0, d_1 : X_1 => X_0; returns (classes, augmentation).

    Each class is named by its first member in canonical order, the order
    of ``X.level(0)``: union by position keeps the least position as the
    root.  The classes are those names in level order, a cut of the
    level, which is never sorted again.
    """
    if X.trunc < 1:
        raise TruncationError("colimit0 needs at least one level above zero")
    level = X.level(0)
    pos = {x: p for p, x in enumerate(level)}
    parent = list(range(len(level)))

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    d0, d1 = X.actions["d", 0, 1], X.actions["d", 1, 1]
    for e in X.level(1):
        a, b = find(pos[d0[e]]), find(pos[d1[e]])
        if a != b:
            parent[max(a, b)] = min(a, b)
    roots = [find(p) for p in range(len(level))]
    aug = {x: level[r] for x, r in zip(level, roots)}
    return _cut(level, (roots[p] == p for p in range(len(level)))), aug


# ---------------------------------------------------------------------------
# Bisimplicial sets and abacus presheaves

BULK_KINDS = ("e", "t", "d", "s")
VERTICAL = {"d": "e", "s": "t"}  # a column's generator for each of a row's


@lru_cache(maxsize=None)
def action_target(kind: str, lvl: tuple) -> tuple:
    """The level an action lands in: the generator's step, negated.
    Cached, as a call reads the step table through an import."""
    from .abacus import SHIFT

    di, dj = SHIFT[kind]
    return lvl[0] - di, lvl[1] - dj


def level_name(lvl) -> str:
    """The name of a level: ``3``, ``(1,1)``."""
    return f"({lvl[0]},{lvl[1]})" if isinstance(lvl, tuple) else str(lvl)


def action_label(kind: str, k, lvl) -> str:
    """The name of one action table: ``d0@3``, ``e0@(1,1)``, ``f@(0,0)``."""
    return f"{kind}{'' if k is None else k}@{level_name(lvl)}"


def restrict_actions(actions: dict, keep, kinds=None) -> dict:
    """The actions of the given kinds (by default every abacus generator's)
    whose source and target are in ``keep``."""
    from .abacus import SHIFT

    kinds = SHIFT if kinds is None else kinds
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

    def __repr__(self):
        return f"{type(self).__name__}(T={self.trunc}, levels={len(self.levels)})"


class BiSSet(_Grid):
    """A bisimplicial set truncated at total degree i + j <= T, with the
    actions of ``BULK_KINDS`` in its ``actions`` table."""


def bisset_actions(trunc: int) -> dict:
    """The actions of a bisimplicial set truncated at i + j <= trunc:
    ``(i, j) -> [(kind, k, target level)]``, the ``BULK_KINDS`` part of the
    generator table at abacus degree trunc + 1 between bulk levels."""
    from .abacus import generators_into

    return {lvl: [(kind, k, tgt) for kind, k, tgt, _ in gens if kind in BULK_KINDS and min(tgt) >= 0]
            for lvl, gens in generators_into(trunc + 1).items() if min(lvl) >= 0}


def row_sset(B, i: int) -> TruncSSet:
    """Bulk row i as a simplicial set (horizontal structure)."""
    return _line_sset(B, i, lambda n: (i, n), {"d": "d", "s": "s"})


def col_sset(B, j: int) -> TruncSSet:
    """Bulk column j as a simplicial set (vertical structure)."""
    return _line_sset(B, j, lambda n: (n, j), VERTICAL)


def _line_sset(B, index: int, at, kinds: dict) -> TruncSSet:
    """Row or column ``index`` of B: level n at ``at(n)``, the face and
    degeneracy as B's generators of kinds ``kinds["d"]`` and ``kinds["s"]``,
    up to degree ``B.trunc - index`` (one less in an abacus presheaf, whose
    level (i, j) has degree i + 1 + j)."""
    T = B.trunc - index - (1 if isinstance(B, DSet) else 0)
    levels = {n: B.level(*at(n)) for n in range(T + 1)}
    return TruncSSet(T, levels, {(kind, k, n): B.actions[kinds[kind], k, at(n)]
                                 for kind, k, n in delta_actions(T)})


def validate_bisset(B: BiSSet, name: str = "bisset") -> CheckReport:
    """Well-formedness, the simplicial identities of every row and column,
    and the vertical generators commuting with the horizontal ones."""
    return _check_rows(name, B.actions, B.levels, _bisset_rows(B.trunc))


@lru_cache(maxsize=None)
def _bisset_rows(T: int) -> tuple:
    """The rows of a bisimplicial set truncated at i + j <= T, keyed like
    its ``actions``: every level and the totality of every action; the
    relation rows of the simplex category on each row i (``d``, ``s``) and
    column j (``e``, ``t``), sites prefixed ``row{i}:`` and ``col{j}:``;
    and ``{v}{k}.{h}{l}@(i,j)``, a vertical generator then a horizontal one
    against the two the other way round, where their corner is in reach."""
    into = bisset_actions(T)
    expect = tuple((f"level@{lv}", lv) for lv in into)
    totals = tuple((action_label(kind, k, lv), (kind, k, lv), lv, tgt)
                   for lv, gens in into.items() for kind, k, tgt in gens)
    lines = [_rekey(_delta_rows(T - i), f"row{i}:", lambda key, i=i: (key[0], key[1], (i, key[2])),
                    lambda n, i=i: (i, n)) for i in range(T + 1)]
    lines += [_rekey(_delta_rows(T - j), f"col{j}:", lambda key, j=j: (VERTICAL[key[0]], key[1], (key[2], j)),
                     lambda n, j=j: (n, j)) for j in range(T + 1)]
    commute = tuple(
        (f"{vkind}{vk}.{hkind}{hk}@({lv[0]},{lv[1]})", "directions commute", lv,
         ((vkind, vk, lv), (hkind, hk, vtgt)), ((hkind, hk, lv), (vkind, vk, htgt)))
        for lv, gens in into.items()
        for vkind, vk, vtgt in gens if vkind in ("e", "t")
        for hkind, hk, htgt in gens if hkind in ("d", "s") and sum(action_target(hkind, vtgt)) <= T)
    # a row's or column's tables are the grid's own, whose totality is above
    return expect, totals, tuple(row for _, _, relations in lines for row in relations) + commute


# ---------------------------------------------------------------------------
# Presheaves on the abacus category


class DSet(_Grid):
    """A presheaf on the abacus category, truncated at i + 1 + j <= T.

    Levels exist for i, j >= -1 (not both).  Besides the bisimplicial
    actions its ``actions`` table holds the abacus actions
    ``f : B(i,j) -> B(i-1,j+1)`` and the splittings
    ``ssub : B(i,j) -> B(i,j+1)`` for i >= 0, keyed with ``k`` None.  It
    stores no top splittings: where the abacus maps are invertible they
    are t# = f^{-1} s_0, which ``configurations.splitting_checks``
    derives from these tables through ``_top_splittings``.
    """

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
    from .abacus import generators_into

    return [lvl for lvl in generators_into(trunc) if with_aug_row or lvl[0] >= 0]


def validate_dset(B: DSet, name: str = "dset") -> CheckReport:
    """Well-formedness plus the full relation table of the abacus category,
    applied contravariantly to every element within truncation."""
    return _check_rows(name, B.actions, B.levels, _relation_rows(B.trunc, B.has_aug_row()))


@lru_cache(maxsize=None)
def _relation_rows(trunc: int, with_aug: bool) -> tuple:
    """The rows of a ``trunc``-truncated abacus presheaf, keyed like its
    ``actions``: its levels (``dset_levels``), the totality of every
    generator between them, and the relation table of the abacus category
    on them, as relation rows ``(name, equation, target level, lhs keys,
    rhs keys)``.

    One relation row per instance of ``abacus.relation_instances`` whose
    words stay on those levels, generated only from sources on them.  The
    keys are ``actions`` keys in contravariant order, so a presheaf applies
    a side by looking its tables up in turn.  Names, levels and keys are
    interned, so the rows hold no words or bead maps.
    """
    from .abacus import SHIFT, DObject, generators_into, relations_at

    interned: dict = {}

    def intern(v):
        return interned.setdefault(v, v)

    def word_levels(word):
        """Source-to-target level path of a generator word; ``relations_at``
        yields only words whose every generator exists where it applies."""
        i, j = word.source.i, word.source.j
        path = [(i, j)]
        for kind, _ in word.tokens:
            di, dj = SHIFT[kind]
            i, j = i + di, j + dj
            path.append((i, j))
        return path

    expect = tuple((f"level@{lv}", lv) for lv in dset_levels(trunc, with_aug))
    into = generators_into(trunc)
    totals = tuple((action_label(kind, k, lv), (kind, k, lv), lv, tgt)
                   for _, lv in expect for kind, k, tgt, _ in into[lv] if with_aug or tgt[0] >= 0)
    levels = {lv for _, lv in expect}
    rows = []
    # relation_instances' order; a source off the levels starts no row
    for source in sorted(levels):
        for rel_name, lhs, rhs in relations_at(DObject(*source)):
            path_l, path_r = word_levels(lhs), word_levels(rhs)
            assert path_l[-1] == path_r[-1], f"{lhs} and {rhs} end apart"
            if not levels.issuperset(path_l + path_r):
                continue
            rows.append((
                intern(rel_name),
                f"{lhs} = {rhs}",
                intern(path_l[-1]),
                _action_keys(lhs, path_l, intern),
                _action_keys(rhs, path_r, intern),
            ))
    return expect, totals, tuple(rows)


def _action_keys(word, path, intern) -> tuple:
    """The ``actions`` keys a presheaf applies for ``word``, last token first:
    token ``idx`` acts out of level ``path[idx + 1]``."""
    keys = [intern((kind, k, intern(path[idx + 1]))) for idx, (kind, k) in enumerate(word.tokens)]
    return intern(tuple(reversed(keys)))


def dset_iso_report(B1: DSet, B2: DSet, maps: dict, name: str = "dset_iso") -> CheckReport:
    """Levelwise bijections commuting with every stored action of B1."""
    witnesses = []
    checked = 0
    T = min(B1.trunc, B2.trunc)
    aug = B1.has_aug_row() and B2.has_aug_row()
    for lvl in dset_levels(T, with_aug_row=aug):
        m = maps.get(lvl)
        checked += 1
        level = B2.level(*lvl)
        # as many images as targets, none repeated and none missed: no image lies outside
        if (m is None or set(m) != set(B1.level(*lvl)) or len(m) != len(level)
                or not is_bijection(m.values(), level)):
            witnesses.append(Witness(f"level@{lvl}", "not a bijection", (lvl,)))
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    tables, levels = _map_view(B1.actions, B2.actions, maps, B1.levels, B2.levels)
    rows = _iso_rows(T, aug)
    # each row names its generator's table in B1 first on the left, in B2 last on the right
    witnesses = [Witness(f"{side}:{site}", "action table missing", ())
                 for site, _, _, lhs, rhs in rows
                 for side, key in (("source", lhs[0]), ("target", rhs[-1])) if key not in tables]
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    return _compare_rows(name, checked, tables, levels, rows)


@lru_cache(maxsize=None)
def _iso_rows(T: int, aug: bool) -> tuple:
    """Naturality rows of a map between ``T``-truncated abacus presheaves,
    one per totality row of ``_relation_rows``: every generator between
    their levels.  A site writes its level as a Python tuple, ``e0@(1, 0)``."""
    _, totals, _ = _relation_rows(T, aug)
    return _naturality_rows(
        (f"{kind}{'' if k is None else k}@{lvl}", "iso does not commute", (kind, k, lvl), lvl, tgt)
        for _, (kind, k, lvl), _, tgt in totals)


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
    """The bisimplicial set's rows, and the pointing into level (0, 0)."""
    return _check_rows(name, {**A.bulk.actions, "pointing": A.pointing},
                       {**A.bulk.levels, "point": A.point_set}, _pointed_rows(_bisset_rows, A.trunc, (0, 0)))


@lru_cache(maxsize=None)
def _pointed_rows(rows, T: int, target) -> tuple:
    """The rows ``rows(T)`` of what a pointing points, with one more level,
    the point set, keyed ``"point"``, and one more totality row, the
    pointing, the table ``"pointing"`` from it into level ``target``.  No
    level of a file is named ``point``, and no table ``pointing``."""
    return _concat(rows(T), ((("level@point", "point"),), (("pointing", "pointing", "point", target),), ()))


# ---------------------------------------------------------------------------
# Pointed and split simplicial sets


class PointedSSet:
    """A simplicial set with a pointing a : C -> X_0."""

    def __init__(self, sset: TruncSSet, point_set, pointing: dict):
        self.sset = sset
        self.point_set = _sorted_ids(point_set)
        self.pointing = pointing


def validate_pointed(P: PointedSSet, name: str = "pointed") -> CheckReport:
    """The simplicial set's rows, and the pointing into level 0."""
    return _check_rows(name, {**P.sset.actions, "pointing": P.pointing},
                       {**P.sset.levels, "point": P.point_set}, _pointed_rows(_delta_rows, P.sset.trunc, 0))


class BottomSplitSSet:
    """A simplicial set with extra bottom sections s# : X_n -> X_{n+1}."""

    def __init__(self, sset: TruncSSet, split: dict):
        self.sset = sset
        self.split = split  # n -> dict, for 0 <= n < trunc

    @property
    def trunc(self):
        return self.sset.trunc


class AugBottomSplitSSet:
    """A bottom-split simplicial set with a split augmentation level."""

    def __init__(self, sset: TruncSSet, split: dict, aug_level, aug: dict, aug_split: dict):
        self.sset = sset
        self.split = split
        self.aug_level = _sorted_ids(aug_level)
        self.aug = aug            # d_0 : X_0 -> X_{-1}
        self.aug_split = aug_split  # s# : X_{-1} -> X_0


def validate_coalgebra(A, name: str = "split") -> CheckReport:
    """The simplicial identities and the split-simplicial ones; for
    augmented input also the augmentation square and section."""
    X = A.sset
    augmented = isinstance(A, AugBottomSplitSSet)
    tables = {**X.actions, **{("split", None, n): table for n, table in A.split.items()}}
    levels = X.levels
    if augmented:
        tables["aug", None, 0], tables["aug-split", None, -1] = A.aug, A.aug_split
        levels = {**X.levels, -1: A.aug_level}
    return _check_rows(name, tables, levels, _coalgebra_rows(X.trunc, augmented))


@lru_cache(maxsize=None)
def _coalgebra_rows(T: int, augmented: bool) -> tuple:
    """The rows of a bottom-split simplicial set truncated at T: the simplex
    rows, the totality of the splitting ``("split", None, n)`` out of each
    level n < T, and its identities; for ``augmented`` input also the
    level -1, the totality of the augmentation ``("aug", None, 0)`` and its
    section ``("aug-split", None, -1)`` out of level -1, and their
    identities."""
    split = [("split", None, n) for n in range(T)]
    totals = [(f"split@{n}", split[n], n, n + 1) for n in range(T)]
    relations = [(f"split-counit@{n}", "d_0 s# = id", n, (split[n], ("d", 0, n + 1)), ())
                 for n in range(T)]
    relations += [(f"split-face{k}@{n}", "d_k+1 s# = s# d_k", n,
                   (split[n], ("d", k + 1, n + 1)), (("d", k, n), split[n - 1]))
                  for n in range(1, T) for k in range(n + 1)]
    relations += [(f"split-deg{k}@{n}", "s_k+1 s# = s# s_k", n,
                   (split[n], ("s", k + 1, n + 1)), (("s", k, n), split[n + 1]))
                  for n in range(T - 1) for k in range(n + 1)]
    relations += [(f"split-coassoc@{n}", "s_0 s# = s# s#", n,
                   (split[n], ("s", 0, n + 1)), (split[n], split[n + 1]))
                  for n in range(T - 1)]
    expect = ()
    if augmented:
        aug, section = ("aug", None, 0), ("aug-split", None, -1)
        expect = (("level@-1", -1),)
        totals += [("aug", aug, 0, -1), ("aug-split", section, -1, 0)]
        relations.append(("aug-counit", "d_0 s# = id at -1", -1, (section, aug), ()))
        if T >= 1:
            relations += [
                ("aug-split-face", "d_1 s# = s# d_0 at 0", -1, (section, split[0], ("d", 1, 1)), (section,)),
                ("aug-split-coassoc", "s_0 s# = s# s# at -1", -1, (section, ("s", 0, 0)), (section, split[0])),
                ("aug-shift", "d_1 s# = s# d_0 at 0", 0, (split[0], ("d", 1, 1)), (aug, section)),
            ]
    return _concat(_delta_rows(T), (expect, tuple(totals), tuple(relations)))


def validate(P, name: str | None = None) -> CheckReport:
    """Validate any presheaf-like value against its index category, named
    ``name`` or its validator's default."""
    for shape, check in ((TruncSSet, validate_sset), (SMap, validate_smap), (DSet, validate_dset),
                         (BiSSet, validate_bisset), (SigmaSet, validate_sigmaset),
                         ((BottomSplitSSet, AugBottomSplitSSet), validate_coalgebra),
                         (PointedSSet, validate_pointed)):
        if isinstance(P, shape):
            return check(P, name) if name else check(P)
    raise TypeError(f"cannot validate {type(P).__name__}")
