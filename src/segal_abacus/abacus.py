"""The abacus category and its bead calculus.

Objects ``[i, j]`` are columns of ``i + 1`` black beads under ``j + 1``
white beads (either count may be zero, not both).  A morphism is a
monotone map of the total bead columns that sends black beads to black
beads; white beads may also land on black ones.  Morphisms that preserve
colors form the bisimplicial subcategory; the extra generators are the
abacus maps ``f`` (turn the bottom white bead black, carrier the
identity) and, in the second presentation, the splittings ``ssub``
(merge the top black and bottom white bead).

Everything is represented semantically: a morphism *is* its carrier, and
generator words are a serialization layer on top.  ``relation_suite``
certifies that the presentation's relation table holds in this model,
and ``word_closure_homs`` + ``hom_enumerate`` certify that the
generators reach every morphism; ``presentation_suite`` runs all of it.

Words are evaluated on plain carrier value tuples: each token indexes
the values so far by its generator's carrier, read from one cached
lookup ``_step`` that ``bead_of_generator`` fills.  Validation happens
where a bead map is built, by the ``BeadMap``/``MonotoneMap``
constructors: parsed words, ``eval_bead_word`` results and the maps of
``hom_enumerate``.  No intermediate step builds a bead map, and the word
closure and recomposed factorizations stay carrier tuples, valid because
``presentation_suite`` finds them equal to enumerated, validated maps.

``SHIFT`` says where each generator lands and ``generator_range`` which
indices exist at an object; nothing else lists either.  From them
``generators_into`` builds the one generator table of a truncation, once:
for each object, the generators that land in it.  Presheaf levels and
actions (``presheaf``, ``configurations``, ``decalage``) are read off it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from .reports import CheckReport, Witness, _entry, _entry_from_report, _finish, _tally
from .simplex import (
    GeneratorWord,
    MonotoneMap,
    codegeneracy,
    coface,
    compose_monotone,
    enumerate_monotone,
    epi_mono_indices,
    identity,
)


@dataclass(frozen=True)
class DObject:
    """The bead column [i, j]: i+1 black beads then j+1 white beads."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < -1 or self.j < -1:
            raise ValueError("bead counts need i, j >= -1")
        if self.i == -1 and self.j == -1:
            raise ValueError("[-1,-1] is not an object")

    @property
    def size(self) -> int:
        return self.i + self.j + 2

    @property
    def blacks(self) -> int:
        return self.i + 1

    @property
    def degree(self) -> int:
        """Total degree i+1+j, the index used for truncation bounds."""
        return self.i + 1 + self.j

    def __str__(self) -> str:
        return f"[{self.i},{self.j}]"


def parse_dobject(text: str) -> DObject:
    i, j = text.strip()[1:-1].split(",")
    return DObject(int(i), int(j))


@dataclass(frozen=True)
class BeadMap:
    """A morphism of bead columns: a carrier monotone map respecting colors."""

    src: DObject
    tgt: DObject
    carrier: MonotoneMap

    def __post_init__(self):
        if self.carrier.dom != self.src.size or self.carrier.cod != self.tgt.size:
            raise ValueError(
                f"carrier {self.carrier} does not fit {self.src} -> {self.tgt}"
            )
        # The carrier is monotone, so its last black bead lands highest: one
        # test decides, and only a bad map walks its beads to name the first.
        vals, blacks, top = self.carrier.values, self.src.blacks, self.tgt.blacks
        if blacks and vals[blacks - 1] >= top:
            k = next(k for k in range(blacks) if vals[k] >= top)
            raise ValueError(
                f"black bead {k} escapes the black zone in {self.src} -> {self.tgt}"
            )

    def top_part(self) -> MonotoneMap:
        """The black-bead restriction [i] -> [i']."""
        return MonotoneMap(
            self.src.blacks, self.tgt.blacks, self.carrier.values[: self.src.blacks]
        )

    def whites_turned_black(self) -> int:
        # the carrier is monotone, so the whites that land black come first
        blacks = self.src.blacks
        return bisect_left(self.carrier.values, self.tgt.blacks, blacks) - blacks

    def is_identity(self) -> bool:
        return self.src == self.tgt and self.carrier.is_identity()

    def __str__(self) -> str:
        return f"{self.src}->{self.tgt}:{list(self.carrier.values)}"


def bead_identity(obj: DObject) -> BeadMap:
    return BeadMap(obj, obj, identity(obj.size - 1))


def bead_compose(g2: BeadMap, g1: BeadMap) -> BeadMap:
    """Composite g2 . g1 (g1 acts first)."""
    if g1.tgt != g2.src:
        raise ValueError(f"not composable: {g1} then {g2}")
    return BeadMap(g1.src, g2.tgt, compose_monotone(g2.carrier, g1.carrier))


# ---------------------------------------------------------------------------
# Generators

# The one table of where each generator lands: the step (di, dj) from its
# source object to its target.  ``e``/``t`` move the first index, ``d``/``s``
# the second, ``f`` is the abacus map and ``ssub`` the splitting s#.  A
# presheaf acts contravariantly, so its actions step by the negation
# (``presheaf.action_target``).
SHIFT = {"e": (1, 0), "t": (-1, 0), "d": (0, 1), "s": (0, -1), "f": (1, -1), "ssub": (0, -1)}


def generator_range(kind: str, at: DObject) -> list[int | None]:
    """Legal indices of a generator kind at the given source object."""
    i, j = at.i, at.j
    if kind == "e":
        return list(range(i + 2))
    if kind == "t":
        return list(range(i))
    if kind == "d":
        return list(range(j + 2))
    if kind == "s":
        return list(range(j))
    if kind == "f":
        return [None] if j >= 0 else []
    if kind == "ssub":
        # no splitting out of the augmentation row
        return [None] if (i >= 0 and j >= 0) else []
    raise ValueError(f"unknown generator kind {kind!r}")


def bead_of_generator(kind: str, k: int | None, at: DObject) -> BeadMap:
    """The generator ``kind^k`` with source ``at``, as a bead map."""
    i, j = at.i, at.j
    if k not in generator_range(kind, at):
        raise ValueError(f"generator {kind}{'' if k is None else k} not defined at {at}")
    if kind == "e":
        carrier = coface(k, i + j + 2)
    elif kind == "t":
        carrier = codegeneracy(k, i + j)
    elif kind == "d":
        carrier = coface(i + 1 + k, i + j + 2)
    elif kind == "s":
        carrier = codegeneracy(i + 1 + k, i + j)
    elif kind == "f":
        carrier = identity(i + j + 1)
    else:  # ssub
        carrier = codegeneracy(i, i + j)
    di, dj = SHIFT[kind]
    return BeadMap(at, DObject(i + di, j + dj), carrier)


def generators_at(at: DObject) -> list[tuple[str, int | None, BeadMap]]:
    return [(kind, k, bead_of_generator(kind, k, at))
            for kind in SHIFT for k in generator_range(kind, at)]


@lru_cache(maxsize=None)
def generators_into(max_degree: int) -> dict:
    """The generator table of the truncation ``max_degree``: for each object
    ``(i, j)`` of degree <= max_degree, in ``objects_of_degree`` order, the
    generators ``(kind, k, source (i, j), bead map)`` that land in it from
    objects of degree <= max_degree.  A presheaf acts contravariantly, so
    the action ``(kind, k)`` out of level ``(i, j)`` goes to the source."""
    objs = objects_of_degree(max_degree)
    into = {(o.i, o.j): [] for o in objs}
    for o in objs:
        for kind, k, g in generators_at(o):
            if g.tgt.degree <= max_degree:
                into[g.tgt.i, g.tgt.j].append((kind, k, (o.i, o.j), g))
    return {lvl: tuple(gens) for lvl, gens in into.items()}


@lru_cache(maxsize=None)
def _step(kind: str, k: int | None, i: int, j: int) -> tuple:
    """``(i', j', carrier values)`` of the generator ``kind^k`` out of [i, j].
    An illegal token raises in ``bead_of_generator`` and is not cached."""
    g = bead_of_generator(kind, k, DObject(i, j))
    return g.tgt.i, g.tgt.j, g.carrier.values


def _walk(i: int, j: int, vals: tuple, tokens) -> tuple:
    """Apply the tokens to the carrier values ``vals`` landing in [i, j]."""
    for kind, k in tokens:
        i, j, step = _step(kind, k, i, j)
        vals = tuple([step[v] for v in vals])
    return i, j, vals


def _bead(src: DObject, i: int, j: int, vals: tuple) -> BeadMap:
    """The bead map src -> [i, j] with carrier ``vals``, validated."""
    tgt = DObject(i, j)
    return BeadMap(src, tgt, MonotoneMap(src.size, tgt.size, vals))


def eval_bead_word(word: GeneratorWord) -> BeadMap:
    """Evaluate a word of abacus tokens (application order) to a bead map."""
    src = word.source
    if not isinstance(src, DObject):
        raise TypeError("abacus words carry a DObject source")
    return _bead(src, *_walk(src.i, src.j, tuple(range(src.size)), word.tokens))


def parse_bead_word(text: str) -> GeneratorWord:
    """Parse e.g. ``"e1.f.d0@[0,0]"`` (composition order, source annotated)."""
    body, _, at = text.partition("@")
    src = parse_dobject(at)
    if body in ("", "id"):
        return GeneratorWord((), src)
    toks = []
    for piece in body.split("."):
        if not piece:
            raise ValueError(f"empty token in {text!r}")
        if piece == "f" or piece == "ssub":
            toks.append((piece, None))
        else:
            toks.append((piece[0], int(piece[1:])))
    return GeneratorWord(tuple(reversed(toks)), src)


# ---------------------------------------------------------------------------
# The relation table of the presentation


def _word(at: DObject, *tokens) -> GeneratorWord:
    return GeneratorWord(tuple(tokens), at)


def _legal(i: int, j: int) -> bool:
    return i >= -1 and j >= -1 and not (i == -1 and j == -1)


def relation_instances(max_i: int, max_j: int):
    """Yield (name, lhs_word, rhs_word) for each relation instance.

    Both words share source and target.  Indices run over all source
    objects [i, j] with i <= max_i and j <= max_j, i-major.
    """
    for i in range(-1, max_i + 1):
        for j in range(-1, max_j + 1):
            if _legal(i, j):
                yield from relations_at(DObject(i, j))


def relations_at(at: DObject):
    """The relation instances with source ``at``, in ``relation_instances``
    order: the bisimplicial, then the abacus, then the split families."""
    yield from _bisimplicial_relations(at)
    yield from _abacus_relations(at)
    yield from _split_relations(at)


def _bisimplicial_relations(at: DObject):
    i, j = at.i, at.j
    # vertical cosimplicial identities
    for l in range(i + 3):
        for k in range(l):
            yield (f"e.e@{at}", _word(at, ("e", k), ("e", l)), _word(at, ("e", l - 1), ("e", k)))
    for l in range(i - 1):
        for k in range(l + 1):
            # the codegeneracy identity in its k <= l form
            yield (f"t.t@{at}", _word(at, ("t", l + 1), ("t", k)), _word(at, ("t", k), ("t", l)))
    for k in range(i + 2):
        for l in range(i + 1):
            lhs = _word(at, ("e", k), ("t", l))
            if k < l:
                yield (f"t.e@{at}", lhs, _word(at, ("t", l - 1), ("e", k)))
            elif k in (l, l + 1):
                yield (f"t.e@{at}", lhs, _word(at))
            else:
                yield (f"t.e@{at}", lhs, _word(at, ("t", l), ("e", k - 1)))
    # horizontal cosimplicial identities
    for l in range(j + 3):
        for k in range(l):
            yield (f"d.d@{at}", _word(at, ("d", k), ("d", l)), _word(at, ("d", l - 1), ("d", k)))
    for l in range(j - 1):
        for k in range(l + 1):
            yield (f"s.s@{at}", _word(at, ("s", l + 1), ("s", k)), _word(at, ("s", k), ("s", l)))
    for k in range(j + 2):
        for l in range(j + 1):
            lhs = _word(at, ("d", k), ("s", l))
            if k < l:
                yield (f"s.d@{at}", lhs, _word(at, ("s", l - 1), ("d", k)))
            elif k in (l, l + 1):
                yield (f"s.d@{at}", lhs, _word(at))
            else:
                yield (f"s.d@{at}", lhs, _word(at, ("s", l), ("d", k - 1)))
    # vertical against horizontal: all commute
    for vk in ("e", "t"):
        for hk in ("d", "s"):
            for kv in generator_range(vk, at):
                mid_v = DObject(i + SHIFT[vk][0], j)
                for kh in generator_range(hk, at):
                    mid_h = DObject(i, j + SHIFT[hk][1])
                    if kh in generator_range(hk, mid_v) and kv in generator_range(vk, mid_h):
                        yield (
                            f"{vk}.{hk}@{at}",
                            _word(at, (vk, kv), (hk, kh)),
                            _word(at, (hk, kh), (vk, kv)),
                        )


def _abacus_relations(at: DObject):
    i, j = at.i, at.j
    # f d^k = d^{k-1} f, source [i,j], 1 <= k <= j+1
    for k in range(1, j + 2):
        yield (f"f.d@{at}", _word(at, ("d", k), ("f", None)), _word(at, ("f", None), ("d", k - 1)))
    # f s^k = s^{k-1} f, source [i,j], needs s^k at [i,j] (k <= j-1) per ranges
    for k in range(1, j):
        yield (f"f.s@{at}", _word(at, ("s", k), ("f", None)), _word(at, ("f", None), ("s", k - 1)))
    # e^k f = f e^k, source [i,j] with f first (j >= 0), 0 <= k <= i+1
    if j >= 0:
        for k in range(i + 2):
            yield (f"e.f@{at}", _word(at, ("f", None), ("e", k)), _word(at, ("e", k), ("f", None)))
    # the parallelogram e^top = f d^0
    yield (f"e_top=f.d0@{at}", _word(at, ("e", i + 1)), _word(at, ("d", 0), ("f", None)))
    # f s^0 = t^top f f, source [i,j] with j >= 1
    if j >= 1:
        yield (
            f"f.s0@{at}",
            _word(at, ("s", 0), ("f", None)),
            _word(at, ("f", None), ("f", None), ("t", i + 1)),
        )
    # f t^k = t^k f, source [i,j] with j >= 0, 0 <= k <= i-1
    if j >= 0:
        for k in range(i):
            yield (f"t.f@{at}", _word(at, ("f", None), ("t", k)), _word(at, ("t", k), ("f", None)))


def _split_relations(at: DObject):
    i, j = at.i, at.j
    if i < 0:
        return
    # counit: ssub d^0 = id
    yield (f"ssub.d0@{at}", _word(at, ("d", 0), ("ssub", None)), _word(at))
    # shifts: ssub d^{k+1} = d^k ssub (source [i,j], j >= 0)
    if j >= 0:
        for k in range(j + 1):
            yield (
                f"ssub.d@{at}",
                _word(at, ("d", k + 1), ("ssub", None)),
                _word(at, ("ssub", None), ("d", k)),
            )
        # coassociativity: ssub s^0-style, as ssub ssub = ssub s^0 needs j >= 1
    if j >= 1:
        yield (
            f"ssub.ssub@{at}",
            _word(at, ("ssub", None), ("ssub", None)),
            _word(at, ("s", 0), ("ssub", None)),
        )
        for k in range(j - 1):
            yield (
                f"ssub.s@{at}",
                _word(at, ("s", k + 1), ("ssub", None)),
                _word(at, ("ssub", None), ("s", k)),
            )
    # vertical compatibilities, top vertical coface excluded
    if j >= 0:
        for k in range(i + 1):
            yield (
                f"e.ssub@{at}",
                _word(at, ("ssub", None), ("e", k)),
                _word(at, ("e", k), ("ssub", None)),
            )
        for k in range(i):
            yield (
                f"t.ssub@{at}",
                _word(at, ("ssub", None), ("t", k)),
                _word(at, ("t", k), ("ssub", None)),
            )
    # the two presentations express each other
    if j >= 0:
        yield (
            f"f=ssub.e_top@{at}",
            _word(at, ("f", None)),
            _word(at, ("e", i + 1), ("ssub", None)),
        )
        yield (
            f"ssub=t_top.f@{at}",
            _word(at, ("ssub", None)),
            _word(at, ("f", None), ("t", i)),
        )


def relation_suite(max_i: int, max_j: int) -> CheckReport:
    """Check every relation instance within the bounds as bead-map equality."""
    witnesses = []
    checked = 0
    for name, lhs, rhs in relation_instances(max_i, max_j):
        checked += 1
        lv, rv = eval_bead_word(lhs), eval_bead_word(rhs)
        if lv != rv:
            witnesses.append(Witness(name, f"{lhs} = {rhs}", (str(lv), str(rv))))
    return CheckReport.from_witnesses("relation_suite", witnesses, checked)


def trapezium_check(i: int, j: int, m: int, n: int) -> CheckReport:
    """f^(m+n+1) d^m = e^(i+1) f^(m+n) from the source object [i-m, j+m]."""
    if not (_legal(i, j) and 0 <= m <= i + 1 and 0 <= n <= j + 1):
        raise ValueError(f"illegal trapezium indices {(i, j, m, n)}")
    src = DObject(i - m, j + m)
    fs = ("f", None)
    lhs = _word(src, ("d", m), *([fs] * (m + n + 1)))
    rhs = _word(src, *([fs] * (m + n)), ("e", i + 1))
    lv, rv = eval_bead_word(lhs), eval_bead_word(rhs)
    witnesses = []
    if lv != rv:
        witnesses.append(Witness(f"trapezium@{(i, j, m, n)}", f"{lhs} = {rhs}", (str(lv), str(rv))))
    return CheckReport.from_witnesses("trapezium_check", witnesses, 1)


def trapezium_suite(degree_bound: int) -> CheckReport:
    """All legal trapezium instances with i+j <= degree_bound."""
    reports = []
    for i in range(-1, degree_bound + 2):
        for j in range(-1, degree_bound + 2):
            if not _legal(i, j) or i + j > degree_bound:
                continue
            for m in range(i + 2):
                for n in range(j + 2):
                    if _legal(i - m, j + m):
                        reports.append(trapezium_check(i, j, m, n))
    return CheckReport.conjunction("trapezium_suite", reports)


# ---------------------------------------------------------------------------
# Hom sets: brute force and word closure


def hom_enumerate(src: DObject, tgt: DObject) -> list[BeadMap]:
    """All bead maps src -> tgt, by filtering monotone carriers: those whose
    last black bead (and so every black bead) lands black.  Each is built
    and validated."""
    blacks, top = src.blacks, tgt.blacks
    return [BeadMap(src, tgt, f) for f in enumerate_monotone(src.size - 1, tgt.size - 1)
            if not blacks or f.values[blacks - 1] < top]


def objects_of_degree(max_degree: int) -> list[DObject]:
    objs = []
    for d in range(max_degree + 1):
        for i in range(-1, d + 2):
            j = d - 1 - i
            if j >= -1 and _legal(i, j):
                objs.append(DObject(i, j))
    return objs


def word_closure_homs(max_degree: int) -> dict[tuple[DObject, DObject], set[tuple]]:
    """The carrier values of all morphisms reachable from identities by
    composing generators, between objects of total degree <= max_degree,
    staying within the bound, keyed by ``(source, target)``.

    Nothing here is built as a bead map or validated: a reached carrier is
    known valid once it equals one that ``hom_enumerate`` built, which is
    what ``presentation_suite`` compares."""
    objs = objects_of_degree(max_degree)
    obj_at = {(o.i, o.j): o for o in objs}
    steps_out = {lvl: [] for lvl in obj_at}
    for gens in generators_into(max_degree).values():
        for kind, k, src, _ in gens:
            steps_out[src].append(_step(kind, k, *src))
    homs: dict[tuple[DObject, DObject], set[tuple]] = {}
    for src in objs:
        start = (src.i, src.j, tuple(range(src.size)))
        seen = {start}
        frontier = [start]
        while frontier:
            ci, cj, vals = frontier.pop()
            for i, j, step in steps_out[ci, cj]:
                nxt = (i, j, tuple([step[v] for v in vals]))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for i, j, vals in seen:
            homs.setdefault((src, obj_at[i, j]), set()).add(vals)
    return homs


def factorize(g: BeadMap) -> tuple[GeneratorWord, GeneratorWord]:
    """Split g into an abacus word followed by a color-preserving word.

    Returns ``(ab, simp)`` with ``g = eval(simp after ab)``: ``ab`` is
    f-tokens only, one per white bead turned black, and ``simp`` is a
    bisimplicial word in canonical degeneracies-then-faces order, read off
    the carrier values: the black beads of the middle object map by the
    vertical part (t, e), the rest by the horizontal part (s, d).
    """
    w = g.whites_turned_black()
    di, dj = SHIFT["f"]
    mid = DObject(g.src.i + w * di, g.src.j + w * dj)
    vals, blacks = g.carrier.values, g.tgt.blacks
    t_epi, e_mono = epi_mono_indices(vals[: mid.blacks], blacks)
    s_epi, d_mono = epi_mono_indices([v - blacks for v in vals[mid.blacks :]], g.tgt.j + 1)
    tokens = ([("t", k) for k in t_epi] + [("s", k) for k in s_epi]
              + [("e", k) for k in e_mono] + [("d", k) for k in d_mono])
    return GeneratorWord((("f", None),) * w, g.src), GeneratorWord(tuple(tokens), mid)


def _recompose_values(ab: GeneratorWord, simp: GeneratorWord) -> tuple:
    """``(i, j, carrier values)`` of ``simp`` after ``ab``, in one walk over
    both words; nothing is built or validated."""
    src = ab.source
    if not (isinstance(src, DObject) and isinstance(simp.source, DObject)):
        raise TypeError("abacus words carry a DObject source")
    i, j, vals = _walk(src.i, src.j, tuple(range(src.size)), ab.tokens)
    if (i, j) != (simp.source.i, simp.source.j):
        raise ValueError(f"not composable: {ab} then {simp}")
    return _walk(i, j, vals, simp.tokens)


def recompose(ab: GeneratorWord, simp: GeneratorWord) -> BeadMap:
    """``simp`` after ``ab``, evaluated in one walk over both words."""
    return _bead(ab.source, *_recompose_values(ab, simp))


# ---------------------------------------------------------------------------
# The presentation suite


def presentation_suite(bound: int = 4) -> dict:
    """Certify the generator-and-relation description of the bead calculus.

    Each morphism between objects of degree <= ``bound`` is built and
    validated once, by ``hom_enumerate``; that table serves the hom-count
    and factorization entries.  The word closure's carriers and each
    factorization's recomposed carrier are value tuples, compared with
    those validated maps."""
    rel = relation_suite(bound, bound)
    trap = trapezium_suite(bound)
    objs = objects_of_degree(bound)
    homs = {(src, tgt): hom_enumerate(src, tgt) for src in objs for tgt in objs}
    reached = word_closure_homs(bound)
    base = DObject(0, 0)

    def factorizes(g):
        ab, simp = factorize(g)
        i, j, vals = _recompose_values(ab, simp)
        return ((i, j) == (g.tgt.i, g.tgt.j) and vals == g.carrier.values
                and len(ab) == g.whites_turned_black())

    maps = [g for hom in homs.values() for g in hom]
    entries = [
        _entry_from_report("presentation:relations",
                           "all relation instances hold as bead maps", rel),
        _entry_from_report("presentation:trapezium",
                           "trapezium equations hold at all legal indices", trap),
        _tally("presentation:hom-counts", "enumerated hom sets match generator-word closure",
               ((f"{src}->{tgt}", {g.carrier.values for g in hom} == reached.get((src, tgt), set()))
                for (src, tgt), hom in homs.items())),
        _tally("presentation:spot-values", "frozen hom-set sizes at the base objects",
               ((f"{base}->{tgt}", len(hom_enumerate(base, tgt)) == size)
                for tgt, size in ((base, 2), (DObject(0, -1), 1)))),
        # every row is decided, so only the failing rows are named
        _entry("presentation:factorization",
               "every morphism splits as abacus word then color-preserving word",
               len(maps), [str(g) for g in maps if not factorizes(g)]),
    ]
    return _finish("presentation", entries, bound)
