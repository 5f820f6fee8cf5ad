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
and ``trapezium_suite`` certify that the presentation's equations hold in
this model, and ``word_closure_homs`` + ``hom_enumerate`` certify that
the generators reach every morphism; ``presentation_suite`` runs all of it.

Words are evaluated on plain carrier value tuples: each token indexes
the values so far by its generator's carrier, read from one cached
lookup ``_step`` that ``bead_of_generator`` fills.  Validation happens
where a bead map is built, by the ``BeadMap``/``MonotoneMap``
constructors: generators, parsed words, ``eval_bead_word`` results and
the maps of ``hom_enumerate``.  No intermediate step builds a bead map.
Both sides of an equation stay carrier walks, compared as tuples, since a
composite of validated generators is a bead map; a bead map is built only
to name a failing side.  The word closure and recomposed factorizations
stay carrier tuples too, valid because ``presentation_suite`` finds them
equal to enumerated, validated maps.

Each generator is stated once, in the table ``_GENERATORS``: where it
lands, which indices it has at an object and its carrier there.
``SHIFT``, ``generator_range`` and ``bead_of_generator`` read that table,
and nothing else lists generators.  From it ``generators_into`` builds the
generators of a truncation, once: for each object, the generators that
land in it.  Presheaf levels and actions (``presheaf``,
``configurations``, ``decalage``) are read off that.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from .reports import CheckReport, Frozen, Witness, _entry, _entry_from_report, _finish, _tally
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


class DObject(Frozen):
    """The bead column [i, j]: i+1 black beads then j+1 white beads."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        if i < -1 or j < -1:
            raise ValueError("bead counts need i, j >= -1")
        if i == -1 and j == -1:
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


class BeadMap(Frozen):
    """A morphism of bead columns: a carrier monotone map respecting colors."""

    __slots__ = ("src", "tgt", "carrier")

    def __init__(self, src: DObject, tgt: DObject, carrier: MonotoneMap):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "carrier", carrier)
        if carrier.dom != src.size or carrier.cod != tgt.size:
            raise ValueError(f"carrier {carrier} does not fit {src} -> {tgt}")
        # The carrier is monotone, so its last black bead lands highest: one
        # test decides, and only a bad map walks its beads to name the first.
        vals, blacks, top = carrier.values, src.blacks, tgt.blacks
        if blacks and vals[blacks - 1] >= top:
            k = next(k for k in range(blacks) if vals[k] >= top)
            raise ValueError(f"black bead {k} escapes the black zone in {src} -> {tgt}")

    def top_part(self) -> MonotoneMap:
        """The black-bead restriction [i] -> [i']."""
        return MonotoneMap(
            self.src.blacks, self.tgt.blacks, self.carrier.values[: self.src.blacks]
        )

    def whites_turned_black(self) -> int:
        # the carrier is monotone, so the whites that land black come first
        blacks = self.src.blacks
        return bisect_left(self.carrier.values, self.tgt.blacks, blacks) - blacks

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

# The one generator table: for each kind, in the order every generator list
# follows, its step (di, dj) from its source [i, j] to its target, its
# indices at [i, j], and the carrier of its instance k there.  ``e``/``t``
# move the first index, ``d``/``s`` the second, ``f`` is the abacus map and
# ``ssub`` the splitting s#.  A presheaf acts contravariantly, so its
# actions step by the negation (``presheaf.action_target``).
_GENERATORS = {
    "e": ((1, 0), lambda i, j: range(i + 2), lambda k, i, j: coface(k, i + j + 2)),
    "t": ((-1, 0), lambda i, j: range(i), lambda k, i, j: codegeneracy(k, i + j)),
    "d": ((0, 1), lambda i, j: range(j + 2), lambda k, i, j: coface(i + 1 + k, i + j + 2)),
    "s": ((0, -1), lambda i, j: range(j), lambda k, i, j: codegeneracy(i + 1 + k, i + j)),
    "f": ((1, -1), lambda i, j: [None] if j >= 0 else [], lambda k, i, j: identity(i + j + 1)),
    # no splitting out of the augmentation row
    "ssub": ((0, -1), lambda i, j: [None] if (i >= 0 and j >= 0) else [],
             lambda k, i, j: codegeneracy(i, i + j)),
}
SHIFT = {kind: shift for kind, (shift, _, _) in _GENERATORS.items()}


def generator_range(kind: str, at: DObject) -> list[int | None]:
    """Legal indices of a generator kind at the given source object."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator kind {kind!r}")
    return list(_GENERATORS[kind][1](at.i, at.j))


def bead_of_generator(kind: str, k: int | None, at: DObject) -> BeadMap:
    """The generator ``kind^k`` with source ``at``, as a bead map."""
    if k not in generator_range(kind, at):
        raise ValueError(f"generator {kind}{'' if k is None else k} not defined at {at}")
    (di, dj), _, carrier = _GENERATORS[kind]
    return BeadMap(at, DObject(at.i + di, at.j + dj), carrier(k, at.i, at.j))


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


def _walk_word(word: GeneratorWord) -> tuple:
    """``(i, j, carrier values)`` of a word of abacus tokens; nothing is
    built or validated."""
    src = word.source
    if not isinstance(src, DObject):
        raise TypeError("abacus words carry a DObject source")
    return _walk(src.i, src.j, tuple(range(src.size)), word.tokens)


def eval_bead_word(word: GeneratorWord) -> BeadMap:
    """Evaluate a word of abacus tokens (application order) to a bead map."""
    return _bead(word.source, *_walk_word(word))


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


def _cosimplicial_relations(at: DObject, face: str, degen: str, n: int):
    """The cosimplicial identities of the cofaces ``face`` and the
    codegeneracies ``degen`` out of ``at``, whose index along their
    direction is ``n``."""
    for l in range(n + 3):
        for k in range(l):
            yield (f"{face}.{face}@{at}", _word(at, (face, k), (face, l)),
                   _word(at, (face, l - 1), (face, k)))
    for l in range(n - 1):
        for k in range(l + 1):
            # the codegeneracy identity in its k <= l form
            yield (f"{degen}.{degen}@{at}", _word(at, (degen, l + 1), (degen, k)),
                   _word(at, (degen, k), (degen, l)))
    for k in range(n + 2):
        for l in range(n + 1):
            if k < l:
                rhs = _word(at, (degen, l - 1), (face, k))
            elif k in (l, l + 1):
                rhs = _word(at)
            else:
                rhs = _word(at, (degen, l), (face, k - 1))
            yield (f"{degen}.{face}@{at}", _word(at, (face, k), (degen, l)), rhs)


def _bisimplicial_relations(at: DObject):
    i, j = at.i, at.j
    yield from _cosimplicial_relations(at, "e", "t", i)
    yield from _cosimplicial_relations(at, "d", "s", j)
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


def trapezium_instances(degree_bound: int):
    """Yield (site, lhs_word, rhs_word) for each trapezium equation
    f^(m+n+1) d^m = e^(i+1) f^(m+n) from the source object [i-m, j+m], at
    every legal (i, j, m, n) with i+j <= degree_bound."""
    fs = ("f", None)
    for i in range(-1, degree_bound + 2):
        for j in range(-1, degree_bound + 2):
            if not _legal(i, j) or i + j > degree_bound:
                continue
            for m in range(i + 2):
                for n in range(j + 2):
                    if _legal(i - m, j + m):
                        src = DObject(i - m, j + m)
                        yield (f"trapezium@{(i, j, m, n)}",
                               _word(src, ("d", m), *([fs] * (m + n + 1))),
                               _word(src, *([fs] * (m + n)), ("e", i + 1)))


def _equation_report(name: str, instances) -> CheckReport:
    """Decide each equation ``(site, lhs, rhs)`` by comparing the walks of
    its two words.  Each step is a validated generator, so a walk needs no
    validation of its own; a bead map is built only to name a failing side."""
    witnesses = []
    checked = 0
    for site, lhs, rhs in instances:
        checked += 1
        lw, rw = _walk_word(lhs), _walk_word(rhs)
        if lw != rw:
            sides = (_bead(lhs.source, *lw), _bead(rhs.source, *rw))
            witnesses.append(Witness(site, f"{lhs} = {rhs}", tuple(map(str, sides))))
    return CheckReport.from_witnesses(name, witnesses, checked)


def relation_suite(max_i: int, max_j: int) -> CheckReport:
    """Check every relation instance within the bounds."""
    return _equation_report("relation_suite", relation_instances(max_i, max_j))


def trapezium_suite(degree_bound: int) -> CheckReport:
    """All legal trapezium instances with i+j <= degree_bound."""
    return _equation_report("trapezium_suite", trapezium_instances(degree_bound))


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
    if not isinstance(simp.source, DObject):
        raise TypeError("abacus words carry a DObject source")
    i, j, vals = _walk_word(ab)
    if (i, j) != (simp.source.i, simp.source.j):
        raise ValueError(f"not composable: {ab} then {simp}")
    return _walk(i, j, vals, simp.tokens)


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
