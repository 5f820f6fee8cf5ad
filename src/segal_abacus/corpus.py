"""Example generators: nerves, partial monoids, graphs, and friends.

Everything here emits validated presheaves; the generators are the
positive corpus for the checker suites, the graph and crafted partial
tables are the negative corpus.

The standard fixtures (``standard_nerve_corpus``, ``standard_map_corpus``)
depend only on the truncation, so they come from one table per
truncation, which builds each nerve the first time a caller asks for it.
The nerve maps of the map corpus take their source and target from that
table, so a map's nerves are the very objects of the nerve corpus.  Only
the most recently asked truncation is held.  Each call returns a fresh
list, but its entries are shared between calls and suites, so a caller
may extend the list and must never mutate an entry.  The random corpus is
never shared: each call builds its own nerves.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from itertools import product

from .presheaf import SMap, TruncSSet, _cut, delta_actions, identity_smap, pullback_pairs
from .reports import Frozen


class FinCat(Frozen):
    """A finite category with an explicit composition table.

    Morphisms are ids; ``comp[(g, f)]`` is the composite of f : a -> b
    followed by g : b -> c.
    """

    __slots__ = ("name", "objects", "morphisms", "src", "tgt", "comp", "ident")

    def __init__(self, name: str, objects: tuple, morphisms: tuple, src: dict, tgt: dict,
                 comp: dict, ident: dict):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "morphisms", morphisms)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "ident", ident)

    def check(self):
        for o in self.objects:
            e = self.ident[o]
            assert self.src[e] == o and self.tgt[e] == o
        for f in self.morphisms:
            assert self.comp[(self.ident[self.tgt[f]], f)] == f
            assert self.comp[(f, self.ident[self.src[f]])] == f
        pairs = pullback_pairs(self.tgt, self.src, self.morphisms, self.morphisms)
        for f, g in pairs:
            gf = self.comp[(g, f)]
            assert self.src[gf] == self.src[f] and self.tgt[gf] == self.tgt[g]
        ends = {fg: self.tgt[fg[1]] for fg in pairs}
        for (f, g), h in pullback_pairs(ends, self.src, pairs, self.morphisms):
            assert self.comp[(h, self.comp[(g, f)])] == self.comp[(self.comp[(h, g)], f)]
        return self


def poset_cat(name: str, elements, leq) -> FinCat:
    """The category of a finite poset: one morphism per related pair."""
    elements = tuple(elements)
    morphisms = tuple((a, b) for a in elements for b in elements if leq(a, b))
    src = {m: m[0] for m in morphisms}
    tgt = {m: m[1] for m in morphisms}
    comp = {(g, f): (f[0], g[1]) for f, g in pullback_pairs(tgt, src, morphisms, morphisms)}
    ident = {o: (o, o) for o in elements}
    return FinCat(name, elements, morphisms, src, tgt, comp, ident).check()


def chain_poset(n: int) -> FinCat:
    return poset_cat(f"chain{n}", range(n + 1), lambda a, b: a <= b)


def boolean_lattice(k: int) -> FinCat:
    subsets = [frozenset(s) for s in _powerset(range(k))]
    named = {s: "".join(str(i) for i in sorted(s)) or "o" for s in subsets}
    return poset_cat(
        f"bool{k}", sorted(named.values()),
        lambda a, b: _unname(a) <= _unname(b),
    )


def _unname(label: str) -> frozenset:
    return frozenset() if label == "o" else frozenset(int(c) for c in label)


def _powerset(xs):
    xs = list(xs)
    for mask in range(1 << len(xs)):
        yield {x for i, x in enumerate(xs) if mask >> i & 1}


def diamond_poset() -> FinCat:
    order = {("0", "0"), ("0", "a"), ("0", "b"), ("0", "1"), ("a", "a"),
             ("a", "1"), ("b", "b"), ("b", "1"), ("1", "1")}
    return poset_cat("diamond", ["0", "1", "a", "b"], lambda x, y: (x, y) in order)


def vee_poset() -> FinCat:
    """a below b and c."""
    return poset_cat("vee", ["a", "b", "c"], lambda x, y: x == y or x == "a")


def wedge_poset() -> FinCat:
    """a and b below c."""
    return poset_cat("wedge", ["a", "b", "c"], lambda x, y: x == y or y == "c")


def antichain(n: int) -> FinCat:
    return poset_cat(f"antichain{n}", [f"p{k}" for k in range(n)], lambda a, b: a == b)


def monoid_cat(name: str, elements, unit, mult) -> FinCat:
    """A monoid as a one-object category."""
    elements = tuple(elements)
    morphisms = elements
    src = {m: "*" for m in morphisms}
    tgt = dict(src)
    comp = {(g, f): mult(g, f) for f in morphisms for g in morphisms}
    ident = {"*": unit}
    return FinCat(name, ("*",), morphisms, src, tgt, comp, ident).check()


def cyclic_monoid(n: int) -> FinCat:
    return monoid_cat(f"Z{n}", range(n), 0, lambda a, b: (a + b) % n)


def idempotent_monoid() -> FinCat:
    mult = lambda a, b: "e" if a == b == "e" else "p"
    return monoid_cat("idem", ("e", "p"), "e", mult)


def parallel_arrows_cat() -> FinCat:
    """Two objects with a pair of parallel nonidentity arrows."""
    objs = ("a", "b")
    mors = ("ia", "ib", "u", "v")
    src = {"ia": "a", "ib": "b", "u": "a", "v": "a"}
    tgt = {"ia": "a", "ib": "b", "u": "b", "v": "b"}
    comp = {}
    for f, g in pullback_pairs(tgt, src, mors, mors):
        if f in ("ia", "ib"):
            comp[(g, f)] = g
        elif g in ("ia", "ib"):
            comp[(g, f)] = f
    return FinCat("parallel", objs, mors, src, tgt, comp, {"a": "ia", "b": "ib"}).check()


def walking_iso_cat() -> FinCat:
    objs = ("a", "b")
    mors = ("ia", "ib", "f", "g")
    src = {"ia": "a", "ib": "b", "f": "a", "g": "b"}
    tgt = {"ia": "a", "ib": "b", "f": "b", "g": "a"}
    comp = {}
    table = {("f", "g"): "ib", ("g", "f"): "ia"}
    for u, v in pullback_pairs(src, tgt, mors, mors):
        if v in ("ia", "ib"):
            comp[(u, v)] = u
        elif u in ("ia", "ib"):
            comp[(u, v)] = v
        else:
            comp[(u, v)] = table[(u, v)]
    return FinCat("walkiso", objs, mors, src, tgt, comp, {"a": "ia", "b": "ib"}).check()


def product_cat(c1: FinCat, c2: FinCat) -> FinCat:
    objs = tuple(product(c1.objects, c2.objects))
    mors = tuple(product(c1.morphisms, c2.morphisms))
    src = {m: (c1.src[m[0]], c2.src[m[1]]) for m in mors}
    tgt = {m: (c1.tgt[m[0]], c2.tgt[m[1]]) for m in mors}
    comp = {
        ((g1, g2), (f1, f2)): (c1.comp[(g1, f1)], c2.comp[(g2, f2)])
        for (f1, f2), (g1, g2) in pullback_pairs(tgt, src, mors, mors)
    }
    ident = {o: (c1.ident[o[0]], c2.ident[o[1]]) for o in objs}
    return FinCat(f"{c1.name}x{c2.name}", objs, mors, src, tgt, comp, ident).check()


def nerve(cat: FinCat, trunc: int) -> TruncSSet:
    """The nerve: n-simplices are composable chains of n morphisms."""
    levels = {0: tuple(cat.objects)}
    for n in range(1, trunc + 1):  # X_{n-1} x_{X_0} X_1: chains meet the morphisms out of their end
        ends = {ch: cat.tgt[ch[-1]] if n > 1 else ch for ch in levels[n - 1]}
        levels[n] = tuple(ch + (m,) if n > 1 else (m,)
                          for ch, m in pullback_pairs(ends, cat.src, levels[n - 1], cat.morphisms))

    def act(kind, k, n, ch):
        if kind == "d":
            if n == 1:
                return cat.tgt[ch[0]] if k == 0 else cat.src[ch[0]]
            if k == 0:
                return ch[1:]
            if k == n:
                return ch[:-1]
            return ch[: k - 1] + (cat.comp[(ch[k], ch[k - 1])],) + ch[k + 1 :]
        if n == 0:
            return (cat.ident[ch],)
        obj = cat.src[ch[0]] if k == 0 else cat.tgt[ch[k - 1]]
        return ch[:k] + (cat.ident[obj],) + ch[k:]

    return _sset_acting(trunc, levels, act)


def _sset_acting(trunc: int, levels: dict, act) -> TruncSSet:
    """The simplicial set whose generator ``(kind, k, n)`` of
    ``delta_actions(trunc)`` sends x to ``act(kind, k, n, x)``."""
    return TruncSSet(trunc, levels, {(kind, k, n): {x: act(kind, k, n, x) for x in levels[n]}
                                     for kind, k, n in delta_actions(trunc)})


class FinFunctor(Frozen):
    __slots__ = ("name", "source", "target", "on_obj", "on_mor")

    def __init__(self, name: str, source: FinCat, target: FinCat, on_obj: dict, on_mor: dict):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "on_obj", on_obj)
        object.__setattr__(self, "on_mor", on_mor)

    def check(self):
        for o in self.source.objects:
            assert self.on_mor[self.source.ident[o]] == self.target.ident[self.on_obj[o]]
        for f in self.source.morphisms:
            assert self.target.src[self.on_mor[f]] == self.on_obj[self.source.src[f]]
            assert self.target.tgt[self.on_mor[f]] == self.on_obj[self.source.tgt[f]]
        S = self.source
        for f, g in pullback_pairs(S.tgt, S.src, S.morphisms, S.morphisms):
            assert self.on_mor[S.comp[(g, f)]] == self.target.comp[(self.on_mor[g], self.on_mor[f])]
        return self


def nerve_map(fun: FinFunctor, trunc: int) -> SMap:
    return _functor_map(fun, nerve(fun.source, trunc), nerve(fun.target, trunc))


def _functor_map(fun: FinFunctor, X: TruncSSet, Y: TruncSSet) -> SMap:
    """The map of nerves ``X -> Y`` that ``fun`` induces."""
    levels = {0: {o: fun.on_obj[o] for o in X.level(0)}}
    for n in range(1, X.trunc + 1):
        levels[n] = {ch: tuple(fun.on_mor[m] for m in ch) for ch in X.level(n)}
    return SMap(X, Y, levels)


def poset_inclusion(sub: FinCat, sup: FinCat, trunc: int) -> SMap:
    return nerve_map(_inclusion_functor(sub, sup), trunc)


def _inclusion_functor(sub: FinCat, sup: FinCat) -> FinFunctor:
    return FinFunctor("incl", sub, sup, {o: o for o in sub.objects}, {m: m for m in sub.morphisms})


def projection_functor(c1: FinCat, c2: FinCat) -> FinFunctor:
    prod = product_cat(c1, c2)
    on_obj = {o: o[0] for o in prod.objects}
    on_mor = {m: m[0] for m in prod.morphisms}
    return FinFunctor("proj", prod, c1, on_obj, on_mor).check()


def collapse_functor(cat: FinCat) -> FinFunctor:
    pt = chain_poset(0)
    on_obj = {o: 0 for o in cat.objects}
    on_mor = {m: (0, 0) for m in cat.morphisms}
    return FinFunctor("collapse", cat, pt, on_obj, on_mor).check()


def upset_inclusion(cat: FinCat, base, trunc: int) -> SMap:
    """The nerve of an up-set of a poset, included into the whole poset.

    The inclusion of a coslice: a discrete opfibration, so a left
    fibration of nerves.
    """
    return poset_inclusion(_bounded(cat, base, ">="), cat, trunc)


def downset_inclusion(cat: FinCat, base, trunc: int) -> SMap:
    return poset_inclusion(_bounded(cat, base, "<="), cat, trunc)


def _bounded(cat: FinCat, base, side: str) -> FinCat:
    """The full subposet of the objects ``side`` ``base`` (``">="`` or
    ``"<="``); its arrows are read off one set."""
    arrows = set(cat.morphisms)
    keep = {o for o in cat.objects if ((base, o) if side == ">=" else (o, base)) in arrows}
    return poset_cat(f"{cat.name}{side}{base}", sorted(keep, key=str), lambda a, b: (a, b) in arrows)


# ---------------------------------------------------------------------------
# Partial monoids: the window construction


class PartialTable:
    """A partial binary operation with unit, given as a dict on pairs."""

    def __init__(self, elements, unit, table: dict):
        self.elements = tuple(elements)
        self.unit = unit
        self.table = dict(table)
        for x in self.elements:
            self.table[(self.unit, x)] = x
            self.table[(x, self.unit)] = x

    def mult(self, a, b):
        return self.table.get((a, b))

    def check_associative_where_defined(self) -> bool:
        for x, y, z in product(self.elements, repeat=3):
            xy, yz = self.mult(x, y), self.mult(y, z)
            if xy is None or yz is None:
                continue
            left = self.mult(xy, z)
            right = self.mult(x, yz)
            if (left is None) != (right is None) or left != right:
                return False
        return True


def partial_monoid_sset(pt: PartialTable, trunc: int) -> TruncSSet:
    """Simplices are tuples whose every consecutive window multiplies: the
    nerve of the partial monoid.  It is 2-Segal exactly when the table is
    strongly associative: for all x, y, z, (xy)z and x(yz) are both
    undefined, or both defined and equal.  Associativity where defined,
    which is all this checks, is weaker: the table on e, a, b with ba = b
    and bb = b, all else undefined, passes it, but (ba)a = b while aa is
    undefined, and its nerve is not 2-Segal.  Raises ``ValueError`` for a
    table that is not associative where defined.
    """
    if not pt.check_associative_where_defined():
        raise ValueError("partial table is not associative where defined")

    def windows(tup):
        prods = {}
        for a in range(len(tup)):
            prods[(a, a)] = tup[a]
            for b in range(a + 1, len(tup)):
                val = pt.mult(prods[(a, b - 1)], tup[b])
                if val is None:
                    return None
                prods[(a, b)] = val
        return prods

    levels = {0: ((),)}
    for n in range(1, trunc + 1):
        levels[n] = tuple(
            tup for tup in product(pt.elements, repeat=n) if windows(tup) is not None
        )

    def act(kind, k, n, tup):
        if kind == "s":
            return tup[:k] + (pt.unit,) + tup[k:]
        if k == 0:
            return tup[1:]
        if k == n:
            return tup[:-1]
        return tup[: k - 1] + (pt.mult(tup[k - 1], tup[k]),) + tup[k + 1 :]

    return _sset_acting(trunc, levels, act)


def two_segal_partial_monoid(trunc: int) -> TruncSSet:
    """The standard 2-Segal-but-not-Segal example: a with a*a undefined."""
    return partial_monoid_sset(PartialTable(("e", "a"), "e", {}), trunc)


# ---------------------------------------------------------------------------
# Graph fixtures (1-dimensional, no composites: not Segal, not 2-Segal)


def graph_sset(vertices, edges, trunc: int) -> TruncSSet:
    """The simplicial set of a simple directed graph: vertex tuples with at
    most one nondegenerate step along an edge."""
    edges = set(edges)

    def ok(tup):
        steps = [(a, b) for a, b in zip(tup, tup[1:]) if a != b]
        return all(s in edges for s in steps) and len(steps) <= 1

    levels = {0: tuple(vertices)}
    for n in range(1, trunc + 1):
        levels[n] = tuple(t for t in product(vertices, repeat=n + 1) if ok(t))

    def act(kind, k, n, tup):
        if kind == "d":
            out = tup[:k] + tup[k + 1 :]
            return out if n > 1 else out[0]
        full = (tup,) if n == 0 else tup
        return full[: k + 1] + (full[k],) + full[k + 1 :]

    return _sset_acting(trunc, levels, act)


def glued_edges_sset(trunc: int) -> TruncSSet:
    """Two edges u -> v -> w with no composite: the basic non-Segal set."""
    return graph_sset(("u", "v", "w"), {("u", "v"), ("v", "w")}, trunc)


def punctured_chain_sset(n: int, trunc: int) -> TruncSSet:
    """The nerve of a chain with all long chains removed.

    Keeping only chains with at most 3 distinct vertices is
    closed under faces and degeneracies, but the missing top chains break
    the decomposition gluing: for n >= 3 the result is not 2-Segal.
    """
    if n < 3:
        raise ValueError("needs a chain of length >= 3")
    full = nerve(chain_poset(n), trunc)

    levels = {}
    for lvl in range(trunc + 1):
        if lvl == 0:
            levels[0] = full.level(0)
        else:
            chains = full.level(lvl)
            levels[lvl] = _cut(chains, (len({ch[0][0]} | {m[1] for m in ch}) <= 3 for ch in chains))
    return _sset_acting(trunc, levels, lambda kind, k, n, ch: full.actions[kind, k, n][ch])


def path_graph_sset(n: int, trunc: int) -> TruncSSet:
    verts = tuple(f"v{k}" for k in range(n + 1))
    edges = {(f"v{k}", f"v{k+1}") for k in range(n)}
    return graph_sset(verts, edges, trunc)


# ---------------------------------------------------------------------------
# Catalogs


def standard_cats() -> list[FinCat]:
    cats = [
        chain_poset(1),
        chain_poset(2),
        chain_poset(3),
        antichain(2),
        antichain(3),
        diamond_poset(),
        boolean_lattice(1),
        boolean_lattice(2),
        vee_poset(),
        wedge_poset(),
        cyclic_monoid(2),
        cyclic_monoid(3),
        idempotent_monoid(),
        parallel_arrows_cat(),
        walking_iso_cat(),
        product_cat(chain_poset(1), chain_poset(1)),
        product_cat(chain_poset(1), chain_poset(2)),
        product_cat(antichain(2), chain_poset(1)),
        poset_cat("fence", ["a", "b", "c", "d"],
                  lambda x, y: x == y or (x, y) in {("a", "b"), ("c", "b"), ("c", "d")}),
        poset_cat("tripod", ["r", "x", "y", "z"], lambda a, b: a == b or a == "r"),
    ]
    return cats


def standard_nerve_corpus(trunc: int = 5) -> list[tuple[str, TruncSSet]]:
    return list(_standard(trunc).nerves)


def standard_map_corpus(trunc: int = 4) -> list[tuple[str, SMap]]:
    return list(_standard(trunc).maps)


@lru_cache(maxsize=1)
def _standard(trunc: int) -> _Standard:
    """The standard fixtures of the most recently asked truncation."""
    return _Standard(trunc)


class _Standard:
    """The standard fixtures of one truncation.  Its table holds each
    nerve by its category's name, built the first time it is asked for."""

    def __init__(self, trunc: int):
        self.trunc = trunc
        self.table = {}

    def nerve_of(self, cat: FinCat) -> TruncSSet:
        if cat.name not in self.table:
            self.table[cat.name] = nerve(cat, self.trunc)
        return self.table[cat.name]

    @cached_property
    def partial(self) -> TruncSSet:
        return two_segal_partial_monoid(self.trunc)

    @cached_property
    def nerves(self) -> tuple:
        return (*((c.name, self.nerve_of(c)) for c in standard_cats()), ("partial-ea", self.partial))

    @cached_property
    def maps(self) -> tuple:
        N = self.nerve_of

        def along(fun: FinFunctor) -> SMap:
            return _functor_map(fun, N(fun.source), N(fun.target))

        c1, c2, c3 = chain_poset(1), chain_poset(2), chain_poset(3)
        return (
            ("id-chain2", identity_smap(N(c2))),
            ("id-partial", identity_smap(self.partial)),
            ("id-walkiso", identity_smap(N(walking_iso_cat()))),
            ("incl-chain12", along(_inclusion_functor(c1, c2))),
            ("incl-chain23", along(_inclusion_functor(c2, c3))),
            ("proj-c1xc1", along(projection_functor(c1, c1))),
            ("proj-c2xc1", along(projection_functor(c2, c1))),
            ("collapse-diamond", along(collapse_functor(diamond_poset()))),
            ("collapse-z2", along(collapse_functor(cyclic_monoid(2)))),
            ("upset-chain2", along(_inclusion_functor(_bounded(c2, 1, ">="), c2))),
            ("downset-chain2", along(_inclusion_functor(_bounded(c2, 1, "<="), c2))),
            ("z2-to-z1", along(FinFunctor("mod", cyclic_monoid(2), cyclic_monoid(1),
                                          {"*": "*"}, {0: 0, 1: 0}).check())),
        )


def random_poset(n: int, rng: random.Random) -> FinCat:
    """A random poset on n labeled points, by transitive closure of a DAG."""
    rel = {(a, a) for a in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                rel.add((a, b))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return poset_cat(f"rand{n}", range(n), lambda x, y: (x, y) in rel)


def random_poset_corpus(count: int, max_size: int, seed: int, trunc: int = 5):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(2, max_size)
        cat = random_poset(n, rng)
        out.append((f"{cat.name}#{k}", nerve(cat, trunc)))
    return out
