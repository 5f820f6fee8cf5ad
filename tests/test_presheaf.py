import copy
from contextlib import contextmanager
from functools import cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus import abacus, presheaf
from segal_abacus.configurations import q_lower_star, r_star
from segal_abacus.corpus import (
    antichain,
    chain_poset,
    diamond_poset,
    glued_edges_sset,
    nerve,
    random_poset_corpus,
    standard_map_corpus,
    standard_nerve_corpus,
    two_segal_partial_monoid,
)
from segal_abacus.presheaf import (
    CheckReport,
    SMap,
    TruncSSet,
    Witness,
    _relation_rows,
    _sorted_ids,
    action_label,
    action_target,
    colimit0,
    bijection_witnesses,
    bisset_actions,
    built_once,
    constant_sset,
    deciding_once,
    dset_levels,
    fmt_id,
    identity_smap,
    is_pullback,
    lift,
    pullback_pairs,
    sub_trunc,
    through,
    validate,
    validate_dset,
)
from segal_abacus.simplex import MonotoneMap, coface, enumerate_monotone, identity

from reference import Square, check_total


def corrupt_face(X, n, k):
    """Copy X with one face-table entry redirected to another element."""
    import copy

    Y = copy.deepcopy(X)
    table = Y.actions["d", k, n]
    x = next(iter(sorted(table, key=str)))
    tgt = Y.level(n - 1)
    other = next(t for t in tgt if t != table[x])
    table[x] = other
    return Y


def test_nerve_validates_and_corruption_detected():
    X = nerve(chain_poset(2), 4)
    assert validate(X).passed
    bad = corrupt_face(X, 2, 1)
    rep = validate(bad)
    assert not rep.passed
    assert rep.witnesses


def test_empty_presheaf_validates():
    assert validate(constant_sset((), 3)).passed


def _vertices(ch, n):
    """The vertex chain of an n-simplex of a poset nerve."""
    return (ch,) if n == 0 else (ch[0][0],) + tuple(m[1] for m in ch)


def _simplex(verts):
    """The simplex of a poset nerve with the given vertex chain."""
    if len(verts) == 1:
        return verts[0]
    return tuple(zip(verts, verts[1:]))


def test_act_matches_chain_reindexing():
    X = nerve(chain_poset(2), 4)
    f = MonotoneMap(3, 3, (0, 0, 2))
    # acting on a 2-simplex of a poset nerve re-labels its vertex chain
    ch = ((0, 1), (1, 2))  # the chain 0 <= 1 <= 2
    assert through(X.act_tables(f), ch) == ((0, 0), (0, 2))
    assert through(X.act_tables(identity(2)), ch) == ch
    # functoriality on a sample of composites
    g = coface(1, 3)
    three = next(iter(X.level(3)))
    assert through(X.act_tables(g), three) == X.face(3, 1, three)
    # every map [m] -> [n] with m, n <= 4 re-indexes the vertex chain
    for n in range(5):
        for ch in X.level(n):
            verts = _vertices(ch, n)
            for m in range(5):
                for f in enumerate_monotone(m, n):
                    assert through(X.act_tables(f), ch) == _simplex(tuple(verts[v] for v in f.values)), (f, ch)


def pullback_sets(f, g, a_elems, b_elems):
    """The strict pullback in canonical order with its two projections: the
    square the pullback tests start from."""
    pairs = _sorted_ids(pullback_pairs(f, g, a_elems, b_elems))
    return pairs, {p: p[0] for p in pairs}, {p: p[1] for p in pairs}


def test_pullback_sets_examples():
    C = ["c1", "c2"]
    f = {"a1": "c1", "a2": "c1", "a3": "c2"}
    g = {"b1": "c1", "b2": "c2"}
    P, pa, pb = pullback_sets(f, g, sorted(f), sorted(g))
    assert len(P) == 3
    # over a point the pullback is the product
    fp = {a: "*" for a in f}
    gp = {b: "*" for b in g}
    P2, _, _ = pullback_sets(fp, gp, sorted(f), sorted(g))
    assert len(P2) == len(f) * len(g)
    # diagonal against identities
    idc = {c: c for c in C}
    P3, _, _ = pullback_sets(idc, idc, C, C)
    assert len(P3) == len(C)


def test_is_pullback_identity_square():
    elems = ("x", "y")
    ident = {e: e for e in elems}
    sq = Square("id", elems, elems, elems, ident, ident, ident, ident)
    assert is_pullback(*sq).passed


def test_is_pullback_witnesses():
    # a non-surjective comparison
    sq = Square(
        "bad",
        ("p",),
        ("a1", "a2"),
        ("b",),
        {"p": "a1"},
        {"p": "b"},
        {"a1": "c", "a2": "c"},
        {"b": "c"},
    )
    rep = is_pullback(*sq)
    assert not rep.passed
    assert any("not surjective" in w.equation for w in rep.witnesses)


def test_is_pullback_noncommuting_is_its_own_failure():
    sq = Square(
        "nc",
        ("p",),
        ("a",),
        ("b",),
        {"p": "a"},
        {"p": "b"},
        {"a": "c1"},
        {"b": "c2"},
    )
    rep = is_pullback(*sq)
    assert not rep.passed
    assert any("does not commute" in w.equation for w in rep.witnesses)


def pullback_universal_check(sq: Square, cone_sizes=(1, 2, 3)) -> bool:
    """Brute-force universal property over all cones from small index sets."""
    rep = is_pullback(*sq)
    comparison_ok = rep.passed
    for size in cone_sizes:
        idx = tuple(range(size))
        for to_a in _all_functions(idx, sq.a_elems):
            for to_b in _all_functions(idx, sq.b_elems):
                if any(sq.a_to_c[to_a[i]] != sq.b_to_c[to_b[i]] for i in idx):
                    continue
                lifts = _cone_lifts(sq, idx, to_a, to_b)
                if len(lifts) != 1:
                    return False
    return comparison_ok


def _all_functions(dom, cod):
    if not cod:
        if dom:
            return
        yield {}
        return
    for vals in product(cod, repeat=len(dom)):
        yield dict(zip(dom, vals))


def _cone_lifts(sq: Square, idx, to_a, to_b):
    lifts = []
    by_image = {}
    for p in sq.p_elems:
        by_image.setdefault((sq.p_to_a[p], sq.p_to_b[p]), []).append(p)
    choices = [by_image.get((to_a[i], to_b[i]), []) for i in idx]
    for combo in product(*choices) if all(choices) else []:
        lifts.append(dict(zip(idx, combo)))
    if not all(choices):
        return []
    return lifts


def test_pullback_agrees_with_universal_property():
    import random

    rng = random.Random(7)
    for _ in range(12):
        A = [f"a{i}" for i in range(rng.randint(1, 3))]
        B = [f"b{i}" for i in range(rng.randint(1, 3))]
        C = [f"c{i}" for i in range(rng.randint(1, 2))]
        f = {a: rng.choice(C) for a in A}
        g = {b: rng.choice(C) for b in B}
        P, pa, pb = pullback_sets(f, g, A, B)
        sq = Square("rand", P, tuple(A), tuple(B), pa, pb, f, g)
        assert is_pullback(*sq).passed
        assert pullback_universal_check(sq, cone_sizes=(1, 2))


def _nested_ids(depth=3):
    """Element ids as constructions make them: str, int and bool leaves,
    nested in tuples up to ``depth`` deep."""
    ids = st.integers(-3, 12) | st.booleans() | st.text("ab1(,)", max_size=3)
    for _ in range(depth):
        ids = ids | st.lists(ids, max_size=3).map(tuple)
    return ids


@st.composite
def _shared_part_ids(draw):
    """Pairs and triples whose parts are drawn from two small pools of
    tuples, so one sort meets the same part object many times, as it does
    on the levels of ``q_lower_star``."""
    parts = st.lists(_nested_ids(2), max_size=3).map(tuple)
    left = st.sampled_from(draw(st.lists(parts, min_size=1, max_size=3)))
    right = st.sampled_from(draw(st.lists(parts, min_size=1, max_size=3)))
    return draw(st.lists(st.tuples(left, right) | st.tuples(left, right, left), max_size=12))


def _assert_fmt_id_order(xs):
    """``_sorted_ids`` orders ``xs`` exactly as a sort by ``fmt_id`` does.
    Compared by ``repr``: equal ids such as ``(1,)`` and ``(True,)`` can
    format, and so sort, differently."""
    want = [repr(x) for x in sorted(xs, key=fmt_id)]
    for given_ids in (xs, tuple(xs), _sorted_ids(xs)):
        assert [repr(x) for x in _sorted_ids(given_ids)] == want


@settings(max_examples=150, deadline=None)
@given(st.lists(_nested_ids(), max_size=12))
def test_sorted_ids_matches_reference_sort(xs):
    _assert_fmt_id_order(xs)


@settings(max_examples=60, deadline=None)
@given(_shared_part_ids())
def test_sorted_ids_matches_reference_sort_on_shared_parts(xs):
    _assert_fmt_id_order(xs)


def test_sorted_ids_formats_equal_parts_apart():
    """``(1,) == (True,)``, but the two format differently: a part's string
    is not reused for an equal part."""
    xs = [((1,), "z"), ((True,), "y")]
    _assert_fmt_id_order(xs)
    assert [repr(x) for x in _sorted_ids(xs[::-1])] == ["((1,), 'z')", "((True,), 'y')"]


@settings(max_examples=60, deadline=None)
@given(st.lists(_nested_ids(), max_size=12))
def test_sorted_ids_sorts_a_level_once(xs):
    m = _sorted_ids(xs)
    assert _sorted_ids(m) is m
    # copies are plain tuples and are sorted again
    for copy_ in (m[::-1], m[1:], tuple(x for x in m if not isinstance(x, int))):
        assert type(copy_) is tuple
        assert _sorted_ids(copy_) == tuple(sorted(copy_, key=fmt_id))


def _assert_keyed(level):
    """``level`` is canonical and keeps the ``fmt_id`` of each element."""
    assert type(level) is presheaf._Canonical
    assert list(level.keys) == [fmt_id(x) for x in level]


# atoms that tie, nest or prefix one another under ``fmt_id``: ``1`` and
# ``"1"`` and ``True`` and ``"True"``, and strings holding ``(``, ``,``,
# ``)`` and spaces
_ADVERSARIAL_ATOMS = (st.sampled_from([1, "1", True, "True", 0, "0", "", " ", "(", ")", ",", "(1", "1)",
                                       "(1,1)", "1,1", "1, 1", "a", "a ", "a,", "ab"])
                      | st.text("(,) 1a", max_size=4))


def _adversarial_ids(depth=2):
    ids = _ADVERSARIAL_ATOMS
    for _ in range(depth):
        ids = ids | st.lists(ids, max_size=3).map(tuple)
    return ids


@st.composite
def _pairs_over_levels(draw):
    """Two canonical levels and the pairs, tagged pairs and triples of a
    sort over them: each part is an element of a level (the very object)
    or a fresh id, which may equal an element by value and format apart
    from it (``(1,)`` beside ``(True,)``)."""
    left = _sorted_ids(draw(st.lists(_adversarial_ids(), max_size=6)))
    right = _sorted_ids(draw(st.lists(_adversarial_ids(), max_size=6)))

    def part(level):
        fresh = _adversarial_ids()
        return st.sampled_from(level) | fresh if level else fresh

    tag = st.sampled_from([(0, 1), (1, 0), "(0,1)"])
    shapes = (st.tuples(part(left), part(right)) | st.tuples(tag, part(left))
              | st.tuples(part(left), part(right), part(left)))
    return left, right, draw(st.lists(shapes, max_size=12))


@settings(max_examples=100, deadline=None)
@given(_pairs_over_levels())
def test_sorted_ids_with_parts_matches_a_sort_without(drawn):
    """Seeding the memo from the parts' keys changes nothing: the same
    ids in the same order, element for element, with keys that are their
    ``fmt_id``; a part that is not canonical is ignored."""
    left, right, xs = drawn
    want = _sorted_ids(xs)
    _assert_keyed(want)
    assert [repr(x) for x in want] == [repr(x) for x in sorted(xs, key=fmt_id)]
    for parts in ((left, right), (right, left), (left, (), tuple(right)), ((), [*left])):
        got = _sorted_ids(xs, parts)
        _assert_keyed(got)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(st.lists(_adversarial_ids(), max_size=10), st.data())
def test_a_cut_keeps_the_order_and_keys_of_its_level(xs, data):
    """A cut of a canonical level is that level's sort of the kept ids, with
    their keys; a cut of a plain tuple is sorted."""
    for level in (_sorted_ids(xs), tuple(xs)):
        keep = data.draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
        kept = [x for x, k in zip(level, keep) if k]
        cut = presheaf._cut(level, iter(keep))
        _assert_keyed(cut)
        assert [repr(x) for x in cut] == [repr(x) for x in sorted(kept, key=fmt_id)]
        assert _sorted_ids(cut) is cut


def test_a_sort_keeps_its_keys():
    xs = [((1,), "z"), ((True,), "y"), "(1)", 1]
    level = _sorted_ids(xs)
    _assert_keyed(level)
    assert level.keys == ("((1),z)", "((True),y)", "(1)", "1")
    assert copy.deepcopy(level).keys == level.keys


def _reference_is_pullback(sq):
    """``is_pullback`` by brute force over all |A| * |B| pairs."""
    witnesses = []
    checked = 0
    for p in sq.p_elems:
        checked += 1
        if sq.a_to_c[sq.p_to_a[p]] != sq.b_to_c[sq.p_to_b[p]]:
            witnesses.append(Witness(sq.name, "square does not commute", (p,)))
    if witnesses:
        return CheckReport.from_witnesses("is_pullback", witnesses, checked)
    want = {(a, b) for a in sq.a_elems for b in sq.b_elems if sq.a_to_c[a] == sq.b_to_c[b]}
    seen = {}
    for p in sq.p_elems:
        checked += 1
        im = (sq.p_to_a[p], sq.p_to_b[p])
        if im in seen:
            witnesses.append(Witness(sq.name, "comparison not injective", (seen[im], p)))
        seen[im] = p
    for ab in sorted(want - set(seen), key=fmt_id):
        witnesses.append(Witness(sq.name, "comparison not surjective", ab))
    return CheckReport.from_witnesses("is_pullback", witnesses, checked or 1)


@st.composite
def _squares(draw):
    """A finite square over C: commuting or not, with a comparison that may
    miss pairs or hit one twice."""
    n_c = draw(st.integers(1, 3))
    a_elems = tuple(range(draw(st.integers(0, 4))))
    b_elems = tuple(f"b{i}" for i in range(draw(st.integers(0, 4))))
    a_to_c = {a: f"c{draw(st.integers(0, n_c - 1))}" for a in a_elems}
    b_to_c = {b: f"c{draw(st.integers(0, n_c - 1))}" for b in b_elems}
    pairs = [(a, b) for a in a_elems for b in b_elems if a_to_c[a] == b_to_c[b]]
    pool = [(a, b) for a in a_elems for b in b_elems] if draw(st.booleans()) else pairs
    images = (pairs if draw(st.booleans()) else []) + draw(
        st.lists(st.sampled_from(pool), max_size=6) if pool else st.just([]))
    images = draw(st.permutations(images))
    p_elems = tuple((k,) for k in range(len(images)))
    return Square("sq", p_elems, a_elems, b_elems,
                  {p: ab[0] for p, ab in zip(p_elems, images)},
                  {p: ab[1] for p, ab in zip(p_elems, images)}, a_to_c, b_to_c)


@settings(max_examples=150, deadline=None)
@given(_squares())
def test_pullbacks_match_brute_force(sq):
    got, ref = is_pullback(*sq), _reference_is_pullback(sq)
    assert (got.verdict, got.checked, got.witnesses) == (ref.verdict, ref.checked, ref.witnesses)
    # the join: a-major, each side in the order given
    want = [(a, b) for a in sq.a_elems for b in sq.b_elems if sq.a_to_c[a] == sq.b_to_c[b]]
    assert pullback_pairs(sq.a_to_c, sq.b_to_c, sq.a_elems, sq.b_elems) == want
    assert pullback_pairs(sq.a_to_c, sq.b_to_c, sq.a_elems[::-1], sq.b_elems[::-1]) == [
        (a, b) for a in sq.a_elems[::-1] for b in sq.b_elems[::-1] if sq.a_to_c[a] == sq.b_to_c[b]]


def _first_miss_loop(upper, first, second, wants):
    """The lookup loop the extension's row and column splittings ran before
    ``lift``: the lifts up to the first b without one, and that b (None
    when every b lifts)."""
    lookup = {(first[z], second[z]): z for z in upper}
    table = {}
    for b, w in wants:
        key = (b, w)
        if key not in lookup:
            return table, b
        table[b] = lookup[key]
    return table, None


def _every_miss_loop(upper, first, second, wants):
    """The lookup loop ``pullback_coalgebra`` ran before ``lift``: every
    lift, and every b without one."""
    lookup = {(first[z], second[z]): z for z in upper}
    table, misses = {}, []
    for b, w in wants:
        if (b, w) not in lookup:
            misses.append(b)
        else:
            table[b] = lookup[b, w]
    return table, misses


@st.composite
def _lift_tables(draw):
    """Maps ``first`` and ``second`` out of a drawn level into small sets,
    and wants ``(b, w)`` with distinct bs, many of them without a lift."""
    upper = tuple(f"z{k}" for k in range(draw(st.integers(0, 6))))
    bs, ws = ("b0", "b1", "b2", "b3"), ("w0", "w1", "w2")
    first = {z: draw(st.sampled_from(bs)) for z in upper}
    second = {z: draw(st.sampled_from(ws)) for z in upper}
    wanted = draw(st.permutations(bs))[:draw(st.integers(0, 4))]
    wants = [(b, draw(st.sampled_from(ws))) for b in wanted]
    return upper, first, second, wants


@settings(max_examples=150, deadline=None)
@given(_lift_tables())
def test_lift_matches_the_lookup_loops(case):
    lifts, misses = lift(*case)
    ref_lifts, ref_misses = _every_miss_loop(*case)
    assert (list(lifts.items()), misses) == (list(ref_lifts.items()), ref_misses)
    # the extension stops at the first miss, with the lifts before it
    table, miss = _first_miss_loop(*case)
    assert miss == (misses[0] if misses else None)
    assert list(table.items()) == list(lifts.items())[:len(table)]


def _walk_bijection_witnesses(site, noun, pairs, want):
    """``bijection_witnesses`` as a walk over every element, deciding
    nothing first: the reference for its witnesses."""
    witnesses = []
    seen = {}
    for p, im in pairs:
        if im in seen:
            witnesses.append(Witness(site, f"{noun} not injective", (seen[im], p)))
        seen[im] = p
    witnesses += [Witness(site, f"{noun} not surjective", im) for im in want if im not in seen]
    return witnesses


def _walk_is_pullback(sq):
    """``is_pullback`` one element at a time, with no whole-level pass: the
    reference for its reports."""
    checked = len(sq.p_elems)
    witnesses = [Witness(sq.name, "square does not commute", (p,)) for p in sq.p_elems
                 if sq.a_to_c[sq.p_to_a[p]] != sq.b_to_c[sq.p_to_b[p]]]
    if witnesses:
        return CheckReport.from_witnesses("is_pullback", witnesses, checked)
    witnesses = _walk_bijection_witnesses(
        sq.name, "comparison", ((p, (sq.p_to_a[p], sq.p_to_b[p])) for p in sq.p_elems),
        pullback_pairs(sq.a_to_c, sq.b_to_c, sq.a_elems, sq.b_elems))
    return CheckReport.from_witnesses("is_pullback", witnesses, 2 * checked or 1)


def _twice(draw, elems):
    """``elems`` with one of its elements listed a second time, at a drawn
    place; unchanged when empty."""
    elems = list(elems)
    if elems:
        elems.insert(draw(st.integers(0, len(elems))), draw(st.sampled_from(elems)))
    return tuple(elems)


@st.composite
def _rough_squares(draw):
    """Squares a checker must survive: commuting or not, comparisons that
    miss pairs or hit one twice, images that leave A or B, P, A or B
    listing an element twice, empty levels, and now and then a table
    missing one key."""
    cs = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    a_all, b_all = tuple(range(5)), tuple(f"b{i}" for i in range(5))
    a_to_c = {a: draw(st.sampled_from(cs)) for a in a_all}
    b_to_c = {b: draw(st.sampled_from(cs)) for b in b_all}
    a_elems = tuple(draw(st.lists(st.sampled_from(a_all), max_size=4, unique=True)))
    b_elems = tuple(draw(st.lists(st.sampled_from(b_all), max_size=4, unique=True)))
    pairs = [(a, b) for a in a_elems for b in b_elems if a_to_c[a] == b_to_c[b]]
    # anywhere in A_all x B_all: may leave A or B, and may not commute
    pool = list(product(a_all, b_all)) if draw(st.booleans()) else pairs
    images = (pairs if draw(st.booleans()) else []) + draw(
        st.lists(st.sampled_from(pool), max_size=4) if pool else st.just([]))
    images = draw(st.permutations(images))
    p_elems = tuple((k,) for k in range(len(images)))
    tables = {
        "p_to_a": {p: ab[0] for p, ab in zip(p_elems, images)},
        "p_to_b": {p: ab[1] for p, ab in zip(p_elems, images)},
        "a_to_c": a_to_c,
        "b_to_c": b_to_c,
    }
    levels = {"p": p_elems, "a": a_elems, "b": b_elems}
    for side in draw(st.lists(st.sampled_from(sorted(levels)), max_size=2)):
        levels[side] = _twice(draw, levels[side])
    if draw(st.integers(0, 7)) == 0:
        table = tables[draw(st.sampled_from(sorted(tables)))]
        if table:
            del table[draw(st.sampled_from(sorted(table, key=str)))]
    return Square("sq", levels["p"], levels["a"], levels["b"], tables["p_to_a"],
                  tables["p_to_b"], tables["a_to_c"], tables["b_to_c"])


def _outcome(check, *args):
    """A report as ``(name, witnesses in order, checked)``, or the type of
    the exception raised."""
    try:
        rep = check(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return rep.name, rep.witnesses, rep.checked


@settings(max_examples=200, deadline=None)
@given(_rough_squares())
def test_is_pullback_matches_the_element_walk(sq):
    assert _outcome(is_pullback, *sq) == _outcome(_walk_is_pullback, sq)


def _eager_decide_pullback(sq):
    """``presheaf._decide_pullback`` as it was when a refuted square was
    explained at once: the reference for explanations read later."""
    p_elems = sq.p_elems
    to_a = list(map(sq.p_to_a.__getitem__, p_elems))
    to_b = list(map(sq.p_to_b.__getitem__, p_elems))
    via_a = list(map(sq.a_to_c.__getitem__, to_a))
    via_b = list(map(sq.b_to_c.__getitem__, to_b))
    checked = len(p_elems)
    if via_a != via_b:
        witnesses = [Witness(sq.name, "square does not commute", (p,))
                     for p, c, d in zip(p_elems, via_a, via_b) if c != d]
        return CheckReport.from_witnesses("is_pullback", witnesses, checked)
    witnesses = bijection_witnesses(
        sq.name, "comparison", zip(p_elems, zip(to_a, to_b)),
        pullback_pairs(sq.a_to_c, sq.b_to_c, sq.a_elems, sq.b_elems))
    return CheckReport.from_witnesses("is_pullback", witnesses, 2 * checked or 1)


@contextmanager
def _counting_explanations():
    """The names of the reports whose explanations ran, one per run."""
    explained = []
    real = CheckReport.refutation

    def counting(name, explain, checked):
        def once():
            explained.append(name)
            return explain()
        return real(name, once, checked)

    with mock.patch.object(CheckReport, "refutation", staticmethod(counting)):
        yield explained


def test_a_refutation_explains_the_square_as_it_was_decided():
    """A square is decided, then one entry of one of its four tables is
    reassigned, then the report is read: its witnesses are those an eager
    decision gave before the change, and its explanation ran at most once
    however often it was read.  Passing, non-commuting and non-bijective
    squares are all drawn."""
    found = set()

    @settings(max_examples=200, deadline=None)
    @given(_rough_squares(), st.data())
    def check(sq, data):
        before = _outcome(_eager_decide_pullback, sq)
        if not isinstance(before, tuple):  # a table misses a key: the same error
            assert _outcome(is_pullback, *sq) is before
            return
        with _counting_explanations() as explained:
            rep = is_pullback(*sq)
            assert explained == [] and rep.holds == (not before[1])
            # an entry the decision read: one of a table's level
            parts = [(table, level) for table, level in ((sq.p_to_a, sq.p_elems), (sq.p_to_b, sq.p_elems),
                                                         (sq.a_to_c, sq.a_elems), (sq.b_to_c, sq.b_elems))
                     if level]
            if parts:
                table, level = data.draw(st.sampled_from(parts))
                key = data.draw(st.sampled_from(sorted(set(level), key=str)))
                table[key] = data.draw(st.sampled_from(sorted({*table.values(), "new"}, key=str)))
            for _ in range(2):
                assert (rep.name, rep.witnesses, rep.checked) == before
                assert rep.to_dict() == rep.to_dict() and rep == copy.copy(rep) and str(rep)
        assert explained == ([] if rep.holds else ["is_pullback"])
        found.add("pass" if rep.holds else "not commuting" if "commute" in rep.witnesses[0].equation
                  else "not bijective")

    check()
    assert found == {"pass", "not commuting", "not bijective"}


# ---------------------------------------------------------------------------
# Deciding each square once inside ``deciding_once``

_SQUARE_PARTS = Square._fields[1:]  # the seven parts, after the name


def _renamed(sq, name, **parts):
    """``sq`` under another name, with any of its parts replaced."""
    return sq._replace(name=name, **parts)


def _equal_copy(part):
    """An equal object that is not ``part`` (``tuple(t)`` returns ``t``)."""
    return dict(part) if isinstance(part, dict) else tuple(list(part))


def _passing_square():
    elems = ("x", "y")
    return Square("id", elems, elems, elems, *({e: e for e in elems} for _ in range(4)))


def _failing_square(name):
    return Square(name, ("p",), ("a1", "a2"), ("b",), {"p": "a1"}, {"p": "b"},
                  {"a1": "c", "a2": "c"}, {"b": "c"})


@contextmanager
def _counting_decisions():
    """The squares that reach the full decision, in call order."""
    decided = []
    real = presheaf._decide_pullback

    def counting(*args):
        decided.append(args[0])  # the square's name
        return real(*args)

    with mock.patch.object(presheaf, "_decide_pullback", counting):
        yield decided


@settings(max_examples=200, deadline=None)
@given(_rough_squares())
def test_a_memo_hit_equals_a_fresh_decision(sq):
    """Within the block a repeat of a passing square is not decided again,
    and every report, ``checked`` included, is the fresh decision's."""
    fresh, again = _outcome(is_pullback, *sq), _outcome(is_pullback, *_renamed(sq, "again"))
    with deciding_once(), _counting_decisions() as decided:
        assert _outcome(is_pullback, *sq) == fresh
        assert _outcome(is_pullback, *_renamed(sq, "again")) == again
    passed = isinstance(fresh, tuple) and not fresh[1]
    assert decided == (["sq"] if passed else ["sq", "again"])


def test_a_square_of_equal_copies_is_decided_in_full():
    sq = _passing_square()
    with deciding_once(), _counting_decisions() as decided:
        assert is_pullback(*sq).holds
        for part in _SQUARE_PARTS:
            copy_sq = _renamed(sq, part, **{part: _equal_copy(getattr(sq, part))})
            assert is_pullback(*copy_sq) == is_pullback(*sq)
    assert decided == ["id", *_SQUARE_PARTS]


def test_a_failing_square_reports_each_names_witnesses():
    first = _failing_square("first")
    second = _renamed(first, "second")  # the very objects of ``first``
    with deciding_once(), _counting_decisions() as decided:
        reports = [is_pullback(*first), is_pullback(*second)]
    assert decided == ["first", "second"]
    assert [{w.site for w in rep.witnesses} for rep in reports] == [{"first"}, {"second"}]
    assert reports == [is_pullback(*first), is_pullback(*second)]


def test_is_pullback_keeps_no_state_outside_the_block():
    sq = _passing_square()
    with _counting_decisions() as decided:
        assert is_pullback(*sq).holds
        assert presheaf._pullbacks is None
        sq.b_to_c["y"] = "x"  # now the square does not commute
        assert not is_pullback(*sq).holds
    assert decided == ["id", "id"]


def test_the_memo_ends_with_the_block_however_it_ends():
    with deciding_once():
        is_pullback(*_passing_square())
        assert len(presheaf._pullbacks) == 1
    assert presheaf._pullbacks is None
    with pytest.raises(RuntimeError), deciding_once():
        raise RuntimeError
    assert presheaf._pullbacks is None


def test_built_once_builds_once_per_block():
    """Inside a block the first call for a key builds and later calls,
    nested blocks too, return that value; outside any block every call
    builds, and nothing is kept."""
    built = []

    def build():
        built.append(len(built))
        return [len(built)]

    key = ("value", object())
    with deciding_once():
        first = built_once(key, build)
        with deciding_once():
            assert built_once(key, build) is first
        assert built_once(("value", object()), build) is not first
    assert len(built) == 2 and presheaf._pullbacks is None
    assert built_once(key, build) != built_once(key, build)
    assert len(built) == 4


def test_a_nested_block_shares_the_outer_memo_and_leaves_it():
    """An inner block decides against the outer block's memo, and when it
    returns or raises the outer memo stays, with what the inner block
    added; only the outer block's end drops it."""
    first, second = _passing_square(), _passing_square()
    with deciding_once(), _counting_decisions() as decided:
        outer = presheaf._pullbacks
        is_pullback(*first)
        with deciding_once():
            assert presheaf._pullbacks is outer
            is_pullback(*first)
            is_pullback(*second)
        assert presheaf._pullbacks is outer and len(outer) == 2
        with pytest.raises(RuntimeError), deciding_once():
            raise RuntimeError
        assert presheaf._pullbacks is outer
        is_pullback(*_renamed(second, "again"))
    assert decided == ["id", "id"]
    assert presheaf._pullbacks is None


def test_the_cheatsheet_memo_ends_with_the_suite(monkeypatch):
    from segal_abacus import suites

    suites.cheatsheet_suite(2)
    assert presheaf._pullbacks is None
    inside = []

    def failing_segal(X, *args):
        inside.append(presheaf._pullbacks is not None)
        raise RuntimeError("a check failed to run")

    monkeypatch.setattr(suites, "is_segal", failing_segal)
    with pytest.raises(RuntimeError):
        suites.cheatsheet_suite(2)
    assert inside == [True]
    assert presheaf._pullbacks is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([("x",), ("y",), ("z",)])),
                max_size=5),
       st.lists(st.sampled_from([("x",), ("y",), ("w",)]), max_size=4))
def test_bijection_witnesses_matches_the_element_walk(pairs, want):
    # preimages and images may repeat, images may leave ``want``, and
    # ``want`` may list an image twice
    assert (bijection_witnesses("s", "map", pairs, want)
            == _walk_bijection_witnesses("s", "map", pairs, want))


def test_colimit0():
    assert colimit0(nerve(chain_poset(2), 2))[0] == (0,)
    assert len(colimit0(nerve(antichain(3), 2))[0]) == 3
    S = constant_sset(["p", "q", "r"], 2)
    classes, aug = colimit0(S)
    assert classes == ("p", "q", "r")
    assert aug == {x: x for x in "pqr"}
    # disjoint union of two connected nerves has two components
    X = nerve(diamond_poset(), 2)
    classes, _ = colimit0(X)
    assert len(classes) == 1


def _reference_colimit0(X):
    """``colimit0`` as it was first written: union-find over the ids, each
    class named by its least member under ``fmt_id``, the first of a tie."""
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
    members = {}
    for x in X.level(0):
        members.setdefault(find(x), []).append(x)
    reps = {root: min(ms, key=fmt_id) for root, ms in members.items()}
    return _sorted_ids(reps.values()), {x: reps[find(x)] for x in X.level(0)}


def _same_colimit(X):
    (classes, aug), (ref_classes, ref_aug) = colimit0(X), _reference_colimit0(X)
    # repr, not ==, so that ids equal by value but formatted apart differ
    assert repr(classes) == repr(ref_classes)
    assert repr(list(aug.items())) == repr(list(ref_aug.items()))
    assert _sorted_ids(classes) is classes


# pairs of ids that tie under ``fmt_id`` but differ by ``==``
_TIED_IDS = [0, "0", 1, "1", (1,), "(1)", (0, 1), "(0,1)", ("a",), "(a)", "a", ((1,),), "((1))"]


@st.composite
def _edge_graphs(draw):
    """Levels 0 and 1 with random d_0 and d_1: all that ``colimit0`` reads."""
    level0 = draw(st.lists(st.sampled_from(_TIED_IDS), min_size=1, unique=True))
    edges = draw(st.lists(st.sampled_from(_TIED_IDS + ["e", ("e", 2)]), unique=True, max_size=8))
    faces = {("d", k, 1): {e: draw(st.sampled_from(level0)) for e in edges} for k in (0, 1)}
    return TruncSSet(1, {0: level0, 1: edges}, faces)


@settings(max_examples=100, deadline=None)
@given(_edge_graphs())
def test_colimit0_matches_reference(X):
    _same_colimit(X)


def test_colimit0_matches_reference_on_the_boors_rows_and_columns():
    from segal_abacus.decalage import tot
    from segal_abacus.presheaf import col_sset, row_sset

    for _, X in standard_nerve_corpus(4):
        bulk = tot(X)
        for i in range(bulk.trunc):
            _same_colimit(row_sset(bulk, i))
            _same_colimit(col_sset(bulk, i))


def test_smap_validation_detects_broken_naturality():
    X = nerve(chain_poset(1), 3)
    F = identity_smap(X)
    assert validate(F).passed
    broken = {n: dict(t) for n, t in F.levels.items()}
    lvl1 = sorted(broken[1], key=str)
    broken[1][lvl1[0]] = lvl1[1]
    rep = validate(SMap(X, X, broken))
    assert not rep.passed


def test_iso_report():
    X = nerve(chain_poset(1), 3)
    maps = {n: {x: x for x in X.level(n)} for n in range(4)}
    for n in range(4):
        assert set(maps[n]) == set(X.level(n))
        assert sorted(maps[n].values(), key=fmt_id) == sorted(X.level(n), key=fmt_id)
    assert validate(SMap(X, X, maps)).passed
    Y = sub_trunc(X, 2)
    assert validate(Y).passed


def test_validate_partial_monoid_and_graph():
    assert validate(two_segal_partial_monoid(4)).passed
    assert validate(glued_edges_sset(4)).passed


# ---------------------------------------------------------------------------
# The generator table against hand-derived ranges
#
# The levels and actions of truncated presheaves as they were written out by
# hand before ``abacus.generators_into`` was the one table: the reference for
# the table and for the per-element walk below.


def _ref_dset_levels(trunc, with_aug_row=True):
    out = []
    for d in range(trunc + 1):
        for i in range(-1 if with_aug_row else 0, d + 2):
            j = d - 1 - i
            if j >= -1 and not (i == -1 and j == -1) and i >= (-1 if with_aug_row else 0):
                out.append((i, j))
    return sorted(out, key=lambda ij: (ij[0] + 1 + ij[1], ij))


def _ref_dset_action_ranges(i, j, trunc):
    """(kind, k, target) for every action required out of level (i, j)."""
    gens = []
    if i >= 0 and (i, j) != (0, -1):
        gens += [("e", k) for k in range(i + 1)]
    if j >= 0 and (i, j) != (-1, 0):
        gens += [("d", k) for k in range(j + 1)]
    if i + 1 + j < trunc:
        if i >= 0:
            gens += [("t", k) for k in range(i + 1)]
        if j >= 0:
            gens += [("s", k) for k in range(j + 1)]
        if i >= 0:
            gens.append(("ssub", None))
    if i >= 0:
        gens.append(("f", None))
    return [(kind, k, action_target(kind, (i, j))) for kind, k in gens]


def _ref_bisset_action_ranges(i, j, trunc):
    """(kind, k, target) for the actions out of bulk level (i, j)."""
    gens = []
    if i >= 1:
        gens += [("e", k) for k in range(i + 1)]
    if j >= 1:
        gens += [("d", k) for k in range(j + 1)]
    if i + j < trunc:
        gens += [("t", k) for k in range(i + 1)] + [("s", k) for k in range(j + 1)]
    return [(kind, k, action_target(kind, (i, j))) for kind, k in gens]


def test_generator_table_matches_hand_derived_ranges():
    for T in range(-1, 8):
        into = abacus.generators_into(T)
        for aug in (True, False):
            assert dset_levels(T, aug) == _ref_dset_levels(T, aug), (T, aug)
        assert list(into) == _ref_dset_levels(T)
        for lvl, gens in into.items():
            assert sorted(((kind, k, src) for kind, k, src, _ in gens), key=str) == sorted(
                _ref_dset_action_ranges(*lvl, T), key=str), (T, lvl)
            for kind, k, src, g in gens:
                assert g == abacus.bead_of_generator(kind, k, abacus.DObject(*src))
                assert (g.tgt.i, g.tgt.j) == lvl
        bulk = bisset_actions(T)
        assert sorted(bulk) == sorted((i, j) for i in range(T + 1) for j in range(T + 1 - i))
        for (i, j), gens in bulk.items():
            assert sorted(gens, key=str) == sorted(_ref_bisset_action_ranges(i, j, T), key=str)


# ---------------------------------------------------------------------------
# validate_dset against a reference that walks each relation word per element


@cache
def _word_path(word):
    """Source-to-target levels of a generator word, or None if it leaves the
    legal objects; walked with bead maps, one generator at a time."""
    try:
        cur = abacus.bead_identity(word.source)
        path = [(cur.tgt.i, cur.tgt.j)]
        for kind, k in word.tokens:
            cur = abacus.bead_compose(abacus.bead_of_generator(kind, k, cur.tgt), cur)
            path.append((cur.tgt.i, cur.tgt.j))
        return tuple(path)
    except ValueError:
        return None


def test_relation_rows_match_the_box_enumeration():
    """``_relation_rows`` generates relations only from sources on the
    levels; its rows equal, in content and order, those of every instance
    in the levels' bounding box whose words stay on the levels."""
    for T, aug in product(range(7), (False, True)):
        levels = set(dset_levels(T, aug))
        max_i = max((i for i, _ in levels), default=-1)
        max_j = max((j for _, j in levels), default=-1)
        want = []
        for rel_name, lhs, rhs in abacus.relation_instances(max_i, max_j):
            if (lhs.source.i, lhs.source.j) not in levels:  # spare the walk
                continue
            path_l, path_r = _word_path(lhs), _word_path(rhs)
            if path_l is None or path_r is None or not levels.issuperset(path_l + path_r):
                continue
            want.append((rel_name, f"{lhs} = {rhs}", path_l[-1],
                         *(tuple((kind, k, path[idx + 1]) for idx, (kind, k) in
                                 reversed(list(enumerate(word.tokens))))
                           for word, path in ((lhs, path_l), (rhs, path_r)))))
        assert list(_relation_rows(T, aug)[2]) == want, (T, aug)


def _act_word(B, word, x):
    path = _word_path(word)
    for idx in range(len(word.tokens) - 1, -1, -1):
        kind, k = word.tokens[idx]
        x = B.actions[kind, k, path[idx + 1]][x]
    return x


def _reference_validate_dset(B, name="dset"):
    witnesses = []
    checked = 0
    with_aug = B.has_aug_row()
    for lvl in set(_ref_dset_levels(B.trunc, with_aug)):
        if lvl not in B.levels:
            witnesses.append(Witness(f"level@{lvl}", "level missing", ()))
    for lvl in sorted(B.levels, key=lambda ij: (ij[0] + 1 + ij[1], ij)):
        for kind, k, tgt in _ref_dset_action_ranges(lvl[0], lvl[1], B.trunc):
            if not with_aug and tgt[0] == -1:
                continue
            checked += check_total(B.actions.get((kind, k, lvl)), B.level(*lvl), B.level(*tgt),
                                    action_label(kind, k, lvl), witnesses)
    if witnesses:
        return CheckReport.from_witnesses(name, witnesses, checked)
    max_i = max((i for (i, j) in B.levels), default=-1)
    max_j = max((j for (i, j) in B.levels), default=-1)
    for rel_name, lhs, rhs in abacus.relation_instances(max_i, max_j):
        path_l, path_r = _word_path(lhs), _word_path(rhs)
        if path_l is None or path_r is None:
            continue
        if not with_aug and any(lv[0] == -1 for lv in path_l + path_r):
            continue
        if any(lv not in B.levels for lv in path_l + path_r):
            continue
        for x in B.level(*path_l[-1]):
            checked += 1
            if _act_word(B, lhs, x) != _act_word(B, rhs, x):
                witnesses.append(Witness(rel_name, f"{lhs} = {rhs}", (x,)))
    return CheckReport.from_witnesses(name, witnesses, checked)


@cache
def _dset_corpus():
    out = [q_lower_star(F) for _, F in standard_map_corpus(3)]
    out += [r_star(X) for _, X in random_poset_corpus(4, 4, seed=11, trunc=3)]
    return out


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_validate_dset_matches_per_element_walk(data):
    """Equal, except that a level deleted with the tables out of it also
    reports each of those tables as "action table missing", as every other
    validator does; the reference skipped the tables out of a missing
    level."""
    B = copy.copy(data.draw(st.sampled_from(_dset_corpus())))
    if data.draw(st.booleans()):
        # redirect one entry of one action table to another element
        keys = sorted((key for key, table in B.actions.items() if table), key=str)
        kind, k, lvl = key = data.draw(st.sampled_from(keys))
        table = dict(B.actions[key])
        x = data.draw(st.sampled_from(sorted(table, key=str)))
        tgt = B.level(*action_target(kind, lvl))
        table[x] = data.draw(st.sampled_from(sorted(set(tgt) | {"junk"}, key=str)))
        B.actions = {**B.actions, key: table}
    deletion = data.draw(st.sampled_from((None, "level", "table")))
    missing = []
    if deletion == "level":
        # a level outside the augmentation row, so that B keeps or lacks that row as before
        lvl = data.draw(st.sampled_from(sorted((lv for lv in B.levels if lv[0] >= 0), key=str)))
        B.levels = {lv: xs for lv, xs in B.levels.items() if lv != lvl}
        B.actions = {key: table for key, table in B.actions.items() if key[2] != lvl}
        missing = [Witness(action_label(kind, k, lvl), "action table missing", ())
                   for kind, k, tgt in _ref_dset_action_ranges(lvl[0], lvl[1], B.trunc)
                   if B.has_aug_row() or tgt[0] >= 0]
    elif deletion == "table":
        key = data.draw(st.sampled_from(sorted(B.actions, key=str)))
        B.actions = {k: table for k, table in B.actions.items() if k != key}
    got, want = validate_dset(B), _reference_validate_dset(B)
    want_witnesses = sorted(want.witnesses + missing, key=str)
    assert (got.verdict, got.checked, got.witnesses) == (want.verdict, want.checked, want_witnesses)


class _CountingTable(dict):
    """An action table that counts its lookups, by ``get`` or by index."""

    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_validate_looks_each_element_up_once_per_table():
    """``validate`` reads each action table once over its source level, with
    one lookup per element, and compares the identities on positions: on a
    Kan extension and on a nerve, each table is looked up as often as its
    source level has elements, and the report is the one the plain tables
    give."""
    F = dict(standard_map_corpus(3))["incl-chain12"]
    for P in (q_lower_star(F), nerve(diamond_poset(), 4)):
        counted = copy.copy(P)
        counted.actions = {key: _CountingTable(table) for key, table in P.actions.items()}
        report, want = validate(counted), validate(P)
        assert want.holds is True
        assert report.to_dict() == want.to_dict()
        assert {key: table.lookups for key, table in counted.actions.items()} == \
            {key: len(P.levels[key[2]]) for key in P.actions}


def test_levels_beyond_the_truncation_fail_validation():
    from segal_abacus.decalage import tot

    N = nerve(chain_poset(1), 3)
    for P, stray in ((r_star(N), (2, 1)), (tot(N), (2, 1))):
        assert validate(P).holds is True
        P = copy.copy(P)
        P.levels = {**P.levels, stray: ("junk",)}
        rep = validate(P)
        assert rep.holds is False
        assert Witness(f"level@{stray}", "level beyond the truncation", ()) in rep.witnesses
