import hashlib
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus import abacus
from segal_abacus.abacus import (
    BeadMap,
    DObject,
    bead_compose,
    bead_identity,
    bead_of_generator,
    eval_bead_word,
    factorize,
    generators_at,
    hom_enumerate,
    objects_of_degree,
    parse_bead_word,
    presentation_suite,
    relation_instances,
    relations_at,
    relation_suite,
    trapezium_instances,
    trapezium_suite,
    word_closure_homs,
)
from segal_abacus.reports import CheckReport, Witness, _entry_from_report, _finish, _tally
from segal_abacus.simplex import (
    GeneratorWord,
    MonotoneMap,
    coface,
    compose_monotone,
    enumerate_monotone,
    epi_mono_factor,
    identity,
)


def recompose(ab: GeneratorWord, simp: GeneratorWord) -> BeadMap:
    """``simp`` after ``ab``, evaluated in one walk over both words."""
    return abacus._bead(ab.source, *abacus._recompose_values(ab, simp))


def test_dobject_validation():
    with pytest.raises(ValueError):
        DObject(-1, -1)
    assert DObject(1, 2).size == 5
    assert DObject(1, 2).degree == 4


def test_bead_color_constraint():
    # a black bead may not land on a white one
    with pytest.raises(ValueError):
        BeadMap(DObject(0, 0), DObject(0, 0), MonotoneMap(2, 2, (1, 1)))
    collapse = BeadMap(DObject(0, 0), DObject(0, 0), MonotoneMap(2, 2, (0, 0)))
    assert collapse.whites_turned_black() == 1


def test_generator_carriers():
    f = bead_of_generator("f", None, DObject(1, 1))
    assert f.tgt == DObject(2, 0)
    assert f.carrier == identity(3)

    e0 = bead_of_generator("e", 0, DObject(0, 0))
    assert e0.carrier == coface(0, 2)

    # ssub agrees with t_top . f at [0,0]
    ssub = bead_of_generator("ssub", None, DObject(0, 0))
    via_f = bead_compose(
        bead_of_generator("t", 0, DObject(1, -1)),
        bead_of_generator("f", None, DObject(0, 0)),
    )
    assert ssub == via_f
    assert ssub.tgt == DObject(0, -1)


def test_no_split_on_augmentation_row():
    with pytest.raises(ValueError):
        bead_of_generator("ssub", None, DObject(-1, 2))


def test_compose_parallelogram():
    # f . d^0 = e^1 at [0,0]
    d0 = bead_of_generator("d", 0, DObject(0, 0))
    f = bead_of_generator("f", None, DObject(0, 1))
    e1 = bead_of_generator("e", 1, DObject(0, 0))
    assert bead_compose(f, d0) == e1


def test_identity_composition_at_11():
    at = DObject(1, 1)
    for _, _, g in generators_at(at):
        assert bead_compose(g, bead_identity(at)) == g
        assert bead_compose(bead_identity(g.tgt), g) == g


def test_trapezium_instances():
    assert trapezium_suite(0).passed
    assert trapezium_suite(4).passed
    # both words of an instance share their source and their target
    for _, lhs, rhs in trapezium_instances(3):
        assert lhs.source == rhs.source
        assert eval_bead_word(lhs).tgt == eval_bead_word(rhs).tgt


def test_relation_suite_bounds_2():
    rep = relation_suite(2, 2)
    assert rep.passed and rep.checked > 300


def test_relation_instances_are_pinned():
    """Each relation instance's name, words and tokens, in order, for the
    bounds 0..5: a renamed family, a changed word or a reordered row moves
    the digest, where the presentation digests count instances only."""
    h = hashlib.sha256()
    for b in range(6):
        for name, lhs, rhs in relation_instances(b, b):
            h.update(repr((name, str(lhs), str(rhs), lhs.tokens, rhs.tokens)).encode())
    assert h.hexdigest() == "3e2524c1ef17908a069b3b87280e338f8732ad1f4608210228728bb6dd644bf8"


def test_every_relation_word_applies_only_existing_generators():
    """``presheaf._relation_rows`` reads a relation word's level path off
    ``SHIFT`` alone.  That relies on every word of ``relations_at``
    applying each generator where its index exists: ``_walk_word`` raises
    on an illegal one.  Both sides of each relation end where ``SHIFT``
    says they do."""
    for source in objects_of_degree(9):
        for _, lhs, rhs in relations_at(source):
            for word in (lhs, rhs):
                end = (source.i + sum(abacus.SHIFT[kind][0] for kind, _ in word.tokens),
                       source.j + sum(abacus.SHIFT[kind][1] for kind, _ in word.tokens))
                assert abacus._walk_word(word)[:2] == end, word


def test_hom_counts():
    assert len(hom_enumerate(DObject(0, 0), DObject(0, 0))) == 2
    assert len(hom_enumerate(DObject(0, 0), DObject(0, -1))) == 1
    # the oracle decides: the lone map [-1,0] -> [0,-1] is the abacus map
    homs = hom_enumerate(DObject(-1, 0), DObject(0, -1))
    assert len(homs) == 1
    assert homs[0] == bead_of_generator("f", None, DObject(-1, 0))
    # no maps from a black bead into a pure-white column
    assert hom_enumerate(DObject(0, -1), DObject(-1, 0)) == []


def test_hom_enumerate_builds_only_the_bead_maps(monkeypatch):
    """Over the objects of degree <= 4, ``hom_enumerate`` returns the
    monotone carriers that are bead maps, in ``enumerate_monotone``'s
    order: 7,371 of 12,321.  It filters carrier values first, so it builds
    a ``MonotoneMap`` only for the maps it keeps."""
    objs = objects_of_degree(4)

    def bead_maps(s, t):
        for f in enumerate_monotone(s.size - 1, t.size - 1):
            try:
                yield BeadMap(s, t, f)
            except ValueError:
                pass

    expected = [g for s in objs for t in objs for g in bead_maps(s, t)]
    built = []
    monkeypatch.setattr(abacus, "MonotoneMap", lambda *args: built.append(args) or MonotoneMap(*args))
    homs = [g for s in objs for t in objs for g in hom_enumerate(s, t)]
    assert homs == expected
    assert (len(homs), len(built)) == (7371, 7371)


def test_presentation_generates_everything_degree_3():
    closure = word_closure_homs(3)
    objs = objects_of_degree(3)
    for s in objs:
        for t in objs:
            assert len(hom_enumerate(s, t)) == len(closure.get((s, t), set()))


def test_factorize_color_preserving_is_simp_only():
    g = bead_of_generator("e", 1, DObject(1, 1))
    ab, simp = factorize(g)
    assert len(ab) == 0
    assert recompose(ab, simp) == g


def test_factorize_collapse():
    g = BeadMap(DObject(0, 0), DObject(0, 0), MonotoneMap(2, 2, (0, 0)))
    ab, simp = factorize(g)
    assert len(ab) == 1
    assert recompose(ab, simp) == g


def test_factorize_ssub():
    g = bead_of_generator("ssub", None, DObject(0, 1))
    ab, simp = factorize(g)
    assert [t[0] for t in ab.tokens] == ["f"]
    assert list(simp.tokens) == [("t", 0)]  # t_top at [1,0]
    assert recompose(ab, simp) == g


def _reference_factorize(g):
    """``factorize`` through validated maps: the middle bead map, its black
    and white parts, and the epi-mono words of each."""
    w = g.whites_turned_black()
    mid = BeadMap(DObject(g.src.i + w, g.src.j - w), g.tgt, g.carrier)
    blacks = g.tgt.blacks
    top = MonotoneMap(mid.src.blacks, blacks, g.carrier.values[: mid.src.blacks])
    white = MonotoneMap(mid.src.j + 1, g.tgt.j + 1,
                        tuple(v - blacks for v in g.carrier.values[mid.src.blacks :]))
    (t_epi, e_mono), (s_epi, d_mono) = epi_mono_factor(top), epi_mono_factor(white)
    tokens = ([("t", k) for _, k in t_epi.tokens] + [("s", k) for _, k in s_epi.tokens]
              + [("e", k) for _, k in e_mono.tokens] + [("d", k) for _, k in d_mono.tokens])
    return GeneratorWord((("f", None),) * w, g.src), GeneratorWord(tuple(tokens), mid.src)


def test_factorize_roundtrip_exhaustive_degree_3():
    for s in objects_of_degree(3):
        for t in objects_of_degree(3):
            for g in hom_enumerate(s, t):
                ab, simp = factorize(g)
                assert (ab, simp) == _reference_factorize(g)
                assert len(ab) == g.whites_turned_black()
                assert recompose(ab, simp) == g
                ab2, simp2 = factorize(recompose(ab, simp))
                assert (ab2.tokens, simp2.tokens) == (ab.tokens, simp.tokens)


def test_recompose_rejects_non_dobject_source_and_gaps():
    ab, simp = factorize(bead_of_generator("ssub", None, DObject(0, 1)))
    with pytest.raises(TypeError):
        recompose(GeneratorWord(ab.tokens, 3), simp)
    with pytest.raises(TypeError):
        recompose(ab, GeneratorWord(simp.tokens, 3))
    with pytest.raises(ValueError, match="not composable"):
        recompose(ab, GeneratorWord(simp.tokens, DObject(0, 1)))


def test_word_parse_eval():
    w = parse_bead_word("f.d0@[0,0]")
    g = eval_bead_word(w)
    assert g == bead_of_generator("e", 1, DObject(0, 0))
    assert str(w) == "f.d0@[0,0]"


# ---------------------------------------------------------------------------
# The functor q from the simplex category times the arrow, as a reference:
# its cross maps are long abacus composites, so functoriality exercises
# bead_compose on them


@dataclass(frozen=True)
class DeltaTimes1Map:
    """A morphism of the product of the simplex category with the arrow."""

    map: MonotoneMap
    src_level: int  # 0 or 1
    tgt_level: int


def long_abacus(n):
    """The composite of n+1 abacus maps from [-1, n] to [n, -1]."""
    out = bead_identity(DObject(-1, n))
    for _ in range(n + 1):
        out = bead_compose(bead_of_generator("f", None, out.tgt), out)
    return out


def _q_obj(x):
    n, level = x
    return DObject(n, -1) if level == 1 else DObject(-1, n)


def _q_mor(m):
    a = m.map
    if (m.src_level, m.tgt_level) == (0, 0):
        return BeadMap(DObject(-1, a.dom_n), DObject(-1, a.cod_n), a)
    if (m.src_level, m.tgt_level) == (1, 1):
        return BeadMap(DObject(a.dom_n, -1), DObject(a.cod_n, -1), a)
    row_part = BeadMap(DObject(-1, a.dom_n), DObject(-1, a.cod_n), a)
    return bead_compose(long_abacus(a.cod_n), row_part)


def test_functor_q_objects_and_long_composite():
    assert _q_obj((2, 0)) == DObject(-1, 2)
    assert _q_obj((2, 1)) == DObject(2, -1)
    cross = _q_mor(DeltaTimes1Map(identity(2), 0, 1))
    assert cross == long_abacus(2)
    assert cross.src == DObject(-1, 2) and cross.tgt == DObject(2, -1)


def test_functor_q_functorial():
    for m in range(0, 3):
        for n in range(0, 3):
            for p in range(0, 3):
                for a in enumerate_monotone(m, n):
                    for b in enumerate_monotone(n, p):
                        for lv in ((0, 0), (0, 1), (1, 1)):
                            for lw in ((0, 0), (0, 1), (1, 1)):
                                if lv[1] != lw[0]:
                                    continue
                                fa = DeltaTimes1Map(a, *lv)
                                fb = DeltaTimes1Map(b, *lw)
                                comp = DeltaTimes1Map(compose_monotone(b, a), lv[0], lw[1])
                                assert _q_mor(comp) == bead_compose(_q_mor(fb), _q_mor(fa))


# ---------------------------------------------------------------------------
# The tuple evaluator against the bead-map-by-bead-map reference


def _ref_eval(word):
    """Evaluate a word composing one validated bead map per token."""
    if not isinstance(word.source, DObject):
        raise TypeError("abacus words carry a DObject source")
    out = bead_identity(word.source)
    for kind, k in word.tokens:
        out = bead_compose(bead_of_generator(kind, k, out.tgt), out)
    return out


def _ref_closure(max_degree):
    """The closure search over bead maps, composing generator bead maps."""
    objs = objects_of_degree(max_degree)
    gens = {o: [g for _, _, g in generators_at(o) if g.tgt.degree <= max_degree] for o in objs}
    homs = {}
    for src in objs:
        seen = {bead_identity(src)}
        frontier = [bead_identity(src)]
        while frontier:
            cur = frontier.pop()
            for g in gens[cur.tgt]:
                nxt = bead_compose(g, cur)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for m in seen:
            homs.setdefault((src, m.tgt), set()).add(m)
    return homs


def _outcome(fn, word):
    try:
        return fn(word)
    except Exception as exc:  # compared by type with the reference
        return type(exc)


# any token, legal or not: unknown kinds, missing or spurious indices
tokens = st.one_of(
    st.tuples(st.sampled_from("etds"), st.integers(-1, 6)),
    st.tuples(st.sampled_from(["e", "f", "ssub", "x"]), st.one_of(st.none(), st.integers(0, 2))),
)


@st.composite
def words(draw):
    """A word from a legal source of degree <= 5: mostly legal tokens, and
    with one chance in five per step a random one, which ends the word if
    it is illegal there."""
    cur = src = draw(st.sampled_from(objects_of_degree(5)))
    toks = []
    for _ in range(draw(st.integers(0, 8))):
        legal = [(kind, k) for kind, k, _ in generators_at(cur)]
        tok = draw(tokens) if draw(st.integers(0, 4)) == 0 else draw(st.sampled_from(legal))
        toks.append(tok)
        try:
            cur = bead_of_generator(*tok, cur).tgt
        except ValueError:
            break
    return GeneratorWord(tuple(toks), src)


@settings(max_examples=300, deadline=None)
@given(words())
def test_eval_bead_word_matches_reference(word):
    assert _outcome(eval_bead_word, word) == _outcome(_ref_eval, word)


def test_word_closure_matches_reference():
    # the closure keeps carrier values; the reference builds bead maps
    for b in range(4):
        ref = {pair: {m.carrier.values for m in maps} for pair, maps in _ref_closure(b).items()}
        assert word_closure_homs(b) == ref, b


def _visits(word, kind, at):
    """Whether the word applies the generator ``kind`` at the object ``at``."""
    cur = word.source
    for kd, _ in word.tokens:
        if kd == kind and cur == at:
            return True
        di, dj = abacus.SHIFT[kd]
        cur = DObject(cur.i + di, cur.j + dj)
    return False


def _corrupt_f_carrier(monkeypatch):
    """Make the carrier lookup give ``f`` at [0,0] the carrier (1, 1)."""
    step = abacus._step

    def corrupt(kind, k, i, j):
        ti, tj, vals = step(kind, k, i, j)
        if (kind, i, j) == ("f", 0, 0):
            assert vals == (0, 1)
            vals = (1, 1)
        return ti, tj, vals

    monkeypatch.setattr(abacus, "_step", corrupt)


def test_corrupt_generator_carrier_breaks_its_relations(monkeypatch):
    # the evaluator reads carriers from the lookup alone, so a wrong entry
    # must surface as failed relations through that generator, and only those
    at = DObject(0, 0)
    _corrupt_f_carrier(monkeypatch)
    rep = relation_suite(3, 3)
    through = {f"{lhs} = {rhs}" for _, lhs, rhs in relation_instances(3, 3)
               if _visits(lhs, "f", at) or _visits(rhs, "f", at)}
    assert not rep.passed and rep.witnesses
    assert {w.equation for w in rep.witnesses} <= through


# ---------------------------------------------------------------------------
# Constructor validation and the presentation suite against the code they
# replaced


def _ref_bead_checks(src, tgt, carrier):
    """The validation ``BeadMap`` ran before its last-black-bead test."""
    if carrier.dom != src.size or carrier.cod != tgt.size:
        raise ValueError(f"carrier {carrier} does not fit {src} -> {tgt}")
    for k in range(src.blacks):
        if carrier.values[k] >= tgt.blacks:
            raise ValueError(f"black bead {k} escapes the black zone in {src} -> {tgt}")


@st.composite
def bead_args(draw):
    """Objects of degree <= 4 and a monotone carrier between them whose
    black beads land anywhere; one time in five its sizes are off."""
    objs = objects_of_degree(4)
    src, tgt = draw(st.sampled_from(objs)), draw(st.sampled_from(objs))
    dom, cod = src.size, tgt.size
    if draw(st.integers(0, 4)) == 0:
        dom, cod = dom + draw(st.sampled_from([-1, 0, 1])), cod + draw(st.sampled_from([0, 1]))
    values = draw(st.lists(st.integers(0, cod - 1), min_size=dom, max_size=dom))
    return src, tgt, MonotoneMap(dom, cod, tuple(sorted(values)))


@settings(max_examples=300, deadline=None)
@given(bead_args())
def test_bead_validation_matches_reference(args):
    def outcome(fn):
        try:
            fn(*args)
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)
        return None

    assert outcome(BeadMap) == outcome(_ref_bead_checks)


def _reference_relation_suite(max_i, max_j):
    """``relation_suite`` evaluating both sides of each relation to a
    validated bead map and comparing those."""
    witnesses = []
    checked = 0
    for name, lhs, rhs in relation_instances(max_i, max_j):
        checked += 1
        lv, rv = eval_bead_word(lhs), eval_bead_word(rhs)
        if lv != rv:
            witnesses.append(Witness(name, f"{lhs} = {rhs}", (str(lv), str(rv))))
    return CheckReport.from_witnesses("relation_suite", witnesses, checked)


def _reference_trapezium_check(i, j, m, n):
    """f^(m+n+1) d^m = e^(i+1) f^(m+n) from [i-m, j+m], as one report."""
    src = DObject(i - m, j + m)
    fs = ("f", None)
    lhs = GeneratorWord((("d", m),) + (fs,) * (m + n + 1), src)
    rhs = GeneratorWord((fs,) * (m + n) + (("e", i + 1),), src)
    lv, rv = eval_bead_word(lhs), eval_bead_word(rhs)
    witnesses = []
    if lv != rv:
        witnesses.append(Witness(f"trapezium@{(i, j, m, n)}", f"{lhs} = {rhs}", (str(lv), str(rv))))
    return CheckReport.from_witnesses("trapezium_check", witnesses, 1)


def _reference_trapezium_suite(degree_bound):
    """``trapezium_suite`` as the conjunction of one report per instance."""
    reports = []
    for i in range(-1, degree_bound + 2):
        for j in range(-1, degree_bound + 2):
            if not abacus._legal(i, j) or i + j > degree_bound:
                continue
            for m in range(i + 2):
                for n in range(j + 2):
                    if abacus._legal(i - m, j + m):
                        reports.append(_reference_trapezium_check(i, j, m, n))
    return CheckReport.conjunction("trapezium_suite", reports)


def _equation_reports(bound):
    """Both equation suites, and their references, as dicts."""
    return ((relation_suite(bound, bound).to_dict(), trapezium_suite(bound).to_dict()),
            (_reference_relation_suite(bound, bound).to_dict(),
             _reference_trapezium_suite(bound).to_dict()))


def test_equation_suites_match_references():
    for bound in range(5):
        new, ref = _equation_reports(bound)
        assert new == ref, bound


def test_equation_suites_match_references_on_a_broken_calculus(monkeypatch):
    # a wrong carrier: both name each failing side as the same bead maps
    _corrupt_f_carrier(monkeypatch)
    for bound in range(5):
        new, ref = _equation_reports(bound)
        assert new == ref, bound
    assert new[0]["witnesses"] and new[1]["witnesses"]


def _reference_presentation_suite(bound: int = 4) -> dict:
    """The presentation suite before it decided on carrier tuples: it builds
    every closure result, recomposed factorization and spot-value hom set
    as a validated bead map."""
    entries = []
    rel = abacus.relation_suite(bound, bound)
    entries.append(_entry_from_report("presentation:relations",
                                      "all relation instances hold as bead maps", rel))
    trap = abacus.trapezium_suite(bound)
    entries.append(_entry_from_report("presentation:trapezium",
                                      "trapezium equations hold at all legal indices", trap))
    reached = {(src, tgt): len({abacus._bead(src, tgt.i, tgt.j, vals) for vals in carriers})
               for (src, tgt), carriers in abacus.word_closure_homs(bound).items()}
    objs = abacus.objects_of_degree(bound)
    homs = {(src, tgt): abacus.hom_enumerate(src, tgt) for src in objs for tgt in objs}
    entries.append(_tally("presentation:hom-counts",
                          "enumerated hom sets match generator-word closure",
                          ((f"{src}->{tgt}", len(hom) == reached.get((src, tgt), 0))
                           for (src, tgt), hom in homs.items())))
    base = abacus.DObject(0, 0)
    entries.append(_tally("presentation:spot-values",
                          "frozen hom-set sizes at the base objects",
                          ((f"{base}->{tgt}", len(abacus.hom_enumerate(base, tgt)) == size)
                           for tgt, size in ((base, 2), (abacus.DObject(0, -1), 1)))))

    def factorizes(g):
        ab, simp = abacus.factorize(g)
        return recompose(ab, simp) == g and len(ab) == g.whites_turned_black()

    entries.append(_tally("presentation:factorization",
                          "every morphism splits as abacus word then color-preserving word",
                          ((str(g), factorizes(g)) for hom in homs.values() for g in hom)))
    return _finish("presentation", entries, bound)


def _suite_pair(bound):
    """The canonical JSON of both suites, and the entries that fail."""
    new = presentation_suite(bound)
    ref = _reference_presentation_suite(bound)
    failing = {e["id"] for e in new["entries"] if e["verdict"] == "fail"}
    return json.dumps(new, sort_keys=True, indent=1), json.dumps(ref, sort_keys=True, indent=1), failing


def test_presentation_suite_matches_reference():
    for bound in range(4):
        new, ref, failing = _suite_pair(bound)
        assert new == ref and not failing, bound


def test_presentation_suite_matches_reference_on_broken_calculi(monkeypatch):
    # a wrong carrier: every entry that walks f at [0,0] fails, the same way
    _corrupt_f_carrier(monkeypatch)
    new, ref, failing = _suite_pair(1)
    assert new == ref
    assert failing == {"presentation:relations", "presentation:trapezium",
                       "presentation:hom-counts", "presentation:factorization"}
    monkeypatch.undo()

    # a factorization whose color-preserving word ends in a stray f: the
    # right carrier, landing on the wrong object
    factorize_ = abacus.factorize

    def stray_f(g):
        ab, simp = factorize_(g)
        if g.tgt.j >= 0:
            simp = GeneratorWord(simp.tokens + (("f", None),), simp.source)
        return ab, simp

    monkeypatch.setattr(abacus, "factorize", stray_f)
    new, ref, failing = _suite_pair(2)
    assert new == ref and failing == {"presentation:factorization"}
