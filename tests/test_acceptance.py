"""The acceptance gate: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import hashlib
import json
import time
from functools import cache

import pytest

from segal_abacus import abacus, suites
from segal_abacus.abacus import presentation_suite
from segal_abacus.configurations import (
    boors_axioms,
    build_M,
    condition_star,
    dictionary_conditions,
    extract_from_M,
    has_invertible_abacus,
    is_bicomodule_config,
    m_2segal_dictionary,
    p_star_tot,
    q_lower_star,
    splitting_checks,
    unit_iso,
)
from segal_abacus.corpus import (
    chain_poset,
    nerve,
    random_poset_corpus,
    standard_map_corpus,
    standard_nerve_corpus,
)
from segal_abacus.decalage import (
    PointedSSet,
    comult,
    counit,
    dec,
    is_local_initial,
    is_local_terminal,
    is_rigid,
    tot,
    BottomSplitSSet,
)
from segal_abacus.fibrations import (
    is_culf,
    is_double_segal,
    is_left_fibration,
    is_right_fibration,
    is_segal,
    is_2segal,
    reduced_stability,
    stability,
)
from segal_abacus.presheaf import (
    SMap,
    Square,
    identity_smap,
    is_pullback,
    pullback_pairs,
    sub_trunc,
    validate,
    validate_coalgebra,
)
from segal_abacus.suites import (
    boors_suite,
    cheatsheet_suite,
    dictionary_suite,
    edgewise_suite,
    half_axioms_suite,
    star_suite,
)


def report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {num:2d} {tag}: {desc}{extra}")
    assert ok, f"criterion {num}: {desc}{extra}"


def suite_failures(suite: dict):
    return [e["id"] for e in suite["entries"] if e["verdict"] != "pass"]


@cache
def suite_report(suite, **kwargs) -> dict:
    """One run of a suite per module, shared by the criteria that read it
    and by the digest guard."""
    return suite(**kwargs)


def test_criterion_1_presentation_certification():
    t0 = time.monotonic()
    rel = abacus.relation_suite(4, 4)
    closure = abacus.word_closure_homs(4)
    objs = abacus.objects_of_degree(4)
    mismatches = [
        (str(s), str(t))
        for s in objs
        for t in objs
        if len(abacus.hom_enumerate(s, t)) != len(closure.get((s, t), set()))
    ]
    spot = (
        len(abacus.hom_enumerate(abacus.DObject(0, 0), abacus.DObject(0, 0))) == 2
        and len(abacus.hom_enumerate(abacus.DObject(0, 0), abacus.DObject(0, -1))) == 1
    )
    elapsed = time.monotonic() - t0
    ok = rel.passed and not mismatches and spot and elapsed < 5.0
    report(1, "presentation certified at total degree <= 4", ok,
           f"{rel.checked} relations, {len(objs)}^2 hom sets, {elapsed:.2f}s")


def test_criterion_2_cheatsheet_suite():
    t0 = time.monotonic()
    suite = cheatsheet_suite(trunc=5)
    elapsed = time.monotonic() - t0
    fixtures = len(standard_nerve_corpus(2))
    vacuous = [e["id"] for e in suite["entries"] if e["instances"] == 0]
    ok = (suite["verdict"] == "pass" and not vacuous and fixtures >= 21
          and elapsed < 30.0)
    report(2, "standard-facts suite on the nerve corpus at T=5", ok,
           f"{fixtures} fixtures, failures={suite_failures(suite)}, {elapsed:.1f}s")


def test_criterion_3_star_biconditional():
    suite = suite_report(star_suite, trunc=4)
    positives = next(e for e in suite["entries"] if e["id"] == "star:images-satisfy")
    negatives = next(e for e in suite["entries"] if e["id"] == "star:negative-fails")
    ok = (suite["verdict"] == "pass" and positives["instances"] >= 10
          and negatives["instances"] >= 1)
    report(3, "cartesian-abacus condition <=> unit bijectivity", ok,
           f"{positives['instances']} positives, {negatives['instances']} negative")


def test_criterion_4_dictionary():
    suite = suite_report(dictionary_suite, trunc=4)
    entry = next(e for e in suite["entries"]
                 if e["id"] == "dictionary:bicomodule-matches-conditions")
    negs = next(e for e in suite["entries"] if e["id"] == "dictionary:has-negatives")
    ok = (entry["verdict"] == "pass" and entry["instances"] >= 10
          and negs["instances"] >= 2)
    report(4, "bicomodule configurations match the three map conditions", ok,
           f"{entry['instances']} maps, {negs['instances']} failing cases")


def test_criterion_5_invertibility():
    suite = suite_report(dictionary_suite, trunc=4)
    entry = next(e for e in suite["entries"]
                 if e["id"] == "dictionary:invertible-iff-bijective")
    ok = entry["verdict"] == "pass" and entry["instances"] >= 10
    report(5, "invertible abacus actions <=> levelwise bijective map", ok,
           f"{entry['instances']} maps")


def test_criterion_6_cocartesian_correspondence():
    maps = standard_map_corpus(4)
    from segal_abacus.corpus import punctured_chain_sset

    maps.append(("id-punctured3", identity_smap(punctured_chain_sset(3, 4))))
    maps.append(("id-punctured4", identity_smap(punctured_chain_sset(4, 4))))
    bad_dict = []
    bad_extract = []
    for name, F in maps:
        if not m_2segal_dictionary(dictionary_conditions(F), q_lower_star(F)).passed:
            bad_dict.append(name)
        B = q_lower_star(F)
        M, proj = build_M(B)
        fib = extract_from_M(M, proj)
        if not all(
            tuple(x[1] for x in fib.get(lvl, ())) == B.level(*lvl) for lvl in B.levels
        ):
            bad_extract.append(name)
    ok = not bad_dict and not bad_extract and len(maps) >= 10
    report(6, "packaged total space biconditional and extraction identity", ok,
           f"{len(maps)} fixtures, dict failures={bad_dict}, extract failures={bad_extract}")


@pytest.fixture(scope="module")
def boors_t5():
    """One boors_suite(trunc=5) run, with its wall time, for criteria 7 and 8."""
    t0 = time.monotonic()
    suite = boors_suite(trunc=5)
    return suite, time.monotonic() - t0


def test_criterion_7_boors_roundtrip(boors_t5):
    suite, elapsed = boors_t5
    instances = {e["id"]: e["instances"] for e in suite["entries"]}
    count = instances.get("boors:iso_with_kan", 0)
    has_partial = any(
        n == "partial-ea" for n, X in standard_nerve_corpus(5) if is_2segal(X).passed
    )
    ok = (suite["verdict"] == "pass" and count >= 20 and has_partial
          and elapsed < 60.0)
    report(7, "pointing-equivalence round trip on the 2-Segal corpus at T=5", ok,
           f"{count} fixtures, failures={suite_failures(suite)}, {elapsed:.1f}s")


def test_criterion_8_pointing_forces_invertibility(boors_t5):
    suite, _ = boors_t5
    inv = next(e for e in suite["entries"] if e["id"] == "boors:invertible_abacus")
    tsc = next(e for e in suite["entries"] if e["id"] == "boors:ts_compat")
    pair = next(e for e in suite["entries"] if e["id"] == "boors:invertibility_pair")
    ok = all(e["verdict"] == "pass" for e in (inv, tsc, pair))
    report(8, "pointings force invertible abacus actions and splitting compatibility",
           ok, f"{inv['instances']} fixtures")


def test_criterion_9_half_axioms():
    suite = suite_report(half_axioms_suite, trunc=5)
    counts = {e["id"]: e["instances"] for e in suite["entries"]}
    vert = next(e for e in suite["entries"]
                if e["id"] == "half:vertical-axiom-fails-somewhere")
    ok = (suite["verdict"] == "pass"
          and counts.get("half:iso_with_kan", 0) >= 5
          and vert["instances"] >= 1)
    report(9, "half-axiom extension round-trips without the augmentation row", ok,
           f"{counts.get('half:iso_with_kan', 0)} fixtures, "
           f"{vert['instances']} failing the vertical axiom")


# sha256 of each suite report the benchmark runs, as ``run-suite`` prints it
# (``json.dumps(report, sort_keys=True, indent=1)``): a change that claims
# only speed must leave every report byte-identical.
SUITE_DIGESTS = {
    "star t4": "291fbbae88c7cef8208935b1534879c0fe05eb36efb0e03559920e8bc5d1aebe",
    "cheatsheet t5 seed 3": "b7e6ec6ebcaf5439dff74d16bc4c823e05dbb6371e565c97c7b37a6844f2c05a",
    # random corpora repeat standard nerves as distinct objects: a memo
    # that conflated two objects would change these
    "cheatsheet t5 seed 7": "737f349ff4d02e4178c6e05cb4eb62506d81c7af29516f0f025ed30530fd0086",
    "cheatsheet t4": "70109a67e3dbddbf93cc0020a7fc75bc2665ba55b7d7ea2fb38495c25541f5e3",
    "edgewise t5": "ca479ce2a0ba6b28298244e9c37262122b69c458e5f788f8732093d11756bef2",
    "edgewise t4": "8b4a45774c45b729a743f794ce495275d463ae6846d116d9c2a77e9052f06e86",
    "boors t5": "13d2a45b27bc2f343cac47915dec7bf0099e41efdfe10622c205cb8efc4d2d49",
    "half-axioms t5": "f68bff5467a9f154e0374b9e2a60e158fdd3c5120c2793a7e1fbc237ed4d5d1f",
    "dictionary t4": "b8d60a2ea523c3ec21af534919ead0693d7c7c71bd135ad98c50eb0ec168861f",
    "presentation b4": "d06d66c726a8779f2ac7e9bfc2250d41a131fe87bfe759f23df7c7a7bfff985d",
    "presentation b2": "9e4c87f6a883be08f23d950f9a9bf3fec78e09e2ca36119d9a3726cc95b96e9c",
    "presentation b3": "c44adb2fd97fc14e529e02af58281009b317bdab7019fd9b084c01b55fcf7b09",
    "presentation b1": "b0fe1af043d570291a94ff7dbce2ab762e62bbf18a3dee3877fc6b723d86058f",
    "presentation b0": "1875e833c5d4f9c855436473dd2c81b2edc9de999ab82016c15e94278e88a486",
}


def test_suite_reports_match_pinned_digests(boors_t5):
    reports = {
        "star t4": suite_report(star_suite, trunc=4),
        "cheatsheet t5 seed 3": cheatsheet_suite(trunc=5, seed=3),
        "cheatsheet t5 seed 7": cheatsheet_suite(trunc=5, seed=7),
        "cheatsheet t4": cheatsheet_suite(trunc=4),
        "edgewise t5": edgewise_suite(trunc=5),
        "edgewise t4": edgewise_suite(trunc=4),
        "boors t5": boors_t5[0],
        "half-axioms t5": suite_report(half_axioms_suite, trunc=5),
        "dictionary t4": suite_report(dictionary_suite, trunc=4),
        "presentation b4": presentation_suite(bound=4),
        "presentation b2": presentation_suite(bound=2),
        "presentation b3": presentation_suite(bound=3),
        "presentation b1": presentation_suite(bound=1),
        "presentation b0": presentation_suite(bound=0),
    }
    digests = {name: hashlib.sha256(json.dumps(rep, sort_keys=True, indent=1).encode()).hexdigest()
               for name, rep in reports.items()}
    assert digests == SUITE_DIGESTS


def test_cheatsheet_builds_each_counit_once(monkeypatch):
    built = []

    def counting_counit(X, side):
        built.append((id(X), side))
        return counit(X, side)

    monkeypatch.setattr(suites, "counit", counting_counit)
    cheatsheet_suite(trunc=5, seed=3)
    nerves = len(standard_nerve_corpus(5)) + len(random_poset_corpus(4, 4, 3, 5))
    assert len(built) == 2 * nerves
    assert len(set(built)) == len(built)


def test_cheatsheet_decides_each_passing_square_once(monkeypatch):
    """Of the squares ``cheatsheet_suite(5, seed=3)`` checks, only the first
    meeting of a passing square and every meeting of a failing one reach
    the full decision; the rest are the same objects as a square already
    found to be a pullback.  The nerve maps of the map corpus have the
    nerve corpus's own nerves as ends, so their squares are among them."""
    from segal_abacus import fibrations, presheaf

    calls, decided = [], []

    def counting(calls, fn):
        def wrapped(sq):
            calls.append(sq.name)
            return fn(sq)
        return wrapped

    monkeypatch.setattr(presheaf, "_decide_pullback", counting(decided, presheaf._decide_pullback))
    checking = counting(calls, presheaf.is_pullback)
    monkeypatch.setattr(presheaf, "is_pullback", checking)
    monkeypatch.setattr(fibrations, "is_pullback", checking)
    cheatsheet_suite(trunc=5, seed=3)
    assert (len(calls), len(decided)) == (5698, 2568)


def test_boors_gates_decide_each_passing_square_once(monkeypatch):
    """Each ``boors_axioms`` call runs inside ``deciding_once``: on a total
    decalage its stability, row-Segal and column-Segal checks meet the very
    same squares, so ``boors_suite(5)`` decides 378 squares in full where
    deciding every meeting took 630.  Each gate runs inside its
    extension's block, so the memo outlives the gate and ends with the
    extension."""
    from segal_abacus import configurations, presheaf

    decided, after_gate, after = [], [], []
    real = presheaf._decide_pullback
    monkeypatch.setattr(presheaf, "_decide_pullback", lambda sq: decided.append(sq.name) or real(sq))

    def recording(fn, memos):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            memos.append(presheaf._pullbacks is None)
            return result
        return wrapped

    monkeypatch.setattr(configurations, "boors_axioms", recording(configurations.boors_axioms, after_gate))
    monkeypatch.setattr(configurations, "extend_sigma_to_d",
                        recording(configurations.extend_sigma_to_d, after))
    suites.boors_suite(trunc=5)
    assert len(decided) == 378
    assert after_gate == [False] * 21
    assert after == [True] * 21


def test_cheatsheet_and_edgewise_explain_no_refutation(monkeypatch):
    """Both suites read only each check's verdict, so no refuted check is
    explained: they construct no ``Witness``."""
    from segal_abacus import reports

    built = []
    real = reports.Witness.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(reports.Witness, "__init__", counting)
    cheatsheet_suite(trunc=5, seed=3)
    cheatsheet = len(built)
    edgewise_suite(trunc=5)
    assert (cheatsheet, len(built) - cheatsheet) == (0, 0)


def test_dictionary_and_star_explain_no_refutation(monkeypatch):
    """``has_invertible_abacus`` and ``unit_iso`` explain a refutation only
    when it is read, and the suites read verdicts: ``star_suite(4)`` builds
    no ``Witness`` (it built 20), and neither does ``dictionary_suite(4)``
    (it built 606), whose ``bijective`` column decides with
    ``presheaf.is_bijection``."""
    from segal_abacus import reports

    built = []
    real = reports.Witness.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(reports.Witness, "__init__", counting)
    dictionary_suite(trunc=4)
    dictionary = len(built)
    star_suite(trunc=4)
    assert (dictionary, len(built) - dictionary) == (0, 0)


def test_round_trips_build_each_object_once(monkeypatch):
    """Each round trip decides the pointing axioms once per input and side,
    builds each pointing comparison once (the extension inverts the
    row-zero one its gate decided: two per extension, where three were
    built before), decides invertibility and derives the top splittings
    once, builds the Kan extension of the identity at the extension's
    depth, and each dictionary row builds its Kan extension and its
    conditions once."""
    from segal_abacus import configurations, decalage, presheaf

    gates, kans, conds, extensions, pointings, decided = [], [], [], [], [], []

    def counting(calls, fn, record):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(record(args, kwargs, result))
            return result
        return wrapped

    monkeypatch.setattr(configurations, "boors_axioms", counting(
        gates, boors_axioms, lambda a, kw, _: (id(a[0]), kw.get("half", False))))
    monkeypatch.setattr(configurations, "extend_sigma_to_d", counting(
        extensions, configurations.extend_sigma_to_d, lambda a, kw, r: r[0]))
    comparing = counting(pointings, decalage.pointing_comparison, lambda a, kw, _: a[1])
    for module in (configurations, decalage):
        monkeypatch.setattr(module, "pointing_comparison", comparing)
    for name in ("has_invertible_abacus", "_top_splittings"):
        monkeypatch.setattr(configurations, name, counting(
            decided, getattr(configurations, name), lambda a, kw, _, name=name: name))
    for module in (configurations, suites):
        monkeypatch.setattr(module, "q_lower_star", counting(
            kans, q_lower_star, lambda a, kw, _: a[0]))
        monkeypatch.setattr(module, "dictionary_conditions", counting(
            conds, dictionary_conditions, lambda a, kw, _: id(a[0])))

    X = nerve(chain_poset(2), 5)
    assert configurations.boors_roundtrip(X)["iso_with_kan"].holds is True
    assert presheaf._pullbacks is None
    [B] = extensions
    [F] = kans
    assert len(gates) == 1
    assert sorted(pointings) == ["bottom", "top"]
    assert (F.source.trunc, F.target.trunc) == (B.trunc, B.trunc) == (3, 3)
    # invertibility is decided once, and t# = f^-1 s_0 derived once for
    # both splitting checks
    assert sorted(decided) == ["_top_splittings", "has_invertible_abacus"]

    # the half gate decides the horizontal side, and the vertical side is
    # decided once beside it
    gates.clear()
    pointings.clear()
    configurations.half_roundtrip(identity_smap(X))
    assert [half for _, half in gates] == [True]
    assert sorted(pointings) == ["bottom", "top"]

    kans.clear()
    dictionary_suite(trunc=3)
    maps = len(suites._dictionary_maps(3))
    assert len(conds) == maps and len(set(conds)) == maps
    assert len(kans) == maps and len({id(F) for F in kans}) == maps


# ---------------------------------------------------------------------------
# criterion 10: one verdict-flipping mutation per checker


def _search_flip(fixture, tables, checker, max_tries=400):
    """Corrupt single entries until the checker's verdict flips with
    witnesses; returns the witness list or None."""
    base = checker(fixture)
    assert base.passed, "fixture must pass before mutation"
    tries = 0
    for table_pick in tables(fixture):
        for key in sorted(table_pick, key=str):
            pool = sorted({v for v in table_pick.values() if v != table_pick[key]}, key=str)
            for other in pool[:2]:
                tries += 1
                if tries > max_tries:
                    return None
                saved = table_pick[key]
                table_pick[key] = other
                rep = checker(fixture)
                table_pick[key] = saved
                if not rep.passed and rep.witnesses:
                    return rep.witnesses
    return None


def _sset_tables(X):
    """The faces, then the degeneracies, each by ``str`` of ``(n, k)``."""
    for kind in ("d", "s"):
        for key in sorted((key for key in X.actions if key[0] == kind), key=lambda key: str((key[2], key[1]))):
            yield X.actions[key]


def _search_order(key):
    """Within a kind, tables are visited by ``str`` of ``((i, j), k)``, or
    of ``(i, j)`` for ``f`` and ``ssub``."""
    _, k, lvl = key
    return str(lvl if k is None else (lvl, k))


def _kind_tables(P, kinds):
    for kind in kinds:
        for key in sorted((key for key in P.actions if key[0] == kind), key=_search_order):
            yield P.actions[key]


def _dset_tables(B):
    return _kind_tables(B, ("f", "ssub", "e", "t", "d", "s"))


def _smap_tables(F):
    for n in sorted(F.levels):
        yield F.levels[n]


MUTATION_CASES = []


def _case(name):
    def reg(fn):
        MUTATION_CASES.append((name, fn))
        return fn

    return reg


@_case("validate:sset")
def _m_validate_sset():
    X = nerve(chain_poset(2), 3)
    return _search_flip(X, _sset_tables, lambda p: validate(p))


@_case("validate:dset")
def _m_validate_dset():
    B = q_lower_star(identity_smap(nerve(chain_poset(1), 3)))
    return _search_flip(B, _dset_tables, lambda p: validate(p))


@_case("validate:smap")
def _m_validate_smap():
    F = identity_smap(nerve(chain_poset(1), 3))
    return _search_flip(F, _smap_tables, lambda p: validate(p))


@_case("is_pullback")
def _m_pullback():
    f = {"a1": "c1", "a2": "c2"}
    g = {"b1": "c1", "b2": "c2"}
    P = tuple(pullback_pairs(f, g, sorted(f), sorted(g)))
    pa, pb = {p: p[0] for p in P}, {p: p[1] for p in P}
    sq = Square("mut", P, tuple(sorted(f)), tuple(sorted(g)), pa, pb, f, g)
    assert is_pullback(sq).passed
    pa[P[0]] = "a2" if pa[P[0]] == "a1" else "a1"
    rep = is_pullback(sq)
    return rep.witnesses if not rep.passed else None


@_case("is_segal")
def _m_segal():
    X = nerve(chain_poset(2), 3)
    return _search_flip(X, _sset_tables, lambda p: is_segal(p))


@_case("is_2segal")
def _m_2segal():
    X = nerve(chain_poset(2), 4)
    return _search_flip(X, _sset_tables, lambda p: is_2segal(p, "both"))


@_case("is_left_fibration")
def _m_lfib():
    F = counit(nerve(chain_poset(2), 4), "bottom")
    # the counit's levels are X's own face tables: flip a copy, so the target stays whole
    F = SMap(F.source, F.target, {n: dict(t) for n, t in F.levels.items()})
    return _search_flip(F, _smap_tables, is_left_fibration)


@_case("is_right_fibration")
def _m_rfib():
    F = counit(nerve(chain_poset(2), 4), "top")
    # the counit's levels are X's own face tables: flip a copy, so the target stays whole
    F = SMap(F.source, F.target, {n: dict(t) for n, t in F.levels.items()})
    return _search_flip(F, _smap_tables, is_right_fibration)


@_case("is_culf")
def _m_culf():
    F = identity_smap(nerve(chain_poset(2), 4))
    return _search_flip(F, _smap_tables, is_culf)


def _bisset_tables(B):
    return _kind_tables(B, ("e", "t", "d", "s"))


@_case("stability")
def _m_stability():
    T = tot(nerve(chain_poset(2), 4))
    return _search_flip(T, _bisset_tables, lambda p: stability(p, "both"))


@_case("reduced_stability")
def _m_reduced_stability():
    # No single-entry corruption can break the distinguished squares while
    # preserving the double-Segal precondition (the same tables feed both;
    # verified by exhaustive search).  The corruption therefore flips the
    # reduced check to a reported failure while the full stability check
    # produces the witness, which the two must share on double-Segal input.
    T = tot(nerve(chain_poset(2), 4))
    assert reduced_stability(T).passed
    table = T.actions["e", 0, (1, 1)]
    x = sorted(table, key=str)[0]
    table[x] = next(v for v in sorted(set(table.values()), key=str) if v != table[x])
    red = reduced_stability(T)
    full = stability(T, "both")
    if red.passed or full.passed:
        return None
    return full.witnesses or red.witnesses


@_case("is_double_segal")
def _m_double_segal():
    T = tot(nerve(chain_poset(2), 4))
    return _search_flip(T, _bisset_tables, is_double_segal)


@_case("validate_coalgebra")
def _m_coalgebra():
    X = nerve(chain_poset(2), 4)
    D = dec(X, "bottom")
    delta = comult(X)
    BS = BottomSplitSSet(
        sub_trunc(D, D.trunc), {n: dict(delta.levels[n]) for n in range(D.trunc)}
    )

    def tables(A):
        for n in sorted(A.split):
            yield A.split[n]

    return _search_flip(BS, tables, validate_coalgebra)


@_case("is_rigid")
def _m_rigid():
    X = nerve(chain_poset(2), 4)
    D = dec(X, "bottom")
    delta = comult(X)
    BS = BottomSplitSSet(
        sub_trunc(D, D.trunc), {n: dict(delta.levels[n]) for n in range(D.trunc)}
    )

    def tables(A):
        for n in sorted(A.split):
            yield A.split[n]

    return _search_flip(BS, tables, is_rigid)


@_case("is_local_initial")
def _m_local_initial():
    N = nerve(chain_poset(2), 4)
    P = PointedSSet(N, ["c"], {"c": 0})
    assert is_local_initial(P).passed
    P.pointing["c"] = 1
    rep = is_local_initial(P)
    return rep.witnesses if not rep.passed else None


@_case("is_local_terminal")
def _m_local_terminal():
    N = nerve(chain_poset(2), 4)
    P = PointedSSet(N, ["c"], {"c": 2})
    assert is_local_terminal(P).passed
    P.pointing["c"] = 0
    rep = is_local_terminal(P)
    return rep.witnesses if not rep.passed else None


@_case("condition_star")
def _m_star():
    B = q_lower_star(identity_smap(nerve(chain_poset(1), 4)))
    return _search_flip(B, _dset_tables, condition_star)


@_case("unit_iso")
def _m_unit():
    B = q_lower_star(identity_smap(nerve(chain_poset(1), 4)))
    return _search_flip(B, _dset_tables, unit_iso)


@_case("is_bicomodule_config")
def _m_bicomodule():
    B = q_lower_star(identity_smap(nerve(chain_poset(2), 4)))

    return _search_flip(B, lambda p: _kind_tables(p, ("e", "d")), is_bicomodule_config)


@_case("has_invertible_abacus")
def _m_invertible():
    B = q_lower_star(identity_smap(nerve(chain_poset(1), 4)))
    return _search_flip(B, _dset_tables, has_invertible_abacus)


@_case("boors_axioms")
def _m_boors():
    A = p_star_tot(nerve(chain_poset(2), 4))
    assert boors_axioms(A).passed
    c = A.point_set[0]
    A.pointing = dict(A.pointing)
    A.pointing[c] = next(z for z in A.bulk.level(0, 0) if z != A.pointing[c])
    rep = boors_axioms(A)
    return rep.witnesses if not rep.passed else None


@_case("ts_compat")
def _m_ts_compat():
    # corrupting a top degeneracy breaks the agreement with the derived
    # top splitting
    B = q_lower_star(identity_smap(nerve(chain_poset(2), 4)))

    def checker(p):
        rep = splitting_checks(p)["ts_compat"]
        if rep.precondition is not None:
            return type(rep)("ts", True, [], 1, [])
        return rep

    return _search_flip(B, lambda p: _kind_tables(p, ("t",)), checker)


def test_criterion_10_mutation_detection():
    missing = []
    for name, fn in MUTATION_CASES:
        witnesses = fn()
        if not witnesses:
            missing.append(name)
    ok = not missing and len(MUTATION_CASES) >= 18
    report(10, "single-entry corruption flips every checker with a witness", ok,
           f"{len(MUTATION_CASES)} checkers, undetected={missing}")
