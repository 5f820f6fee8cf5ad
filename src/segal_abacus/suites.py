"""Named verification suites over generated corpora.

Each suite returns a plain dict with one entry per checked statement:
stable ids, verdicts, witnesses, and the verified depth.  Entries count
the instances where their hypotheses held, so a suite that could not
exercise a statement reports it as vacuous rather than passing it.
"""

from __future__ import annotations

from . import abacus
from .configurations import (
    boors_roundtrip,
    collapse_aug_row,
    condition_star,
    dictionary_conditions,
    half_roundtrip,
    has_invertible_abacus,
    is_bicomodule_config,
    m_2segal_dictionary,
    q_lower_star,
    unit_iso,
)
from .corpus import (
    chain_poset,
    nerve,
    poset_inclusion,
    punctured_chain_sset,
    standard_map_corpus,
    standard_nerve_corpus,
    random_poset_corpus,
    two_segal_partial_monoid,
)
from .decalage import counit, dec_map, sd, sd_map, tot
from .fibrations import (
    cartesian_on,
    is_culf,
    is_left_fibration,
    is_right_fibration,
    is_segal,
    is_2segal,
    stability,
    vertical_active_row_maps,
)
from .presheaf import identity_smap, validate
from .reports import CheckReport


def _entry(eid: str, statement: str, ok: bool, instances: int, witnesses=()):
    return {
        "id": eid,
        "statement": statement,
        "verdict": "pass" if ok and instances else ("vacuous" if not instances else "fail"),
        "instances": instances,
        "witnesses": sorted(str(w) for w in witnesses),
    }


def _entry_from_report(eid: str, statement: str, rep: CheckReport):
    return _entry(eid, statement, rep.passed, max(rep.checked, 1) if not rep.vacuous else 0,
                  rep.witnesses)


def _finish(name: str, entries, depth) -> dict:
    verdict = "pass"
    if any(e["verdict"] == "fail" for e in entries):
        verdict = "fail"
    elif any(e["verdict"] == "vacuous" for e in entries):
        verdict = "vacuous"
    return {"suite": name, "depth": depth, "verdict": verdict,
            "entries": sorted(entries, key=lambda e: e["id"])}


# ---------------------------------------------------------------------------


def cheatsheet_suite(trunc: int = 5, max_size: int = 4, seed: int | None = None) -> dict:
    """The standard-facts suite over nerves, the partial-monoid fixture,
    and a family of structural maps."""
    corpus = standard_nerve_corpus(trunc)
    if seed is not None:
        corpus = corpus + random_poset_corpus(4, max_size, seed, trunc)
    maps = standard_map_corpus(trunc)
    for name, X in corpus:
        maps.append((f"counit-top-{name}", counit(X, "top")))
        maps.append((f"counit-bot-{name}", counit(X, "bottom")))

    def classify_sset(item):
        name, X = item
        return name, {
            "segal": is_segal(X).passed,
            "upper": is_2segal(X, "upper").passed,
            "lower": is_2segal(X, "lower").passed,
            "eps_top_rfib": is_right_fibration(counit(X, "top")).passed,
            "eps_bot_lfib": is_left_fibration(counit(X, "bottom")).passed,
            "culf_bot": is_culf(counit(X, "bottom")).passed,
            "culf_top": is_culf(counit(X, "top")).passed,
            "sd_segal": is_segal(sd(X)).passed,
        }

    def classify_map(item):
        name, F = item
        return name, {
            "culf": is_culf(F).passed,
            "lfib": is_left_fibration(F).passed,
            "rfib": is_right_fibration(F).passed,
        }

    sset_facts = dict(map(classify_sset, corpus))
    map_facts = dict(map(classify_map, maps))

    entries = []
    # counit fibrations characterize the Segal condition
    bad = [n for n, f in sset_facts.items()
           if not (f["segal"] == f["eps_top_rfib"] == f["eps_bot_lfib"])]
    entries.append(_entry("cheatsheet:segal-iff-counit-fibrations",
                          "Segal <=> top counit right fibration <=> bottom counit left fibration",
                          not bad, len(sset_facts), bad))

    # culf maps decalage to fibrations
    hits, bad = 0, []
    for name, F in maps:
        if not map_facts[name]["culf"]:
            continue
        hits += 1
        if not (is_left_fibration(dec_map(F, "top")).passed
                and is_right_fibration(dec_map(F, "bottom")).passed):
            bad.append(name)
    entries.append(_entry("cheatsheet:culf-dec-fibrations",
                          "culf => top dec left fibration and bottom dec right fibration",
                          not bad, hits, bad))

    # fibrations decalage to cartesian maps
    hits, bad = 0, []
    for name, F in maps:
        if map_facts[name]["lfib"]:
            hits += 1
            if not cartesian_on(dec_map(F, "bottom"), "all").passed:
                bad.append(name)
        if map_facts[name]["rfib"]:
            hits += 1
            if not cartesian_on(dec_map(F, "top"), "all").passed:
                bad.append(name)
    entries.append(_entry("cheatsheet:fibration-dec-cartesian",
                          "left/right fibration => bottom/top dec cartesian",
                          not bad, hits, bad))

    # fibrations over a Segal base have Segal total space
    hits, bad = 0, []
    for name, F in maps:
        if (map_facts[name]["lfib"] or map_facts[name]["rfib"]) and is_segal(F.target).passed:
            hits += 1
            if not is_segal(F.source).passed:
                bad.append(name)
    entries.append(_entry("cheatsheet:fibration-over-segal",
                          "fibration over Segal base => Segal total space",
                          not bad, hits, bad))

    # culf into 2-Segal pulls the property back
    hits, bad = 0, []
    for name, F in maps:
        if not map_facts[name]["culf"]:
            continue
        for side in ("upper", "lower"):
            if is_2segal(F.target, side).passed:
                hits += 1
                if not is_2segal(F.source, side).passed:
                    bad.append(f"{name}:{side}")
    entries.append(_entry("cheatsheet:culf-into-2segal",
                          "culf into upper/lower 2-Segal pulls the condition back",
                          not bad, hits, bad))

    # 2-Segal makes both counits culf
    hits, bad = 0, []
    for name, f in sset_facts.items():
        if f["upper"] and f["lower"]:
            hits += 1
            if not (f["culf_bot"] and f["culf_top"]):
                bad.append(name)
    entries.append(_entry("cheatsheet:2segal-counits-culf",
                          "2-Segal => both counits culf", not bad, hits, bad))

    # edgewise subdivision detects the 2-Segal condition
    bad = [n for n, f in sset_facts.items()
           if (f["upper"] and f["lower"]) != f["sd_segal"]]
    entries.append(_entry("cheatsheet:edgewise-detects-2segal",
                          "2-Segal <=> subdivision Segal", not bad, len(sset_facts), bad))

    # stability makes vertical active maps cartesian between rows
    hits, bad = 0, []
    for name, f in sset_facts.items():
        if not (f["upper"] and f["lower"]):
            continue
        X = dict(corpus)[name]
        T = tot(X)
        if not stability(T, "both").passed:
            bad.append(f"{name}:tot-not-stable")
            continue
        for mname, m in vertical_active_row_maps(T)[:4]:
            hits += 1
            if not cartesian_on(m, "all").passed:
                bad.append(f"{name}:{mname}")
    entries.append(_entry("cheatsheet:stable-active-cartesian",
                          "stable => vertical active maps cartesian between rows",
                          not bad, hits, bad))

    return _finish("cheatsheet", entries, trunc)


def presentation_suite(bound: int = 4) -> dict:
    """Certify the generator-and-relation description of the bead calculus."""
    entries = []
    rel = abacus.relation_suite(bound, bound)
    entries.append(_entry_from_report("presentation:relations",
                                      "all relation instances hold as bead maps", rel))
    trap = abacus.trapezium_suite(bound)
    entries.append(_entry_from_report("presentation:trapezium",
                                      "trapezium equations hold at all legal indices", trap))
    closure = abacus.word_closure_homs(bound)
    objs = abacus.objects_of_degree(bound)
    bad = []
    count = 0
    for src in objs:
        for tgt in objs:
            count += 1
            if len(abacus.hom_enumerate(src, tgt)) != len(closure.get((src, tgt), set())):
                bad.append(f"{src}->{tgt}")
    entries.append(_entry("presentation:hom-counts",
                          "enumerated hom sets match generator-word closure",
                          not bad, count, bad))
    spot = (len(abacus.hom_enumerate(abacus.DObject(0, 0), abacus.DObject(0, 0))) == 2
            and len(abacus.hom_enumerate(abacus.DObject(0, 0), abacus.DObject(0, -1))) == 1)
    entries.append(_entry("presentation:spot-values",
                          "frozen hom-set sizes at the base objects", spot, 2))
    bad = []
    count = 0
    for src in objs:
        for tgt in objs:
            for g in abacus.hom_enumerate(src, tgt):
                count += 1
                ab, simp = abacus.factorize(g)
                if abacus.recompose(ab, simp) != g or len(ab) != g.whites_turned_black():
                    bad.append(str(g))
    entries.append(_entry("presentation:factorization",
                          "every morphism splits as abacus word then color-preserving word",
                          not bad, count, bad))
    return _finish("presentation", entries, bound)


def _star_fixtures(trunc: int):
    fixtures = []
    for name, F in standard_map_corpus(trunc):
        fixtures.append((name, q_lower_star(F), True))
    neg = collapse_aug_row(q_lower_star(identity_smap(nerve(chain_poset(1), trunc))))
    fixtures.append(("collapsed-aug-row", neg, False))
    return fixtures


def star_suite(trunc: int = 4) -> dict:
    """The cartesian-abacus condition against unit invertibility."""
    fixtures = _star_fixtures(trunc)

    def run(item):
        name, B, positive = item
        v = validate(B)
        star = condition_star(B)
        unit = unit_iso(B)
        return name, positive, v, star, unit

    results = list(map(run, fixtures))
    entries = []
    bad_valid = [n for n, _, v, _, _ in results if not v.passed]
    entries.append(_entry("star:fixtures-validate", "every fixture is a genuine presheaf",
                          not bad_valid, len(results), bad_valid))
    bad = [n for n, _, _, star, unit in results if star.passed != unit.passed]
    entries.append(_entry("star:biconditional",
                          "cartesian abacus rows <=> unit bijective, on every fixture",
                          not bad, len(results), bad))
    bad = [n for n, pos, _, star, _ in results if pos and not star.passed]
    entries.append(_entry("star:images-satisfy",
                          "Kan-extension images satisfy the cartesian condition",
                          not bad, sum(1 for _, p, _, _, _ in results if p), bad))
    bad = [n for n, pos, _, star, _ in results if not pos and star.passed]
    entries.append(_entry("star:negative-fails",
                          "the crafted negative fixture fails the condition",
                          not bad, sum(1 for _, p, _, _, _ in results if not p), bad))
    return _finish("star", entries, trunc)


def _dictionary_maps(trunc: int):
    maps = standard_map_corpus(trunc)
    maps.append(("id-punctured3", identity_smap(punctured_chain_sset(3, trunc))))
    maps.append(("id-punctured4", identity_smap(punctured_chain_sset(4, trunc))))
    return maps


def dictionary_suite(trunc: int = 4) -> dict:
    """Bicomodule configurations against the three map conditions, the
    invertibility characterization, and the packaged total space."""
    maps = _dictionary_maps(trunc)

    def run(item):
        name, F = item
        B = q_lower_star(F)
        conds = dictionary_conditions(F)
        lhs = all(r.passed for r in conds.values())
        return {
            "name": name,
            "lhs": lhs,
            "bicomodule": is_bicomodule_config(B).passed,
            "invertible": has_invertible_abacus(B).passed,
            "bijective": all(
                sorted(map(str, set(F.levels[n].values()))) == sorted(map(str, F.target.level(n)))
                and len(set(F.levels[n].values())) == len(F.levels[n])
                for n in range(min(F.source.trunc, F.target.trunc) + 1)
            ),
            "m_dict": m_2segal_dictionary(F).passed,
        }

    rows = list(map(run, maps))
    entries = []
    bad = [r["name"] for r in rows if r["lhs"] != r["bicomodule"]]
    entries.append(_entry("dictionary:bicomodule-matches-conditions",
                          "bicomodule configuration <=> 2-Segal ends and relative upper condition",
                          not bad, len(rows), bad))
    neg = [r["name"] for r in rows if not r["lhs"]]
    entries.append(_entry("dictionary:has-negatives",
                          "the corpus exercises failing cases", len(neg) >= 2, len(neg)))
    bad = [r["name"] for r in rows if r["invertible"] != r["bijective"]]
    entries.append(_entry("dictionary:invertible-iff-bijective",
                          "invertible abacus actions <=> levelwise bijective map",
                          not bad, len(rows), bad))
    bad = [r["name"] for r in rows if not r["m_dict"]]
    entries.append(_entry("dictionary:packaged-total-space",
                          "2-Segal packaged total space <=> the map conditions",
                          not bad, len(rows), bad))
    return _finish("dictionary", entries, trunc)


def boors_suite(trunc: int = 5) -> dict:
    """The pointing equivalence round trip on the 2-Segal corpus."""
    corpus = [(n, X) for n, X in standard_nerve_corpus(trunc)
              if is_2segal(X, "both").passed]

    def run(item):
        name, X = item
        return name, boors_roundtrip(X)

    results = list(map(run, corpus))
    entries = []
    keys = ["axioms", "extension_valid", "invertible_abacus", "ts_compat",
            "invertibility_pair", "pointing_restriction", "iso_with_kan"]
    statements = {
        "axioms": "pointed total decalage satisfies the pointing axioms",
        "extension_valid": "the extension is a genuine abacus presheaf",
        "invertible_abacus": "extended splittings make every abacus action invertible",
        "ts_compat": "top degeneracy and top splitting agree after the bottom splitting",
        "invertibility_pair": "the two splittings compose to mutually inverse maps",
        "pointing_restriction": "restricting the extension returns the input exactly",
        "iso_with_kan": "the extension is isomorphic to the Kan extension of the identity",
    }
    for key in keys:
        bad = [n for n, rt in results if key not in rt or not rt[key].passed]
        entries.append(_entry(f"boors:{key}", statements[key], not bad, len(results), bad))
    return _finish("boors", entries, trunc)


def half_axioms_suite(trunc: int = 5) -> dict:
    """The one-sided extension round trip, away from the augmentation row."""
    maps = [
        ("incl-chain12", poset_inclusion(chain_poset(1), chain_poset(2), trunc)),
        ("incl-chain23", poset_inclusion(chain_poset(2), chain_poset(3), trunc)),
        ("id-chain2", identity_smap(nerve(chain_poset(2), trunc))),
        ("id-partial", identity_smap(two_segal_partial_monoid(trunc))),
        ("incl-chain13", poset_inclusion(chain_poset(1), chain_poset(3), trunc)),
    ]

    def run(item):
        name, F = item
        return name, half_roundtrip(F)

    results = list(map(run, maps))
    entries = []
    for key, statement in [
        ("half_axioms", "restrictions satisfy the horizontal half of the axioms"),
        ("extension_valid", "the one-sided extension is a genuine presheaf"),
        ("pointing_restriction", "restricting the extension returns the input exactly"),
        ("iso_with_kan", "the extension matches the Kan extension away from the augmentation row"),
    ]:
        bad = [n for n, rt in results if key not in rt or not rt[key].passed]
        entries.append(_entry(f"half:{key}", statement, not bad, len(results), bad))
    vertical_fails = [n for n, rt in results if not rt["full_axioms"].passed]
    entries.append(_entry("half:vertical-axiom-fails-somewhere",
                          "the corpus includes inputs failing the vertical pointing axiom",
                          len(vertical_fails) >= 1, len(vertical_fails)))
    return _finish("half-axioms", entries, trunc)


def edgewise_suite(trunc: int = 5) -> dict:
    """Subdivision detects the 2-Segal condition and culf maps."""
    corpus = standard_nerve_corpus(trunc)
    corpus.append(("punctured3", punctured_chain_sset(3, trunc)))
    corpus.append(("punctured4", punctured_chain_sset(4, trunc)))
    maps = standard_map_corpus(trunc)

    def run_sset(item):
        name, X = item
        return name, is_2segal(X, "both").passed, is_segal(sd(X)).passed

    def run_map(item):
        name, F = item
        return name, is_culf(F).passed, is_right_fibration(sd_map(F)).passed

    srows = list(map(run_sset, corpus))
    mrows = list(map(run_map, maps))
    entries = []
    bad = [n for n, a, b in srows if a != b]
    entries.append(_entry("edgewise:2segal-iff-sd-segal",
                          "2-Segal <=> subdivision Segal", not bad, len(srows), bad))
    bad = [n for n, a, b in mrows if a != b]
    entries.append(_entry("edgewise:culf-iff-sd-rfib",
                          "culf <=> subdivision right fibration", not bad, len(mrows), bad))
    return _finish("edgewise", entries, trunc)


SUITES = {
    "cheatsheet": cheatsheet_suite,
    "presentation": presentation_suite,
    "star": star_suite,
    "dictionary": dictionary_suite,
    "boors": boors_suite,
    "half-axioms": half_axioms_suite,
    "edgewise": edgewise_suite,
}
