"""Named verification suites over generated corpora.

Each suite returns a plain dict with one entry per checked statement:
stable ids, verdicts, witnesses, and the verified depth.  A suite reads
each check's ``holds`` (True on pass, False on fail, None when the check
is vacuous or its precondition failed), never ``passed``, which also
holds for a vacuous check.  An entry's rows are its instances only where
every check the row reads is decided: a row whose hypothesis or
conclusion is undecided under the truncation is neither an instance nor
a witness, so an entry that could decide nothing reports vacuous rather
than passing or failing.  Conclusions are computed only for rows whose
hypothesis holds.

The entry helpers live in ``reports``.  The presentation suite checks
the bead calculus alone, so it lives in ``abacus``; ``cli`` names the
module of each suite that ``run-suite`` runs.
"""

from __future__ import annotations

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
from .presheaf import deciding_once, identity_smap, is_bijection, validate
from .reports import _entry, _finish, _tally


def _exists(eid: str, statement: str, outcomes, need: int):
    """An existence entry: at least ``need`` decided outcomes are False.
    Vacuous when no outcome is decided."""
    decided = [ok for ok in outcomes if ok is not None]
    hits = decided.count(False)
    short = decided and hits < need
    return _entry(eid, statement, hits, [f"{hits} found, want at least {need}"] if short else [])


def _iff(*truths):
    """Whether decided truths agree; None when any is undecided."""
    return None if None in truths else len(set(truths)) == 1


# ---------------------------------------------------------------------------


@deciding_once()
def cheatsheet_suite(trunc: int = 5, max_size: int = 4, seed: int | None = None) -> dict:
    """The standard-facts suite over nerves, the partial-monoid fixture,
    and a family of structural maps.

    Each nerve's two counits are built once and checked as maps of the
    corpus.  A decalage, counit or ``dec_map`` holds its source's tables,
    so many of the suite's pullback squares are one square made of the
    same objects (``dec_map(F, "bottom")``'s d_k square is F's d_{k+1}
    square); the call runs inside ``presheaf.deciding_once``, which
    decides each such square once."""
    corpus = standard_nerve_corpus(trunc)
    if seed is not None:
        corpus = corpus + random_poset_corpus(4, max_size, seed, trunc)
    maps = standard_map_corpus(trunc)
    for name, X in corpus:
        maps.append((f"counit-top-{name}", counit(X, "top")))
        maps.append((f"counit-bot-{name}", counit(X, "bottom")))

    map_facts = {
        name: {
            "culf": is_culf(F).holds,
            "lfib": is_left_fibration(F).holds,
            "rfib": is_right_fibration(F).holds,
        }
        for name, F in maps
    }
    sset_facts = {
        name: {
            "segal": is_segal(X).holds,
            "upper": is_2segal(X, "upper").holds,
            "lower": is_2segal(X, "lower").holds,
            "eps_top_rfib": map_facts[f"counit-top-{name}"]["rfib"],
            "eps_bot_lfib": map_facts[f"counit-bot-{name}"]["lfib"],
            "culf_bot": map_facts[f"counit-bot-{name}"]["culf"],
            "culf_top": map_facts[f"counit-top-{name}"]["culf"],
            "sd_segal": is_segal(sd(X)).holds,
        }
        for name, X in corpus
    }

    # Conclusions joined with ``and`` stop at the first that does not hold:
    # False (refuted) or None (undecided).
    def culf_dec_fibrations():
        for name, F in maps:
            if map_facts[name]["culf"]:
                yield name, (is_left_fibration(dec_map(F, "top")).holds
                             and is_right_fibration(dec_map(F, "bottom")).holds)

    def fibration_dec_cartesian():
        for name, F in maps:
            if map_facts[name]["lfib"]:
                yield name, cartesian_on(dec_map(F, "bottom"), "all").holds
            if map_facts[name]["rfib"]:
                yield name, cartesian_on(dec_map(F, "top"), "all").holds

    def fibration_over_segal():
        for name, F in maps:
            if (map_facts[name]["lfib"] or map_facts[name]["rfib"]) and is_segal(F.target).holds:
                yield name, is_segal(F.source).holds

    def culf_into_2segal():
        for name, F in maps:
            if not map_facts[name]["culf"]:
                continue
            for side in ("upper", "lower"):
                if is_2segal(F.target, side).holds:
                    yield f"{name}:{side}", is_2segal(F.source, side).holds

    def stable_active_cartesian():
        for name, f in sset_facts.items():
            if not (f["upper"] and f["lower"]):
                continue
            T = tot(dict(corpus)[name])
            stable = stability(T, "both").holds
            if stable is False:
                yield f"{name}:tot-not-stable", False
            elif stable:
                for mname, m in vertical_active_row_maps(T)[:4]:
                    yield f"{name}:{mname}", cartesian_on(m, "all").holds

    entries = [
        _tally("cheatsheet:segal-iff-counit-fibrations",
               "Segal <=> top counit right fibration <=> bottom counit left fibration",
               ((n, _iff(f["segal"], f["eps_top_rfib"], f["eps_bot_lfib"]))
                for n, f in sset_facts.items())),
        _tally("cheatsheet:culf-dec-fibrations",
               "culf => top dec left fibration and bottom dec right fibration",
               culf_dec_fibrations()),
        _tally("cheatsheet:fibration-dec-cartesian",
               "left/right fibration => bottom/top dec cartesian", fibration_dec_cartesian()),
        _tally("cheatsheet:fibration-over-segal",
               "fibration over Segal base => Segal total space", fibration_over_segal()),
        _tally("cheatsheet:culf-into-2segal",
               "culf into upper/lower 2-Segal pulls the condition back", culf_into_2segal()),
        _tally("cheatsheet:2segal-counits-culf", "2-Segal => both counits culf",
               ((n, f["culf_bot"] and f["culf_top"])
                for n, f in sset_facts.items() if f["upper"] and f["lower"])),
        _tally("cheatsheet:edgewise-detects-2segal", "2-Segal <=> subdivision Segal",
               ((n, _iff(f["upper"] and f["lower"], f["sd_segal"]))
                for n, f in sset_facts.items())),
        _tally("cheatsheet:stable-active-cartesian",
               "stable => vertical active maps cartesian between rows",
               stable_active_cartesian()),
    ]
    return _finish("cheatsheet", entries, trunc)


def _star_fixtures(trunc: int):
    fixtures = []
    for name, F in standard_map_corpus(trunc):
        fixtures.append((name, q_lower_star(F), True))
    neg = collapse_aug_row(q_lower_star(identity_smap(nerve(chain_poset(1), trunc))))
    fixtures.append(("collapsed-aug-row", neg, False))
    return fixtures


def star_suite(trunc: int = 4) -> dict:
    """The cartesian-abacus condition against unit invertibility."""
    results = [(name, positive, validate(B).holds, condition_star(B).holds, unit_iso(B).holds)
               for name, B, positive in _star_fixtures(trunc)]
    entries = [
        _tally("star:fixtures-validate", "every fixture is a genuine presheaf",
               ((n, valid) for n, _, valid, _, _ in results)),
        _tally("star:biconditional",
               "cartesian abacus rows <=> unit bijective, on every fixture",
               ((n, _iff(star, unit)) for n, _, _, star, unit in results)),
        _tally("star:images-satisfy",
               "Kan-extension images satisfy the cartesian condition",
               ((n, star) for n, pos, _, star, _ in results if pos)),
        _tally("star:negative-fails",
               "the crafted negative fixture fails the condition",
               ((n, _iff(star, False)) for n, pos, _, star, _ in results if not pos)),
    ]
    return _finish("star", entries, trunc)


def _dictionary_maps(trunc: int):
    maps = standard_map_corpus(trunc)
    maps.append(("id-punctured3", identity_smap(punctured_chain_sset(3, trunc))))
    maps.append(("id-punctured4", identity_smap(punctured_chain_sset(4, trunc))))
    return maps


def dictionary_suite(trunc: int = 4) -> dict:
    """Bicomodule configurations against the three map conditions, the
    invertibility characterization, and the packaged total space."""
    rows = []
    for name, F in _dictionary_maps(trunc):
        B = q_lower_star(F)
        conds = dictionary_conditions(F)
        holds = [r.holds for r in conds.values()]
        rows.append({
            "name": name,
            "lhs": None if None in holds else all(holds),
            "bicomodule": is_bicomodule_config(B).holds,
            "invertible": has_invertible_abacus(B).holds,
            "bijective": all(is_bijection(F.levels[n].values(), F.target.level(n))
                             for n in range(F.trunc + 1)),
            "m_dict": m_2segal_dictionary(conds, B).holds,
        })
    entries = [
        _tally("dictionary:bicomodule-matches-conditions",
               "bicomodule configuration <=> 2-Segal ends and relative upper condition",
               ((r["name"], _iff(r["lhs"], r["bicomodule"])) for r in rows)),
        _exists("dictionary:has-negatives", "the corpus exercises failing cases",
                (r["lhs"] for r in rows), 2),
        _tally("dictionary:invertible-iff-bijective",
               "invertible abacus actions <=> levelwise bijective map",
               ((r["name"], _iff(r["invertible"], r["bijective"])) for r in rows)),
        _tally("dictionary:packaged-total-space",
               "2-Segal packaged total space <=> the map conditions",
               ((r["name"], r["m_dict"]) for r in rows)),
    ]
    return _finish("dictionary", entries, trunc)


def _roundtrip_entries(prefix: str, statements, results) -> list:
    """One entry per ``(key, statement)`` pair, in order: each round trip's
    report under that key, undecided where the round trip stopped before
    it."""
    return [_tally(f"{prefix}:{key}", statement,
                   ((n, rt[key].holds if key in rt else None) for n, rt in results))
            for key, statement in statements]


def boors_suite(trunc: int = 5) -> dict:
    """The pointing equivalence round trip on the 2-Segal corpus."""
    results = [(n, boors_roundtrip(X)) for n, X in standard_nerve_corpus(trunc)
               if is_2segal(X, "both").holds]
    entries = _roundtrip_entries("boors", [
        ("axioms", "pointed total decalage satisfies the pointing axioms"),
        ("extension_valid", "the extension is a genuine abacus presheaf"),
        ("invertible_abacus", "extended splittings make every abacus action invertible"),
        ("ts_compat", "top degeneracy and top splitting agree after the bottom splitting"),
        ("invertibility_pair", "the two splittings compose to mutually inverse maps"),
        ("pointing_restriction", "restricting the extension returns the input exactly"),
        ("iso_with_kan", "the extension is isomorphic to the Kan extension of the identity"),
    ], results)
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
    results = [(name, half_roundtrip(F)) for name, F in maps]
    entries = _roundtrip_entries("half", [
        ("half_axioms", "restrictions satisfy the horizontal half of the axioms"),
        ("extension_valid", "the one-sided extension is a genuine presheaf"),
        ("pointing_restriction", "restricting the extension returns the input exactly"),
        ("iso_with_kan", "the extension matches the Kan extension away from the augmentation row"),
    ], results)
    entries.append(_exists("half:vertical-axiom-fails-somewhere",
                           "the corpus includes inputs failing the vertical pointing axiom",
                           (rt["vertical_pointing"].holds for _, rt in results), 1))
    return _finish("half-axioms", entries, trunc)


def edgewise_suite(trunc: int = 5) -> dict:
    """Subdivision detects the 2-Segal condition and culf maps."""
    corpus = standard_nerve_corpus(trunc)
    corpus.append(("punctured3", punctured_chain_sset(3, trunc)))
    corpus.append(("punctured4", punctured_chain_sset(4, trunc)))
    maps = standard_map_corpus(trunc)

    entries = [
        _tally("edgewise:2segal-iff-sd-segal", "2-Segal <=> subdivision Segal",
               [(n, _iff(is_2segal(X, "both").holds, is_segal(sd(X)).holds))
                for n, X in corpus]),
        _tally("edgewise:culf-iff-sd-rfib", "culf <=> subdivision right fibration",
               [(n, _iff(is_culf(F).holds, is_right_fibration(sd_map(F)).holds))
                for n, F in maps]),
    ]
    return _finish("edgewise", entries, trunc)

