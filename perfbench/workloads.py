"""Workload definitions, the expected-verdict table and the metric names.

Every expected verdict below is derived from the mathematics each suite
entry states, not from a recorded run: a true theorem with instances under
the truncation must ``pass``; a statement with nothing checkable under the
truncation must be ``vacuous``.
"""

from __future__ import annotations

# Suite steps: (step name, function in segal_abacus.suites, keyword arguments).
# No ``jobs=`` argument: the suites run serially, as users run them.


def suite_steps(workload: str, seed: int):
    if workload == "star-simplicial":
        return [("star", "star_suite", {"trunc": 4}),
                ("cheatsheet", "cheatsheet_suite", {"trunc": 5, "seed": seed}),
                ("edgewise", "edgewise_suite", {"trunc": 5}),
                ("edgewise-t4", "edgewise_suite", {"trunc": 4})]
    if workload == "roundtrip":
        return [("boors", "boors_suite", {"trunc": 5}),
                ("half-axioms", "half_axioms_suite", {"trunc": 5}),
                ("dictionary", "dictionary_suite", {"trunc": 4})]
    raise ValueError(workload)


# The README pipeline, one fresh process per command, in this order (later
# commands read the files earlier ones write).  Third field: the exit code
# the mathematics demands (0 pass, 1 fail).
CLI_STEPS = [
    ("gen-nerve-poset", ["gen", "nerve-poset", "--size", "2", "--out", "N.json"], 0),
    ("gen-partial-monoid", ["gen", "partial-monoid", "--out", "P.json"], 0),
    # The two-element partial monoid is 2-Segal but not Segal: its
    # composable pair (a, a) has no composite.
    ("check-segal", ["check", "segal", "P.json"], 1),
    ("check-2segal", ["check", "2segal", "P.json"], 0),
    ("construct-boors-tot", ["construct", "boors-tot", "--in", "N.json", "--out", "A.json"], 0),
    ("construct-extend", ["construct", "extend", "--in", "A.json", "--out", "B.json"], 0),
    # Boors' extension of a 2-Segal set has invertible abacus actions.
    ("check-invertible-abacus", ["check", "invertible-abacus", "B.json"], 0),
    ("construct-rtot", ["construct", "rtot", "--in", "N.json", "--out", "R.json"], 0),
    ("roundtrip-boors", ["roundtrip", "boors", "N.json"], 0),
    ("roundtrip-M", ["roundtrip", "M", "R.json"], 0),
    ("morphism", ["morphism", "[0,0,2]:3->3"], 0),
    ("run-suite-presentation", ["run-suite", "presentation", "--bound", "4"], 0),
]

WORKLOADS = ("star-simplicial", "roundtrip", "cli")

# Truncation at which each workload's probes enumerate maps and relations.
PROBE_TRUNC = {"star-simplicial": 5, "roundtrip": 5, "cli": 4}


def _all_pass(*ids):
    return {i: "pass" for i in ids}


# Expected verdict of every entry, per suite step.  Each entry states a
# theorem of the paper (or of Dyckerhoff-Kapranov / Galvez-Kock-Tonks) or a
# property the corpus was built to have, so it passes whenever it has
# instances under the truncation.
EXPECTED = {
    "star": _all_pass(
        "star:fixtures-validate", "star:biconditional", "star:images-satisfy",
        "star:negative-fails"),
    "boors": _all_pass(*(f"boors:{k}" for k in (
        "axioms", "extension_valid", "invertible_abacus", "ts_compat",
        "invertibility_pair", "pointing_restriction", "iso_with_kan"))),
    "half-axioms": _all_pass(
        "half:half_axioms", "half:extension_valid", "half:pointing_restriction",
        "half:iso_with_kan", "half:vertical-axiom-fails-somewhere"),
    # Two identity maps of punctured chains (not 2-Segal) are in the corpus,
    # so has-negatives has its two negatives.
    "dictionary": _all_pass(
        "dictionary:bicomodule-matches-conditions", "dictionary:has-negatives",
        "dictionary:invertible-iff-bijective", "dictionary:packaged-total-space"),
    "cheatsheet": _all_pass(*(f"cheatsheet:{k}" for k in (
        "segal-iff-counit-fibrations", "culf-dec-fibrations", "fibration-dec-cartesian",
        "fibration-over-segal", "culf-into-2segal", "2segal-counits-culf",
        "edgewise-detects-2segal", "stable-active-cartesian"))),
    # At truncation 5, sd X has truncation 2 (X_{2n+1} needs 2n+1 <= 5), so
    # the Segal condition of sd X has instances.
    "edgewise": _all_pass("edgewise:2segal-iff-sd-segal", "edgewise:culf-iff-sd-rfib"),
    # At truncation 4, sd X has truncation 1: no Segal square of sd X is
    # checkable, so the biconditional is unverifiable, hence vacuous.  The
    # right-fibration side needs only levels 0 and 1 and still has instances.
    "edgewise-t4": {"edgewise:2segal-iff-sd-segal": "vacuous",
                    "edgewise:culf-iff-sd-rfib": "pass"},
}

# Mismatches the benchmark counts as failed entries without calling the run
# incorrect, because they are open defects of the program, not of the
# benchmark.  A fix makes them match; any other mismatch marks the run
# incorrect.
KNOWN_DEFECTS = {
    ("edgewise-t4", "edgewise:2segal-iff-sd-segal"):
        "a vacuous is_segal(sd X) is counted as passed, so the entry reads fail",
}

# The entry whose instance count is the number of fixtures a suite ran over.
FIXTURE_ENTRY = {
    "star": "star:fixtures-validate",
    "boors": "boors:axioms",
    "half-axioms": "half:extension_valid",
    "dictionary": "dictionary:invertible-iff-bijective",
    "cheatsheet": "cheatsheet:segal-iff-counit-fibrations",
    "edgewise": "edgewise:2segal-iff-sd-segal",
    "edgewise-t4": "edgewise:2segal-iff-sd-segal",
    "run-suite-presentation": "presentation:hom-counts",
}

SUITE_NAMES = ("star", "boors", "half-axioms", "dictionary", "cheatsheet",
               "edgewise", "edgewise-t4", "presentation")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verdict_pass_frac", "ratio"),
]


def per_layer_metrics():
    """Every per-layer metric name with its unit and direction, in order."""
    out = []

    def add(name, unit, better):
        out.append((name, unit, better))

    stat_unit = {"self_s": ("s", "lower"), "calls": ("count", "lower"),
                 "checked": ("count", "higher"), "elements": ("count", "higher"),
                 "ids": ("count", "lower"), "count": ("count", "higher"),
                 "bytes": ("bytes", "lower"), "us_per_call": ("us", "lower")}

    def layer(prefix, stats):
        for s in stats:
            add(f"{prefix}.{s}", *stat_unit[s])

    layer("presheaf.validate", ("self_s", "calls", "checked"))
    layer("presheaf.idkey_sort", ("self_s", "ids"))
    for f in ("q_lower_star", "p_star_tot", "extend_sigma_to_d", "build_M", "r_star",
              "j_upper_star"):
        layer(f"configurations.{f}", ("self_s", "calls", "elements"))
    for f in ("condition_star", "unit_iso", "boors_axioms", "has_invertible_abacus",
              "is_bicomodule_config", "dset_iso_report", "m_2segal_dictionary"):
        layer(f"configurations.{f}", ("self_s", "checked"))
    for f in ("cartesian_on", "is_segal", "is_2segal", "stability"):
        layer(f"fibrations.{f}", ("self_s", "checked"))
    for f in ("dec", "counit", "sd", "tot"):
        layer(f"decalage.{f}", ("self_s", "elements"))
    for f in ("epi_mono_factor", "compose_monotone"):
        layer(f"simplex.{f}", ("us_per_call", "calls"))
    layer("abacus.relation_instances", ("self_s", "count"))
    layer("abacus.bead_compose", ("us_per_call", "calls"))
    for f in ("hom_enumerate", "word_closure_homs", "factorize"):
        layer(f"abacus.{f}", ("self_s",))
    layer("abacus.bead_calculus", ("self_s", "calls"))
    layer("corpus.build", ("self_s", "elements"))
    layer("pjson.dump", ("self_s", "bytes"))
    layer("pjson.load", ("self_s",))
    add("cli.startup_s", "s", "lower")
    for name, _, _ in CLI_STEPS:
        add(f"cli.{name}.wall_s", "s", "lower")
    for name in SUITE_NAMES:
        add(f"suites.{name}.wall_s", "s", "lower")
    add("trace.overhead_frac", "ratio", "lower")
    add("trace.unattributed_frac", "ratio", "lower")
    return out
