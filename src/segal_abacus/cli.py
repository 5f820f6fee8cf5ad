"""Batch tool: generate fixtures, validate, check axioms, run constructions
and theorem round trips.

Each command but ``morphism`` dispatches from one table, which gives the
parser its choices and names each entry's input shapes and library
function.  This module imports only ``reports``; a command imports the
library modules it runs only when it runs (``check`` and ``run-suite``
through ``_library_module``), so a fresh process loads only those.

Exit codes (``reports.EXIT_CODES``): 0 pass, 1 fail, 2 invalid input, a
truncation too small for a construction, or a failed precondition, 3
vacuous coverage; ``main`` exits 4 on an internal error, with one line on
stderr.  A report that stdout cannot take exits 2 (``_emit``).  Reports
are deterministic: canonical ordering throughout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .reports import EXIT_CODES, CheckReport, TruncationError

# suite name: (the module that holds the suite; the depth flag it takes;
# the least depth at which every construction it runs is defined; the
# suite, given that module).  Below that depth a suite would stop on a
# too-shallow decalage, subdivision or pointing restriction, so
# ``run-suite`` refuses it, and it refuses the depth flag a suite does not
# take.  A suite runs at its flag's default depth when the flag is not given.
_DEFAULT_DEPTH = {"trunc": 5, "bound": 4}
_SUITES = {
    "boors": ("suites", "trunc", 3, lambda m: m.boors_suite),
    "cheatsheet": ("suites", "trunc", 2, lambda m: m.cheatsheet_suite),
    "dictionary": ("suites", "trunc", 0, lambda m: m.dictionary_suite),
    "edgewise": ("suites", "trunc", 1, lambda m: m.edgewise_suite),
    "half-axioms": ("suites", "trunc", 3, lambda m: m.half_axioms_suite),
    "presentation": ("abacus", "bound", 0, lambda m: m.presentation_suite),
    "star": ("suites", "trunc", 0, lambda m: m.star_suite),
}
SUITE_NAMES = tuple(sorted(_SUITES))


def _resolve(path: str) -> str:
    if path and not os.path.isabs(path) and not os.path.exists(path):
        root = os.environ.get("SEGAL_ABACUS_FIXTURES")
        if root and os.path.exists(os.path.join(root, path)):
            return os.path.join(root, path)
    return path


def _emit(payload: dict, fmt: str) -> None:
    """Print the report; a stdout that cannot take it (a closed pipe, a
    full device) is invalid output, like an unwritable ``--out``: exit 2."""
    try:
        if fmt == "json":
            print(json.dumps(payload, sort_keys=True, indent=1))
        else:
            _emit_text(payload)
        sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write stdout: {exc}", file=sys.stderr)
        # the unwritten buffer drains into devnull at exit, not into a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(2)


def _emit_text(payload: dict, indent: str = "") -> None:
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        elif isinstance(val, list):
            print(f"{indent}{key}: [{len(val)} items]")
            for item in val[:10]:
                print(f"{indent}  - {item}")
        else:
            print(f"{indent}{key}: {val}")


def _report_exit(rep: CheckReport, fmt: str) -> int:
    _emit(rep.to_dict(), fmt)
    return rep.exit_code()


def _below(flag: str, value, least: int = 0) -> bool:
    """Say so on stderr when an option is below its least value."""
    if value is None or value >= least:
        return False
    print(f"--{flag} must be at least {least}, got {value}", file=sys.stderr)
    return True


# ---------------------------------------------------------------------------
# gen


# the preset a kind builds when --preset is not given
_DEFAULT_PRESET = {"graph": "glued", "nerve-category": "walkiso"}

# gen fixture, by (kind, preset), the preset None where --preset is not given:
# (its --size as (least, default), None for a fixed fixture, which rejects
# --size; its builder, given the corpus module c, the size n and the
# truncation T).  gen lists kinds, presets and the fixtures that take --size
# in this order.
_FIXTURES = {
    ("nerve-poset", None): ((0, 2), lambda c, n, T: c.nerve(c.chain_poset(n), T)),
    ("nerve-poset", "diamond"): (None, lambda c, n, T: c.nerve(c.diamond_poset(), T)),
    ("nerve-poset", "vee"): (None, lambda c, n, T: c.nerve(
        c.poset_cat("vee", ["a", "b", "c"], lambda x, y: x == y or x == "a"), T)),
    ("nerve-poset", "wedge"): (None, lambda c, n, T: c.nerve(
        c.poset_cat("wedge", ["a", "b", "c"], lambda x, y: x == y or y == "c"), T)),
    ("nerve-category", "walkiso"): (None, lambda c, n, T: c.nerve(c.walking_iso_cat(), T)),
    ("nerve-category", "parallel"): (None, lambda c, n, T: c.nerve(c.parallel_arrows_cat(), T)),
    ("nerve-monoid", None): ((1, 2), lambda c, n, T: c.nerve(c.cyclic_monoid(n), T)),
    ("nerve-monoid", "idem"): (None, lambda c, n, T: c.nerve(c.idempotent_monoid(), T)),
    ("partial-monoid", None): (None, lambda c, n, T: c.two_segal_partial_monoid(T)),
    ("simplex", None): ((0, 1), lambda c, n, T: c.nerve(c.chain_poset(n), T)),
    ("constant", None): ((0, 3), lambda c, n, T: _constant(n, T)),
    ("boolean-lattice", None): ((0, 2), lambda c, n, T: c.nerve(c.boolean_lattice(n), T)),
    ("graph", "glued"): (None, lambda c, n, T: c.glued_edges_sset(T)),
    ("punctured-chain", None): ((3, 3), lambda c, n, T: c.punctured_chain_sset(n, T)),
    ("graph", "path"): ((0, 2), lambda c, n, T: c.path_graph_sset(n, T)),
}


def _constant(n: int, T: int):
    """The constant simplicial set on the points c0, ..., c(n-1), truncated at T."""
    from .presheaf import constant_sset

    return constant_sset([f"c{k}" for k in range(n)], T)


def _fixture_name(kind, preset) -> str:
    return kind if preset is None else f"{kind} --preset {preset}"


def _dump(P, path: str) -> bool:
    """Write P to path, or say on stderr why it cannot be written."""
    from . import pjson

    try:
        pjson.dump(P, path)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _gen(args) -> int:
    from . import corpus
    from .presheaf import validate

    T, kind, size = args.trunc, args.kind, args.size
    if _below("trunc", T):
        return 2
    presets = [p for k, p in _FIXTURES if k == kind and p is not None]
    if args.preset is not None and args.preset not in presets:
        print(f"gen {kind} has no preset {args.preset!r} (presets: {', '.join(presets) or 'none'})",
              file=sys.stderr)
        return 2
    preset = _DEFAULT_PRESET.get(kind) if args.preset is None else args.preset
    sizes, build = _FIXTURES[kind, preset]
    if size is not None and sizes is None:
        sized = (_fixture_name(*key) for key, (rule, _) in _FIXTURES.items() if rule is not None)
        print(f"gen {_fixture_name(kind, args.preset)} takes no --size (it applies to: "
              f"{', '.join(sized)})", file=sys.stderr)
        return 2
    if sizes is not None:
        if _below("size", size, sizes[0]):
            return 2
        size = sizes[1] if size is None else size
    out = build(corpus, size, T)
    rep = validate(out)
    if not rep.passed:
        _emit(rep.to_dict(), args.format)
        return 2
    if not _dump(out, args.out):
        return 2
    _emit({"wrote": args.out, "trunc": T,
           "sizes": {str(k): len(v) for k, v in sorted(out.levels.items(), key=lambda kv: str(kv[0]))}},
          args.format)
    return 0


# ---------------------------------------------------------------------------
# check


def _wrong_shape(P, shapes, what: str) -> bool:
    """Say so on stderr when P has none of the given pjson shapes."""
    from . import pjson

    shape = pjson.shape_of(P)
    if shapes is None or shape in shapes:
        return False
    print(f"{what} needs {' or '.join(shapes)} input, got {shape}", file=sys.stderr)
    return True


SSET, SMAP, DSET, GRID = ("sset",), ("smap",), ("dset",), ("bisset", "dset")

# check name: (the input shapes it accepts, None for any; the module that
# holds the checker; the checker, given that module, None where the check is
# validation itself, whose report the gate already has)
_CHECKS = {
    "validate": (None, None, None),
    "segal": (SSET, "fibrations", lambda m, P, a: m.is_segal(P)),
    "2segal": (SSET, "fibrations", lambda m, P, a: m.is_2segal(P, a.side)),
    "lfib": (SMAP, "fibrations", lambda m, P, a: m.is_left_fibration(P)),
    "rfib": (SMAP, "fibrations", lambda m, P, a: m.is_right_fibration(P)),
    "culf": (SMAP, "fibrations", lambda m, P, a: m.is_culf(P)),
    "stable": (GRID, "fibrations", lambda m, P, a: m.stability(P, a.side)),
    "double-segal": (GRID, "fibrations", lambda m, P, a: m.is_double_segal(P)),
    "reduced-stable": (GRID, "fibrations", lambda m, P, a: m.reduced_stability(P)),
    "star": (DSET, "configurations", lambda m, P, a: m.condition_star(P)),
    "unit-iso": (DSET, "configurations", lambda m, P, a: m.unit_iso(P)),
    "bicomodule": (DSET, "configurations", lambda m, P, a: m.is_bicomodule_config(P)),
    "invertible-abacus": (DSET, "configurations", lambda m, P, a: m.has_invertible_abacus(P)),
    "boors": (("sigmaset",), "configurations", lambda m, P, a: m.boors_axioms(P, half=a.half)),
    "ts-compat": (DSET, "configurations", lambda m, P, a: m.splitting_checks(P)["ts_compat"]),
    "rel-upper-2segal": (SMAP, "configurations", lambda m, P, a: m.is_rel_upper_2segal(P)),
    "rigid": (("split",), "decalage", lambda m, P, a: m.is_rigid(P)),
    "coalgebra": (("split",), None, None),
    "local-initial": (("pointed",), "decalage", lambda m, P, a: m.is_local_initial(P)),
    "local-terminal": (("pointed",), "decalage", lambda m, P, a: m.is_local_terminal(P)),
}


def _library_module(name: str):
    """The module of ``_CHECKS`` or ``_SUITES`` called ``name``, imported."""
    return getattr(__import__(__package__, fromlist=[name]), name)


def _check(args) -> int:
    from .presheaf import validate

    P = _load_or_none(args.file)
    shapes, home, checker = _CHECKS[args.check]
    if P is None or _wrong_shape(P, shapes, f"check {args.check}"):
        return 2
    base = validate(P)
    if args.check != "validate" and not base.passed:
        _emit({"name": args.check, "verdict": "invalid-input",
               "witnesses": [w.to_dict() for w in base.witnesses[:10]]}, args.format)
        return 2
    rep = base if checker is None else checker(_library_module(home), P, args)
    return _report_exit(rep, args.format)


def _load_or_none(path: str):
    """The presheaf in the file at path, or None after saying on stderr why
    it cannot be read."""
    from . import pjson

    try:
        return pjson.load(_resolve(path))
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# construct


# construct op: (the input shapes it takes; the construction, given the
# configurations module: the presheaf it writes, or for ``extend``, which
# validates what it builds, that presheaf (None where it refused the input)
# and its report)
_CONSTRUCTS = {
    "qstar": (SMAP, lambda cfg, P, a: cfg.q_lower_star(P)),
    "tot": (SSET, lambda cfg, P, a: cfg.tot(P)),
    "rtot": (SSET, lambda cfg, P, a: cfg.r_star(P)),
    "boors-tot": (SSET, lambda cfg, P, a: cfg.p_star_tot(P)),
    "extend": (("sigmaset",), lambda cfg, P, a: cfg.extend_sigma_to_d(P, half=a.half)[:2]),
    "M": (("smap", "dset"), lambda cfg, P, a: cfg.build_M(
        cfg.q_lower_star(P) if isinstance(P, cfg.SMap) else P)[1]),
}


def _construct(args) -> int:
    from . import configurations as cfg
    from .presheaf import validate

    shapes, construction = _CONSTRUCTS[args.op]
    P = _load_or_none(args.infile)
    if P is None or _wrong_shape(P, shapes, f"construct {args.op}"):
        return 2
    if not validate(P).passed:
        print("input does not validate", file=sys.stderr)
        return 2
    out = construction(cfg, P, args)
    out, rep = out if isinstance(out, tuple) else (out, validate(out))
    if out is None:
        return _report_exit(rep, args.format)
    if not _dump(out, args.out):
        return 2
    _emit({"wrote": args.out, "validates": rep.passed}, args.format)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# roundtrip


# roundtrip kind: (the input shapes it takes; the least input depth at which
# every construction it runs is defined; the round trip, given the
# configurations module: its named reports).  boors extends its input's
# pointed total decalage two levels lower (``p_star_tot``, then
# ``extend_sigma_to_d``) and restricts the extension to its pointing, which
# needs depth 1, so it needs 3; the constructions of star and M are defined
# at every depth.  Below it ``roundtrip`` refuses the input before any work.
_ROUNDTRIPS = {
    "boors": (SSET, 3, lambda cfg, P: cfg.boors_roundtrip(P)),
    "star": (SMAP, 0, lambda cfg, P: cfg.star_roundtrip(P)),
    "M": (("smap", "dset"), 0, lambda cfg, P: cfg.m_roundtrip(P)),
}


def _roundtrip(args) -> int:
    from . import configurations as cfg
    from .presheaf import sub_trunc, validate

    shapes, least, roundtrip = _ROUNDTRIPS[args.kind]
    P = _load_or_none(args.file)
    if (P is None or _wrong_shape(P, shapes, f"roundtrip {args.kind}")
            or _below("trunc", args.trunc)):
        return 2
    if args.trunc is not None:
        if args.kind != "boors":
            print(f"--trunc cuts the simplicial set of boors; {args.kind} runs at its input's depth",
                  file=sys.stderr)
            return 2
        if args.trunc > P.trunc:
            print(f"--trunc {args.trunc} is above the input's trunc {P.trunc}", file=sys.stderr)
            return 2
        P = sub_trunc(P, args.trunc)
    if P.trunc < least:
        print(f"roundtrip {args.kind} needs an input of trunc at least {least}, got {P.trunc}",
              file=sys.stderr)
        return 2
    if not validate(P).passed:
        print("input does not validate", file=sys.stderr)
        return 2
    reports = roundtrip(cfg, P)
    payload = {k: r.to_dict() for k, r in reports.items()}
    payload["depth"] = P.trunc
    _emit(payload, args.format)
    return CheckReport.conjunction("roundtrip", reports.values()).exit_code()


# ---------------------------------------------------------------------------
# morphism: parse, evaluate, and normalize either string form


def _morphism(args) -> int:
    from . import abacus, simplex

    text = args.text.strip()
    try:
        if "@[" in text and "," in text.split("@", 1)[1]:
            word = abacus.parse_bead_word(text)
            g = abacus.eval_bead_word(word)
            ab, simp = abacus.factorize(g)
            payload = {
                "kind": "bead",
                "source": str(g.src),
                "target": str(g.tgt),
                "carrier": str(g.carrier),
                "abacus_word": str(ab),
                "simplicial_word": str(simp),
            }
        elif "@[" in text:
            f = simplex.eval_delta_word(simplex.parse_delta_word(text))
            payload = {"kind": "monotone", "values": str(f)}
        else:
            f = simplex.parse_monotone(text)
            epi, mono = simplex.epi_mono_factor(f)
            word = simplex.GeneratorWord(epi.tokens + mono.tokens, f.dom_n)
            payload = {"kind": "monotone", "values": str(f), "word": str(word)}
    except (ValueError, KeyError) as exc:
        print(f"cannot parse morphism {text!r}: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return 0


# ---------------------------------------------------------------------------
# run-suite


def _run_suite(args) -> int:
    home, flag, least, suite = _SUITES[args.name]
    other = "bound" if flag == "trunc" else "trunc"
    if getattr(args, other) is not None:
        print(f"run-suite {args.name} takes --{flag}, not --{other}", file=sys.stderr)
        return 2
    depth = getattr(args, flag)
    depth = _DEFAULT_DEPTH[flag] if depth is None else depth
    if _below(flag, depth, least) or _below("max-size", args.max_size, 2):
        return 2
    if args.name != "cheatsheet" and (args.seed is not None or args.max_size is not None):
        print(f"--seed and --max-size add the random corpus of cheatsheet; {args.name} has none",
              file=sys.stderr)
        return 2
    if args.max_size is not None and args.seed is None:
        print("--max-size needs --seed: it sizes the random corpus that --seed adds", file=sys.stderr)
        return 2
    kwargs = {flag: depth}
    if args.name == "cheatsheet":
        kwargs["seed"] = args.seed
        if args.max_size is not None:
            kwargs["max_size"] = args.max_size
    rep = suite(_library_module(home))(**kwargs)
    _emit(rep, args.format)
    return EXIT_CODES[rep["verdict"]]


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="segal-abacus",
                                 description="finite 2-Segal / abacus-configuration toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a fixture")
    g.add_argument("kind", choices=list(dict.fromkeys(kind for kind, _ in _FIXTURES)))
    g.add_argument("--size", type=int)
    g.add_argument("--preset")
    g.add_argument("--trunc", type=int, default=5)
    g.add_argument("--out", required=True)
    g.add_argument("--format", choices=["json", "text"], default="json")
    g.set_defaults(fn=_gen)

    c = sub.add_parser("check", help="run one checker on a fixture file")
    c.add_argument("check", choices=list(_CHECKS))
    c.add_argument("file")
    c.add_argument("--side", choices=["upper", "lower", "both"], default="both")
    c.add_argument("--half", action="store_true")
    c.add_argument("--format", choices=["json", "text"], default="json")
    c.set_defaults(fn=_check)

    b = sub.add_parser("construct", help="run a construction on a fixture file")
    b.add_argument("op", choices=list(_CONSTRUCTS))
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--half", action="store_true")
    b.add_argument("--format", choices=["json", "text"], default="json")
    b.set_defaults(fn=_construct)

    r = sub.add_parser("roundtrip", help="run an equivalence round trip")
    r.add_argument("kind", choices=list(_ROUNDTRIPS))
    r.add_argument("file")
    r.add_argument("--trunc", type=int)
    r.add_argument("--format", choices=["json", "text"], default="json")
    r.set_defaults(fn=_roundtrip)

    m = sub.add_parser("morphism", help="parse and normalize a morphism string")
    m.add_argument("text", help='e.g. "[0,0,2]:3->3", "d1.s0@[2]", or "f.d0@[0,0]"')
    m.add_argument("--format", choices=["json", "text"], default="json")
    m.set_defaults(fn=_morphism)

    s = sub.add_parser("run-suite", help="run a named verification suite")
    s.add_argument("name", choices=SUITE_NAMES)
    s.add_argument("--trunc", type=int)
    s.add_argument("--bound", type=int)
    s.add_argument("--max-size", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--format", choices=["json", "text"], default="json")
    s.set_defaults(fn=_run_suite)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TruncationError as exc:  # the input is too shallow for a construction
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never a verdict of the mathematics
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
