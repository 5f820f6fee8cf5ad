import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segal_abacus import pjson
from segal_abacus.cli import main
from segal_abacus.corpus import chain_poset, nerve
from segal_abacus.presheaf import validate


def run(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout and the exit code."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, buf.getvalue()


def test_gen_and_validate(tmp_path):
    out = str(tmp_path / "n2.json")
    code, _ = run(["gen", "nerve-poset", "--size", "2", "--trunc", "4", "--out", out])
    assert code == 0
    code, text = run(["check", "validate", out])
    assert code == 0
    assert json.loads(text)["verdict"] == "pass"
    # size 0 is the one-vertex path, as it is the one-vertex simplex
    for kind in (["graph", "--preset", "path"], ["simplex"]):
        code, text = run(["gen", *kind, "--size", "0", "--trunc", "2", "--out", out])
        assert (code, json.loads(text)["sizes"]) == (0, {"0": 1, "1": 1, "2": 1}), kind


# sha256 of the file each gen fixture writes at --trunc 3 with its default
# size, by (kind, --preset); a preset of None gives no --preset
GEN_DIGESTS = {
    ("nerve-poset", None): "c18534c7f132f8585aa7e780fa3238777cc29cdf9928d8117320102a37ab8ed4",
    ("nerve-poset", "diamond"): "49fc50fc4139760bc076cc65d611e7d4b4e40431de16f173851f631ca3ba10f4",
    ("nerve-poset", "vee"): "34d33cdb3df5e69945ad6be3bf44bd70df806f95046aea80137d7bdc4727a127",
    ("nerve-poset", "wedge"): "07432dcd104ede37276bd69a8c5637b925ad2248850c1e2db055dfac1d0cdf56",
    ("nerve-category", None): "05734bb69e8ade15bf157fbe237c3484606ee401d1a503a31ce6040077585c7c",
    ("nerve-category", "walkiso"): "05734bb69e8ade15bf157fbe237c3484606ee401d1a503a31ce6040077585c7c",
    ("nerve-category", "parallel"): "9130b12a03a444a969b15121022e256685b3e00bf7a8cd41916de2b69ba19885",
    ("nerve-monoid", None): "0ff01bdf522c3e694f906ec2e3ac60959480d7bb523e4f9c7a4156bedb1df5bb",
    ("nerve-monoid", "idem"): "5b191f294b5b022c2767410f075287106d111640f9ca490fbdcf5ac87ea06867",
    ("partial-monoid", None): "1e2a81695cc9626063600cf53e2a64daa63e4f981a242b8d64e64b4a2cc21958",
    ("simplex", None): "f5273c7e8f129f1cc37420fd55c4a9102f0567e8122dceee9e9265cb93ad1ce9",
    ("constant", None): "97569f4682e26283a83658774570bf297fd9e5fd68801cd62059a9d6218c2913",
    ("boolean-lattice", None): "68bf4a51bfdd90932b3c0bd59011c20b766e6c2e67b882afefd9f22a1c985b02",
    ("graph", None): "a5017e7198352577b0f69a19811190a2be7ce9c81799107f9ee2757d751c54f1",
    ("graph", "glued"): "a5017e7198352577b0f69a19811190a2be7ce9c81799107f9ee2757d751c54f1",
    ("graph", "path"): "f4c7da7f9c585fb3b37f4e5d3d213b84917d35d490e9ca4ed31ce821e6090dab",
    ("punctured-chain", None): "e8ee4770d3a7f262c8195e95e1c2b12d26e5ca519af7ef48a6bce8a4a85dd6b1",
}

_SIZED = ("nerve-poset, nerve-monoid, simplex, constant, boolean-lattice, punctured-chain, "
          "graph --preset path")

# gen arguments refused as bad input: (arguments, exit code, the whole of
# stderr); the unknown kind's lines are argparse's, as Python 3.11 words them
# at 80 columns
GEN_REFUSALS = [
    (["nerve-poset", "--preset", "foo"], 2,
     "gen nerve-poset has no preset 'foo' (presets: diamond, vee, wedge)\n"),
    (["nerve-category", "--preset", "foo"], 2,
     "gen nerve-category has no preset 'foo' (presets: walkiso, parallel)\n"),
    (["graph", "--preset", "foo"], 2, "gen graph has no preset 'foo' (presets: glued, path)\n"),
    (["partial-monoid", "--preset", "idem"], 2,
     "gen partial-monoid has no preset 'idem' (presets: none)\n"),
    (["partial-monoid", "--size", "3"], 2,
     f"gen partial-monoid takes no --size (it applies to: {_SIZED})\n"),
    (["graph", "--size", "3"], 2, f"gen graph takes no --size (it applies to: {_SIZED})\n"),
    (["nerve-poset", "--preset", "diamond", "--size", "3"], 2,
     f"gen nerve-poset --preset diamond takes no --size (it applies to: {_SIZED})\n"),
    (["punctured-chain", "--size", "2"], 2, "--size must be at least 3, got 2\n"),
    (["nerve-monoid", "--size", "0"], 2, "--size must be at least 1, got 0\n"),
    (["nope"], 2,
     "usage: segal-abacus gen [-h] [--size SIZE] [--preset PRESET] [--trunc TRUNC]\n"
     "                        --out OUT [--format {json,text}]\n"
     "                        {nerve-poset,nerve-category,nerve-monoid,partial-monoid,"
     "simplex,constant,boolean-lattice,graph,punctured-chain}\n"
     "segal-abacus gen: error: argument kind: invalid choice: 'nope' (choose from "
     "'nerve-poset', 'nerve-category', 'nerve-monoid', 'partial-monoid', 'simplex', "
     "'constant', 'boolean-lattice', 'graph', 'punctured-chain')\n"),
]


def test_gen_fixtures_and_refusals_are_pinned(tmp_path, monkeypatch):
    """Every gen fixture writes the same bytes, and every refusal says the
    same on stderr, in the same order of kinds, presets and fixtures."""
    import contextlib
    import hashlib
    import io

    out = tmp_path / "x.json"
    for (kind, preset), digest in GEN_DIGESTS.items():
        argv = ["gen", kind, *(["--preset", preset] if preset else []), "--trunc", "3", "--out", str(out)]
        assert run(argv)[0] == 0, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv
    out.unlink()
    monkeypatch.setenv("COLUMNS", "80")
    for args, want_code, want_err in GEN_REFUSALS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["gen", *args, "--out", str(out)])
        assert (code, text, err.getvalue()) == (want_code, "", want_err), args
    assert not out.exists()


# the entries that take each flag of a command's table, as the refusal of
# that flag names them, by (command, flag)
FLAG_USERS = {
    ("gen", "size"): _SIZED,
    ("check", "side"): "2segal, stable",
    ("check", "half"): "boors",
    ("construct", "half"): "extend",
    ("roundtrip", "trunc"): "boors",
    ("run-suite", "trunc"): "boors, cheatsheet, dictionary, edgewise, half-axioms, star",
    ("run-suite", "bound"): "presentation",
    ("run-suite", "seed"): "cheatsheet",
    ("run-suite", "max_size"): "cheatsheet",
}

# a value given with each flag; --half is a switch
_FLAG_VALUES = {"size": ["3"], "side": ["upper"], "half": [], "trunc": ["1"], "bound": ["1"],
                "seed": ["3"], "max_size": ["4"]}


def test_every_flag_is_read_or_refused(tmp_path):
    """Every entry of the gen, check, construct, roundtrip and run-suite
    tables refuses each flag of its command that it does not take, with exit
    2, nothing on stdout and one line on stderr naming the entries that take
    it, before its input (a path that does not exist) is read; a flag that
    it takes is never refused."""
    import contextlib
    import io

    from segal_abacus import cli

    missing = str(tmp_path / "missing" / "in.json")
    # command: {entry name: the arguments that choose it}; each command
    # stops at a missing file or, where it reads none, at a depth of -1,
    # which every depth flag given after the flag under test overrides
    entries = {
        "gen": {cli._fixture_name(kind, preset): [kind, *(["--preset", preset] if preset else []),
                                                  "--out", missing, "--trunc", "-1"]
                for kind, preset in cli._FIXTURES},
        "check": {name: [name, missing] for name in cli._CHECKS},
        "construct": {name: [name, "--in", missing, "--out", missing] for name in cli._CONSTRUCTS},
        "roundtrip": {name: [name, missing] for name in cli._ROUNDTRIPS},
        "run-suite": {name: [name, *(["--bound"] if name == "presentation" else ["--trunc"]), "-1"]
                      for name in cli._SUITES},
    }
    assert {cmd for cmd, _ in FLAG_USERS} == set(entries)
    # the flag column of each table names no flag beyond those walked here
    for cmd, table, column in (("check", cli._CHECKS, 3), ("construct", cli._CONSTRUCTS, 2),
                               ("roundtrip", cli._ROUNDTRIPS, 3), ("run-suite", cli._SUITES, 1)):
        assert {flag for row in table.values() for flag in row[column]} == {
            flag for c, flag in FLAG_USERS if c == cmd}, cmd
    for (cmd, flag), users in FLAG_USERS.items():
        for name, args in entries[cmd].items():
            argv = [cmd, f"--{flag.replace('_', '-')}", *_FLAG_VALUES[flag], *args]
            refusal = f"{cmd} {name} takes no --{flag.replace('_', '-')} (it applies to: {users})\n"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, text = run(argv)
            if name in users.split(", "):
                assert refusal not in err.getvalue(), argv
            else:
                assert (code, text, err.getvalue()) == (2, "", refusal), argv
    assert not (tmp_path / "missing").exists()


def test_check_exit_codes(tmp_path):
    pm = str(tmp_path / "pm.json")
    assert run(["gen", "partial-monoid", "--trunc", "4", "--out", pm])[0] == 0
    assert run(["check", "segal", pm])[0] == 1
    assert run(["check", "2segal", pm])[0] == 0
    g = str(tmp_path / "g.json")
    assert run(["gen", "graph", "--preset", "glued", "--trunc", "4", "--out", g])[0] == 0
    assert run(["check", "segal", g])[0] == 1


def test_check_invalid_input(tmp_path):
    bad = tmp_path / "bad.json"
    X = nerve(chain_poset(1), 3)
    data = pjson.to_dict(X)
    key = sorted(data["actions"])[0]
    entry = data["actions"][key]
    k = sorted(entry)[0]
    entry[k] = "nonsense"
    bad.write_text(json.dumps(data))
    code, _ = run(["check", "segal", str(bad)])
    assert code == 2
    # wrong shapes and a negative truncation: exit 2 with one line on stderr
    import contextlib
    import io

    x = str(tmp_path / "x.json")
    pjson.dump(X, x)
    z0 = str(tmp_path / "z0.json")
    pjson.dump(nerve(chain_poset(1), 0), z0)
    out = str(tmp_path / "out.json")
    for args in (
        ["check", "star", x],
        ["construct", "qstar", "--in", x, "--out", out],
        ["construct", "extend", "--in", x, "--out", out],
        ["construct", "M", "--in", x, "--out", out],
        ["roundtrip", "M", x],
        ["gen", "nerve-poset", "--trunc", "-1", "--out", out],
        ["run-suite", "star", "--trunc", "-1"],
        ["run-suite", "edgewise", "--trunc", "-1"],
        ["run-suite", "presentation", "--bound", "-1"],
        ["roundtrip", "boors", x, "--trunc", "-1"],
        ["roundtrip", "boors", x, "--trunc", "4"],  # x has trunc 3
        # each suite takes one depth flag and refuses the other
        ["run-suite", "presentation", "--bound", "1", "--trunc", "-3"],
        ["run-suite", "star", "--trunc", "2", "--bound", "0"],
        ["construct", "tot", "--in", z0, "--out", out],
        ["construct", "boors-tot", "--in", z0, "--out", out],
        ["roundtrip", "boors", z0],
        ["run-suite", "cheatsheet", "--trunc", "0"],
        ["run-suite", "edgewise", "--trunc", "0"],
        ["run-suite", "half-axioms", "--trunc", "0"],
        ["run-suite", "boors", "--trunc", "0"],
        ["run-suite", "boors", "--trunc", "2"],
        ["run-suite", "cheatsheet", "--trunc", "1"],
        ["gen", "punctured-chain", "--size", "1", "--out", out],
        ["gen", "nerve-monoid", "--size", "0", "--out", out],
        ["gen", "nerve-poset", "--preset", "foo", "--out", out],
        ["gen", "nerve-category", "--preset", "foo", "--out", out],
        ["gen", "nerve-monoid", "--preset", "foo", "--out", out],
        ["gen", "graph", "--preset", "foo", "--out", out],
        ["gen", "partial-monoid", "--preset", "idem", "--out", out],
        # fixed fixtures take no --size
        ["gen", "graph", "--size", "3", "--out", out],
        ["gen", "graph", "--preset", "glued", "--size", "3", "--out", out],
        ["gen", "partial-monoid", "--size", "7", "--out", out],
        ["gen", "nerve-category", "--size", "2", "--out", out],
        ["gen", "nerve-poset", "--preset", "diamond", "--size", "5", "--out", out],
        ["gen", "nerve-monoid", "--preset", "idem", "--size", "2", "--out", out],
        # an empty token in a word is bad input
        ["morphism", ".@[0,0]"],
        ["morphism", "e1..d0@[0,0]"],
        ["morphism", ".@[2]"],
        ["morphism", "d1..d0@[2]"],
        # the random corpus needs posets of at least 2 elements, and only
        # --seed adds it
        ["run-suite", "cheatsheet", "--seed", "7", "--max-size", "1", "--trunc", "3"],
        ["run-suite", "cheatsheet", "--max-size", "4", "--trunc", "3"],
        ["run-suite", "cheatsheet", "--max-size", "-1", "--trunc", "3"],
        # only cheatsheet has a random corpus for --seed and --max-size
        ["run-suite", "star", "--seed", "3", "--trunc", "3"],
        ["run-suite", "star", "--seed", "3", "--max-size", "3", "--trunc", "3"],
        ["run-suite", "presentation", "--seed", "3", "--bound", "3"],
        *(["run-suite", name, "--seed", "3"]
          for name in ("dictionary", "boors", "half-axioms", "edgewise")),
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run(args)
        assert code == 2, args
        assert len(err.getvalue().strip().splitlines()) == 1, args
    assert not (tmp_path / "out.json").exists()
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(["run-suite", "presentation", "--jobs", "3"])[0] == 2


def test_internal_error_exits_4(monkeypatch):
    import contextlib
    import io

    from segal_abacus import cli

    def broken(args):
        raise RuntimeError("table out of step")

    monkeypatch.setattr(cli, "_morphism", broken)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run(["morphism", "[0,0,2]:3->3"])
    assert code == 4
    assert err.getvalue().splitlines() == ["internal error: RuntimeError: table out of step"]


def test_undecided_suites_and_missing_actions(tmp_path):
    # nothing is checkable: vacuous (exit 3), not a pass and not a crash
    for args in (["run-suite", "edgewise", "--trunc", "1"],
                 ["run-suite", "star", "--trunc", "1"]):
        code, text = run(args)
        assert (code, json.loads(text)["verdict"]) == (3, "vacuous"), args
    # witnesses always mean fail, even with nothing checked
    data = pjson.to_dict(nerve(chain_poset(1), 2))
    data["actions"] = {}
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(data))
    code, text = run(["check", "validate", str(empty)])
    payload = json.loads(text)
    assert (code, payload["verdict"], len(payload["witnesses"])) == (1, "fail", 8)


def _split_file(edit):
    """The comultiplication splitting of a nerve's bottom decalage, as a
    file form with ``edit`` applied."""
    from segal_abacus.decalage import BottomSplitSSet, comult, dec
    from segal_abacus.presheaf import sub_trunc

    X = nerve(chain_poset(2), 4)
    D = dec(X, "bottom")
    data = pjson.to_dict(BottomSplitSSet(sub_trunc(D, D.trunc), dict(comult(X).levels)))
    edit(data)
    return data


def _smap_file(edit):
    """The identity map of a nerve, as a file form with ``edit`` applied."""
    from segal_abacus.presheaf import identity_smap

    data = pjson.to_dict(identity_smap(nerve(chain_poset(1), 3)))
    edit(data)
    return data


def _sset_file(edit):
    """The nerve of the arrow at truncation 2, as a file form with ``edit``
    applied."""
    data = pjson.to_dict(nerve(chain_poset(1), 2))
    edit(data)
    return data


def _dset_file(edit):
    """The Kan extension of the identity of the nerve of the arrow at
    truncation 2, as ``construct qstar`` writes it, with ``edit`` applied."""
    from segal_abacus.configurations import q_lower_star
    from segal_abacus.presheaf import identity_smap

    data = pjson.to_dict(q_lower_star(identity_smap(nerve(chain_poset(1), 2))))
    edit(data)
    return data


def _sigmaset_file(edit):
    """The pointed total decalage of the nerve of the arrow at truncation 3,
    as ``construct boors-tot`` writes it, with ``edit`` applied."""
    from segal_abacus.configurations import p_star_tot

    data = pjson.to_dict(p_star_tot(nerve(chain_poset(1), 3)))
    edit(data)
    return data


def _pointed_file(edit):
    """The nerve of the arrow at truncation 2, pointed at its first vertex
    by the point ``"c"``, as a file form with ``edit`` applied."""
    from segal_abacus.decalage import PointedSSet

    X = nerve(chain_poset(1), 2)
    data = pjson.to_dict(PointedSSet(X, ("c",), {"c": X.level(0)[0]}))
    edit(data)
    return data


def _split_outside(data):
    table = data["split"]["0"]
    table[sorted(table)[0]] = data["sset"]["levels"]["2"][0]  # X_2, not X_1


def _same_face_change(data):
    """One d0@2 value changed the same way in source and target."""
    for side in ("source", "target"):
        table = data[side]["actions"]["d0@2"]
        x = sorted(table)[0]
        table[x] = next(y for y in data[side]["levels"]["1"] if y != table[x])


MALFORMED = {
    "split value outside its level": _split_file(_split_outside),
    "split level deleted": _split_file(lambda data: data["split"].pop("1")),
    "split face table deleted": _split_file(lambda data: data["sset"]["actions"].pop("d0@2")),
    "smap source face table deleted": _smap_file(lambda data: data["source"]["actions"].pop("d0@2")),
    "smap of a non-simplicial set": _smap_file(_same_face_change),
    "empty bisset": {"shape": "bisset", "trunc": 1, "levels": {}, "actions": {}},
    "sset level beyond the truncation": _sset_file(lambda data: data["levels"].update({"7": ["zz"]})),
    "sset action of unknown kind": _sset_file(
        lambda data: data["actions"].update({"q0@0": data["actions"].pop("s0@0")})),
    "sset element listed twice": _sset_file(lambda data: data["levels"]["0"].append("0")),
    "sigmaset point listed twice": _sigmaset_file(lambda data: data["pointing"]["levels"].append("0")),
    "pointed point listed twice": _pointed_file(lambda data: data["pointing"]["levels"].append("c")),
    "sigmaset pointing undefined": _sigmaset_file(lambda data: data["pointing"]["map"].pop("0")),
    "pointed pointing off level 0": _pointed_file(lambda data: data["pointing"]["map"].update(c="zz")),
    "top level an array": [],
    "top level a string": "sset",
    "sset trunc a string": _sset_file(lambda data: data.update(trunc="x")),
    "sset trunc null": _sset_file(lambda data: data.update(trunc=None)),
    "sset levels a number": _sset_file(lambda data: data.update(levels=5)),
    # two spellings of one key would overwrite each other
    "sset level spelled twice": _sset_file(lambda data: data["levels"].update({"01": ["junk"]})),
    "sset action spelled twice": _sset_file(
        lambda data: data["actions"].update({"d00@1": dict(data["actions"]["d1@1"])})),
    "smap level spelled twice": _smap_file(lambda data: data["levels"].update({"01": dict(data["levels"]["1"])})),
    "split level spelled twice": _split_file(lambda data: data["split"].update({"01": dict(data["split"]["1"])})),
    # a table that no generator of the truncated category has, named as the file spells it
    "sset face of no generator": _sset_file(
        lambda data: data["actions"].update({"d7@1": {x: x for x in data["levels"]["1"]}})),
    "sset degeneracy beyond the truncation": _sset_file(lambda data: data["actions"].update({"s0@9": {}})),
    "smap level beyond the map's truncation": _smap_file(lambda data: data["levels"].update({"7": {}})),
    "smap source face of no generator": _smap_file(
        lambda data: data["source"]["actions"].update({"d7@1": dict(data["source"]["actions"]["d0@1"])})),
    "dset splitting beyond the truncation": _dset_file(lambda data: data["actions"].update({"ssub@(0,1)": {}})),
    "split level beyond the truncation": _split_file(lambda data: data["split"].update({"3": {}})),
    "sigmaset bulk face of no generator": _sigmaset_file(lambda data: data["bulk"]["actions"].update({"e5@(0,0)": {}})),
}

# the witness that ``check validate`` reports, where a case pins it
WITNESSES = {"sset element listed twice": {"site": "level@0", "equation": "element listed twice",
                                           "offenders": ["0"]},
             "sigmaset point listed twice": {"site": "level@point", "equation": "element listed twice",
                                             "offenders": ["0"]},
             "pointed point listed twice": {"site": "level@point", "equation": "element listed twice",
                                            "offenders": ["c"]},
             "sigmaset pointing undefined": {"site": "pointing", "equation": "action undefined",
                                             "offenders": ["0"]},
             "pointed pointing off level 0": {"site": "pointing", "equation": "action leaves level",
                                              "offenders": ["c", "zz"]},
             **{case: {"site": site, "equation": "table not in the category", "offenders": []}
                for case, site in (("sset face of no generator", "d7@1"),
                                   ("sset degeneracy beyond the truncation", "s0@9"),
                                   ("smap level beyond the map's truncation", "F@7"),
                                   ("smap source face of no generator", "source:d7@1"),
                                   ("dset splitting beyond the truncation", "ssub@(0,1)"),
                                   ("split level beyond the truncation", "split@3"),
                                   ("sigmaset bulk face of no generator", "e5@(0,0)"))}}

# files that cannot be read at all: every command says so on stderr
UNREADABLE = {"sset action of unknown kind", "top level an array", "top level a string",
              "sset trunc a string", "sset trunc null", "sset levels a number",
              "sset level spelled twice", "sset action spelled twice", "smap level spelled twice",
              "split level spelled twice"}

# the checks run on each malformed shape besides validate
_MALFORMED_CHECKS = {"split": ("coalgebra", "rigid"), "smap": ("lfib", "rel-upper-2segal"),
                     "bisset": ("stable", "double-segal"), "sset": ("segal", "2segal"),
                     "sigmaset": ("boors",), "pointed": ("local-initial", "local-terminal"),
                     "dset": ("star", "bicomodule")}

# the construction run on each malformed shape that has one
_MALFORMED_CONSTRUCTS = {"smap": "qstar", "sigmaset": "extend", "dset": "M"}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_invalid_input(tmp_path, case):
    """``check validate`` fails with witnesses; every other check, and a
    construction, reports invalid input (exit 2), never an internal error.
    A file that cannot be read is invalid input (exit 2) for every check."""
    import contextlib
    import io

    path = tmp_path / "bad.json"
    data = MALFORMED[case]
    path.write_text(json.dumps(data))
    if case in UNREADABLE:
        # a document that is not an object is read as an sset would be
        shape = data["shape"] if isinstance(data, dict) else "sset"
        commands = [["check", check, str(path)] for check in ("validate",) + _MALFORMED_CHECKS[shape]]
        if shape == "sset":
            commands.append(["roundtrip", "boors", str(path)])
        for args in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, text = run(args)
            assert (code, text) == (2, "") and err.getvalue().startswith(f"cannot read {path}"), args
        return
    code, text = run(["check", "validate", str(path)])
    payload = json.loads(text)
    assert (code, payload["verdict"]) == (1, "fail") and payload["witnesses"]
    if case in WITNESSES:
        assert payload["witnesses"] == [WITNESSES[case]]
    for check in _MALFORMED_CHECKS[data["shape"]]:
        code, text = run(["check", check, str(path)])
        assert (code, json.loads(text)["verdict"]) == (2, "invalid-input"), check
    if data["shape"] in _MALFORMED_CONSTRUCTS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run(["construct", _MALFORMED_CONSTRUCTS[data["shape"]], "--in", str(path),
                           "--out", str(tmp_path / "out.json")])
        assert (code, err.getvalue()) == (2, "input does not validate\n")


# the README pipeline, at its default truncation, writing the files it names
_PIPELINE = [
    ["gen", "nerve-poset", "--size", "2", "--out", "N.json"],
    ["gen", "partial-monoid", "--out", "P.json"],
    ["construct", "boors-tot", "--in", "N.json", "--out", "A.json"],
    ["construct", "extend", "--in", "A.json", "--out", "B.json"],
    ["construct", "extend", "--half", "--in", "A.json", "--out", "Bh.json"],
    ["construct", "rtot", "--in", "N.json", "--out", "R.json"],
]


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """The directory the README pipeline ran in, and the documents it wrote."""
    where = tmp_path_factory.mktemp("pipeline")
    for argv in _PIPELINE:
        argv = [str(where / arg) if arg.endswith(".json") else arg for arg in argv]
        assert run(argv)[0] == 0, argv
    return where, {argv[-1]: json.loads((where / argv[-1]).read_text()) for argv in _PIPELINE}


def _nodes(doc, path=()):
    """``(path, node)`` for every node of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, sub in items:
        yield from _nodes(sub, path + (key,))


_MUTATIONS = ("drop a key", "retype a value", "drop an element", "repeat an element",
              "point at a foreign id", "change trunc")


@st.composite
def _mutants(draw, docs):
    """A README pipeline file with one random mutation: its name, the
    mutation and the mutated document."""
    import copy

    name = draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    nodes = list(_nodes(doc))
    mutation = draw(st.sampled_from(_MUTATIONS))
    if mutation == "drop a key":
        node = draw(st.sampled_from([n for _, n in nodes if isinstance(n, dict) and n]))
        del node[draw(st.sampled_from(sorted(node)))]
    elif mutation == "retype a value":
        path, old = draw(st.sampled_from(nodes[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(
            [new for new in (0, 1.5, "x", [], {}, None, True) if type(new) is not type(old)]))
    elif mutation in ("drop an element", "repeat an element"):
        node = draw(st.sampled_from([n for _, n in nodes if isinstance(n, list) and n]))
        k = draw(st.integers(0, len(node) - 1))
        if mutation == "drop an element":
            del node[k]
        else:
            node.insert(k, node[k])
    elif mutation == "point at a foreign id":
        # a table: an action, a map's level, a splitting or a pointing map
        node = draw(st.sampled_from([n for _, n in nodes if isinstance(n, dict) and n
                                     and all(type(v) is str for v in n.values())]))
        node[draw(st.sampled_from(sorted(node)))] = "foreign"
    else:
        node = draw(st.sampled_from([n for _, n in nodes if isinstance(n, dict) and "trunc" in n]))
        node["trunc"] = draw(st.integers(0, 30))
    return name, mutation, doc


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mutated_pipeline_files_never_exit_4(pipeline_files, data):
    """Every ``check``, ``construct`` and ``roundtrip`` on a randomly mutated
    README pipeline file exits 0-3: a verdict or invalid input, never an
    internal error.  A mutated ``trunc`` stays within 0-30, which keeps the
    budget small: the generator table of an abacus truncation grows with
    its cube."""
    import contextlib
    import io

    where, docs = pipeline_files
    name, mutation, doc = data.draw(_mutants(docs))
    path = str(where / "mutant.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for argv in _file_commands(path, str(where / "out.json")):
        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = run(argv)
        assert code in (0, 1, 2, 3), (name, mutation, argv[:2])


def _file_commands(path: str, out: str) -> list:
    """Every ``check``, ``construct`` and ``roundtrip`` row, on the file at
    ``path``, a construction writing to ``out``."""
    from segal_abacus.cli import _CHECKS, _CONSTRUCTS, _ROUNDTRIPS

    return ([["check", check, path] for check in _CHECKS]
            + [["construct", op, "--in", path, "--out", out] for op in _CONSTRUCTS]
            + [["roundtrip", kind, path] for kind in _ROUNDTRIPS])


_READ_THE_AUG_ROW = ("check unit-iso", "check bicomodule", "construct M", "roundtrip M")


def test_pipeline_files_never_exit_4(pipeline_files, tmp_path):
    """Every ``check``, ``construct`` and ``roundtrip`` row on each README
    pipeline file as written exits 0-3.  The half extension ``Bh.json`` has
    no augmentation row: ``check bicomodule``, ``construct M`` and
    ``roundtrip M`` read it, so they report that precondition with exit 2,
    as ``check unit-iso`` does, and ``construct M`` writes nothing."""
    import contextlib
    import io

    where, docs = pipeline_files
    out = tmp_path / "out.json"
    refused = {}
    for name in docs:
        for argv in _file_commands(str(where / name), str(out)):
            out.unlink(missing_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                code, text = run(argv)
            assert code in (0, 1, 2, 3), (name, argv[:2])
            command = " ".join(argv[:2])
            if name == "Bh.json" and command in _READ_THE_AUG_ROW:
                report = json.loads(text)
                refused[command] = (code, report.get("build_M", report)["precondition"], out.exists())
    assert refused == {command: (2, "no augmentation row", False) for command in _READ_THE_AUG_ROW}



def test_a_deep_file_is_refused_before_any_identity_row(tmp_path):
    """A 70-byte ``sset`` file that declares truncation 200 but lists only
    level 0 fails validation on its missing levels and tables alone: no
    identity row is built, so it answers within a second in process, where
    building the rows first ended in a MemoryError, and ``check validate``
    exits 1."""
    import time

    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"shape": "sset", "trunc": 200, "levels": {"0": ["a"]}, "actions": {}}))
    assert len(path.read_bytes()) == 70
    start = time.perf_counter()
    report = validate(pjson.load(str(path)))
    assert report.holds is False
    assert time.perf_counter() - start < 1.0
    assert report.checked == 0
    assert {w.equation for w in report.witnesses} == {"level missing", "action table missing"}
    assert run(["check", "validate", str(path)])[0] == 1

def test_unwritable_out_is_invalid_input(tmp_path):
    """``gen`` and ``construct`` say which --out they cannot write (exit 2)."""
    import contextlib
    import io

    x = str(tmp_path / "x.json")
    assert run(["gen", "nerve-poset", "--size", "1", "--trunc", "3", "--out", x])[0] == 0
    for out in (str(tmp_path), str(tmp_path / "missing" / "x.json")):
        for args in (["gen", "nerve-poset", "--out", out],
                     ["construct", "tot", "--in", x, "--out", out]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, text = run(args)
            assert (code, text) == (2, "") and err.getvalue().startswith(f"cannot write {out}: "), args


def _cold_cli(argv, stdout, cwd):
    """Run ``python -m segal_abacus.cli`` in a fresh process with the given
    stdout; returns its exit code and stderr."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-m", "segal_abacus.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
    return proc.returncode, proc.stderr


# one command per output format, each with a report far larger than a write
_UNWRITABLE = (["morphism", "ssub@[0,1]"], ["run-suite", "presentation", "--bound", "1", "--format", "text"])


def _assert_cannot_write_stdout(code, err, reason):
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith("cannot write stdout: ") and reason in err, err


def test_closed_pipe_stdout_is_invalid_output(tmp_path):
    """A stdout pipe whose reader is gone exits 2 with one line on stderr:
    no internal error (4), no traceback, no "Exception ignored" at exit."""
    import os

    for argv in _UNWRITABLE:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = _cold_cli(argv, write_end, tmp_path)
        finally:
            os.close(write_end)
        _assert_cannot_write_stdout(code, err, "Broken pipe")


def test_full_device_stdout_is_invalid_output(tmp_path):
    """A stdout on a full device exits 2 with one line on stderr."""
    import os

    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    for argv in _UNWRITABLE:
        with open("/dev/full", "w") as full:
            code, err = _cold_cli(argv, full, tmp_path)
        _assert_cannot_write_stdout(code, err, "No space left on device")


def test_validation_checks_validate_once(tmp_path, monkeypatch):
    """``check validate`` and ``check coalgebra`` print the report of the
    validation that gates every check: the input is validated once."""
    from segal_abacus import presheaf

    # the check, its input, and the validator it runs, by module and name
    cases = (("validate", pjson.to_dict(nerve(chain_poset(1), 3)), presheaf, "validate"),
             ("coalgebra", _split_file(lambda data: None), presheaf, "validate_coalgebra"))
    for check, data, module, validator in cases:
        calls = []
        original = getattr(module, validator)
        monkeypatch.setattr(module, validator, lambda *args: calls.append(args) or original(*args))
        path = tmp_path / f"{check}.json"
        path.write_text(json.dumps(data))
        code, text = run(["check", check, str(path)])
        monkeypatch.undo()
        assert (code, len(calls)) == (0, 1), check
        assert text == json.dumps(validate(pjson.from_dict(data)).to_dict(), sort_keys=True, indent=1) + "\n"


# sha256 of the stdout of ``check ts-compat``, with its exit code: on the
# README pipeline's extension B.json (pass, 15 checked), and on the Kan
# extension of the inclusion [1] -> [2], whose abacus is not invertible
# (precondition)
TS_COMPAT_DIGESTS = {
    "B.json": (0, "6f22652a49d736b3546f0f84225ea2f0d60ca11b9186be958c9fb5e1b8cdb9b2"),
    "not-invertible.json": (2, "852249dda0f64fd9f789902f66b1b19daa3eb50a9ab40a1b79b17b1f464b441a"),
}


def test_ts_compat_check_is_pinned(pipeline_files, tmp_path):
    import hashlib

    from segal_abacus.configurations import q_lower_star
    from segal_abacus.corpus import poset_inclusion

    where, _ = pipeline_files
    not_invertible = tmp_path / "not-invertible.json"
    pjson.dump(q_lower_star(poset_inclusion(chain_poset(1), chain_poset(2), 4)), str(not_invertible))
    for name, path in (("B.json", where / "B.json"), ("not-invertible.json", not_invertible)):
        code, text = run(["check", "ts-compat", str(path)])
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == TS_COMPAT_DIGESTS[name], name


def test_construct_pipeline(tmp_path):
    x = str(tmp_path / "x.json")
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run(["gen", "simplex", "--size", "1", "--trunc", "5", "--out", x])[0] == 0
    assert run(["construct", "boors-tot", "--in", x, "--out", a])[0] == 0
    assert run(["check", "boors", a])[0] == 0
    assert run(["construct", "extend", "--in", a, "--out", b])[0] == 0
    assert run(["check", "invertible-abacus", b])[0] == 0
    assert run(["check", "star", b])[0] == 0


def test_construct_extend_validates_the_extension_once(tmp_path, monkeypatch):
    """``extend_sigma_to_d`` validates what it builds, and ``construct
    extend`` reports that validation rather than deciding it again."""
    from segal_abacus import presheaf

    x, a, b = (str(tmp_path / name) for name in ("x.json", "a.json", "b.json"))
    assert run(["gen", "nerve-poset", "--size", "2", "--trunc", "5", "--out", x])[0] == 0
    assert run(["construct", "boors-tot", "--in", x, "--out", a])[0] == 0
    validated = []
    real = presheaf.validate_dset

    def counting(B, name="dset"):
        validated.append(name)
        return real(B, name)

    monkeypatch.setattr(presheaf, "validate_dset", counting)
    code, text = run(["construct", "extend", "--in", a, "--out", b])
    assert (code, json.loads(text), validated) == (0, {"validates": True, "wrote": b}, ["extension"])


def test_roundtrip_refuses_a_too_shallow_input_before_any_work(tmp_path, monkeypatch):
    """Below its least depth (``cli._ROUNDTRIPS``: boors 3), after ``--trunc``
    cuts it, a round trip's input is refused with exit 2 and one line that
    names that depth, before it is validated or any construction runs.  So
    is a ``--trunc`` above the input's depth, which cannot cut it."""
    import contextlib
    import io

    from segal_abacus import configurations, presheaf

    x2, x5 = str(tmp_path / "x2.json"), str(tmp_path / "x5.json")
    pjson.dump(nerve(chain_poset(2), 2), x2)
    pjson.dump(nerve(chain_poset(2), 5), x5)
    work = []
    monkeypatch.setattr(presheaf, "validate", lambda *a: work.append("validate"))
    monkeypatch.setattr(configurations, "boors_roundtrip", lambda *a: work.append("boors"))
    for argv, depth in (([x2], 2), ([x5, "--trunc", "2"], 2), ([x5, "--trunc", "1"], 1),
                        ([x5, "--trunc", "0"], 0)):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["roundtrip", "boors", *argv])
        assert (code, text, err.getvalue()) == (
            2, "", f"roundtrip boors needs an input of trunc at least 3, got {depth}\n"), argv
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(["roundtrip", "boors", x2, "--trunc", "9"])
    assert (code, text, err.getvalue()) == (2, "", "--trunc 9 is above the input's trunc 2\n")
    assert work == []


def test_roundtrip_commands(tmp_path):
    x = str(tmp_path / "x.json")
    assert run(["gen", "nerve-poset", "--size", "1", "--trunc", "5", "--out", x])[0] == 0
    code, text = run(["roundtrip", "boors", x])
    assert code == 0
    payload = json.loads(text)
    assert payload["iso_with_kan"]["verdict"] == "pass"
    code, _ = run(["roundtrip", "M", x + "missing"])
    assert code == 2


def test_roundtrip_m_from_smap(tmp_path):
    from segal_abacus.presheaf import identity_smap

    f = str(tmp_path / "f.json")
    pjson.dump(identity_smap(nerve(chain_poset(1), 4)), f)
    code, text = run(["roundtrip", "M", f])
    assert code == 0
    assert json.loads(text)["extraction_identity"]["verdict"] == "pass"
    # a map's round trips run at its Kan extension's depth, and say so
    for kind in ("M", "star"):
        code, text = run(["roundtrip", kind, f])
        assert (code, json.loads(text)["depth"]) == (0, 4), kind


def test_roundtrip_trunc_cuts_only_boors(tmp_path):
    """``--trunc`` cuts the simplicial set of ``roundtrip boors``; the round
    trips of a map or abacus presheaf refuse it (exit 2, one line)."""
    import contextlib
    import io

    from segal_abacus.presheaf import identity_smap

    f = str(tmp_path / "f.json")
    pjson.dump(identity_smap(nerve(chain_poset(1), 4)), f)
    for kind in ("M", "star"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["roundtrip", kind, f, "--trunc", "2"])
        assert (code, text, err.getvalue()) == (
            2, "", f"roundtrip {kind} takes no --trunc (it applies to: boors)\n")
    x = str(tmp_path / "x.json")
    pjson.dump(nerve(chain_poset(1), 5), x)
    code, text = run(["roundtrip", "boors", x, "--trunc", "4"])
    assert (code, json.loads(text)["depth"]) == (0, 4)


def test_reduced_stability_says_what_truncation_2_cannot_check(tmp_path):
    """Without a (1, 1) level, reduced stability is vacuous and says why, as
    stability and double Segal do."""
    chain, bulk = str(tmp_path / "chain.json"), str(tmp_path / "tot.json")
    assert run(["gen", "punctured-chain", "--size", "3", "--trunc", "2", "--out", chain])[0] == 0
    assert run(["construct", "tot", "--in", chain, "--out", bulk])[0] == 0
    code, text = run(["check", "reduced-stable", bulk])
    assert (code, json.loads(text)) == (3, {
        "checked": 0, "coverage": ["unverifiable:reduced_stability:trunc<2"],
        "name": "reduced_stability", "verdict": "vacuous", "witnesses": []})


def test_2segal_reads_its_side_at_truncation_0(tmp_path):
    """At truncation 0 neither decalage has a level to check: ``check
    2segal`` is vacuous (exit 3) and names the side it was given, ``both``
    where ``--side`` is not given."""
    x = str(tmp_path / "x.json")
    assert run(["gen", "nerve-poset", "--trunc", "0", "--out", x])[0] == 0
    for side, flag in (("both", []), ("upper", ["--side", "upper"]), ("lower", ["--side", "lower"]),
                       ("both", ["--side", "both"])):
        code, text = run(["check", "2segal", x, *flag])
        assert (code, json.loads(text)) == (3, {
            "checked": 0, "coverage": [f"unverifiable:is_2segal[{side}]:trunc<1"],
            "name": f"is_2segal[{side}]", "verdict": "vacuous", "witnesses": []}), flag


def test_suite_names_are_the_suites():
    # each named suite is a function of its module that takes every flag of
    # its row, the first its depth flag
    import inspect

    from segal_abacus import cli

    assert cli.SUITE_NAMES == tuple(sorted(cli._SUITES))
    for name, (home, flags, least, suite) in cli._SUITES.items():
        parameters = inspect.signature(suite(cli._library_module(home))).parameters
        assert all(flag in parameters for flag in flags), name
        assert flags[0] in cli._DEFAULT_DEPTH and least >= 0, name


def test_run_suite_presentation():
    code, text = run(["run-suite", "presentation", "--bound", "3"])
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "pass"
    assert {e["id"] for e in payload["entries"]} >= {
        "presentation:relations",
        "presentation:hom-counts",
    }


def test_reports_are_deterministic(tmp_path):
    args = ["run-suite", "presentation", "--bound", "3"]
    assert run(args)[1] == run(args)[1]
    x = tmp_path / "x.json"
    run(["gen", "nerve-poset", "--size", "2", "--trunc", "3", "--out", str(x)])
    first = x.read_text()
    run(["gen", "nerve-poset", "--size", "2", "--trunc", "3", "--out", str(x)])
    assert x.read_text() == first


def test_fixture_env_dir(tmp_path, monkeypatch):
    x = tmp_path / "env.json"
    run(["gen", "constant", "--size", "2", "--trunc", "3", "--out", str(x)])
    monkeypatch.setenv("SEGAL_ABACUS_FIXTURES", str(tmp_path))
    code, _ = run(["check", "validate", "env.json"])
    assert code == 0


def test_json_roundtrip_all_shapes(tmp_path):
    import hashlib

    from segal_abacus.configurations import build_M, p_star_tot, q_lower_star, r_star
    from segal_abacus.corpus import graph_sset, punctured_chain_sset, two_segal_partial_monoid
    from segal_abacus.decalage import PointedSSet, dec, h_lower, sd, tot
    from segal_abacus.presheaf import constant_sset, identity_smap, sub_trunc

    N = nerve(chain_poset(1), 4)
    values = [
        N,
        identity_smap(N),
        tot(N),
        q_lower_star(identity_smap(N)),
        p_star_tot(N),
        r_star(N),
        dec(N, "bottom"),
        sd(N),
        sub_trunc(N, 2),
        constant_sset(("a", "b"), 3),
        h_lower(PointedSSet(N, ("c",), {"c": N.level(0)[0]})).sset,
        build_M(q_lower_star(identity_smap(N)))[0],
        graph_sset(("u", "v", "w"), {("u", "v"), ("v", "w")}, 3),
        two_segal_partial_monoid(4),
        punctured_chain_sset(3, 4),
    ]
    # the on-disk format is pinned byte for byte
    digests = [
        "d0ffb1de57971f9a964b80959327701f414aeb291f185e297d79373a0176e106",
        "c45d6fa44e01a61dd9e0ee28b92ca8ad7211220e826cd6f463f40f75d92b2ba5",
        "6f5792a2676deb329fc84337e7b020f8b179ec1bfc4887e5cdce049a7a51343b",
        "9c8690369625d21ec78e5b591c0093deb3308315058344ad0ecc37203097d9eb",
        "2f7e4a04659ab34fdb62fdd3fc4cae2f483db327e4b6ecff4270e2fdb457ebcf",
        "580cd66980023925490cd14e6ae65077875ffd9b956e224c068459513787c329",
        "4be80cc2e2d2b1f44b60a5e0be8ff7413e35e1b912305df1890ddf3e2613ac9a",
        "f497cd20f960ce1d0cf5865c53c82df34e468a30c49f70ddba2bcd7146bdc9df",
        "eb69f980d0ccbcc2c547c84e3daa46983f46bd1c68c61b642becbd0367701d98",
        "bfcd711634805bec09d6ce23c0d487b971ce83cfc92f9c26841be3903061e854",
        "0334df31bc308c9f2f5304ae1821077c217c189f426ebe7366f9ac03846c862c",
        "bd5764d420d608b136de7fced62106f95a648079f0205b9562f66058a3d2047d",
        "e25ff364de1e81900679f7bc9836f9635b5d275758bf113d49bfaf8595d6b9d1",
        "f6a08304887bc3b96df04b0c4a4173e1db76410c384f3898e320d767170f8280",
        "6e37c8e615b1d07e940705eeea5c0ce8d12110b2fd3b67868626eb3c604619a6",
    ]
    for k, val in enumerate(values):
        assert hashlib.sha256(pjson.dumps(val).encode()).hexdigest() == digests[k]
        path = tmp_path / f"v{k}.json"
        pjson.dump(val, str(path))
        back = pjson.load(str(path))
        assert validate(back).passed
        path2 = tmp_path / f"v{k}b.json"
        pjson.dump(back, str(path2))
        assert path.read_text() == path2.read_text()


def test_morphism_subcommand():
    code, text = run(["morphism", "[0,0,2]:3->3"])
    assert code == 0
    assert json.loads(text)["word"] == "d1.s0@[2]"
    code, text = run(["morphism", "d1.s0@[2]"])
    assert code == 0
    assert json.loads(text)["values"] == "[0,0,2]:3->3"
    code, text = run(["morphism", "ssub@[0,1]"])
    assert code == 0
    payload = json.loads(text)
    assert payload["abacus_word"] == "f@[0,1]"
    assert payload["simplicial_word"] == "t0@[1,0]"
    # an empty bead word, spelled or not, is the identity of its source
    for text in ("id@[1,0]", "@[1,0]"):
        code, out = run(["morphism", text])
        payload = json.loads(out)
        assert (code, payload["abacus_word"], payload["carrier"]) == (0, "id@[1,0]", "[0,1,2]:3->3"), text
    assert run(["morphism", "nonsense"])[0] == 2


def test_morphism_output_is_pinned():
    """Byte-exact stdout of two bead words, one through an abacus map."""
    assert run(["morphism", "e1.f.d0@[0,0]"]) == (0, (
        '{\n "abacus_word": "id@[0,0]",\n "carrier": "[0,3]:2->4",\n "kind": "bead",\n'
        ' "simplicial_word": "e2.e1@[0,0]",\n "source": "[0,0]",\n "target": "[2,0]"\n}\n'))
    assert run(["morphism", "ssub@[0,1]"]) == (0, (
        '{\n "abacus_word": "f@[0,1]",\n "carrier": "[0,0,1]:3->2",\n "kind": "bead",\n'
        ' "simplicial_word": "t0@[1,0]",\n "source": "[0,1]",\n "target": "[0,0]"\n}\n'))


# sha256 of the ``--format text`` stdout of one check, one round trip and
# one suite, with the exit code: (argv, the file gen writes for it, exit code,
# digest)
TEXT_DIGESTS = [
    (["check", "2segal"], ["punctured-chain", "--size", "4", "--trunc", "4"], 1,
     "a1cd8f81ed790b10d8863b66983a8674ba81f394157aed44b9df432bd2c5e357"),
    (["roundtrip", "boors"], ["nerve-poset", "--size", "1", "--trunc", "3"], 0,
     "7e53b609ad458af707756fd9e42b99614431e07dadc463b8ca5a6eea60dfce08"),
    (["run-suite", "presentation", "--bound", "1"], None, 0,
     "e34c9cd6fa995f0e1d63b88af57420f22663046ac7e33753664849c045406274"),
]


def test_text_format_is_pinned(tmp_path):
    """``--format text`` prints one ``key: value`` line per key, in sorted
    order, a nested dict under its key two spaces deeper, and a list as its
    length followed by at most its first 10 items."""
    import hashlib

    texts = []
    for argv, gen, want, digest in TEXT_DIGESTS:
        if gen is not None:
            path = str(tmp_path / "in.json")
            assert run(["gen", *gen, "--out", path])[0] == 0
            argv = argv + [path]
        code, text = run(argv + ["--format", "text"])
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (want, digest), argv
        texts.append(text.splitlines())
    check, roundtrip, suite = texts
    assert check[:4] == ["checked: 680", "name: is_2segal[both]", "verdict: fail",
                         "witnesses: [20 items]"]
    assert len(check) == 14 and all(line.startswith("  - {'site': ") for line in check[4:])
    assert roundtrip[:5] == ["axioms:", "  checked: 54", "  name: boors_axioms",
                             "  verdict: pass", "  witnesses: [0 items]"]
    assert "depth: 3" in roundtrip
    assert suite[:2] == ["depth: 1", "entries: [5 items]"] and suite[-2:] == [
        "suite: presentation", "verdict: pass"]


def _cli_steps():
    """The README pipeline that the benchmark's ``cli`` workload runs."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.CLI_STEPS


# the library modules each README command loads in a fresh process, beyond
# the one the CLI itself imports (reports); a file is read and written
# without abacus or decalage
_READ = {"pjson", "presheaf", "simplex"}
_CONSTRUCT = _READ | {"abacus", "configurations", "decalage", "fibrations"}
_COLD_MODULES = {
    "gen-nerve-poset": _READ | {"corpus"},
    "gen-partial-monoid": _READ | {"corpus"},
    "check-segal": _READ | {"fibrations"},
    "check-2segal": _READ | {"fibrations", "decalage"},  # the 2-Segal sides are decalages
    "construct-boors-tot": _CONSTRUCT,
    "construct-extend": _CONSTRUCT,
    "check-invertible-abacus": _CONSTRUCT,
    "construct-rtot": _CONSTRUCT,
    "roundtrip-boors": _CONSTRUCT,
    "roundtrip-M": _CONSTRUCT | {"corpus"},  # build_M maps onto the nerve of an arrow
    "morphism": {"abacus", "simplex"},
    "run-suite-presentation": {"abacus", "simplex"},  # the suite runs on the bead calculus alone
}


def test_each_readme_command_loads_only_what_it_runs(tmp_path):
    """Each README command, as a fresh ``python -m segal_abacus.cli``
    process, exits as the mathematics demands and imports exactly the
    library modules it runs.  In-process tests cannot see this: once any
    test has imported a module, it stays loaded."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    steps = _cli_steps()
    assert [name for name, _, _ in steps] == list(_COLD_MODULES)

    def start(argv):
        return subprocess.Popen([sys.executable, "-X", "importtime", "-m", "segal_abacus.cli", *argv],
                                cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    # the commands that touch no file run beside the pipeline
    early = {name: start(argv) for name, argv, _ in steps
             if not any(arg.endswith(".json") for arg in argv)}
    for name, argv, want in steps:
        proc = early.get(name) or start(argv)
        _, err = proc.communicate(timeout=60)
        imported = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                    if line.startswith("import time:")}
        loaded = {mod.split(".", 1)[1] for mod in imported if mod.startswith("segal_abacus.")}
        assert proc.returncode == want, (name, err[-300:])
        assert loaded == {"reports"} | _COLD_MODULES[name], name
