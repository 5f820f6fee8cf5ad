"""In-memory span tracing around calls into the library's layers.

The tracer replaces selected library functions, in every ``segal_abacus``
module that holds a reference to them, with wrappers that record a span
per call: name, start, end, parent span and fixture id.  No library file
is changed; the wrappers live here and are installed only in traced
benchmark processes.

A span's self time is its duration minus the time covered by its direct
children.  Counters (calls, checked, elements, ids, bytes) are taken only
at the outermost span of a name, so a layer that recurses into itself
(``validate`` calling ``validate_dset``) is counted once per outer call.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

# Layer table: metric prefix, module, function names, counters taken from
# the call.  Functions sharing a prefix are one layer.
LAYERS = [
    ("presheaf.validate", "presheaf",
     ("validate", "validate_sset", "validate_smap", "validate_dset",
      "validate_bisset", "validate_sigmaset"), ("calls", "checked")),
    ("configurations.q_lower_star", "configurations", ("q_lower_star",), ("calls", "elements")),
    ("configurations.p_star_tot", "configurations", ("p_star_tot",), ("calls", "elements")),
    ("configurations.extend_sigma_to_d", "configurations", ("extend_sigma_to_d",), ("calls", "elements")),
    ("configurations.build_M", "configurations", ("build_M",), ("calls", "elements")),
    ("configurations.r_star", "configurations", ("r_star",), ("calls", "elements")),
    ("configurations.j_upper_star", "configurations", ("j_upper_star",), ("calls", "elements")),
    ("configurations.condition_star", "configurations", ("condition_star",), ("checked",)),
    ("configurations.unit_iso", "configurations", ("unit_iso",), ("checked",)),
    ("configurations.boors_axioms", "configurations", ("boors_axioms",), ("checked",)),
    ("configurations.has_invertible_abacus", "configurations", ("has_invertible_abacus",), ("checked",)),
    ("configurations.is_bicomodule_config", "configurations", ("is_bicomodule_config",), ("checked",)),
    ("configurations.dset_iso_report", "configurations", ("dset_iso_report",), ("checked",)),
    ("configurations.m_2segal_dictionary", "configurations", ("m_2segal_dictionary",), ("checked",)),
    ("fibrations.cartesian_on", "presheaf", ("cartesian_on",), ("checked",)),
    ("fibrations.is_segal", "fibrations", ("is_segal",), ("checked",)),
    ("fibrations.is_2segal", "fibrations", ("is_2segal",), ("checked",)),
    ("fibrations.stability", "fibrations", ("stability",), ("checked",)),
    ("decalage.dec", "decalage", ("dec",), ("elements",)),
    ("decalage.counit", "decalage", ("counit",), ("elements",)),
    ("decalage.sd", "decalage", ("sd",), ("elements",)),
    ("decalage.tot", "decalage", ("tot",), ("elements",)),
    ("corpus.build", "corpus",
     ("nerve", "nerve_map", "poset_inclusion", "upset_inclusion", "downset_inclusion",
      "partial_monoid_sset", "two_segal_partial_monoid", "graph_sset", "glued_edges_sset",
      "punctured_chain_sset", "path_graph_sset", "standard_nerve_corpus",
      "standard_map_corpus", "random_poset_corpus"), ("elements",)),
    ("abacus.bead_calculus", "abacus",
     ("relation_suite", "trapezium_suite", "word_closure_homs", "hom_enumerate", "factorize"),
     ("calls",)),
    ("pjson.dump", "pjson", ("dump",), ("bytes",)),
    ("pjson.load", "pjson", ("load",), ()),
]

# Called hundreds of thousands of times: aggregated without span records.
LEAVES = [
    ("presheaf.idkey_sort", "presheaf", ("_sorted_ids",), ("ids",)),
]


def elements(obj) -> int:
    """Number of elements (simplices) held by a constructed value."""
    if isinstance(obj, list):
        return sum(elements(p) for _, p in obj)
    if isinstance(obj, tuple):  # (presheaf, report) and (M, projection)
        obj = obj[0] if obj else None
    obj = getattr(obj, "bulk", obj)
    levels = getattr(obj, "levels", None)
    if isinstance(levels, dict):
        return sum(len(v) for v in levels.values())
    return 0


def _is_fixture(obj) -> bool:
    """A presheaf or map (not a truncation or a name) that a suite runs on."""
    return hasattr(obj, "levels") or hasattr(obj, "bulk")


def _count(stat: str, args, result) -> int:
    if stat == "calls":
        return 1
    if stat == "checked":
        return getattr(result, "checked", 0)
    if stat == "elements":
        return elements(result)
    if stat == "ids":
        return len(result)
    if stat == "bytes":
        return os.path.getsize(args[1])
    raise ValueError(stat)


class Tracer:
    """Holds the spans and per-layer totals of one traced process."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, fixture id)
        self.stack = []  # open frames: [span id, name, start, child time, fixture id]
        self.totals = {}  # name -> {"self_s": ..., counter: ...}
        self.depth = {}  # name -> number of open spans of that name
        self.fixtures = {}  # id(fixture) -> (fixture id, fixture kept alive so ids stay unique)
        self.roots = set()  # names of root spans, whose self time no layer claims
        self.next_id = 0

    def _totals(self, name, stats):
        if name not in self.totals:
            self.totals[name] = {"self_s": 0.0, **{s: 0 for s in stats}}
        return self.totals[name]

    def open_root(self, name):
        self.roots.add(name)
        self._totals(name, ())
        return self._enter(name, None)

    def close_root(self, frame):
        self._exit(frame, (), None, (), ok=False, record=True)

    def _enter(self, name, args):
        if not self.stack:
            fixture = None
        elif self.stack[-1][4] is None and args and _is_fixture(args[0]):
            obj = args[0]
            entry = self.fixtures.get(id(obj))
            if entry is None:
                entry = self.fixtures[id(obj)] = (len(self.fixtures), obj)
            fixture = entry[0]
        else:
            fixture = self.stack[-1][4]
        frame = [self.next_id, name, 0.0, 0.0, fixture]
        self.next_id += 1
        self.stack.append(frame)
        self.depth[name] = self.depth.get(name, 0) + 1
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame, stats, result, args, ok, record):
        end = perf_counter()
        sid, name, start, child, fixture = frame
        self.stack.pop()
        self.depth[name] -= 1
        dur = end - start
        tot = self._totals(name, stats)
        tot["self_s"] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        if ok and self.depth[name] == 0:
            for stat in stats:
                tot[stat] += _count(stat, args, result)
        if record:
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append((sid, name, start, end, parent, fixture))

    def wrap(self, name, fn, stats, record):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name, args if record else ())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, stats, None, args, ok=False, record=record)
                raise
            tracer._exit(frame, stats, result, args, ok=True, record=record)
            return result

        return traced

    def install(self):
        """Wrap every listed function wherever a library module refers to it."""
        for mod in ("presheaf", "configurations", "fibrations", "decalage", "corpus",
                    "pjson", "suites", "cli", "abacus", "simplex"):
            importlib.import_module(f"segal_abacus.{mod}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "segal_abacus" or n.startswith("segal_abacus.")]
        for table, record in ((LAYERS, True), (LEAVES, False)):
            for name, mod, funcs, stats in table:
                self._totals(name, stats)
                home = sys.modules[f"segal_abacus.{mod}"]
                for func in funcs:
                    orig = getattr(home, func, None)
                    if orig is None:  # removed by a later refactor: the layer reads 0
                        continue
                    wrapped = self.wrap(name, orig, stats, record)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapped)
