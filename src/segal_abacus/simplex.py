"""Finite ordinals, monotone maps, and generator words.

Objects of the simplex category are written ``[n]`` and have ``n + 1``
elements; the empty ordinal ``[-1]`` is a first-class object with exactly
one map into every ``[n]``.  Maps are stored by their value lists, so
equality is structural and nothing is ever quotiented.

Words of generators are stored in *application order* (first token acts
first).  The string form uses composition order, ``"d1.s0@[2]"`` meaning
apply ``s0`` to ``[2]`` and then ``d1``.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .reports import Frozen


class MonotoneMap(Frozen):
    """A weakly increasing map between finite ordinals.

    ``dom`` and ``cod`` are ordinal *sizes*: the object ``[n]`` has size
    ``n + 1``, so ``[-1]`` has size 0.  ``values`` lists the image of each
    domain element in position order.
    """

    __slots__ = ("dom", "cod", "values")

    def __init__(self, dom: int, cod: int, values: tuple[int, ...]):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "values", values)
        if dom < 0 or cod < 0:
            raise ValueError("ordinal sizes must be nonnegative")
        if len(values) != dom:
            raise ValueError(f"expected {dom} values, got {len(values)}")
        if list(values) != sorted(values):
            raise ValueError(f"values not weakly increasing: {values}")
        # sorted values lie in range when their ends do; only then is the
        # first offender looked for, to name it
        if values and not (values[0] >= 0 and values[-1] < cod):
            v = values[0] if values[0] < 0 else next(v for v in values if v >= cod)
            raise ValueError(f"value {v} outside codomain of size {cod}")

    @property
    def dom_n(self) -> int:
        """Domain as an object index: dom = [dom_n]."""
        return self.dom - 1

    @property
    def cod_n(self) -> int:
        return self.cod - 1

    def __call__(self, k: int) -> int:
        return self.values[k]

    def is_identity(self) -> bool:
        return self.dom == self.cod and self.values == tuple(range(self.dom))

    def __str__(self) -> str:
        return f"[{','.join(map(str, self.values))}]:{self.dom}->{self.cod}"


def identity(n: int) -> MonotoneMap:
    """Identity of the object [n]."""
    return MonotoneMap(n + 1, n + 1, tuple(range(n + 1)))


def coface(k: int, n: int) -> MonotoneMap:
    """d^k : [n-1] -> [n], the injection missing k (0 <= k <= n)."""
    if not 0 <= k <= n:
        raise ValueError(f"coface index {k} out of range for [{n}]")
    return MonotoneMap(n, n + 1, tuple(v if v < k else v + 1 for v in range(n)))


def codegeneracy(k: int, n: int) -> MonotoneMap:
    """s^k : [n+1] -> [n], the surjection hitting k twice (0 <= k <= n)."""
    if not 0 <= k <= n:
        raise ValueError(f"codegeneracy index {k} out of range for [{n}]")
    return MonotoneMap(n + 2, n + 1, tuple(v if v <= k else v - 1 for v in range(n + 2)))


def compose_monotone(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """The composite g . f (f acts first). Requires f.cod == g.dom."""
    if f.cod != g.dom:
        raise ValueError(f"not composable: {f} then {g}")
    return MonotoneMap(f.dom, g.cod, tuple(g.values[v] for v in f.values))


def enumerate_monotone(m: int, n: int) -> list[MonotoneMap]:
    """All monotone maps [m] -> [n], for m, n >= -1.

    The count is C(m+n+1, m+1) for m, n >= 0; there is exactly one map out
    of [-1], and none into [-1] from a nonempty ordinal.
    """
    if m < -1 or n < -1:
        raise ValueError("objects must be [k] with k >= -1")
    if m == -1:
        return [MonotoneMap(0, n + 1, ())]
    if n == -1:
        return []
    return [
        MonotoneMap(m + 1, n + 1, vals)
        for vals in combinations_with_replacement(range(n + 1), m + 1)
    ]


# ---------------------------------------------------------------------------
# Generator words


class GeneratorWord(Frozen):
    """A word of generator tokens with a source-object annotation.

    ``tokens`` are pairs ``(kind, index)`` in application order; ``index``
    is None for index-free generators.  ``source`` is the object the first
    token is applied at (an int for simplex words; richer annotations are
    used by other calculi).
    """

    __slots__ = ("tokens", "source")

    def __init__(self, tokens: tuple[tuple[str, int | None], ...], source: object):
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "source", source)

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        if not self.tokens:
            return f"id@{_fmt_source(self.source)}"
        body = ".".join(
            t[0] + ("" if t[1] is None else str(t[1])) for t in reversed(self.tokens)
        )
        return f"{body}@{_fmt_source(self.source)}"


def _fmt_source(source) -> str:
    if isinstance(source, int):
        return f"[{source}]"
    return str(source)


def eval_delta_word(word: GeneratorWord) -> MonotoneMap:
    """Evaluate a word of d/s tokens to a monotone map, checking chaining."""
    n = word.source
    if not isinstance(n, int):
        raise TypeError("simplex words carry an integer source object")
    out = identity(n)
    for kind, k in word.tokens:
        if kind == "d":
            step = coface(k, out.cod_n + 1)
        elif kind == "s":
            step = codegeneracy(k, out.cod_n - 1)
        else:
            raise ValueError(f"unknown simplex token {kind!r}")
        out = compose_monotone(step, out)
    return out


def parse_delta_word(text: str) -> GeneratorWord:
    """Parse the compact string form, e.g. ``"d2.s0@[3]"`` or ``"id@[1]"``."""
    body, _, at = text.partition("@")
    if not at.startswith("[") or not at.endswith("]"):
        raise ValueError(f"missing object annotation in {text!r}")
    n = int(at[1:-1])
    if body == "id" or body == "":
        return GeneratorWord((), n)
    toks = []
    for piece in body.split("."):
        kind, idx = piece[:1], piece[1:]  # an empty piece is a bad token
        if kind not in ("d", "s") or not idx.lstrip("-").isdigit():
            raise ValueError(f"bad token {piece!r} in {text!r}")
        toks.append((kind, int(idx)))
    return GeneratorWord(tuple(reversed(toks)), n)


def parse_monotone(text: str) -> MonotoneMap:
    """Parse the raw value-list form, e.g. ``"[0,0,2]:3->3"``."""
    vals, _, sizes = text.partition(":")
    dom, _, cod = sizes.partition("->")
    inner = vals.strip()[1:-1].strip()
    values = tuple(int(v) for v in inner.split(",")) if inner else ()
    return MonotoneMap(int(dom), int(cod), values)


def epi_mono_factor(f: MonotoneMap) -> tuple[GeneratorWord, GeneratorWord]:
    """Split f into its canonical degeneracy and face words.

    Returns ``(epi, mono)`` where ``epi`` is a word of s-tokens (indices
    strictly decreasing in application order) and ``mono`` a word of
    d-tokens (indices strictly increasing in application order), with
    ``f = eval(mono after epi)``.
    """
    degens, faces = epi_mono_indices(f.values, f.cod)
    epi = GeneratorWord(tuple(("s", j) for j in degens), f.dom_n)
    mono = GeneratorWord(tuple(("d", i) for i in faces), f.cod_n - len(faces))
    return epi, mono


def epi_mono_indices(values, cod: int) -> tuple[list, list]:
    """The indices of the canonical factorization of the monotone map with
    these values into the ordinal of size ``cod``: its degeneracies,
    strictly decreasing (application order), and its faces, strictly
    increasing.  Nothing is validated or built."""
    image = set(values)
    return ([k for k in range(len(values) - 2, -1, -1) if values[k] == values[k + 1]],
            [v for v in range(cod) if v not in image])
