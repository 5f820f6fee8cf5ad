from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from segal_abacus.simplex import (
    GeneratorWord,
    MonotoneMap,
    codegeneracy,
    coface,
    compose_monotone,
    enumerate_monotone,
    epi_mono_factor,
    eval_delta_word,
    identity,
    parse_delta_word,
    parse_monotone,
)


def test_identity_composes():
    i2 = identity(2)
    assert compose_monotone(i2, i2) == i2


def test_coface_composite_value():
    # d^1 . d^0 : [0] -> [2] sends 0 to 2
    f = compose_monotone(coface(1, 2), coface(0, 1))
    assert f.values == (2,)


def test_cosimplicial_face_identity_exhaustive():
    # d^j . d^i = d^i . d^{j-1} for i < j, domains up to [5]
    for n in range(1, 6):
        for j in range(n + 2):
            for i in range(j):
                lhs = compose_monotone(coface(j, n + 1), coface(i, n))
                rhs = compose_monotone(coface(i, n + 1), coface(j - 1, n))
                assert lhs == rhs


def test_mixed_cosimplicial_identities_exhaustive():
    # s^j : [n] -> [n-1] against d^i : [n-1] -> [n]
    for n in range(1, 5):
        for j in range(n):
            assert compose_monotone(codegeneracy(j, n - 1), coface(j, n)) == identity(n - 1)
            assert compose_monotone(codegeneracy(j, n - 1), coface(j + 1, n)) == identity(n - 1)
            for i in range(n + 1):
                sj, di = codegeneracy(j, n - 1), coface(i, n)
                if i < j:
                    assert compose_monotone(sj, di) == compose_monotone(
                        coface(i, n - 1), codegeneracy(j - 1, n - 2)
                    )
                elif i > j + 1:
                    assert compose_monotone(sj, di) == compose_monotone(
                        coface(i - 1, n - 1), codegeneracy(j, n - 2)
                    )


def test_enumerate_counts():
    assert len(enumerate_monotone(1, 1)) == 3
    assert {f.values for f in enumerate_monotone(1, 1)} == {(0, 0), (0, 1), (1, 1)}
    assert len(enumerate_monotone(2, 1)) == 4
    assert len(enumerate_monotone(-1, 3)) == 1
    assert enumerate_monotone(2, -1) == []
    for n in range(-1, 6):
        assert len(enumerate_monotone(-1, n)) == 1
    for m in range(6):
        assert enumerate_monotone(m, -1) == []
        for n in range(6):
            assert len(enumerate_monotone(m, n)) == comb(m + n + 1, m + 1)


def test_compose_requires_matching_sizes():
    with pytest.raises(ValueError):
        compose_monotone(identity(2), identity(1))


def test_epi_mono_examples():
    epi, mono = epi_mono_factor(identity(3))
    assert epi.tokens == () and mono.tokens == ()

    s0 = codegeneracy(0, 0)
    epi, mono = epi_mono_factor(s0)
    assert epi.tokens == (("s", 0),) and mono.tokens == ()

    f = MonotoneMap(3, 3, (0, 0, 2))
    epi, mono = epi_mono_factor(f)
    assert epi.tokens == (("s", 0),)
    assert mono.tokens == (("d", 1),)
    assert compose_monotone(eval_delta_word(mono), eval_delta_word(epi)) == f


def test_epi_mono_roundtrip_exhaustive():
    for m in range(-1, 5):
        for n in range(-1, 5):
            for f in enumerate_monotone(m, n):
                epi, mono = epi_mono_factor(f)
                assert compose_monotone(eval_delta_word(mono), eval_delta_word(epi)) == f
                # canonical sorting of indices
                s_idx = [k for _, k in epi.tokens]
                d_idx = [k for _, k in mono.tokens]
                assert s_idx == sorted(s_idx, reverse=True)
                assert d_idx == sorted(d_idx)


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_epi_mono_roundtrip_random(m, n, data):
    maps = enumerate_monotone(m, n)
    f = data.draw(st.sampled_from(maps))
    epi, mono = epi_mono_factor(f)
    assert compose_monotone(eval_delta_word(mono), eval_delta_word(epi)) == f


def test_word_string_and_parse():
    f = MonotoneMap(3, 3, (0, 0, 2))
    epi, mono = epi_mono_factor(f)
    word = GeneratorWord(epi.tokens + mono.tokens, 2)
    assert str(word) == "d1.s0@[2]"
    assert eval_delta_word(parse_delta_word("d1.s0@[2]")) == f
    assert eval_delta_word(parse_delta_word("id@[3]")) == identity(3)


def test_parse_monotone_roundtrip():
    f = MonotoneMap(3, 3, (0, 0, 2))
    assert parse_monotone(str(f)) == f
    assert parse_monotone("[]:0->2") == MonotoneMap(0, 2, ())


# ---------------------------------------------------------------------------
# The constructor's whole-tuple validation against the element-by-element one


def _ref_monotone_checks(dom, cod, values):
    """The validation ``MonotoneMap`` ran before its whole-tuple tests."""
    if dom < 0 or cod < 0:
        raise ValueError("ordinal sizes must be nonnegative")
    if len(values) != dom:
        raise ValueError(f"expected {dom} values, got {len(values)}")
    for a, b in zip(values, values[1:]):
        if a > b:
            raise ValueError(f"values not weakly increasing: {values}")
    for v in values:
        if not 0 <= v < cod:
            raise ValueError(f"value {v} outside codomain of size {cod}")


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # compared by type and message with the reference
        return type(exc), str(exc)
    return None


@st.composite
def monotone_args(draw):
    """``(dom, cod, values)``: sizes from -1, a length that is sometimes off
    by one, values that sometimes reach past either end of the codomain,
    sorted three times in four."""
    dom, cod = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
    length = max(dom + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    value = st.integers(-1, cod + 1) if draw(st.booleans()) else st.integers(0, max(cod - 1, 0))
    values = draw(st.lists(value, min_size=length, max_size=length))
    if draw(st.integers(0, 3)):
        values.sort()
    return dom, cod, tuple(values)


@settings(max_examples=300, deadline=None)
@given(monotone_args())
def test_monotone_validation_matches_reference(args):
    assert _outcome(MonotoneMap, *args) == _outcome(_ref_monotone_checks, *args)
