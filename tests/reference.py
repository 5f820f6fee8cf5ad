"""Frozen copies of earlier library code that tests compare the library with.

A copy here does not follow the library: a test that checks a validator
against a reference built on these keeps checking the earlier behaviour
after the validator's own loop changes.
"""

from collections import namedtuple

from segal_abacus.presheaf import Witness

# A square as its parts, in the order ``presheaf.is_pullback`` takes them:
# ``p -> a -> c`` and ``p -> b -> c``; ``is_pullback(*sq)`` decides it.
Square = namedtuple("Square", "name p_elems a_elems b_elems p_to_a p_to_b a_to_c b_to_c")


def check_total(table, src, tgt, label, witnesses) -> int:
    """The totality walk of the earlier validators: "action table missing"
    for an absent table, else for each element of ``src`` in turn "action
    undefined" or "action leaves level" (``tgt``); returns the elements
    walked."""
    if table is None:
        witnesses.append(Witness(label, "action table missing", ()))
        return 0
    tgt_set = set(tgt)
    n = 0
    for x in src:
        n += 1
        if x not in table:
            witnesses.append(Witness(label, "action undefined", (x,)))
        elif table[x] not in tgt_set:
            witnesses.append(Witness(label, "action leaves level", (x, table[x])))
    return n
