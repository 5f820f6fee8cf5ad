"""Decidable map-classes and Segal-type conditions, with witnesses.

Left and right fibrations are cartesian on top (resp. bottom) faces;
culf maps are cartesian on the active operators, checked here on the
generating family of inner faces plus all degeneracies.  The Segal
condition is the d_0-against-d_top square family, and the 2-Segal
conditions are the Segal condition after decalage.
"""

from __future__ import annotations

from .presheaf import (
    CheckReport,
    SMap,
    TruncSSet,
    cartesian_on,
    col_sset,
    is_pullback,
    row_sset,
    sub_trunc,
)


def is_left_fibration(F: SMap) -> CheckReport:
    return cartesian_on(F, "d_top", "is_left_fibration")


def is_right_fibration(F: SMap) -> CheckReport:
    return cartesian_on(F, "d_bot", "is_right_fibration")


def is_culf(F: SMap) -> CheckReport:
    return cartesian_on(F, "active", "is_culf")


def is_segal(X: TruncSSet, name: str = "is_segal") -> CheckReport:
    """For each 2 <= n <= T, the square of d_0 against d_n is a pullback.

    Below truncation 2 nothing is checkable; that is reported as zero
    coverage, never as a bare pass.
    """
    if X.trunc < 2:
        return _unverifiable(name)
    reports = []
    for n in range(2, X.trunc + 1):
        reports.append(is_pullback(
            f"segal@{n}",
            X.level(n), X.level(n - 1), X.level(n - 1),
            X.actions["d", n, n], X.actions["d", 0, n],
            X.actions["d", 0, n - 1], X.actions["d", n - 1, n - 1],
        ))
    return CheckReport.conjunction(name, reports)


def _unverifiable(name: str) -> CheckReport:
    """Nothing checkable below truncation 2: zero coverage, said so."""
    return CheckReport(name, coverage=[f"unverifiable:{name}:trunc<2"])


def is_2segal(X: TruncSSet, side: str = "both", name: str | None = None) -> CheckReport:
    """Upper: dec_top is Segal; lower: dec_bottom is Segal."""
    from .decalage import dec

    if side not in ("upper", "lower", "both"):
        raise ValueError(f"unknown side {side!r}")
    name = name or f"is_2segal[{side}]"
    if X.trunc < 1:
        return CheckReport(name, coverage=[f"unverifiable:{name}:trunc<1"])
    parts = []
    if side in ("upper", "both"):
        parts.append(is_segal(dec(X, "top"), f"{name}:upper"))
    if side in ("lower", "both"):
        parts.append(is_segal(dec(X, "bottom"), f"{name}:lower"))
    return CheckReport.conjunction(name, parts)


def _bulk_pullback(B, i, j, vk, hk, name) -> CheckReport:
    """Whether B's square of e_vk against d_hk at level (i, j) is a pullback."""
    A = B.actions
    return is_pullback(
        name,
        B.level(i, j), B.level(i, j - 1), B.level(i - 1, j),
        A["d", hk, (i, j)], A["e", vk, (i, j)],
        A["e", vk, (i, j - 1)], A["d", hk, (i - 1, j)],
    )


def _bulk_levels(B):
    """Bulk levels (i, j >= 0) of a bisimplicial set or abacus presheaf."""
    return sorted(
        (lv for lv in B.levels if lv[0] >= 0 and lv[1] >= 0),
        key=lambda lv: (lv[0] + lv[1], lv),
    )


def stability(B, side: str = "both", name: str | None = None) -> CheckReport:
    """Pullback squares of bottom (upper side) or top (lower side) faces
    against each other, over the bulk.

    A bulk without a (1, 1) level (truncation below 2) has no square to
    check; that is reported as zero coverage, never as a bare pass.
    """
    if side not in ("upper", "lower", "both"):
        raise ValueError(f"unknown side {side!r}")
    name = name or f"stability[{side}]"
    reports = []
    for (i, j) in _bulk_levels(B):
        if i < 1 or j < 1:
            continue
        if side in ("upper", "both"):
            reports.append(_bulk_pullback(B, i, j, 0, 0, f"upper@({i},{j})"))
        if side in ("lower", "both"):
            reports.append(_bulk_pullback(B, i, j, i, j, f"lower@({i},{j})"))
    if not reports:
        return _unverifiable(name)
    return CheckReport.conjunction(name, reports)


def is_double_segal(B, name: str = "is_double_segal") -> CheckReport:
    """Every bulk row and every bulk column is Segal.

    When no row or column reaches truncation 2 nothing is checkable; that
    is reported as zero coverage, never as a bare pass.
    """
    reports = []
    rows = sorted({i for (i, j) in _bulk_levels(B)})
    cols = sorted({j for (i, j) in _bulk_levels(B)})
    for i in rows:
        R = row_sset(B, i)
        if R.trunc >= 2:
            reports.append(is_segal(R, f"row{i}"))
    for j in cols:
        C = col_sset(B, j)
        if C.trunc >= 2:
            reports.append(is_segal(C, f"col{j}"))
    if not reports:
        return _unverifiable(name)
    return CheckReport.conjunction(name, reports)


def reduced_stability(B) -> CheckReport:
    """For double-Segal input, stability reduces to the two (1,1) squares."""
    name = "reduced_stability"
    pre = is_double_segal(B)
    if not pre.passed:
        return CheckReport.precondition_failure(name, "input is not double Segal")
    if (1, 1) not in B.levels:
        return _unverifiable(name)
    upper = _bulk_pullback(B, 1, 1, 0, 0, "upper@(1,1)")
    lower = _bulk_pullback(B, 1, 1, 1, 1, "lower@(1,1)")
    return CheckReport.conjunction(name, [upper, lower])


def vertical_active_row_maps(B):
    """The simplicial maps between bulk rows induced by vertical active
    operators (inner faces and all degeneracies)."""
    rows = sorted({i for (i, j) in _bulk_levels(B)})
    out = []
    for i in rows:
        row = row_sset(B, i)
        if i >= 1 and (i - 1) in rows:
            below = row_sset(B, i - 1)
            out += [(f"e{k}:row{i}->row{i-1}", line_map(B, "e", k, row, below, lambda n: (i, n)))
                    for k in range(1, i)]
        if (i + 1) in rows:
            above = row_sset(B, i + 1)
            out += [(f"t{k}:row{i}->row{i+1}", line_map(B, "t", k, row, above, lambda n: (i, n)))
                    for k in range(i + 1)]
    return out


def line_map(B, kind: str, k, source: TruncSSet, target: TruncSSet, at) -> SMap:
    """B's generator ``kind`` k as a simplicial map from ``source`` to
    ``target``, rows or columns of B (or their decalages), up to the lesser
    truncation; ``at(n)`` is the level of B holding the source's level n."""
    T = min(source.trunc, target.trunc)
    levels = {n: B.actions[kind, k, at(n)] for n in range(T + 1)}
    return SMap(sub_trunc(source, T), sub_trunc(target, T), levels)
