"""Slope-regime arithmetic and the cable mountain ranges.

A cable knot is the n = 1 case of the (np, nq)-cable links in ``links``.
This module holds what the link types and the mountain ranges share, none
of which needs a link type: the slope regimes, the lesser thresholds, and
the invariants of the unstabilized cable of a class.

Greater-sloped cables (q/p above the width ceiling) come with a p-by-p
diamond of stabilization classes over the underlying knot; integer-sloped
lesser cables are twisted n-copies; non-integer lesser-sloped cables of
uniformly thick knot types come as +/- standard cables of the classes in
the tb = ceil(q/p) window, which merge into ruling forms past the
thresholds.  Only exact integer arithmetic is used.

Sign conventions.  The cable slope is always the actual pair (p, q) with
gcd(p, q) = 1 and p >= 1; q may be negative.  A greater cable of u has
tb = pq - (q - p tb(u)) and rot = p rot(u); the rotation number p rot(u)
is forced by the stabilization relation S_+/-^p(cable(u)) = cable(S_+/-(u))
and by the p = 1 case, where the cable is the core.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .atlas import (
    KnotAtlas,
    LegClass,
    NEG,
    POS,
    RotTb,
    ceil_div,
    class_label,
    class_rows,
    classes_at_tb,
    invariants,
    named_label,
)
from .errors import NotReduced, WrongRegime
from .mountain import MountainRange, check_cutoff, tally


class Regime(Enum):
    GREATER = "greater"
    INTEGER_LESSER = "integer-lesser"
    NONINTEGER_LESSER = "noninteger-lesser"
    UNSUPPORTED_WINDOW = "unsupported-window"


def check_slope(p: int, q: int) -> None:
    if p < 1 or gcd(p, q) != 1:
        raise NotReduced(f"slope ({p},{q}) must have p >= 1 and gcd(p,q) = 1")


def regime(atlas: KnotAtlas, p: int, q: int) -> Regime:
    """Classify the cabling slope q/p against the atlas metadata."""
    check_slope(p, q)
    if q > p * atlas.width_ceiling:
        return Regime.GREATER
    if p == 1 and q <= atlas.tbb:
        return Regime.INTEGER_LESSER
    if p > 1 and q < p * atlas.tbb and atlas.uniformly_thick:
        return Regime.NONINTEGER_LESSER
    return Regime.UNSUPPORTED_WINDOW


def _stabilized(cells, tb_min: int):
    """Labelled points of the stabilizations of unstabilized cables.

    A cell is (name, invariants, a_lim, b_lim); it yields the label
    ``named_label(name, a, b)`` at (rot + a - b, tb - a - b) for a < a_lim and
    b < b_lim, down to the row ``tb_min``.  So a cell costs at most its
    points above the cutoff, however large p is.
    """
    for name, (rot, tb), a_lim, b_lim in cells:
        depth = tb - tb_min
        for a in range(min(a_lim, depth + 1)):
            for b in range(min(b_lim, depth - a + 1)):
                yield (rot + a - b, tb - a - b), named_label(name, a, b)


# ---------------------------------------------------------------------------
# Greater-sloped cables


def greater_base_invariants(atlas: KnotAtlas, u: LegClass, p: int, q: int) -> RotTb:
    """Invariants of the unstabilized greater (p, q)-cable of ``u``."""
    rot_u, tb_u = invariants(atlas, u)
    return RotTb(p * rot_u, p * q - (q - p * tb_u))


def cable_mountain_range(atlas: KnotAtlas, p: int, q: int, tb_min: int) -> MountainRange:
    """Distinct greater-cable classes per lattice point down to tb_min.

    Every class u carries its diamond: the stabilizations (i, j) in [0, p)^2
    of its unstabilized cable.
    """
    if regime(atlas, p, q) is not Regime.GREATER:
        raise WrongRegime(f"({p},{q}) is not a greater slope for {atlas.name}")
    # The peak row holds the cables of the classes at tbb.
    check_cutoff(tb_min, p * q - (q - p * atlas.tbb))
    # Underlying classes with tb_u below this floor cannot reach tb_min even
    # with i = j = 0.
    floor = ceil_div(tb_min - p * q + q, p)
    cells = [
        (f"{class_label(atlas, u)}({p},{q})", greater_base_invariants(atlas, u, p, q), p, p)
        for _, row in class_rows(atlas, floor)
        for u in row
    ]
    return tally(sorted(_stabilized(cells, tb_min)), tb_min)


# ---------------------------------------------------------------------------
# Non-integer lesser-sloped cables

DIVIDE = "divide"
RULING = "ruling"


def lesser_thresholds(atlas: KnotAtlas, p: int, q: int) -> tuple[int, int]:
    """(theta0, theta1) for the tb = ceil(q/p) window; theta0 + theta1 = p."""
    tb_w = ceil_div(q, p)
    theta0 = p * tb_w - q
    return theta0, p - theta0


def lesser_base_invariants(
    atlas: KnotAtlas, form: str, base: LegClass, sign: int, p: int, q: int
) -> RotTb:
    """Invariants of the unstabilized lesser cable of ``base``.

    A standard cable (form "divide") has tb = pq and
    rot = p rot(base) + sign (p tb(base) - q); a ruling form has rot = p rot(base)
    and tb = pq - |p tb(base) - q|.
    """
    rot_b, tb_b = invariants(atlas, base)
    if form == DIVIDE:
        return RotTb(rot_b * p + sign * (p * tb_b - q), p * q)
    return RotTb(rot_b * p, p * q - abs(p * tb_b - q))


def lesser_mountain_range(atlas: KnotAtlas, p: int, q: int, tb_min: int) -> MountainRange:
    """Distinct lesser-cable knot classes per lattice point, after all merges.

    These are the canonical forms of the n = 1 lesser link: below the
    thresholds, each window class carries its two standard cables and the
    ruling form over it; every class below the window carries a p-by-p
    block of deep ruling forms.  The peak row tb = pq carries exactly two
    classes per window class.
    """
    if regime(atlas, p, q) is not Regime.NONINTEGER_LESSER:
        raise WrongRegime(f"({p},{q}) is not a non-integer lesser slope for {atlas.name}")
    check_cutoff(tb_min, p * q)
    th0, th1 = lesser_thresholds(atlas, p, q)
    window = ceil_div(q, p)
    # tb of a deep ruling with zero vector is pq - (q - p tb_u); below this
    # floor even the unstabilized ruling sits under the cutoff.
    floor = ceil_div(tb_min - p * q + q, p)
    rows = dict(class_rows(atlas, min(window, floor), window))
    cells = []
    for w in rows[window]:
        name = class_label(atlas, w)
        cells += [
            (f"{name}^+", lesser_base_invariants(atlas, DIVIDE, w, POS, p, q), th1, th0),
            (f"{name}^-", lesser_base_invariants(atlas, DIVIDE, w, NEG, p, q), th0, th1),
            (f"rul[{name}]", lesser_base_invariants(atlas, RULING, w, 0, p, q), th1, th1),
        ]
    cells += [
        (f"rul[{class_label(atlas, u)}]", lesser_base_invariants(atlas, RULING, u, 0, p, q), p, p)
        for tb_u in range(window - 1, floor - 1, -1)
        for u in rows[tb_u]
    ]
    return tally(sorted(_stabilized(cells, tb_min)), tb_min)


def window_classes(atlas: KnotAtlas, p: int, q: int) -> list[LegClass]:
    """The distinct classes at tb = ceil(q/p), the lesser-cable bases."""
    return classes_at_tb(atlas, ceil_div(q, p))
