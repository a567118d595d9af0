"""Cable links with per-component stabilization vectors, and isotopy decisions.

Links are unordered by default: two values denote the same link when their
canonical forms agree up to a permutation of components.  Ordered questions
(which component permutations an isotopy can realize) are answered only by
``permutation_realizable``.

Canonical forms per regime:

* greater: while every component has been stabilized p times with one sign,
  the stabilizations push into the underlying knot;
* integer-sloped: values are twisted-copy presentations (base class, twist
  count, vector); the identification moves between presentations are not
  confluent as oriented rules, so they are explored as equalities inside the
  decision procedure instead of being normalized away;
* non-integer lesser: the two standard cables of each window class rewrite
  to ruling forms at the thresholds theta0 = p tb(w) - q and
  theta1 = p - theta0, window-level ruling forms shift to the level below
  (costing theta1 of one sign while granting theta0 of the other), and deep
  ruling forms reduce by p per sign like greater cables.

Verdicts are three-valued; Unknown is returned exactly where the underlying
classification is silent, with a reason naming the silent clause.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

from .atlas import (
    LegClass,
    Named,
    NEG,
    POS,
    RotTb,
    ceil_div,
    class_from_json,
    class_label,
    class_to_json,
    classes_at_tb,
    destabilizations,
    invariants,
    is_equal,
    normalize,
    peaks,
    stabilize,
)
from .cables import (
    DIVIDE,
    RULING,
    IntegerLinkBase,
    Regime,
    greater_base_invariants,
    lesser_base_invariants,
    lesser_thresholds,
    regime,
    twisted_copy,
    window_classes,
)
from .errors import (
    BadIndex,
    LengthMismatch,
    NotAPermutation,
    RegimeMismatch,
    WrongRegime,
    WrongWindow,
)

ISOTOPIC = "isotopic"
NOT_ISOTOPIC = "not_isotopic"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    kind: str
    reason: str = ""
    witness: Optional[dict] = None

    @classmethod
    def yes(cls, reason: str = "", witness: Optional[dict] = None) -> "Verdict":
        return cls(ISOTOPIC, reason, witness)

    @classmethod
    def no(cls, reason: str = "", witness: Optional[dict] = None) -> "Verdict":
        return cls(NOT_ISOTOPIC, reason, witness)

    @classmethod
    def maybe(cls, reason: str, witness: Optional[dict] = None) -> "Verdict":
        return cls(UNKNOWN, reason, witness)

    @property
    def is_isotopic(self) -> bool:
        return self.kind == ISOTOPIC

    @property
    def is_not_isotopic(self) -> bool:
        return self.kind == NOT_ISOTOPIC

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN

    @property
    def conclusive(self) -> bool:
        return self.kind != UNKNOWN

    def to_json(self) -> dict:
        doc = {"verdict": self.kind, "reason": self.reason}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


StabVec = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GreaterLink:
    u: LegClass
    n: int
    p: int
    q: int
    vec: StabVec


@dataclass(frozen=True)
class IntegerLink:
    base: IntegerLinkBase
    vec: StabVec


@dataclass(frozen=True)
class LesserLink:
    """Either a stabilized standard cable (form "divide", sign +1/-1 on the
    base window class) or a stabilized ruling curve family (form "ruling",
    sign 0, base at or below the window)."""

    form: str
    base: LegClass
    sign: int
    n: int
    p: int
    q: int
    vec: StabVec


Link = Union[GreaterLink, IntegerLink, LesserLink]


def _check_vec(vec, n: int) -> StabVec:
    out = tuple((int(a), int(b)) for a, b in vec)
    if len(out) != n:
        raise LengthMismatch(f"vector has {len(out)} entries for {n} components")
    if any(a < 0 or b < 0 for a, b in out):
        raise LengthMismatch(f"stabilization counts must be nonnegative: {out}")
    return out


def zero_vec(n: int) -> StabVec:
    return tuple((0, 0) for _ in range(n))


# ---------------------------------------------------------------------------
# Constructors


def make_greater_link(atlas, u: LegClass, n: int, p: int, q: int, vec=None) -> GreaterLink:
    if regime(atlas, p, q) is not Regime.GREATER:
        raise WrongRegime(f"({p},{q}) is not a greater slope for {atlas.name}")
    vec = _check_vec(vec if vec is not None else zero_vec(n), n)
    return GreaterLink(normalize(atlas, u), n, p, q, vec)


def make_integer_link(atlas, base: IntegerLinkBase, vec=None) -> IntegerLink:
    if regime(atlas, 1, base.q) is not Regime.INTEGER_LESSER:
        raise WrongRegime(f"(1,{base.q}) is not an integer lesser slope for {atlas.name}")
    vec = _check_vec(vec if vec is not None else zero_vec(base.n), base.n)
    return IntegerLink(base, vec)


def make_lesser_link(
    atlas, base: LegClass, sign: int, n: int, p: int, q: int, vec=None, form: str = DIVIDE
) -> LesserLink:
    if regime(atlas, p, q) is not Regime.NONINTEGER_LESSER:
        raise WrongRegime(f"({p},{q}) is not a non-integer lesser slope for {atlas.name}")
    base = normalize(atlas, base)
    _, tb = invariants(atlas, base)
    window = ceil_div(q, p)
    if form == DIVIDE:
        if tb != window:
            raise WrongWindow(f"divide-form base tb={tb}, window is tb={window}")
        if sign not in (POS, NEG):
            raise WrongWindow(f"divide form needs sign +1 or -1, got {sign!r}")
    elif form == RULING:
        if tb > window:
            raise WrongWindow(f"ruling-form base tb={tb} above the window tb={window}")
        sign = 0
    else:
        raise WrongWindow(f"unknown lesser form {form!r}")
    vec = _check_vec(vec if vec is not None else zero_vec(n), n)
    return LesserLink(form, base, sign, n, p, q, vec)


def make_link(atlas, doc: dict) -> Link:
    """Parse the link interchange document (see link_to_json)."""
    reg = str(doc["regime"])
    n = int(doc["n"])
    p = int(doc.get("p", 1))
    q = int(doc["q"])
    vec = doc.get("vec") or zero_vec(n)
    base = doc.get("base", {})
    cls = class_from_json(base["class"])
    if reg == Regime.GREATER.value:
        return make_greater_link(atlas, cls, n, p, q, vec)
    if reg == Regime.INTEGER_LESSER.value:
        cls = normalize(atlas, cls)
        _, tb = invariants(atlas, cls)
        t = int(base.get("t", tb - q))
        if tb - t != q:
            raise RegimeMismatch(f"base tb={tb} with t={t} does not give slope q={q}")
        return make_integer_link(atlas, twisted_copy(atlas, cls, n, t), vec)
    if reg == Regime.NONINTEGER_LESSER.value:
        form = str(base.get("form", DIVIDE))
        sign_txt = base.get("sign", "+")
        sign = POS if sign_txt in ("+", 1, POS) else NEG
        return make_lesser_link(atlas, cls, sign, n, p, q, vec, form=form)
    raise RegimeMismatch(f"unknown regime {reg!r}")


def link_to_json(atlas, link: Link) -> dict:
    if isinstance(link, GreaterLink):
        return {
            "atlas": atlas.name,
            "regime": Regime.GREATER.value,
            "p": link.p,
            "q": link.q,
            "n": link.n,
            "base": {"class": class_to_json(link.u)},
            "vec": [list(ab) for ab in link.vec],
        }
    if isinstance(link, IntegerLink):
        return {
            "atlas": atlas.name,
            "regime": Regime.INTEGER_LESSER.value,
            "p": 1,
            "q": link.base.q,
            "n": link.base.n,
            "base": {"class": class_to_json(link.base.L), "t": link.base.t},
            "vec": [list(ab) for ab in link.vec],
        }
    return {
        "atlas": atlas.name,
        "regime": Regime.NONINTEGER_LESSER.value,
        "p": link.p,
        "q": link.q,
        "n": link.n,
        "base": {
            "class": class_to_json(link.base),
            "form": link.form,
            "sign": "+" if link.sign == POS else ("-" if link.sign == NEG else "0"),
        },
        "vec": [list(ab) for ab in link.vec],
    }


def link_label(atlas, link: Link) -> str:
    if isinstance(link, GreaterLink):
        stabs = ",".join(f"+{a}-{b}" for a, b in link.vec)
        return f"{class_label(atlas, link.u)}_{link.n}({link.p},{link.q})[{stabs}]"
    if isinstance(link, IntegerLink):
        stabs = ",".join(f"+{a}-{b}" for a, b in link.vec)
        return f"T^{link.base.t}({link.base.n}.{class_label(atlas, link.base.L)})[{stabs}]"
    sign = {POS: "+", NEG: "-", 0: ""}[link.sign]
    stabs = ",".join(f"+{a}-{b}" for a, b in link.vec)
    form = "" if link.form == DIVIDE else "rul:"
    return f"{form}{class_label(atlas, link.base)}^{sign}_{link.n}({link.p},{link.q})[{stabs}]"


# ---------------------------------------------------------------------------
# Component data


def component_invariants(atlas, link: Link) -> list[RotTb]:
    if isinstance(link, GreaterLink):
        rot0, tb0 = greater_base_invariants(atlas, link.u, link.p, link.q)
        return [RotTb(rot0 + a - b, tb0 - a - b) for a, b in link.vec]
    if isinstance(link, IntegerLink):
        rot, tb = invariants(atlas, link.base.L)
        t = link.base.t
        out = []
        for c, (a, b) in enumerate(link.vec):
            base_tb = tb if c == 0 else tb - 2 * t
            out.append(RotTb(rot + a - b, base_tb - a - b))
        return out
    rot0, tb0 = lesser_base_invariants(atlas, link.form, link.base, link.sign, link.p, link.q)
    return [RotTb(rot0 + a - b, tb0 - a - b) for a, b in link.vec]


def component_class(atlas, link: Link, c: int):
    """The Legendrian class of component ``c`` (1-based).

    Integer-sloped ruling components are the base stabilized t times with
    both signs plus their own counts; greater and lesser components are the
    canonical n = 1 specialization of the link itself.  Two components are
    proven to be the same class exactly when these values are equal.
    """
    if not 1 <= c <= _link_n(link):
        raise BadIndex(f"component {c} of a link with {_link_n(link)} components")
    a, b = link.vec[c - 1]
    if isinstance(link, GreaterLink):
        return canonicalize(atlas, GreaterLink(link.u, 1, link.p, link.q, ((a, b),)))
    if isinstance(link, IntegerLink):
        t = link.base.t if c > 1 else 0
        return normalize(
            atlas,
            stabilize(atlas, stabilize(atlas, link.base.L, POS, t + a), NEG, t + b),
        )
    one = LesserLink(link.form, link.base, link.sign, 1, link.p, link.q, ((a, b),))
    return canonicalize(atlas, one)


def _link_n(link: Link) -> int:
    return link.base.n if isinstance(link, IntegerLink) else link.n


def _link_slope(link: Link) -> tuple[int, int]:
    if isinstance(link, IntegerLink):
        return (1, link.base.q)
    return (link.p, link.q)


def stabilize_component(atlas, link: Link, c: int, sign: int, count: int = 1) -> Link:
    """Stabilize one component (1-based index), then canonicalize."""
    n = _link_n(link)
    if not 1 <= c <= n:
        raise BadIndex(f"component {c} of a link with {n} components")
    vec = list(link.vec)
    a, b = vec[c - 1]
    vec[c - 1] = (a + count, b) if sign == POS else (a, b + count)
    vec = tuple(vec)
    if isinstance(link, GreaterLink):
        return canonicalize(atlas, GreaterLink(link.u, link.n, link.p, link.q, vec))
    if isinstance(link, IntegerLink):
        return canonicalize(atlas, IntegerLink(link.base, vec))
    return canonicalize(
        atlas, LesserLink(link.form, link.base, link.sign, link.n, link.p, link.q, vec)
    )


# ---------------------------------------------------------------------------
# Canonicalization


def canonicalize(atlas, link: Link) -> Link:
    if isinstance(link, GreaterLink):
        return _canonicalize_greater(atlas, link)
    if isinstance(link, IntegerLink):
        # Presentation moves are identities, not reductions; they are
        # explored inside the decision procedure.  Only the base normalizes.
        base = link.base
        L = normalize(atlas, base.L)
        if L != base.L:
            base = IntegerLinkBase(L, base.n, base.t, base.q)
        return IntegerLink(base, link.vec)
    return _canonicalize_lesser(atlas, link)


def _canonicalize_greater(atlas, link: GreaterLink) -> GreaterLink:
    u = normalize(atlas, link.u)
    vec = list(link.vec)
    while all(a >= link.p for a, _ in vec):
        vec = [(a - link.p, b) for a, b in vec]
        u = stabilize(atlas, u, POS, 1)
    while all(b >= link.p for _, b in vec):
        vec = [(a, b - link.p) for a, b in vec]
        u = stabilize(atlas, u, NEG, 1)
    return GreaterLink(u, link.n, link.p, link.q, tuple(vec))


def _canonicalize_lesser(atlas, link: LesserLink) -> LesserLink:
    p, q = link.p, link.q
    window = ceil_div(q, p)
    form, base, sign = link.form, normalize(atlas, link.base), link.sign
    vec = list(link.vec)
    th0, th1 = lesser_thresholds(atlas, p, q)
    while True:
        if form == DIVIDE:
            if sign == POS:
                if all(b >= th0 for _, b in vec):
                    form, sign = RULING, 0
                    vec = [(a, b - th0) for a, b in vec]
                    continue
                if all(a >= th1 for a, _ in vec):
                    base = stabilize(atlas, base, POS, 1)
                    form, sign = RULING, 0
                    vec = [(a - th1, b) for a, b in vec]
                    continue
            else:
                if all(a >= th0 for a, _ in vec):
                    form, sign = RULING, 0
                    vec = [(a - th0, b) for a, b in vec]
                    continue
                if all(b >= th1 for _, b in vec):
                    base = stabilize(atlas, base, NEG, 1)
                    form, sign = RULING, 0
                    vec = [(a, b - th1) for a, b in vec]
                    continue
            break
        _, tb_u = invariants(atlas, base)
        if tb_u == window:
            # A ruling over a window class is the common theta0-stabilization
            # of its two standard cables; pushing theta1 of one sign trades
            # for theta0 of the other while the base drops a level.
            if all(a >= th1 for a, _ in vec):
                base = stabilize(atlas, base, POS, 1)
                vec = [(a - th1, b + th0) for a, b in vec]
                continue
            if all(b >= th1 for _, b in vec):
                base = stabilize(atlas, base, NEG, 1)
                vec = [(a + th0, b - th1) for a, b in vec]
                continue
            break
        if all(a >= p for a, _ in vec):
            base = stabilize(atlas, base, POS, 1)
            vec = [(a - p, b) for a, b in vec]
            continue
        if all(b >= p for _, b in vec):
            base = stabilize(atlas, base, NEG, 1)
            vec = [(a, b - p) for a, b in vec]
            continue
        break
    return LesserLink(form, base, sign, link.n, p, q, tuple(vec))


# ---------------------------------------------------------------------------
# Integer-sloped presentation moves (used by the decision procedure and the
# oracle).  A state is (base class, twist count, vector); component 1 is the
# core, components 2..n are interchangeable ruling curves, so the vector tail
# is kept sorted, and at t = 0 every component may serve as the core.

IntState = tuple[LegClass, int, StabVec]


def int_state(atlas, L: LegClass, t: int, vec) -> IntState:
    L = normalize(atlas, L)
    vec = tuple(vec)
    if t == 0:
        vec = tuple(sorted(vec))
    else:
        vec = (vec[0],) + tuple(sorted(vec[1:]))
    return (L, t, vec)


def integer_moves(atlas, state: IntState) -> list[IntState]:
    """All one-step identifications between twisted-copy presentations."""
    L, t, vec = state
    out = []
    if t >= 1:
        (a1, b1), rest = vec[0], vec[1:]
        if a1 >= 1:
            out.append(
                int_state(
                    atlas,
                    stabilize(atlas, L, POS, 1),
                    t - 1,
                    ((a1 - 1, b1),) + tuple((a, b + 1) for a, b in rest),
                )
            )
        if b1 >= 1:
            out.append(
                int_state(
                    atlas,
                    stabilize(atlas, L, NEG, 1),
                    t - 1,
                    ((a1, b1 - 1),) + tuple((a + 1, b) for a, b in rest),
                )
            )
    fronts = range(len(vec)) if t == 0 else (0,)
    seen_front = set()
    for idx in fronts:
        first = vec[idx]
        if t == 0:
            if first in seen_front:
                continue
            seen_front.add(first)
        rest = vec[:idx] + vec[idx + 1:]
        a1, b1 = first
        if all(b >= 1 for _, b in rest):
            for X in destabilizations(atlas, L, POS):
                out.append(
                    int_state(
                        atlas, X, t + 1,
                        ((a1 + 1, b1),) + tuple((a, b - 1) for a, b in rest),
                    )
                )
        if all(a >= 1 for a, _ in rest):
            for X in destabilizations(atlas, L, NEG):
                out.append(
                    int_state(
                        atlas, X, t + 1,
                        ((a1, b1 + 1),) + tuple((a - 1, b) for a, b in rest),
                    )
                )
    return out


def integer_closure(atlas, link: IntegerLink, node_cap: int = 4000) -> tuple[frozenset, bool]:
    """All presentations of the link; the flag reports full exploration."""
    start = int_state(atlas, link.base.L, link.base.t, link.vec)
    seen = {start}
    frontier = [start]
    complete = True
    while frontier:
        nxt = []
        for s in frontier:
            for m in integer_moves(atlas, s):
                if m in seen:
                    continue
                if len(seen) >= node_cap:
                    complete = False
                    continue
                seen.add(m)
                nxt.append(m)
        frontier = nxt
    return frozenset(seen), complete


def _pattern_tags(vec: StabVec) -> set[str]:
    tags = set()
    if all(b == 0 for _, b in vec):
        tags.add("plus")
    if all(a == 0 for a, _ in vec):
        tags.add("minus")
    if any(a > 0 and b == 0 for a, b in vec) and any(a == 0 and b > 0 for a, b in vec):
        tags.add("mixed")
    if all(a >= 1 and b >= 1 for a, b in vec):
        tags.add("both")
    return tags


# ---------------------------------------------------------------------------
# Isotopy decisions


def _require_comparable(link1: Link, link2: Link) -> None:
    if type(link1) is not type(link2):
        raise RegimeMismatch(f"{type(link1).__name__} vs {type(link2).__name__}")
    if _link_n(link1) != _link_n(link2):
        raise RegimeMismatch(f"{_link_n(link1)} vs {_link_n(link2)} components")
    if _link_slope(link1) != _link_slope(link2):
        raise RegimeMismatch(f"slopes {_link_slope(link1)} vs {_link_slope(link2)} differ")


def isotopic(atlas, link1: Link, link2: Link, node_cap: int = 4000) -> Verdict:
    """Decide Legendrian isotopy of two links of the same cable type."""
    _require_comparable(link1, link2)
    if isinstance(link1, GreaterLink):
        return _isotopic_greater(atlas, link1, link2)
    if isinstance(link1, IntegerLink):
        return _isotopic_integer(atlas, link1, link2, node_cap)
    return _isotopic_lesser(atlas, link1, link2)


def _inv_multiset(atlas, link: Link) -> tuple:
    return tuple(sorted(component_invariants(atlas, link)))


def _isotopic_greater(atlas, x: GreaterLink, y: GreaterLink) -> Verdict:
    cx, cy = _canonicalize_greater(atlas, x), _canonicalize_greater(atlas, y)
    witness = {"left": link_label(atlas, cx), "right": link_label(atlas, cy)}
    if not is_equal(atlas, cx.u, cy.u):
        return Verdict.no("minimal underlying knots are not isotopic", witness)
    if tuple(sorted(cx.vec)) != tuple(sorted(cy.vec)):
        return Verdict.no(
            "same underlying knot but component invariants do not match", witness
        )
    return Verdict.yes("same cone over the minimal underlying knot, equal invariants", witness)


def _isotopic_integer(atlas, x: IntegerLink, y: IntegerLink, node_cap: int) -> Verdict:
    if _inv_multiset(atlas, x) != _inv_multiset(atlas, y):
        return Verdict.no("component invariant multisets differ")
    n = x.base.n
    if n == 1:
        if is_equal(atlas, component_class(atlas, x, 1), component_class(atlas, y, 1)):
            return Verdict.yes("single components are the same class")
        return Verdict.no("single components are distinct classes")
    cx, okx = integer_closure(atlas, x, node_cap)
    cy, oky = integer_closure(atlas, y, node_cap)
    if cx & cy:
        return Verdict.yes("common twisted-copy presentation found")
    nx = [s for s in cx if s[1] == 0]
    ny = [s for s in cy if s[1] == 0]
    if not okx or not oky:
        return Verdict.maybe("presentation search exceeded its node budget")
    if not nx and not ny:
        verdict = _compare_max_tb_components(atlas, x, y)
        if verdict is not None:
            return verdict
        return Verdict.yes(
            "maximal-tb components isotopic and the remaining invariants pair up"
        )
    if bool(nx) != bool(ny):
        return Verdict.no(
            "exactly one link is a stabilized n-copy at the cabling slope"
        )
    px = set().union(*(_pattern_tags(s[2]) for s in nx))
    py = set().union(*(_pattern_tags(s[2]) for s in ny))
    if "plus" in px and "plus" in py or "minus" in px and "minus" in py:
        verdict = _compare_max_tb_components(atlas, x, y)
        if verdict is not None:
            return verdict
        return Verdict.yes(
            "one-signed stabilizations of n-copies with isotopic maximal-tb components"
        )
    if "mixed" in px and "mixed" in py:
        # Orbits are disjoint, so the n-copy bases are distinct classes.
        return Verdict.no(
            "mixed-sign stabilized n-copies over distinct classes stay distinct"
        )
    if "both" in px and "both" in py:
        if atlas.both_signs_determined:
            return Verdict.yes(
                "every component stabilized both ways; this atlas records such "
                "links as determined by classical invariants"
            )
        return Verdict.maybe(
            "every component stabilized both positively and negatively over a "
            "maximal-slope n-copy; the classification is silent for this atlas"
        )
    return Verdict.maybe(
        "stabilization pattern of the n-copy presentations is not covered by "
        "the integer-slope classification"
    )


def _compare_max_tb_components(atlas, x: IntegerLink, y: IntegerLink) -> Optional[Verdict]:
    """NotIsotopic when maximal-tb component classes differ, else None."""
    invx = component_invariants(atlas, x)
    invy = component_invariants(atlas, y)
    top = max(tb for _, tb in invx)
    rots = sorted({rot for rot, tb in invx if tb == top})
    for rot in rots:
        ix = next(i for i, rt in enumerate(invx) if rt == (rot, top))
        iy = next(i for i, rt in enumerate(invy) if rt == (rot, top))
        klass_x = component_class(atlas, x, ix + 1)
        klass_y = component_class(atlas, y, iy + 1)
        if not is_equal(atlas, klass_x, klass_y):
            return Verdict.no(
                "maximal-tb components lie in distinct Legendrian classes",
                {
                    "left": class_label(atlas, klass_x),
                    "right": class_label(atlas, klass_y),
                },
            )
    return None


def _lesser_same(atlas, x: LesserLink, y: LesserLink) -> bool:
    return (
        x.form == y.form
        and x.sign == y.sign
        and is_equal(atlas, x.base, y.base)
        and tuple(sorted(x.vec)) == tuple(sorted(y.vec))
    )


def _surgery_between(atlas, c1: LegClass, c2: LegClass) -> str:
    if isinstance(c1, Named) and isinstance(c2, Named):
        if (c1.plus, c1.minus) == (c2.plus, c2.minus):
            return atlas.surgery_value(c1.gen, c2.gen)
    return "unknown"


def _isotopic_lesser(atlas, x: LesserLink, y: LesserLink) -> Verdict:
    cx, cy = _canonicalize_lesser(atlas, x), _canonicalize_lesser(atlas, y)
    witness = {"left": link_label(atlas, cx), "right": link_label(atlas, cy)}
    if _inv_multiset(atlas, cx) != _inv_multiset(atlas, cy):
        return Verdict.no("component invariant multisets differ", witness)
    if _lesser_same(atlas, cx, cy):
        return Verdict.yes("identical canonical forms", witness)
    if cx.form == DIVIDE and cy.form == DIVIDE:
        same_base = is_equal(atlas, cx.base, cy.base)
        if same_base:
            # Same window class, opposite signs, below the merge thresholds.
            return Verdict.no(
                "the two standard cables of one class stay distinct until the "
                "threshold stabilizations are reached",
                witness,
            )
        rx, _ = invariants(atlas, cx.base)
        ry, _ = invariants(atlas, cy.base)
        if rx != ry:
            return Verdict.no("window classes have distinct rotation numbers", witness)
        if cx.sign == cy.sign:
            sx = stabilize(atlas, cx.base, cx.sign, 1)
            sy = stabilize(atlas, cy.base, cy.sign, 1)
            if not is_equal(atlas, sx, sy):
                return Verdict.no(
                    "one-sided stabilizations of the window classes differ", witness
                )
            sv = _surgery_between(atlas, cx.base, cy.base)
            if sv == "yes":
                return Verdict.no(
                    "surgery on the window classes yields distinct contact "
                    "manifolds",
                    witness,
                )
            return Verdict.maybe(
                "window classes share rotation number and one-sided "
                "stabilizations, and surgery distinctness is not recorded; the "
                "classification is silent",
                witness,
            )
        return Verdict.maybe(
            "standard cables of opposite signs over distinct window classes "
            "with matching invariants; the classification is silent",
            witness,
        )
    if cx.form == RULING and cy.form == RULING:
        if is_equal(atlas, cx.base, cy.base):
            return Verdict.no(
                "same ruling family but component invariants are arranged "
                "differently",
                witness,
            )
        ix, iy = invariants(atlas, cx.base), invariants(atlas, cy.base)
        if ix == iy:
            sv = _surgery_between(atlas, cx.base, cy.base)
            if sv == "yes":
                return Verdict.no(
                    "ruling families over surgery-distinct classes stay distinct",
                    witness,
                )
            return Verdict.maybe(
                "distinct ruling families with equal invariants and no recorded "
                "surgery distinctness; the classification is silent",
                witness,
            )
        return Verdict.maybe(
            "ruling families over classes at different lattice points; the "
            "classification is silent",
            witness,
        )
    return Verdict.maybe(
        "one link is below the cable thresholds and the other is a ruling "
        "family; the classification is silent",
        witness,
    )


# ---------------------------------------------------------------------------
# Component-wise isotopy and permutations


def componentwise_isotopic(atlas, link1: Link, link2: Link) -> bool:
    """True when some bijection of components matches Legendrian classes.

    Components match where their classes are proven equal, which in every
    regime means equal ``component_class`` values, so such a bijection
    exists exactly when the multisets of values agree.
    """
    _require_comparable(link1, link2)

    def classes(link: Link) -> Counter:
        return Counter(component_class(atlas, link, c) for c in range(1, _link_n(link) + 1))

    return classes(link1) == classes(link2)


def permutation_realizable(atlas, link: Link, perm) -> Verdict:
    """Whether relabeling components by ``perm`` (1-based) is realizable."""
    n = _link_n(link)
    sigma = [int(v) for v in perm]
    if sorted(sigma) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm!r} is not a permutation of 1..{n}")
    invs = component_invariants(atlas, link)
    preserving = all(invs[sigma[c] - 1] == invs[c] for c in range(n))
    if isinstance(link, GreaterLink):
        if preserving:
            return Verdict.yes("permutation preserves the classical invariants")
        return Verdict.no("permutation moves components with distinct invariants")
    if isinstance(link, LesserLink):
        return Verdict.maybe(
            "ordered classification of non-integer lesser cables is not available"
        )
    if not preserving:
        return Verdict.no("permutation moves components with distinct invariants")
    states, _ = integer_closure(atlas, link)
    if not any(s[1] == 0 for s in states):
        return Verdict.yes("not an n-copy; invariant-preserving permutations are free")
    q = link.base.q
    divides = [c for c in range(n) if invs[c].tb == q]
    if not divides:
        return Verdict.yes(
            "all components of the n-copy are stabilized; invariant-preserving "
            "permutations are free"
        )
    if q == atlas.tbb:
        if all(sigma[c] - 1 == c for c in divides):
            return Verdict.yes(
                "maximal-slope n-copy: unstabilized components fixed, the rest "
                "permute within equal invariants"
            )
        return Verdict.no(
            "maximal-slope n-copy: no permutation of the maximal-tb components "
            "is realizable"
        )
    images = [sigma[c] - 1 for c in divides]
    m = len(divides)
    cyclic = any(
        all(images[k] == divides[(k + s) % m] for k in range(m)) for s in range(m)
    )
    if cyclic:
        return Verdict.yes(
            "below-maximal-slope n-copy: maximal-tb components rotate "
            "cyclically, the rest permute within equal invariants"
        )
    return Verdict.no(
        "below-maximal-slope n-copy: only cyclic permutations of the "
        "maximal-tb components are realizable"
    )


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_nondestab_links(atlas, n: int, p: int, q: int) -> list[Link]:
    """The non-destabilizable link bases of the (np, nq)-cable, zero vectors."""
    reg = regime(atlas, p, q)
    if reg is Regime.GREATER:
        return [
            make_greater_link(atlas, Named(g.id), n, p, q) for g in peaks(atlas)
        ]
    if reg is Regime.INTEGER_LESSER:
        out = []
        for tb in range(atlas.tbb, q - 1, -1):
            for cls in classes_at_tb(atlas, tb):
                out.append(make_integer_link(atlas, twisted_copy(atlas, cls, n, tb - q)))
        return out
    if reg is Regime.NONINTEGER_LESSER:
        out = []
        for w in window_classes(atlas, p, q):
            for sign in (POS, NEG):
                out.append(make_lesser_link(atlas, w, sign, n, p, q))
        return out
    raise WrongRegime(
        f"({p},{q}) lies in the unsupported window between tbb and the width "
        f"ceiling for {atlas.name}"
    )
