"""Cable links with per-component stabilization vectors, and isotopy decisions.

Links are unordered by default: two values denote the same link when their
canonical forms agree up to a permutation of components.  Ordered questions
(which component permutations an isotopy can realize) are answered only by
``permutation_realizable``.

Canonical forms per regime:

* greater: by S_+/-^p(cable(u)) = cable(S_+/-(u)), each full round of p
  same-sign stabilizations on every component is one stabilization of the
  underlying knot, so the canonical form pushes k+ = min a // p positive and
  k- = min b // p negative stabilizations into u in one step;
* integer-sloped: values are twisted-copy presentations (base class, twist
  count, vector); the identification moves between presentations are not
  confluent as oriented rules, so they are explored as equalities inside the
  decision procedure instead of being normalized away;
* non-integer lesser: with theta0 = p tb(w) - q and theta1 = p - theta0,
  both in [1, p - 1], a standard cable of a window class becomes a ruling
  form once every component carries theta0 of the opposite sign (base
  unchanged) or else theta1 of its own sign (base stabilized once); a
  ruling form over a window class then shifts at most once to the level
  below (costing theta1 of one sign while granting theta0 of the other);
  deep ruling forms take the same one-step push as greater cables.

Two lemmas hold with or without unique normal forms.  Lesser: equal
invariant multisets match two canonical vectors up to one constant shift,
which the canonical bounds (the fewest of the opposite sign < theta0 and of
its own < theta1 in divide form; of each sign < theta1 over a window class
and < p below it in ruling form) force to zero, so the links share form,
sign, base lattice point and sorted vector, and ``_isotopic_lesser``
compares only their base classes.  Integer: for t >= 1 every twisted-copy
move keeps t - a1 - b1, the core's tb minus q, so a complete closure holds
a t = 0 presentation iff no component has tb above q, which equal multisets
decide alike for both links; ``_isotopic_integer`` reads it from the
component invariants, and so does ``permutation_realizable``, which searches
no presentation.

A third needs unique normal forms, which ``make_atlas`` proves.  Core: when
a component of an integer link has tb above q, it is the core, and the
stabilize moves that empty the core's vector reach a presentation fixed by
the core's class and the invariant multiset; so two such links with equal
multisets that do not meet have cores in distinct classes, and
``_isotopic_integer`` answers them from the cores alone.

Verdicts are three-valued; Unknown is returned exactly where the underlying
classification is silent, with a reason naming the silent clause.  Before
an integer-slope Unknown the component classes are compared: an isotopy
carries components to components, so links with no matching of equal
classes are not isotopic.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional, Union

from .atlas import (
    Generic,
    LegClass,
    Named,
    NEG,
    POS,
    RotTb,
    SearchBudget,
    ceil_div,
    check_stabilization,
    class_from_json,
    class_label,
    class_rows,
    class_to_json,
    destabilizations,
    holds,
    invariants,
    is_equal,
    normalize,
    orbit,
    peaks,
    stabilize,
)
from .cables import (
    DIVIDE,
    RULING,
    Regime,
    greater_base_invariants,
    lesser_base_invariants,
    lesser_thresholds,
    regime,
    window_classes,
)
from .errors import (
    DOCUMENT_ERRORS,
    MalformedDocument,
    OutOfRange,
    UnknownName,
    WrongRegime,
    checked,
    malformed,
)

# The most components a link may have.  Every link path is linear in the
# count, so a document or flag asking for more raises OutOfRange before
# any vector is built.
MAX_COMPONENTS = 1000

ISOTOPIC = "isotopic"
NOT_ISOTOPIC = "not_isotopic"
UNKNOWN = "unknown"


class Verdict(NamedTuple):
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


# The link records are named tuples that equal only a link of their own type:
# as plain tuples a GreaterLink and an IntegerLink with equal fields, or a
# link and the tuple of its fields, would be equal.  They hash as that tuple.


def _same_link(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_link(self, other) -> bool:
    return not _same_link(self, other)


class GreaterLink(NamedTuple):
    u: LegClass
    n: int
    p: int
    q: int
    vec: StabVec

    __eq__, __ne__ = _same_link, _other_link


class IntegerLink(NamedTuple):
    """The t-twisted n-copy of L, stabilized by ``vec``: the (n, nq)-cable
    with q = tb(L) - t.

    Component 1 is the core; components 2..n are ruling curves of slope
    tb(L) - t, each in the class of L stabilized t times with both signs,
    so their invariants are (rot(L), tb(L) - 2t).  Components are ordered
    cyclically as they occur on the torus, in construction order.
    """

    L: LegClass
    n: int
    t: int
    q: int
    vec: StabVec
    p = 1

    __eq__, __ne__ = _same_link, _other_link


class LesserLink(NamedTuple):
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

    __eq__, __ne__ = _same_link, _other_link


Link = Union[GreaterLink, IntegerLink, LesserLink]


def _check_vec(vec, n: int) -> StabVec:
    """The validated vector of an n-component link; None means all zeros."""
    if n < 1:
        raise OutOfRange("component-count", f"a link needs at least one component, got n={n}")
    if n > MAX_COMPONENTS:
        raise OutOfRange(
            "component-count", f"a link has at most {MAX_COMPONENTS} components, got n={n}"
        )
    if vec is None:
        return ((0, 0),) * n
    try:
        out = tuple((a, b) for a, b in vec)
    except DOCUMENT_ERRORS as exc:
        raise malformed("stabilization vector", exc) from None
    if len(out) != n:
        raise OutOfRange("vector-length", f"vector has {len(out)} entries for {n} components")
    for a, b in out:
        if type(a) is not int or type(b) is not int:  # errors.checked, inlined
            raise MalformedDocument(
                "bad-field", f"malformed stabilization vector: {out} holds a non-integer"
            )
        if a < 0 or b < 0:
            raise OutOfRange("negative-count", f"stabilization counts must be nonnegative: {out}")
    return out


# ---------------------------------------------------------------------------
# Constructors


def _check_held(atlas, c: LegClass) -> None:
    """Raise UnknownName if ``c`` is a Generic the atlas does not hold or a
    Named with a negative stabilization count."""
    if not (holds(atlas, c) if isinstance(c, Generic) else c.plus >= 0 and c.minus >= 0):
        raise UnknownName(
            "class-not-held", f"{class_label(atlas, c)} is not a class of {atlas.name}"
        )


def make_greater_link(atlas, u: LegClass, n: int, p: int, q: int, vec=None) -> GreaterLink:
    _check_held(atlas, u)
    if regime(atlas, p, q) is not Regime.GREATER:
        raise WrongRegime("not-greater", f"({p},{q}) is not a greater slope for {atlas.name}")
    return GreaterLink(normalize(atlas, u), n, p, q, _check_vec(vec, n))


def make_integer_link(atlas, L: LegClass, n: int, t: int, vec=None) -> IntegerLink:
    """The t-twisted n-copy of L (see IntegerLink), stabilized by ``vec``."""
    _check_held(atlas, L)
    if t < 0:
        raise WrongRegime("negative-twist", f"twisted copy needs t >= 0, got t={t}")
    L = normalize(atlas, L)
    q = invariants(atlas, L).tb - t
    if regime(atlas, 1, q) is not Regime.INTEGER_LESSER:
        raise WrongRegime(
            "not-integer-lesser", f"(1,{q}) is not an integer lesser slope for {atlas.name}"
        )
    return IntegerLink(L, n, t, q, _check_vec(vec, n))


def make_lesser_link(
    atlas, base: LegClass, sign: int, n: int, p: int, q: int, vec=None, form: str = DIVIDE
) -> LesserLink:
    _check_held(atlas, base)
    if regime(atlas, p, q) is not Regime.NONINTEGER_LESSER:
        raise WrongRegime(
            "not-noninteger-lesser",
            f"({p},{q}) is not a non-integer lesser slope for {atlas.name}"
        )
    base = normalize(atlas, base)
    _, tb = invariants(atlas, base)
    window = ceil_div(q, p)
    if form == DIVIDE:
        if tb != window:
            raise WrongRegime("wrong-window", f"divide-form base tb={tb}, window is tb={window}")
        if sign not in (POS, NEG):
            raise WrongRegime("divide-sign", f"divide form needs sign +1 or -1, got {sign!r}")
    elif form == RULING:
        if tb > window:
            raise WrongRegime(
                "wrong-window", f"ruling-form base tb={tb} above the window tb={window}"
            )
        sign = 0
    else:
        raise WrongRegime("unknown-form", f"unknown lesser form {form!r}")
    return LesserLink(form, base, sign, n, p, q, _check_vec(vec, n))


# Document spellings of a lesser-cable sign; 0 is what link_to_json writes
# for a ruling form, which has no sign.
_SIGNS = {"+": POS, 1: POS, "-": NEG, -1: NEG}
_RULING_SIGNS = {**_SIGNS, "0": 0, 0: 0}


def _parse_sign(value, form: str) -> int:
    signs = _RULING_SIGNS if form == RULING else _SIGNS
    if type(value) not in (str, int) or value not in signs:
        raise MalformedDocument(
            "bad-field", f"malformed link document: bad sign {value!r} for form {form!r}"
        )
    return signs[value]


def make_link(atlas, doc: dict) -> Link:
    """Parse the link interchange document (see link_to_json).

    A document that is not an object, or lacks or mistypes a field, raises
    MalformedDocument; a ``Generic`` base class that is not a class of the
    atlas raises UnknownName.
    """
    if not isinstance(doc, dict):
        raise MalformedDocument(
            "not-an-object", f"a link document is a JSON object, not {type(doc).__name__}"
        )
    try:
        reg = str(doc["regime"])
        n = checked(doc["n"], int, "n")
        p = checked(doc.get("p", 1), int, "p")
        q = checked(doc["q"], int, "q")
        vec = doc.get("vec") or None  # absent or empty: all zeros
        base = doc.get("base", {})
        cls = class_from_json(base["class"])
        if reg == Regime.INTEGER_LESSER.value:
            tb = invariants(atlas, cls).tb
            t = checked(base.get("t", tb - q), int, "t")
    except DOCUMENT_ERRORS as exc:
        raise malformed("link document", exc) from None
    if reg == Regime.GREATER.value:
        return make_greater_link(atlas, cls, n, p, q, vec)
    if reg == Regime.INTEGER_LESSER.value:
        if p != 1:
            raise WrongRegime("inconsistent-slope", f"an integer-lesser link has p = 1, got p={p}")
        if tb - t != q:
            raise WrongRegime(
                "inconsistent-slope", f"base tb={tb} with t={t} does not give slope q={q}"
            )
        return make_integer_link(atlas, cls, n, t, vec)
    if reg == Regime.NONINTEGER_LESSER.value:
        form = str(base.get("form", DIVIDE))
        sign = _parse_sign(base.get("sign", "+"), form)
        return make_lesser_link(atlas, cls, sign, n, p, q, vec, form=form)
    raise WrongRegime("unknown-regime", f"unknown regime {reg!r}")


def link_to_json(atlas, link: Link) -> dict:
    if isinstance(link, GreaterLink):
        reg, base = Regime.GREATER, {"class": class_to_json(link.u)}
    elif isinstance(link, IntegerLink):
        reg, base = Regime.INTEGER_LESSER, {"class": class_to_json(link.L), "t": link.t}
    else:
        reg = Regime.NONINTEGER_LESSER
        base = {
            "class": class_to_json(link.base),
            "form": link.form,
            "sign": "+" if link.sign == POS else ("-" if link.sign == NEG else "0"),
        }
    return {
        "atlas": atlas.name,
        "regime": reg.value,
        "p": link.p,
        "q": link.q,
        "n": link.n,
        "base": base,
        "vec": [list(ab) for ab in link.vec],
    }


def link_label(atlas, link: Link) -> str:
    stabs = ",".join(f"+{a}-{b}" for a, b in link.vec)
    if isinstance(link, GreaterLink):
        return f"{class_label(atlas, link.u)}_{link.n}({link.p},{link.q})[{stabs}]"
    if isinstance(link, IntegerLink):
        return f"T^{link.t}({link.n}.{class_label(atlas, link.L)})[{stabs}]"
    sign = {POS: "+", NEG: "-", 0: ""}[link.sign]
    form = "" if link.form == DIVIDE else "rul:"
    return f"{form}{class_label(atlas, link.base)}^{sign}_{link.n}({link.p},{link.q})[{stabs}]"


# ---------------------------------------------------------------------------
# Component data


def component_invariants(atlas, link: Link) -> list[RotTb]:
    twist = 0
    if isinstance(link, GreaterLink):
        rot0, tb0 = greater_base_invariants(atlas, link.u, link.p, link.q)
    elif isinstance(link, IntegerLink):
        (rot0, tb0), twist = invariants(atlas, link.L), 2 * link.t
    else:
        rot0, tb0 = lesser_base_invariants(
            atlas, link.form, link.base, link.sign, link.p, link.q
        )
    return [
        RotTb(rot0 + a - b, tb0 - a - b - (twist if c else 0))
        for c, (a, b) in enumerate(link.vec)
    ]


def _component(link: Link, c: int) -> tuple[int, int]:
    """The stabilization counts of component ``c`` (1-based)."""
    if not 1 <= c <= link.n:
        raise OutOfRange("bad-index", f"component {c} of a link with {link.n} components")
    return link.vec[c - 1]


def component_class(atlas, link: Link, c: int):
    """The Legendrian class of component ``c`` (1-based).

    Integer-sloped ruling components are the base stabilized t times with
    both signs plus their own counts; greater and lesser components are the
    canonical n = 1 specialization of the link itself.  Two components are
    proven to be the same class exactly when these values are equal.
    """
    a, b = _component(link, c)
    if isinstance(link, IntegerLink):
        t = link.t if c > 1 else 0
        return stabilize(atlas, stabilize(atlas, link.L, POS, t + a), NEG, t + b)
    return canonicalize(atlas, link._replace(n=1, vec=((a, b),)))


def stabilize_component(atlas, link: Link, c: int, sign: int, count: int = 1) -> Link:
    """Stabilize one component (1-based index), then canonicalize."""
    check_stabilization(sign, count)
    a, b = _component(link, c)
    vec = list(link.vec)
    vec[c - 1] = (a + count, b) if sign == POS else (a, b + count)
    return canonicalize(atlas, link._replace(vec=tuple(vec)))


# ---------------------------------------------------------------------------
# Canonicalization


def canonicalize(atlas, link: Link) -> Link:
    if isinstance(link, GreaterLink):
        return _canonicalize_greater(atlas, link)
    if isinstance(link, IntegerLink):
        # Presentation moves are identities, not reductions; they are
        # explored inside the decision procedure.  Only the base normalizes.
        return link._replace(L=normalize(atlas, link.L))
    return _canonicalize_lesser(atlas, link)


def _fewest(vec: StabVec, sign: int) -> int:
    """The fewest ``sign`` stabilizations carried by any component."""
    return min(a for a, _ in vec) if sign == POS else min(b for _, b in vec)


def _take(vec: StabVec, sign: int, k: int, give: int = 0) -> StabVec:
    """``vec`` with k ``sign`` stabilizations taken from every component and
    ``give`` of the other sign added."""
    if sign == POS:
        return tuple((a - k, b + give) for a, b in vec)
    return tuple((a + give, b - k) for a, b in vec)


def _push(atlas, u: LegClass, vec: StabVec, p: int) -> tuple[LegClass, StabVec]:
    """Push every full round of p same-sign stabilizations into ``u``.

    S_+/-^p on every component is one S_+/- of the underlying class, so
    k+ = min a // p and k- = min b // p rounds go in at once, positive
    first; normal forms are unique (``make_atlas`` proves it), so this
    equals pushing one at a time.
    ``u`` must be a normal form; it is returned as is when nothing pushes.
    """
    ka, kb = _fewest(vec, POS) // p, _fewest(vec, NEG) // p
    if ka or kb:
        u = stabilize(atlas, stabilize(atlas, u, POS, ka), NEG, kb)
        vec = tuple((a - ka * p, b - kb * p) for a, b in vec)
    return u, vec


def _canonicalize_greater(atlas, link: GreaterLink) -> GreaterLink:
    u, vec = _push(atlas, normalize(atlas, link.u), link.vec, link.p)
    return GreaterLink(u, link.n, link.p, link.q, vec)


def _canonicalize_lesser(atlas, link: LesserLink) -> LesserLink:
    p, q, sign = link.p, link.q, link.sign
    th0, th1 = lesser_thresholds(atlas, p, q)
    base, vec = normalize(atlas, link.base), link.vec
    if link.form == DIVIDE:
        if _fewest(vec, -sign) >= th0:
            vec = _take(vec, -sign, th0)
        elif _fewest(vec, sign) >= th1:
            base, vec = stabilize(atlas, base, sign, 1), _take(vec, sign, th1)
        else:
            return link._replace(base=base)
    if invariants(atlas, base).tb == ceil_div(q, p):
        # A ruling over a window class is the common theta0-stabilization
        # of its two standard cables; pushing theta1 of one sign trades
        # for theta0 of the other while the base drops below the window.
        for s in (POS, NEG):
            if _fewest(vec, s) >= th1:
                base, vec = stabilize(atlas, base, s, 1), _take(vec, s, th1, give=th0)
                break
    base, vec = _push(atlas, base, vec, p)
    return LesserLink(RULING, base, 0, link.n, p, q, vec)


# ---------------------------------------------------------------------------
# Integer-sloped presentation moves (used by the decision procedure and the
# oracle).  A state is (base class, twist count, vector); component 1 is the
# core, components 2..n are interchangeable ruling curves, so the vector tail
# is kept sorted, and at t = 0 every component may serve as the core.

IntState = tuple[LegClass, int, StabVec]


def int_state(atlas, L: LegClass, t: int, vec) -> IntState:
    return _state(normalize(atlas, L), t, vec)


def _state(L: LegClass, t: int, vec) -> IntState:
    """The state over a base ``L`` that is already a normal form."""
    vec = tuple(vec)
    if t == 0:
        vec = tuple(sorted(vec))
    else:
        vec = (vec[0],) + tuple(sorted(vec[1:]))
    return (L, t, vec)


def integer_moves(atlas, state: IntState) -> list[IntState]:
    """All one-step identifications between twisted-copy presentations.

    ``state`` holds a normal form, and so does every state returned:
    stabilizations and destabilizations are normal forms already.
    """
    L, t, vec = state
    out = []
    if t >= 1:
        (a1, b1), rest = vec[0], vec[1:]
        if a1 >= 1:
            out.append(
                _state(
                    stabilize(atlas, L, POS, 1),
                    t - 1,
                    ((a1 - 1, b1),) + tuple((a, b + 1) for a, b in rest),
                )
            )
        if b1 >= 1:
            out.append(
                _state(
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
                    _state(
                        X, t + 1,
                        ((a1 + 1, b1),) + tuple((a, b - 1) for a, b in rest),
                    )
                )
        if all(a >= 1 for a, _ in rest):
            for X in destabilizations(atlas, L, NEG):
                out.append(
                    _state(
                        X, t + 1,
                        ((a1, b1 + 1),) + tuple((a - 1, b) for a, b in rest),
                    )
                )
    return out


def _int_budget(node_cap: int) -> SearchBudget:
    # the depth never binds: each level that leaves a frontier adds a state, and states <= depth
    return SearchBudget(max(node_cap, 1), node_cap)


def integer_closure(atlas, link: IntegerLink, node_cap: int = 4000) -> tuple[frozenset, bool]:
    """All presentations of the link, at most ``max(node_cap, 1)`` of them;
    the flag reports full exploration.  The search is ``atlas.orbit`` over
    ``integer_moves``, breadth-first from the link's own presentation.

    This is the full one-link closure that the tests and the verdict-site
    witnesses use; the decider does not call it, and runs the same search
    from both links until they meet."""
    start = int_state(atlas, link.L, link.t, link.vec)
    parents, complete, _ = orbit(atlas, start, integer_moves, _int_budget(node_cap))
    return frozenset(parents), complete


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
        raise WrongRegime("link-mismatch", f"{type(link1).__name__} vs {type(link2).__name__}")
    if link1.n != link2.n:
        raise WrongRegime("link-mismatch", f"{link1.n} vs {link2.n} components")
    if (link1.p, link1.q) != (link2.p, link2.q):
        raise WrongRegime(
            "link-mismatch", f"slopes {(link1.p, link1.q)} vs {(link2.p, link2.q)} differ"
        )


def isotopic(atlas, link1: Link, link2: Link, node_cap: int = 4000) -> Verdict:
    """Decide Legendrian isotopy of two links of the same cable type.

    ``node_cap`` caps each of the two presentation searches of an
    integer-slope pair (the states either may hold); the other regimes
    search nothing and ignore it."""
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
    invs = _inv_multiset(atlas, x)
    if invs != _inv_multiset(atlas, y):
        return Verdict.no("component invariant multisets differ")
    if x.n == 1:
        if is_equal(atlas, component_class(atlas, x, 1), component_class(atlas, y, 1)):
            return Verdict.yes("single components are the same class")
        return Verdict.no("single components are distinct classes")
    # The two searches stop where they meet, as in oracle.closure_equal: x's
    # stops when it discovers y's start, and y's at the first state already
    # in x's.  Neither stop changes a verdict.  Under the same budget a
    # search discovers the same states in the same order up to any state,
    # and it checks the node cap before the stop, so x's meets exactly when
    # its full closure holds y's start, and y's meets exactly when its full
    # closure meets x's.  Searches that do not meet run to the end, so every
    # clause below reads the full closures and their complete flags.
    budget = _int_budget(node_cap)
    sy = int_state(atlas, y.L, y.t, y.vec)
    cx, okx, met = orbit(atlas, int_state(atlas, x.L, x.t, x.vec), integer_moves, budget, {sy})
    if met is None:
        cy, oky, met = orbit(atlas, sy, integer_moves, budget, cx)
    if met is not None:
        return Verdict.yes("common twisted-copy presentation found")
    if not okx or not oky:
        return _components_differ(atlas, x, y) or Verdict.maybe(
            "presentation search exceeded its node budget"
        )
    # By the integer lemma the complete closures reach t = 0 exactly when
    # no component has tb above q; x's components stand for y's.
    if any(tb > x.q for _, tb in invs):
        # Only the core can lie above q: it does when t > a1 + b1, and ruling
        # components sit at q - t - a - b <= q.  The a1 + b1 stabilize moves
        # from the core take a link to (core class, t - a1 - b1, ((0, 0),) +
        # rest'), where rest' is fixed by the ruling components' invariants,
        # and as normal forms are unique that base is the core's normal form
        # in whatever order the moves go.  So links with equal multisets and
        # one core class meet, and the cores of closures that did not meet
        # lie in distinct classes.
        return _distinct_max_tb(
            atlas, component_class(atlas, x, 1), component_class(atlas, y, 1)
        )
    px = set().union(*(_pattern_tags(s[2]) for s in cx if s[1] == 0))
    py = set().union(*(_pattern_tags(s[2]) for s in cy if s[1] == 0))
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
        return _components_differ(atlas, x, y) or Verdict.maybe(
            "every component stabilized both positively and negatively over a "
            "maximal-slope n-copy; the classification is silent for this atlas"
        )
    return _components_differ(atlas, x, y) or Verdict.maybe(
        "stabilization pattern of the n-copy presentations is not covered by "
        "the integer-slope classification"
    )


def _components_differ(atlas, x: IntegerLink, y: IntegerLink) -> Optional[Verdict]:
    """NotIsotopic when no matching of components pairs equal classes, else
    None.  An isotopy carries components to components, so this holds however
    the presentation searches ended; each integer Unknown asks it first."""
    if componentwise_isotopic(atlas, x, y):
        return None
    return Verdict.no("no matching of the components pairs equal Legendrian classes")


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
            return _distinct_max_tb(atlas, klass_x, klass_y)
    return None


def _distinct_max_tb(atlas, klass_x: LegClass, klass_y: LegClass) -> Verdict:
    """NotIsotopic, naming two maximal-tb component classes that differ."""
    return Verdict.no(
        "maximal-tb components lie in distinct Legendrian classes",
        {"left": class_label(atlas, klass_x), "right": class_label(atlas, klass_y)},
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
    # By the lesser lemma both links have one form, one sign, one base
    # lattice point and one sorted vector, so only their base classes can
    # differ.
    if is_equal(atlas, cx.base, cy.base):
        return Verdict.yes("identical canonical forms", witness)
    if cx.form == DIVIDE:
        sx = stabilize(atlas, cx.base, cx.sign, 1)
        sy = stabilize(atlas, cy.base, cy.sign, 1)
        if not is_equal(atlas, sx, sy):
            return Verdict.no(
                "one-sided stabilizations of the window classes differ", witness
            )
        if _surgery_between(atlas, cx.base, cy.base) == "yes":
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
    if _surgery_between(atlas, cx.base, cy.base) == "yes":
        return Verdict.no(
            "ruling families over surgery-distinct classes stay distinct",
            witness,
        )
    return Verdict.maybe(
        "distinct ruling families with equal invariants and no recorded "
        "surgery distinctness; the classification is silent",
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
        return Counter(component_class(atlas, link, c) for c in range(1, link.n + 1))

    return classes(link1) == classes(link2)


def permutation_realizable(atlas, link: Link, perm) -> Verdict:
    """Whether relabeling components by ``perm`` (1-based) is realizable.

    By the integer lemma an integer-slope link is an n-copy exactly when no
    component has tb above q, so no presentation is searched.
    """
    n = link.n
    sigma = [int(v) for v in perm]
    if sorted(sigma) != list(range(1, n + 1)):
        raise OutOfRange("not-a-permutation", f"{perm!r} is not a permutation of 1..{n}")
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
    if any(tb > link.q for _, tb in invs):
        return Verdict.yes("not an n-copy; invariant-preserving permutations are free")
    divides = [c for c in range(n) if invs[c].tb == link.q]
    if not divides:
        return Verdict.yes(
            "all components of the n-copy are stabilized; invariant-preserving "
            "permutations are free"
        )
    if link.q == atlas.tbb:
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
        # Row classes are normal forms the atlas holds, and t = tb - q >= 0
        # on every row down to q, so make_integer_link would check nothing.
        vec = _check_vec(None, n)
        return [
            IntegerLink(cls, n, tb - q, q, vec)
            for tb, row in class_rows(atlas, q)
            for cls in row
        ]
    if reg is Regime.NONINTEGER_LESSER:
        out = []
        for w in window_classes(atlas, p, q):
            for sign in (POS, NEG):
                out.append(make_lesser_link(atlas, w, sign, n, p, q))
        return out
    raise WrongRegime(
        "unsupported-window",
        f"({p},{q}) lies in the unsupported window between tbb and the width "
        f"ceiling for {atlas.name}"
    )
