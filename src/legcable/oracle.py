"""Brute-force bounded-depth ground truth for the greedy deciders.

``closure_equal`` runs a breadth-first search over every identification the
engine's data admits -- atlas rewrite rules in both directions, diamond
pushes of greater links (a cable knot is the n = 1 case), twisted-copy
presentation moves, and the lesser threshold rewrites -- operating on raw
presentations rather than normal forms, so it is independent of the greedy
canonicalizations it validates.

Every move keeps a class's (rot, tb) and a link state's multiset of
component (rot, tb) (the move-soundness tests check each move function for
it), so two links whose multisets differ lie in disjoint orbits.
``closure_equal`` answers them NotIsotopic ("component invariants differ")
before any search, and searches link pairs only when the multisets agree.
Class pairs are always searched.  Because the move sets generate the full
isotopy relation only for atlas classes and greater links, a disjoint
fully-explored pair is reported NotIsotopic only in those regimes (and for
integer pairs away from the n-copy sector, or whose components' class
orbits differ as multisets: an isotopy carries components to components).
Integer and lesser pairs whose distinctness rests on the classification's
side conditions come back Unknown: the oracle never overclaims, since it is
the trust anchor.

Both searches run ``atlas.orbit``, and they stop where they meet; the
decider's integer clause runs the same meeting search over its own moves.
The first stops when it discovers the second start state (at once when the
starts are equal), and the second stops at the first state already in the
first orbit.  Neither stop can change a verdict: a breadth-first search
under the same budget discovers the same states in the same order, with the
same parents, up to any given state, so the path to the second start (the
witness) is the one the full search records, and the second orbit meets the
first within the budget exactly when the full second orbit intersects it.
The searches that run to the end -- every disjoint and every budget-cut
verdict -- are the full searches, and on link pairs they run only when the
multisets agree.

Each question costs its answer once per atlas.  The oracle keeps one table
per atlas in ``atlas._oracle``, built at its first question, so a builder or
decider that never asks pays nothing for it.  The table has three parts:
``moves`` (class -> its one-step rewrites, for ``legclass_moves``),
``by_dst`` (the rules by target, ``None`` for the rules to Generic, for a
class's backward steps) and ``forms`` (class -> the frozenset of its normal
forms, for ``check_confluence``).  ``moves`` and ``forms`` fill as questions
arrive and hold classes only, never link states, so they are bounded by the
classes the oracle visits.  A class's normal forms do not depend on the
sweep's depth, so a repeat sweep, at any depth, reads them back.

A link state's stabilization vector is sorted (``_greater_state``,
``_lesser_state``) and non-empty (a link has at least one component), and
every link move shifts all of its ``a``, all of its ``b``, or both, by one
constant.  A shift keeps the lexicographic order, so the moves build their
vectors without sorting, and read the least ``a`` off the first entry, with
the same states, in the same order, as sorting would give.

The three ``brute_*`` ranges share one builder, ``_brute_range``: each lists
stabilized presentations with their (rot, tb) point, and the builder counts
closure components per point.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .atlas import (
    Generic,
    KnotAtlas,
    LegClass,
    Named,
    NEG,
    POS,
    SearchBudget,
    ceil_div,
    class_label,
    invariants,
    orbit,
    peaks,
)
from .cables import window_classes
from .errors import OutOfRange, WrongRegime
from .links import (
    DIVIDE,
    GreaterLink,
    IntegerLink,
    LesserLink,
    RULING,
    Verdict,
    component_invariants,
    int_state,
    integer_moves,
)
from .mountain import MountainRange, from_counts


# ---------------------------------------------------------------------------
# Raw presentation moves


def _raw_stab(c: LegClass, sign: int) -> LegClass:
    if isinstance(c, Generic):
        return Generic(c.rot + sign, c.tb - 1)
    if sign == POS:
        return Named(c.gen, c.plus + 1, c.minus)
    return Named(c.gen, c.plus, c.minus + 1)


def _raw_destabs(atlas: KnotAtlas, c: LegClass, sign: int) -> list[LegClass]:
    # Destabilizations across rule identifications are reached by composing
    # backward rule moves with these in-cone destabilizations; spurious
    # Generic presentations this creates are dead ends, never bridges.  No
    # class sits above tbb, so lifts past it are cut to keep orbits finite.
    if isinstance(c, Generic):
        if c.tb + 1 > atlas.tbb:
            return []
        return [Generic(c.rot - sign, c.tb + 1)]
    if sign == POS and c.plus >= 1:
        return [Named(c.gen, c.plus - 1, c.minus)]
    if sign == NEG and c.minus >= 1:
        return [Named(c.gen, c.plus, c.minus - 1)]
    return []


def _counts_at(g, rot: int, tb: int) -> Optional[tuple[int, int]]:
    """The (a, b) with Named(g, a, b) at (rot, tb), if there is one."""
    total = g.tb - tb
    diff = rot - g.rot
    if total < 0 or (total + diff) % 2 != 0:
        return None
    a, b = (total + diff) // 2, (total - diff) // 2
    return (a, b) if a >= 0 and b >= 0 else None


def _forward_steps(atlas: KnotAtlas, c: LegClass) -> list[LegClass]:
    """The classes one forward rule application takes c to, in rule order."""
    out = []
    if isinstance(c, Named):
        for rule in atlas.rules_for(c.gen):
            if c.plus >= rule.da and c.minus >= rule.db:
                if rule.dst is None:
                    out.append(Generic(*invariants(atlas, c)))
                else:
                    out.append(Named(rule.dst, c.plus - rule.da, c.minus - rule.db))
    return out


class _Table(NamedTuple):
    """The oracle's answers for one atlas, kept in ``atlas._oracle``."""

    moves: dict
    by_dst: dict
    forms: dict


def _new_table(atlas: KnotAtlas) -> _Table:
    by_dst: dict = {}
    for rule in atlas.rules:
        by_dst.setdefault(rule.dst, []).append(rule)
    table = atlas._oracle = _Table({}, by_dst, {})
    return table


def _class_moves(atlas: KnotAtlas, c: LegClass) -> tuple[LegClass, ...]:
    by_dst = atlas._oracle.by_dst
    if isinstance(c, Named):
        return tuple(_forward_steps(atlas, c) + [
            Named(rule.src, c.plus + rule.da, c.minus + rule.db)
            for rule in by_dst.get(c.gen, ())
        ])
    out = []
    for rule in by_dst.get(None, ()):
        ab = _counts_at(atlas.generator(rule.src), c.rot, c.tb)
        if ab is not None and ab[0] >= rule.da and ab[1] >= rule.db:
            out.append(Named(rule.src, *ab))
    return tuple(out)


def legclass_moves(atlas: KnotAtlas, c: LegClass) -> tuple[LegClass, ...]:
    """One rewrite step: the forward steps, then the backward ones, in rule
    order; answered once per atlas and class."""
    table = atlas._oracle
    if table is None:
        table = _new_table(atlas)
    moves = table.moves.get(c)
    if moves is None:
        moves = table.moves[c] = _class_moves(atlas, c)
    return moves


def _greater_state(link: GreaterLink) -> tuple:
    return ("greater", link.u, link.p, link.q, tuple(sorted(link.vec)))


def _greater_moves(atlas: KnotAtlas, state: tuple) -> list[tuple]:
    """Rewrites of the companion, then pushes, then lifts.

    ``vec`` is sorted and non-empty, and every push or lift shifts all of
    its ``a`` or all of its ``b`` by one constant, which keeps it sorted.
    """
    _, u, p, q, vec = state
    out = [("greater", u2, p, q, vec) for u2 in legclass_moves(atlas, u)]
    if vec[0][0] >= p:
        out.append(("greater", _raw_stab(u, POS), p, q, tuple([(a - p, b) for a, b in vec])))
    if min([b for _, b in vec]) >= p:
        out.append(("greater", _raw_stab(u, NEG), p, q, tuple([(a, b - p) for a, b in vec])))
    for x in _raw_destabs(atlas, u, POS):
        out.append(("greater", x, p, q, tuple([(a + p, b) for a, b in vec])))
    for x in _raw_destabs(atlas, u, NEG):
        out.append(("greater", x, p, q, tuple([(a, b + p) for a, b in vec])))
    return out


def _lesser_state(link: LesserLink) -> tuple:
    return ("lesser", link.form, link.base, link.sign, link.p, link.q,
            tuple(sorted(link.vec)))


def _lesser_moves(atlas: KnotAtlas, state: tuple) -> list[tuple]:
    """Rewrites of the base, then the threshold rewrites of its form.

    ``vec`` is sorted and non-empty, and every move translates it by one
    vector ``(da, db)``, which keeps it sorted.
    """
    _, form, base, sign, p, q, vec = state
    out = [("lesser", form, b2, sign, p, q, vec) for b2 in legclass_moves(atlas, base)]
    window = ceil_div(q, p)
    th0 = p * window - q
    th1 = p - th0
    min_a, min_b = vec[0][0], min([b for _, b in vec])
    _, tb_b = invariants(atlas, base)

    def rul(newbase, da, db):
        return ("lesser", RULING, newbase, 0, p, q, tuple([(a + da, b + db) for a, b in vec]))

    def div(newbase, newsign, da, db):
        return ("lesser", DIVIDE, newbase, newsign, p, q,
                tuple([(a + da, b + db) for a, b in vec]))

    if form == DIVIDE:
        if sign == POS:
            if min_b >= th0:
                out.append(rul(base, 0, -th0))
            if min_a >= th1:
                out.append(rul(_raw_stab(base, POS), -th1, 0))
        else:
            if min_a >= th0:
                out.append(rul(base, -th0, 0))
            if min_b >= th1:
                out.append(rul(_raw_stab(base, NEG), 0, -th1))
        return out
    # ruling form
    if tb_b == window:
        out.append(div(base, POS, 0, th0))
        out.append(div(base, NEG, th0, 0))
        if min_a >= th1:
            out.append(rul(_raw_stab(base, POS), -th1, th0))
        if min_b >= th1:
            out.append(rul(_raw_stab(base, NEG), th0, -th1))
    else:
        if min_a >= p:
            out.append(rul(_raw_stab(base, POS), -p, 0))
        if min_b >= p:
            out.append(rul(_raw_stab(base, NEG), 0, -p))
        # a destabilization sits one tb above the base
        at_window = tb_b + 1 == window
        for x in _raw_destabs(atlas, base, POS):
            if at_window:
                out.append(div(x, POS, th1, 0))
                if min_b >= th0:
                    out.append(rul(x, th1, -th0))
            else:
                out.append(rul(x, p, 0))
        for x in _raw_destabs(atlas, base, NEG):
            if at_window:
                out.append(div(x, NEG, 0, th1))
                if min_a >= th0:
                    out.append(rul(x, -th0, th1))
            else:
                out.append(rul(x, 0, p))
    return out


# ---------------------------------------------------------------------------
# Orbit search


def _dispatch(atlas, obj):
    """(state, moves function, kind tag, slope signature) for an object."""
    if isinstance(obj, (Named, Generic)):
        return obj, legclass_moves, "class", ()
    if isinstance(obj, GreaterLink):
        return _greater_state(obj), _greater_moves, "greater-link", (obj.n, obj.p, obj.q)
    if isinstance(obj, IntegerLink):
        state = int_state(atlas, obj.L, obj.t, obj.vec)
        return state, integer_moves, "integer-link", (obj.n, obj.q)
    if isinstance(obj, LesserLink):
        return _lesser_state(obj), _lesser_moves, "lesser-link", (obj.n, obj.p, obj.q)
    raise WrongRegime("unsearchable-object", f"cannot search over {type(obj).__name__}")


def _path(parents, state) -> list:
    out = []
    while state is not None:
        out.append(state)
        state = parents[state]
    return list(reversed(out))


def _state_label(state) -> str:
    """A state as explored, never normalized.

    A class is ``gen+a-b`` or ``(rot,tb)``.  A link state is its fields in
    parentheses: classes spelled the same way, tags and numbers plain, and
    the stabilization vector, always last, as ``[+a-b,...]``.
    """
    if isinstance(state, Named):
        return f"{state.gen}+{state.plus}-{state.minus}"
    if isinstance(state, Generic):
        return f"({state.rot},{state.tb})"
    if not isinstance(state, tuple):
        return str(state)
    *fields, vec = state
    stabs = ",".join(f"+{a}-{b}" for a, b in vec)
    return "(" + ", ".join(map(_state_label, fields)) + f", [{stabs}])"


def closure_equal(atlas, obj1, obj2, budget: SearchBudget = SearchBudget()) -> Verdict:
    """Ground-truth equality by bidirectional rewrite-closure search."""
    s1, moves1, kind1, sig1 = _dispatch(atlas, obj1)
    s2, moves2, kind2, sig2 = _dispatch(atlas, obj2)
    if kind1 != kind2 or sig1 != sig2:
        raise WrongRegime("kind-mismatch", f"{kind1}{sig1} vs {kind2}{sig2}")
    if kind1 != "class" and _inv_key(atlas, obj1) != _inv_key(atlas, obj2):
        return Verdict.no("component invariants differ")
    orbit1, ok1, met = orbit(atlas, s1, moves1, budget, stop={s2})
    if met is not None:
        path = [_state_label(s) for s in _path(orbit1, s2)]
        return Verdict.yes("rewrite path found", {"path": path})
    orbit2, ok2, met = orbit(atlas, s2, moves2, budget, stop=orbit1)
    if met is not None:
        return Verdict.yes("orbits intersect")
    if not ok1 or not ok2:
        return Verdict.maybe("budget exceeded before both orbits were explored")
    if kind1 in ("class", "greater-link"):
        return Verdict.no("orbits disjoint and fully explored")
    if kind1 == "integer-link":
        if not any(s[1] == 0 for s in orbit1) and not any(s[1] == 0 for s in orbit2):
            return Verdict.no(
                "orbits disjoint, fully explored, and away from the n-copy sector"
            )
        orbits = [_component_orbits(atlas, obj, budget) for obj in (obj1, obj2)]
        if None not in orbits and orbits[0] != orbits[1]:
            return Verdict.no("component classes differ")
        return Verdict.maybe(
            "orbits disjoint but the n-copy sector merges lie outside the move set"
        )
    return Verdict.maybe(
        "orbits disjoint; distinctness of lesser cables rests on side conditions "
        "outside the move set"
    )


def _component_orbits(atlas, link: IntegerLink, budget: SearchBudget) -> Optional[Counter]:
    """The multiset of the class orbits of ``link``'s components, read off
    its raw presentation: the core is L+a-b and each ruling component
    L+(t+a)-(t+b).  None when the budget cuts an orbit short.  Orbits, unlike
    normal forms, tell classes apart on a non-confluent atlas too."""
    L, out = link.L, Counter()
    for c, (a, b) in enumerate(link.vec):
        a, b = (a + link.t, b + link.t) if c else (a, b)
        start = (Generic(L.rot + a - b, L.tb - a - b) if isinstance(L, Generic)
                 else Named(L.gen, L.plus + a, L.minus + b))
        states, complete, _ = orbit(atlas, start, legclass_moves, budget)
        if not complete:
            return None
        out[frozenset(states)] += 1
    return out


def _inv_key(atlas, obj) -> tuple:
    return tuple(sorted(component_invariants(atlas, obj)))


def _state_key(atlas, state) -> tuple:
    """A class's (rot, tb), or a link state's sorted component (rot, tb)."""
    if isinstance(state, (Named, Generic)):
        return tuple(invariants(atlas, state))
    if state[0] == "greater":
        _, u, p, q, vec = state
        return _inv_key(atlas, GreaterLink(u, len(vec), p, q, vec))
    if state[0] == "lesser":
        _, form, base, sign, p, q, vec = state
        return _inv_key(atlas, LesserLink(form, base, sign, len(vec), p, q, vec))
    L, t, vec = state
    return _inv_key(atlas, IntegerLink(L, len(vec), t, invariants(atlas, L).tb - t, vec))


def unsound_moves(atlas, obj) -> int:
    """How many moves out of the states of ``obj``'s orbit, cut at depth 3
    and 60 states, change the state's invariant key; 0 when every move
    keeps it, as ``closure_equal``'s unsearched answer needs."""
    start, moves, _, _ = _dispatch(atlas, obj)
    bad = 0
    for state in orbit(atlas, start, moves, SearchBudget(depth=3, node_cap=60))[0]:
        key = _state_key(atlas, state)
        bad += sum(_state_key(atlas, m) != key for m in moves(atlas, state))
    return bad


# ---------------------------------------------------------------------------
# Confluence


class ConfluenceReport(NamedTuple):
    divergences: list

    @property
    def ok(self) -> bool:
        return not self.divergences


def _all_normal_forms(atlas, c: LegClass, memo: dict) -> frozenset:
    """Normal forms over every maximal rewrite sequence from c."""
    forms = memo.get(c)
    if forms is None:
        steps = [_all_normal_forms(atlas, n, memo) for n in _forward_steps(atlas, c)]
        forms = memo[c] = frozenset().union(*steps) if steps else frozenset([c])
    return forms


def check_confluence(atlas, budget: SearchBudget = SearchBudget(depth=8)) -> ConfluenceReport:
    """Verify every bounded presentation has a unique normal form; the
    normal forms come from, and go to, the atlas's table."""
    table = atlas._oracle
    if table is None:
        table = _new_table(atlas)
    memo = table.forms
    divergences = []
    for g in atlas.generators:
        for total in range(budget.depth + 1):
            for a in range(total + 1):
                start = Named(g.id, a, total - a)
                forms = _all_normal_forms(atlas, start, memo)
                if len(forms) > 1:
                    labels = sorted(class_label(atlas, f) for f in forms)
                    divergences.append({"input": _state_label(start), "normal_forms": labels})
    return ConfluenceReport(divergences)


# ---------------------------------------------------------------------------
# Brute-force mountain ranges


def _brute_range(atlas, pairs, moves, tb_min: int, budget: SearchBudget) -> MountainRange:
    """Closure components per point among ``(point, presentation)`` pairs.

    Points below ``tb_min`` are dropped; an orbit the budget cuts short
    raises OutOfRange rather than miscounting.
    """
    buckets: dict[tuple[int, int], list] = {}
    for point, pres in pairs:
        if point[1] >= tb_min:
            buckets.setdefault(point, []).append(pres)
    entries = dict.fromkeys(buckets, 0)
    for point, presentations in buckets.items():
        seen: set = set()
        for pres in presentations:
            if pres not in seen:
                states, complete, _ = orbit(atlas, pres, moves, budget)
                if not complete:
                    raise OutOfRange("budget-exceeded", "orbit search exceeded the budget")
                seen.update(states)
                entries[point] += 1
    return from_counts(entries, tb_min)


def brute_mountain_range(
    atlas, tb_min: int, budget: SearchBudget = SearchBudget()
) -> MountainRange:
    """Atlas mountain range recomputed from peak cones and rewrite closure;
    the cone presentation ``g+a-b`` sits at (rot(g) + a - b, tb(g) - a - b)."""
    pairs = (
        ((g.rot + 2 * a - total, g.tb - total), Named(g.id, a, total - a))
        for g in peaks(atlas)
        for total in range(g.tb - tb_min + 1)
        for a in range(total + 1)
    )
    return _brute_range(atlas, pairs, legclass_moves, tb_min, budget)


def brute_cable_mountain_range(
    atlas, p: int, q: int, tb_min: int, budget: SearchBudget = SearchBudget()
) -> MountainRange:
    """Greater-cable range from stabilizations of peak cables plus closure.

    A cable knot is a 1-component greater link, so its presentations are
    the n = 1 states of the greater-link move set.
    """

    def pairs():
        for g in peaks(atlas):
            top = GreaterLink(Named(g.id), 1, p, q, ((0, 0),))
            _, tb_top = component_invariants(atlas, top)[0]
            for i in range(tb_top - tb_min + 1):
                for j in range(tb_top - tb_min - i + 1):
                    pres = GreaterLink(Named(g.id), 1, p, q, ((i, j),))
                    yield tuple(component_invariants(atlas, pres)[0]), _greater_state(pres)

    return _brute_range(atlas, pairs(), _greater_moves, tb_min, budget)


def brute_lesser_mountain_range(
    atlas, p: int, q: int, tb_min: int, budget: SearchBudget = SearchBudget()
) -> MountainRange:
    """Lesser-cable knot range from stabilized standard cables plus closure."""
    peak_tb = p * q

    def pairs():
        for w in window_classes(atlas, p, q):
            rot_w, tb_w = invariants(atlas, w)
            for sign in (POS, NEG):
                # the divide presentation's rot before its own stabilizations
                rot0 = p * rot_w + sign * (p * tb_w - q)
                for total in range(peak_tb - tb_min + 1):
                    for a in range(total + 1):
                        b = total - a
                        pres = ("lesser", DIVIDE, w, sign, p, q, ((a, b),))
                        yield (rot0 + a - b, peak_tb - total), pres

    return _brute_range(atlas, pairs(), _lesser_moves, tb_min, budget)
