"""Rewrite-closure oracle: equality, confluence, brute-force ranges."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legcable import (
    DIVIDE,
    Generic,
    NEG,
    Named,
    POS,
    RULING,
    SearchBudget,
    Verdict,
    brute_cable_mountain_range,
    brute_lesser_mountain_range,
    brute_mountain_range,
    builtin_atlas,
    cable_mountain_range,
    check_confluence,
    classes_at_tb,
    closure_equal,
    invariants,
    lesser_mountain_range,
    lesser_thresholds,
    make_atlas,
    make_greater_link,
    make_integer_link,
    make_lesser_link,
    mountain_range,
    stabilize,
    window_classes,
)
from legcable import oracle as oracle_module
from legcable.errors import BudgetExceeded, KindMismatch, WrongRegime
from test_atlas import small_atlases

# brute-force builder and greedy builder of each kind of range
RANGES = {
    "atlas": (brute_mountain_range, mountain_range),
    "greater": (brute_cable_mountain_range, cable_mountain_range),
    "lesser": (brute_lesser_mountain_range, lesser_mountain_range),
}

# (kind, atlas, arguments after the atlas)
BRUTE_CASES = [
    ("atlas", "twist-even-2", (-3,)),
    ("atlas", "unknot", (-4,)),
    ("atlas", "twist-even-3", (-4,)),
    ("greater", "k-minus-5", (2, 1, -8)),
    ("greater", "twist-even-2", (2, 3, -6)),
    ("lesser", "twist-even-2", (2, -3, -9)),
    ("lesser", "k-minus-5", (2, -7, -20)),
    ("lesser", "twist-even-2-surgery", (2, 1, -4)),
]


def test_closure_equal_atlas_examples():
    tw2 = builtin_atlas("twist-even-2")
    v = closure_equal(tw2, Named("P1", 1, 1), Generic(0, -1), SearchBudget(depth=4))
    assert v.is_isotopic
    assert v.witness and len(v.witness["path"]) >= 2
    k5 = builtin_atlas("k-minus-5")
    a = make_greater_link(k5, Named("A"), 1, 2, 1, ((1, 0),))
    b = make_greater_link(k5, Named("B"), 1, 2, 1, ((1, 0),))
    assert closure_equal(k5, a, b, SearchBudget(depth=6)).is_not_isotopic
    assert closure_equal(k5, a, a).is_isotopic


def test_closure_equal_is_symmetric():
    tw2 = builtin_atlas("twist-even-2")
    pairs = [
        (Named("P1", 1, 0), Named("R1")),
        (Named("P1"), Named("P2")),
        (Named("R1", 2, 0), Named("R1", 2, 0)),
    ]
    for x, y in pairs:
        assert closure_equal(tw2, x, y).kind == closure_equal(tw2, y, x).kind


def test_closure_equal_witness_replays():
    # each consecutive pair along the witness path is itself closure-equal
    tw2 = builtin_atlas("twist-even-2")
    v = closure_equal(tw2, Named("P1", 2, 1), Generic(1, -2))
    assert v.is_isotopic
    assert v.witness["path"][0] == "P1+2-1"


def test_link_witness_paths_spell_states_as_explored():
    tw2 = builtin_atlas("twist-even-2")
    v = closure_equal(tw2, make_integer_link(tw2, Named("P1"), 1, 1, ((1, 0),)),
                      make_integer_link(tw2, Named("R1"), 1, 0, ((0, 0),)))
    assert v.reason == "rewrite path found"
    assert v.witness["path"] == ["(P1+0-0, 1, [+1-0])", "(R1+0-0, 0, [+0-0])"]
    assert not any("Named(" in s or "Generic(" in s for s in v.witness["path"])
    # raw states keep their presentation: P1+1-0 normalizes to R1 here
    label = oracle_module._state_label
    assert label((Named("P1", 1, 0), 1, ((1, 0), (0, 2)))) == "(P1+1-0, 1, [+1-0,+0-2])"
    assert label(("greater", Generic(0, -1), 2, 5, ())) == "(greater, (0,-1), 2, 5, [])"
    assert (label(("lesser", "divide", Named("L1", 0, 1), -1, 2, -3, ((0, 0),)))
            == "(lesser, divide, L1+0-1, -1, 2, -3, [+0-0])")


def test_closure_equal_kind_mismatch():
    tw2 = builtin_atlas("twist-even-2")
    with pytest.raises(KindMismatch):
        closure_equal(tw2, Named("P1"), make_greater_link(tw2, Named("P1"), 1, 1, 2))
    with pytest.raises(KindMismatch):
        closure_equal(
            tw2,
            make_greater_link(tw2, Named("P1"), 1, 2, 3),
            make_greater_link(tw2, Named("P1"), 1, 2, 5),
        )


def test_closure_budget_exceeded_returns_unknown():
    tw2 = builtin_atlas("twist-even-2")
    v = closure_equal(tw2, Named("P1", 3, 3), Generic(0, -5), SearchBudget(depth=1, node_cap=1))
    assert v.is_unknown


def test_closure_equal_integer_guard():
    # disjoint orbits inside the n-copy sector stay Unknown, never NotIsotopic
    k5 = builtin_atlas("k-minus-5")
    vec = ((1, 1), (1, 1))
    l1 = make_integer_link(k5, Named("A"), 2, 0, vec)
    l2 = make_integer_link(k5, Named("B"), 2, 0, vec)
    assert closure_equal(k5, l1, l2).is_unknown
    # away from that sector, disjoint + explored is conclusive
    t1 = make_integer_link(k5, Named("A"), 2, 1)
    t2 = make_integer_link(k5, Named("B"), 2, 1)
    assert closure_equal(k5, t1, t2).is_not_isotopic


def test_closure_equal_greater_link_completeness():
    k5 = builtin_atlas("k-minus-5")
    l1 = make_greater_link(k5, Named("A"), 2, 2, 1, ((2, 0), (2, 0)))
    l2 = make_greater_link(k5, Named("B"), 2, 2, 1, ((2, 0), (2, 0)))
    assert closure_equal(k5, l1, l2).is_isotopic
    l3 = make_greater_link(k5, Named("B"), 2, 2, 1, ((1, 0), (2, 0)))
    assert closure_equal(
        k5, make_greater_link(k5, Named("A"), 2, 2, 1, ((1, 0), (2, 0))), l3
    ).is_not_isotopic


def test_check_confluence_builtins_clean():
    for name in ("unknot", "k-minus-5", "twist-even-2", "twist-even-3", "twist-even-4"):
        report = check_confluence(builtin_atlas(name), SearchBudget(depth=8))
        assert report.ok, report.divergences


def test_check_confluence_reports_divergence():
    # one trigger, two persistent targets: the normal form depends on the
    # rule order, which confluence checking must flag
    atlas = make_atlas(
        {
            "name": "divergent",
            "generators": [
                {"id": "g", "rot": 0, "tb": 1},
                {"id": "h1", "rot": 1, "tb": 0},
                {"id": "h2", "rot": 1, "tb": 0},
            ],
            "rules": [
                {"src": "g", "da": 1, "db": 0, "dst": "h1"},
                {"src": "g", "da": 1, "db": 0, "dst": "h2"},
            ],
            "tbb": 1,
        }
    )
    report = check_confluence(atlas, SearchBudget(depth=4))
    assert not report.ok
    assert any(d["input"].startswith("g") for d in report.divergences)


def test_check_confluence_empty_rule_set():
    atlas = make_atlas(
        {"name": "rigid", "generators": [{"id": "g", "rot": 0, "tb": 1}], "tbb": 1}
    )
    assert check_confluence(atlas, SearchBudget(depth=6)).ok


def test_is_equal_agrees_with_closure_on_bounded_pairs():
    from itertools import combinations_with_replacement

    from legcable import is_equal

    for name in ("unknot", "k-minus-5", "twist-even-2"):
        atlas = builtin_atlas(name)
        pool = [
            Named(g.id, a, b)
            for g in atlas.generators
            for a in range(3)
            for b in range(3)
        ]
        for x, y in combinations_with_replacement(pool, 2):
            verdict = closure_equal(atlas, x, y, SearchBudget(depth=12))
            assert verdict.conclusive
            assert verdict.is_isotopic == is_equal(atlas, x, y)


@pytest.mark.parametrize(
    "kind, name, args",
    BRUTE_CASES,
    ids=[f"{kind}-{name}-{','.join(map(str, args))}" for kind, name, args in BRUTE_CASES],
)
def test_brute_mountain_ranges_agree_with_greedy(kind, name, args):
    brute, greedy = RANGES[kind]
    atlas = builtin_atlas(name)
    assert brute(atlas, *args).entries == greedy(atlas, *args).entries


@pytest.mark.parametrize("kind", sorted(RANGES))
def test_brute_ranges_raise_when_the_budget_cuts_an_orbit(kind):
    # a miscount from a truncated orbit would read as a range; it must raise
    _, name, args = next(case for case in BRUTE_CASES if case[0] == kind)
    with pytest.raises(BudgetExceeded):
        RANGES[kind][0](builtin_atlas(name), *args, SearchBudget(depth=1))


# ---------------------------------------------------------------------------
# The searches that stop where they meet, against the full searches


def full_orbit(atlas, state, moves, budget):
    """The breadth-first orbit under ``budget``, never stopped early."""
    parents = {state: None}
    frontier = [state]
    complete = True
    for _ in range(budget.depth):
        if not frontier:
            break
        nxt = []
        for s in frontier:
            for m in moves(atlas, s):
                if m in parents:
                    continue
                if len(parents) >= budget.node_cap:
                    complete = False
                    continue
                parents[m] = s
                nxt.append(m)
        frontier = nxt
    return parents, complete and not frontier


def full_orbit_closure_equal(atlas, obj1, obj2, budget=SearchBudget()):
    """closure_equal with both orbits explored to the budget, then compared."""
    s1, moves1, kind1, _ = oracle_module._dispatch(atlas, obj1)
    s2, moves2, _, _ = oracle_module._dispatch(atlas, obj2)
    orbit1, ok1 = full_orbit(atlas, s1, moves1, budget)
    if s2 in orbit1:
        path = [oracle_module._state_label(s) for s in oracle_module._path(orbit1, s2)]
        return Verdict.yes("rewrite path found", {"path": path})
    orbit2, ok2 = full_orbit(atlas, s2, moves2, budget)
    if orbit1.keys() & orbit2.keys():
        return Verdict.yes("orbits intersect")
    if not ok1 or not ok2:
        return Verdict.maybe("budget exceeded before both orbits were explored")
    if kind1 in ("class", "greater-link"):
        return Verdict.no("orbits disjoint and fully explored")
    if oracle_module._inv_key(atlas, obj1) != oracle_module._inv_key(atlas, obj2):
        return Verdict.no("component invariants differ")
    if kind1 == "integer-link":
        if not any(s[1] == 0 for s in orbit1) and not any(s[1] == 0 for s in orbit2):
            return Verdict.no(
                "orbits disjoint, fully explored, and away from the n-copy sector"
            )
        return Verdict.maybe(
            "orbits disjoint but the n-copy sector merges lie outside the move set"
        )
    return Verdict.maybe(
        "orbits disjoint; distinctness of lesser cables rests on side conditions "
        "outside the move set"
    )


BUDGETS = (SearchBudget(), SearchBudget(depth=2), SearchBudget(node_cap=40))


def assert_same_verdicts(atlas, pairs, budgets=BUDGETS):
    """Equal (kind, reason, witness) from both searches under every budget;
    returns the reasons seen."""
    reasons = set()
    for (x, y), budget in product(pairs, budgets):
        got = closure_equal(atlas, x, y, budget)
        want = full_orbit_closure_equal(atlas, x, y, budget)
        assert (got.kind, got.reason, got.witness) == (
            want.kind, want.reason, want.witness), (x, y, budget)
        reasons.add(got.reason)
    return reasons


def bounded_classes(atlas, top=3):
    return [Named(g.id, a, b) for g in atlas.generators for a in range(top) for b in range(top)]


@pytest.mark.parametrize("name", ["unknot", "k-minus-5", "twist-even-2"])
def test_meeting_searches_match_full_searches_on_class_pairs(name):
    atlas = builtin_atlas(name)
    pool = bounded_classes(atlas)
    reasons = assert_same_verdicts(atlas, list(product(pool, pool)))
    assert {"rewrite path found", "orbits disjoint and fully explored"} <= reasons


def _shallow_vec(rng, n, top=3):
    return tuple((rng.randint(0, top), rng.randint(0, top)) for _ in range(n))


def sampled_link_pairs(atlas, regime, rng, count, p=2, offset=1):
    """``count`` pairs of one regime: every third a twin presentation of one
    link, the others two independent draws.  Greater links take the slope
    (p, p * width_ceiling + offset), lesser ones (p, p * tbb - offset)."""
    classes = [c for tb in range(atlas.tbb, atlas.tbb - 3, -1) for c in classes_at_tb(atlas, tb)]
    pairs = []
    while len(pairs) < count:
        n = rng.randint(1, 3)
        twin = len(pairs) % 3 == 0
        try:
            if regime == "greater":
                q = p * atlas.width_ceiling + offset
                u, vec = rng.choice(classes), _shallow_vec(rng, n)
                if twin:
                    pairs.append((
                        make_greater_link(atlas, u, n, p, q, [(a + p, b) for a, b in vec]),
                        make_greater_link(atlas, stabilize(atlas, u, POS), n, p, q, vec),
                    ))
                else:
                    pairs.append((
                        make_greater_link(atlas, u, n, p, q, vec),
                        make_greater_link(atlas, rng.choice(classes), n, p, q,
                                          _shallow_vec(rng, n)),
                    ))
            elif regime == "integer":
                vec = _shallow_vec(rng, n, 2)
                L, t = rng.choice(classes), rng.randint(0, 2)
                if twin and t >= 1:
                    lhs = ((vec[0][0] + 1, vec[0][1]),) + vec[1:]
                    rhs = (vec[0],) + tuple((a, b + 1) for a, b in vec[1:])
                    pairs.append((
                        make_integer_link(atlas, L, n, t, lhs),
                        make_integer_link(atlas, stabilize(atlas, L, POS), n, t - 1, rhs),
                    ))
                else:
                    first = make_integer_link(atlas, L, n, t, vec)
                    L2 = rng.choice(classes)
                    t2 = invariants(atlas, L2).tb - first.q
                    pairs.append((first, make_integer_link(atlas, L2, n, t2,
                                                           _shallow_vec(rng, n, 2))))
            else:
                q = p * atlas.tbb - offset
                window = window_classes(atlas, p, q)
                th0, _ = lesser_thresholds(atlas, p, q)
                w, vec = rng.choice(window), _shallow_vec(rng, n)
                if twin:
                    pairs.append((
                        make_lesser_link(atlas, w, POS, n, p, q, [(a, b + th0) for a, b in vec]),
                        make_lesser_link(atlas, w, NEG, n, p, q, [(a + th0, b) for a, b in vec]),
                    ))
                else:
                    pairs.append((
                        make_lesser_link(atlas, w, rng.choice((POS, NEG)), n, p, q, vec),
                        make_lesser_link(atlas, rng.choice(window), rng.choice((POS, NEG)),
                                         n, p, q, _shallow_vec(rng, n)),
                    ))
        except WrongRegime:
            continue
    return pairs


@pytest.mark.parametrize("regime, name", [
    ("greater", "k-minus-5"), ("greater", "twist-even-2"),
    ("integer", "k-minus-5"), ("integer", "twist-even-2"),
    ("lesser", "k-minus-5"), ("lesser", "twist-even-2"),
])
def test_meeting_searches_match_full_searches_on_link_pairs(regime, name):
    atlas = builtin_atlas(name)
    pairs = sampled_link_pairs(atlas, regime, random.Random(f"{regime}-{name}"), 24)
    reasons = assert_same_verdicts(atlas, pairs)
    assert any(r.startswith("budget exceeded") for r in reasons)
    assert reasons & {"rewrite path found", "orbits intersect"}


@pytest.mark.parametrize("regime", ["greater", "integer", "lesser"])
def test_meeting_searches_match_full_searches_at_every_small_budget(regime):
    # a search cut by its node cap must not meet a state it did not keep
    atlas = builtin_atlas("twist-even-2")
    pairs = sampled_link_pairs(atlas, regime, random.Random(regime), 6)
    budgets = [SearchBudget(depth, cap) for depth in (1, 2, 3, 64) for cap in range(1, 41)]
    reasons = assert_same_verdicts(atlas, pairs, budgets)
    assert reasons & {"rewrite path found", "orbits intersect"}


@settings(max_examples=100, deadline=None)
@given(small_atlases(), st.data())
def test_meeting_searches_match_full_searches_on_random_atlases(atlas, data):
    named = bounded_classes(atlas)
    pool = named + [Generic(*invariants(atlas, c)) for c in named]
    pairs = [(data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))
             for _ in range(4)]
    assert_same_verdicts(atlas, pairs)


def test_greater_twin_search_stops_at_its_partner(monkeypatch):
    # the twin is two moves from the first start, so the first search stops
    # there; the whole orbit of the first start takes 62 expansions
    atlas = builtin_atlas("twist-even-2")
    vec = ((4, 5), (6, 4))
    lifted = make_greater_link(atlas, Named("P1"), 2, 2, 3, [(a + 2, b) for a, b in vec])
    twin = make_greater_link(atlas, stabilize(atlas, Named("P1"), POS), 2, 2, 3, vec)
    calls = []
    moves = oracle_module._greater_moves

    def counting(atlas, state):
        calls.append(state)
        return moves(atlas, state)

    monkeypatch.setattr(oracle_module, "_greater_moves", counting)
    verdict = closure_equal(atlas, lifted, twin)
    assert verdict.reason == "rewrite path found"
    assert len(verdict.witness["path"]) == 3
    assert len(calls) <= 4


# ---------------------------------------------------------------------------
# The move functions against the scanning, sorting moves they replaced


def reference_legclass_moves(atlas, c):
    """Forward steps, then the rules that target ``c``, found by a scan."""
    if isinstance(c, Named):
        return oracle_module._forward_steps(atlas, c) + [
            Named(rule.src, c.plus + rule.da, c.minus + rule.db)
            for rule in atlas.rules
            if rule.dst == c.gen
        ]
    out = []
    for rule in atlas.rules:
        if rule.dst is None:
            ab = oracle_module._counts_at(atlas.generator(rule.src), c.rot, c.tb)
            if ab is not None and ab[0] >= rule.da and ab[1] >= rule.db:
                out.append(Named(rule.src, *ab))
    return out


def reference_greater_moves(atlas, state):
    raw_stab, raw_destabs = oracle_module._raw_stab, oracle_module._raw_destabs
    _, u, p, q, vec = state
    out = [("greater", u2, p, q, vec) for u2 in reference_legclass_moves(atlas, u)]
    if all(a >= p for a, _ in vec):
        pushed = tuple(sorted((a - p, b) for a, b in vec))
        out.append(("greater", raw_stab(u, POS), p, q, pushed))
    if all(b >= p for _, b in vec):
        pushed = tuple(sorted((a, b - p) for a, b in vec))
        out.append(("greater", raw_stab(u, NEG), p, q, pushed))
    lifted_a = tuple(sorted((a + p, b) for a, b in vec))
    for x in raw_destabs(atlas, u, POS):
        out.append(("greater", x, p, q, lifted_a))
    lifted_b = tuple(sorted((a, b + p) for a, b in vec))
    for x in raw_destabs(atlas, u, NEG):
        out.append(("greater", x, p, q, lifted_b))
    return out


def reference_lesser_moves(atlas, state):
    raw_stab, raw_destabs = oracle_module._raw_stab, oracle_module._raw_destabs
    _, form, base, sign, p, q, vec = state
    window = oracle_module.ceil_div(q, p)
    th0, th1 = lesser_thresholds(atlas, p, q)
    out = [("lesser", form, b2, sign, p, q, vec)
           for b2 in reference_legclass_moves(atlas, base)]
    _, tb_b = invariants(atlas, base)

    def rul(newbase, newvec):
        return ("lesser", RULING, newbase, 0, p, q, tuple(sorted(newvec)))

    def div(newbase, newsign, newvec):
        return ("lesser", DIVIDE, newbase, newsign, p, q, tuple(sorted(newvec)))

    if form == DIVIDE:
        if sign == POS:
            if all(b >= th0 for _, b in vec):
                out.append(rul(base, ((a, b - th0) for a, b in vec)))
            if all(a >= th1 for a, _ in vec):
                out.append(rul(raw_stab(base, POS), ((a - th1, b) for a, b in vec)))
        else:
            if all(a >= th0 for a, _ in vec):
                out.append(rul(base, ((a - th0, b) for a, b in vec)))
            if all(b >= th1 for _, b in vec):
                out.append(rul(raw_stab(base, NEG), ((a, b - th1) for a, b in vec)))
        return out
    if tb_b == window:
        out.append(div(base, POS, ((a, b + th0) for a, b in vec)))
        out.append(div(base, NEG, ((a + th0, b) for a, b in vec)))
        if all(a >= th1 for a, _ in vec):
            out.append(rul(raw_stab(base, POS), ((a - th1, b + th0) for a, b in vec)))
        if all(b >= th1 for _, b in vec):
            out.append(rul(raw_stab(base, NEG), ((a + th0, b - th1) for a, b in vec)))
    else:
        if all(a >= p for a, _ in vec):
            out.append(rul(raw_stab(base, POS), ((a - p, b) for a, b in vec)))
        if all(b >= p for _, b in vec):
            out.append(rul(raw_stab(base, NEG), ((a, b - p) for a, b in vec)))
        for x in raw_destabs(atlas, base, POS):
            _, tb_x = invariants(atlas, x)
            if tb_x == window:
                out.append(div(x, POS, ((a + th1, b) for a, b in vec)))
                if all(b >= th0 for _, b in vec):
                    out.append(rul(x, ((a + th1, b - th0) for a, b in vec)))
            else:
                out.append(rul(x, ((a + p, b) for a, b in vec)))
        for x in raw_destabs(atlas, base, NEG):
            _, tb_x = invariants(atlas, x)
            if tb_x == window:
                out.append(div(x, NEG, ((a, b + th1) for a, b in vec)))
                if all(a >= th0 for a, _ in vec):
                    out.append(rul(x, ((a - th0, b + th1) for a, b in vec)))
            else:
                out.append(rul(x, ((a, b + p) for a, b in vec)))
    return out


REFERENCE_MOVES = {
    oracle_module.legclass_moves: reference_legclass_moves,
    oracle_module._greater_moves: reference_greater_moves,
    oracle_module._lesser_moves: reference_lesser_moves,
}


def assert_moves_match_references(atlas, objects):
    """Every state of the full orbit of each object has the reference's
    moves, in order, from a cold table and from a warm one; and the orbits
    themselves, parents and order included, are the reference's."""
    warm = atlas.replace()
    checked = 0
    for obj in objects:
        state, moves, _, _ = oracle_module._dispatch(atlas, obj)
        reference = REFERENCE_MOVES[moves]
        orbit, complete = full_orbit(atlas, state, reference, SearchBudget())
        assert complete
        assert list(full_orbit(warm, state, moves, SearchBudget())[0].items()) == list(
            orbit.items())
        for s in orbit:
            want = reference(atlas, s)
            assert list(moves(atlas.replace(), s)) == want, s
            assert list(moves(warm, s)) == want, s
        checked += len(orbit)
    assert warm._moves and all(isinstance(c, (Named, Generic)) for c in warm._moves)
    return checked


@pytest.mark.parametrize(
    "name", ["unknot", "k-minus-5", "twist-even-2", "twist-even-3", "twist-even-2-surgery"])
def test_class_moves_match_the_scanning_reference(name):
    atlas = builtin_atlas(name)
    pool = bounded_classes(atlas)
    assert assert_moves_match_references(atlas, pool + [Generic(*invariants(atlas, c))
                                                        for c in pool])


@pytest.mark.parametrize("regime, name", [
    ("greater", "unknot"), ("greater", "k-minus-5"), ("greater", "twist-even-2"),
    ("greater", "twist-even-3"), ("greater", "twist-even-2-surgery"),
    ("lesser", "k-minus-5"), ("lesser", "twist-even-2"), ("lesser", "twist-even-3"),
    ("lesser", "twist-even-2-surgery"),
])
@pytest.mark.parametrize("p, offset", [(2, 1), (3, 1), (3, 2)])
def test_link_moves_match_the_sorting_reference(regime, name, p, offset):
    # with p = 3 the lesser thresholds differ: (1, 2) at offset 1, (2, 1) at 2
    atlas = builtin_atlas(name)
    pairs = sampled_link_pairs(atlas, regime, random.Random(f"{regime}-{name}"), 24, p, offset)
    assert assert_moves_match_references(atlas, [obj for pair in pairs for obj in pair])


@settings(max_examples=100, deadline=None)
@given(small_atlases(), st.data())
def test_class_moves_match_the_scanning_reference_on_random_atlases(atlas, data):
    named = bounded_classes(atlas)
    generic = st.builds(Generic, st.integers(-4, 4), st.integers(atlas.tbb - 4, atlas.tbb))
    pool = st.one_of(st.sampled_from(named + [Generic(*invariants(atlas, c)) for c in named]),
                     generic)
    classes = data.draw(st.lists(pool, min_size=1, max_size=6))
    assert_moves_match_references(atlas, classes)
