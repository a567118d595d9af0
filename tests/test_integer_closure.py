"""Integer-slope closures over the per-atlas destabilization table, and the
decider's meeting search over them.

The decider and the oracle share ``links.integer_moves``, so agreement
between them cannot show that the table changes nothing.  The references
here are the table-free move set: every destabilization rescans its lattice
point and every state is normalized again.  The decider's reference is the
two-closure ``_isotopic_integer``: both full closures, then their
intersection.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legcable import (
    BUILTIN_NAMES,
    Generic,
    Named,
    NEG,
    POS,
    Verdict,
    atlas_to_json,
    builtin_atlas,
    class_rows,
    classes_at,
    classes_at_tb,
    component_class,
    component_invariants,
    componentwise_isotopic,
    invariants,
    is_equal,
    isotopic,
    make_integer_link,
    normalize,
    stabilize,
)
from legcable import atlas as atlas_module
from legcable import links as links_module
from legcable.errors import InvalidAtlas, WrongRegime
from test_atlas import NON_CONFLUENT, count_normalize, proven, small_atlases, unproven_atlas
from test_errors import raises_code
from test_verdict_sites import thick_atlases

BUILTINS = (
    "unknot", "k-minus-5", "twist-even-2", "twist-even-3", "twist-even-4",
    "twist-even-8", "twist-even-16", "twist-even-2-surgery",
)


def table_free_destabilizations(atlas, c, sign):
    c = normalize(atlas, c)
    rot, tb = invariants(atlas, c)
    return [
        cand for cand in classes_at(atlas, rot - sign, tb + 1)
        if stabilize(atlas, cand, sign, 1) == c
    ]


def table_free_moves(atlas, state):
    int_state = links_module.int_state
    L, t, vec = state
    out = []
    if t >= 1:
        (a1, b1), rest = vec[0], vec[1:]
        if a1 >= 1:
            out.append(int_state(
                atlas, stabilize(atlas, L, POS, 1), t - 1,
                ((a1 - 1, b1),) + tuple((a, b + 1) for a, b in rest),
            ))
        if b1 >= 1:
            out.append(int_state(
                atlas, stabilize(atlas, L, NEG, 1), t - 1,
                ((a1, b1 - 1),) + tuple((a + 1, b) for a, b in rest),
            ))
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
            for X in table_free_destabilizations(atlas, L, POS):
                out.append(int_state(
                    atlas, X, t + 1, ((a1 + 1, b1),) + tuple((a, b - 1) for a, b in rest),
                ))
        if all(a >= 1 for a, _ in rest):
            for X in table_free_destabilizations(atlas, L, NEG):
                out.append(int_state(
                    atlas, X, t + 1, ((a1, b1 + 1),) + tuple((a - 1, b) for a, b in rest),
                ))
    return out


def table_free_closure(atlas, link, node_cap=4000):
    start = links_module.int_state(atlas, link.L, link.t, link.vec)
    seen = {start}
    frontier = [start]
    complete = True
    while frontier:
        nxt = []
        for s in frontier:
            for m in table_free_moves(atlas, s):
                if m in seen:
                    continue
                if len(seen) >= node_cap:
                    complete = False
                    continue
                seen.add(m)
                nxt.append(m)
        frontier = nxt
    return frozenset(seen), complete


def integer_link(atlas, L, n, t, vec):
    try:
        return make_integer_link(atlas, L, n, t, vec)
    except WrongRegime as exc:
        assert exc.code in ("negative-twist", "not-integer-lesser")
        return None


def random_integer_links(atlas, rng, count, depth, top):
    """``count`` links over classes down to ``depth`` below the peak row."""
    bases = [c for _, row in class_rows(atlas, atlas.tbb - depth) for c in row]
    links = []
    while len(links) < count:
        n = rng.randint(2, 3)
        vec = tuple((rng.randint(0, top), rng.randint(0, top)) for _ in range(n))
        link = integer_link(atlas, rng.choice(bases), n, rng.randint(0, 3), vec)
        if link is not None:
            links.append(link)
    return links


def assert_closures_match(atlas, links, node_caps=(4000, 40, 1)):
    for link in links:
        size = len(table_free_closure(atlas, link)[0])
        # a cap at the closure's size, or one below it, is where a search
        # depth tied to the cap would bind first
        for cap in node_caps + (size, size - 1):
            got = links_module.integer_closure(atlas, link, cap)
            assert got == table_free_closure(atlas, link, cap), (link, cap)


@pytest.mark.parametrize("name", BUILTINS)
def test_integer_closure_matches_table_free_reference_on_builtins(name):
    atlas = builtin_atlas(name)
    small = name != "twist-even-16"
    links = random_integer_links(
        atlas, random.Random(name), 12 if small else 3, 4 if small else 2, 4 if small else 3
    )
    assert_closures_match(atlas, links)


@settings(max_examples=100, deadline=None)
@given(small_atlases(), st.data())
def test_integer_closure_matches_table_free_reference_on_random_atlases(atlas, data):
    # exact with or without confluence, so non-confluent draws stay in; the
    # bases are the classes of each level, which the atlas holds, since a
    # non-confluent atlas's class_rows may reach a Generic that it does not
    bases = [c for tb in range(atlas.tbb, atlas.tbb - 4, -1) for c in classes_at_tb(atlas, tb)]
    n = data.draw(st.integers(2, 3))
    counts = st.tuples(st.integers(0, 3), st.integers(0, 3))
    link = integer_link(
        atlas, data.draw(st.sampled_from(bases)), n, data.draw(st.integers(0, 3)),
        data.draw(st.lists(counts, min_size=n, max_size=n)),
    )
    assume(link is not None)
    assert_closures_match(atlas, [link])


def test_second_closure_normalizes_a_few_times_per_state(monkeypatch):
    atlas = builtin_atlas("twist-even-16")
    link = make_integer_link(atlas, Named("P1"), 3, 2, ((3, 2), (1, 4), (2, 2)))
    links_module.integer_closure(atlas, link)
    calls = count_normalize(monkeypatch)
    states, complete = links_module.integer_closure(atlas, link)
    assert complete and len(states) == 449
    assert len(calls) <= 4 * len(states)


def test_destabilization_table_is_private_to_its_atlas():
    atlas, fresh = builtin_atlas("twist-even-3"), builtin_atlas("twist-even-3")
    for c in (Named("R1"), Named("L2"), Generic(0, -3), Named("P1", 1, 0)):
        for sign in (POS, NEG):
            atlas_module.destabilizations(atlas, c, sign)
    assert atlas._destabs
    assert atlas == fresh
    assert repr(atlas) == repr(fresh)
    assert atlas_to_json(atlas) == atlas_to_json(fresh)

    # R1 destabilizes to the peaks that sigma_plus sends to it; with those
    # rules gone, a copy must not answer from the original's table
    assert atlas_module.destabilizations(atlas, Named("R1"), POS) != []
    bare = atlas.replace(rules=tuple(r for r in atlas.rules if r.dst != "R1"))
    assert bare._destabs == {}
    assert atlas_module.destabilizations(bare, Named("R1"), POS) == []


def test_destabilization_results_do_not_share_the_table():
    atlas = builtin_atlas("twist-even-3")
    first = atlas_module.destabilizations(atlas, Named("R1"), POS)
    expected = list(first)
    first.append(Generic(9, 9))
    first.clear()
    assert atlas_module.destabilizations(atlas, Named("R1"), POS) == expected
    # a raw presentation reads the answer of its normal form
    assert atlas_module.destabilizations(atlas, Named("P1", 1, 0), POS) == expected
    assert expected and all(normalize(atlas, c) == c for c in expected)



# -- the decider's meeting search ----------------------------------------------


# the reason of the reference's clause that the decider no longer has
PAIR_UP = "maximal-tb components isotopic and the remaining invariants pair up"


def two_closure_isotopic_integer(atlas, x, y, node_cap):
    """``links._isotopic_integer`` as it was with two full closures."""
    invs = links_module._inv_multiset(atlas, x)
    if invs != links_module._inv_multiset(atlas, y):
        return Verdict.no("component invariant multisets differ")
    if x.n == 1:
        if is_equal(atlas, component_class(atlas, x, 1), component_class(atlas, y, 1)):
            return Verdict.yes("single components are the same class")
        return Verdict.no("single components are distinct classes")
    cx, okx = links_module.integer_closure(atlas, x, node_cap)
    cy, oky = links_module.integer_closure(atlas, y, node_cap)
    if cx & cy:
        return Verdict.yes("common twisted-copy presentation found")
    if not okx or not oky:
        return unknown(atlas, x, y, "presentation search exceeded its node budget")
    if any(tb > x.q for _, tb in invs):
        verdict = links_module._compare_max_tb_components(atlas, x, y)
        if verdict is not None:
            return verdict
        return Verdict.yes(
            "maximal-tb components isotopic and the remaining invariants pair up"
        )
    px = set().union(*(links_module._pattern_tags(s[2]) for s in cx if s[1] == 0))
    py = set().union(*(links_module._pattern_tags(s[2]) for s in cy if s[1] == 0))
    if "plus" in px and "plus" in py or "minus" in px and "minus" in py:
        verdict = links_module._compare_max_tb_components(atlas, x, y)
        if verdict is not None:
            return verdict
        return Verdict.yes(
            "one-signed stabilizations of n-copies with isotopic maximal-tb components"
        )
    if "mixed" in px and "mixed" in py:
        return Verdict.no(
            "mixed-sign stabilized n-copies over distinct classes stay distinct"
        )
    if "both" in px and "both" in py:
        if atlas.both_signs_determined:
            return Verdict.yes(
                "every component stabilized both ways; this atlas records such "
                "links as determined by classical invariants"
            )
        return unknown(
            atlas, x, y,
            "every component stabilized both positively and negatively over a "
            "maximal-slope n-copy; the classification is silent for this atlas"
        )
    return unknown(
        atlas, x, y,
        "stabilization pattern of the n-copy presentations is not covered by "
        "the integer-slope classification"
    )


def unknown(atlas, x, y, reason):
    """Unknown with ``reason``, unless no bijection of components matches
    their classes: an isotopy carries components to components."""
    if not componentwise_isotopic(atlas, x, y):
        return Verdict.no("no matching of the components pairs equal Legendrian classes")
    return Verdict.maybe(reason)


def test_the_deleted_core_clause_needs_unique_normal_forms():
    # on rules that give g0+2-0 two normal forms, two stabilizations of g0 at
    # once reach (2,-1) and one at a time reach g1+1-0, so links whose cores
    # normalize alike need not meet; make_atlas refuses the rules
    spec, _ = NON_CONFLUENT["rule-order"]
    atlas = unproven_atlas(spec)
    x = make_integer_link(atlas, Named("g0"), 2, 3, ((2, 0), (0, 0)))
    y = make_integer_link(atlas, Generic(2, -1), 2, 1, ((0, 0), (0, 2)))
    assert two_closure_isotopic_integer(atlas, x, y, 4000).reason == PAIR_UP
    assert component_class(atlas, x, 1) == component_class(atlas, y, 1) == Generic(2, -1)
    with raises_code(InvalidAtlas, "not-confluent"):
        atlas_module.make_atlas(spec)


def link_at(atlas, state):
    L, t, vec = state
    return make_integer_link(atlas, L, len(vec), t, vec)


def walk(atlas, link, choose, steps):
    """The link at the end of ``steps`` random ``integer_moves`` from ``link``.

    The walk keeps to bases the atlas holds: on a non-confluent atlas a move
    can reach one that it does not, which ``make_integer_link`` refuses."""
    state = links_module.int_state(atlas, link.L, link.t, link.vec)
    for _ in range(steps):
        moves = [m for m in links_module.integer_moves(atlas, state)
                 if isinstance(m[0], Named) or atlas_module.holds(atlas, m[0])]
        if not moves:
            break
        state = choose(moves)
    return link_at(atlas, state)


def partners(atlas, x, top):
    """Every link with x's slope and invariant multiset, over the classes at
    tb q, q + 1 and q + 2 (t = 0, 1, 2) and with counts of at most ``top``."""
    want = sorted(component_invariants(atlas, x))
    cells = [(a, b) for a in range(top + 1) for b in range(top + 1)]
    out = []
    for t in range(3):
        if x.q + t > atlas.tbb:
            break
        for L in classes_at_tb(atlas, x.q + t):
            for vec in itertools.product(cells, repeat=x.n):
                y = integer_link(atlas, L, x.n, t, vec)
                if y is not None and sorted(component_invariants(atlas, y)) == want:
                    out.append(y)
    return out


def assert_meeting_search_matches(atlas, x, y):
    """Equal (kind, reason, witness) at caps 0, 1, 2, 4000, each full
    closure's size and one below it; returns at how many of those caps the
    searches meet only in the second one."""
    sizes = {len(links_module.integer_closure(atlas, link)[0]) for link in (x, y)}
    caps = {0, 1, 2, 4000} | sizes | {size - 1 for size in sizes}
    second = 0
    for cap in sorted(caps):
        got = isotopic(atlas, x, y, node_cap=cap)
        want = two_closure_isotopic_integer(atlas, x, y, cap)
        if want.reason == PAIR_UP:
            # the clause the decider no longer has, which unique normal
            # forms rule out: only rules that make_atlas refuses reach it
            assert not proven(atlas), (x, y, cap)
            continue
        assert (got.kind, got.reason, got.witness) == (want.kind, want.reason, want.witness), (
            x, y, cap)
        sy = links_module.int_state(atlas, y.L, y.t, y.vec)
        if want.is_isotopic and sy not in links_module.integer_closure(atlas, x, cap)[0]:
            second += 1
    return second


def draw_link(atlas, data, top=2):
    bases = [c for tb in range(atlas.tbb, atlas.tbb - 3, -1) for c in classes_at_tb(atlas, tb)]
    n = data.draw(st.integers(2, 3))
    counts = st.tuples(st.integers(0, top), st.integers(0, top))
    link = integer_link(
        atlas, data.draw(st.sampled_from(bases)), n, data.draw(st.integers(0, 2)),
        data.draw(st.lists(counts, min_size=n, max_size=n)),
    )
    assume(link is not None)
    return link


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_atlases(), thick_atlases()), st.data())
def test_meeting_search_matches_two_closures_on_walks(atlas, data):
    x = draw_link(atlas, data)
    y = walk(atlas, x, lambda moves: data.draw(st.sampled_from(moves)),
             data.draw(st.integers(0, 6)))
    assert_meeting_search_matches(atlas, x, y)
    assert_meeting_search_matches(atlas, y, x)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_atlases(), thick_atlases()), st.data())
def test_meeting_search_matches_two_closures_on_equal_multisets(atlas, data):
    x = draw_link(atlas, data, top=1)
    y = data.draw(st.sampled_from(partners(atlas, x, 1)))
    assert_meeting_search_matches(atlas, x, y)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("twist-even-2-surgery",))
def test_meeting_search_matches_two_closures_on_builtins(name):
    atlas = builtin_atlas(name)
    rng = random.Random(name)
    second = 0
    for x in random_integer_links(atlas, rng, 6, 2, 2):
        for steps in range(7):
            y = walk(atlas, x, rng.choice, steps)
            second += assert_meeting_search_matches(atlas, x, y)
            second += assert_meeting_search_matches(atlas, y, x)
        small = random_integer_links(atlas, rng, 1, 2, 1)[0]
        group = partners(atlas, small, 1)
        for y in rng.sample(group, min(6, len(group))):
            second += assert_meeting_search_matches(atlas, small, y)
    # budgets that cut the first search leave some meetings to the second
    assert second


def count_integer_moves(monkeypatch):
    """The list that every later ``links.integer_moves`` call appends its state to."""
    calls = []
    original = links_module.integer_moves

    def counting(atlas, state):
        calls.append(state)
        return original(atlas, state)

    monkeypatch.setattr(links_module, "integer_moves", counting)
    return calls


def test_twins_answer_where_the_searches_meet(monkeypatch):
    # the verdict-site pair: y's start is one move from x's
    tw = builtin_atlas("twist-even-2")
    x = make_integer_link(tw, Named("R1"), 2, 1, ((1, 0), (0, 0)))
    y = make_integer_link(tw, Named("R1", 1, 0), 2, 0, ((0, 0), (0, 1)))
    # T^1(2.(0,-127))[+0-0,+126-126]: its closure runs past the default budget
    unknot = builtin_atlas("unknot")
    deep = make_integer_link(unknot, Generic(0, -127), 2, 1, ((0, 0), (126, 126)))
    start = links_module.int_state(unknot, deep.L, deep.t, deep.vec)
    twin = link_at(unknot, links_module.integer_moves(unknot, start)[0])
    calls = count_integer_moves(monkeypatch)
    for atlas, left, right, expanded in (
        (tw, x, y, 1), (unknot, deep, deep, 0), (unknot, deep, twin, 1),
    ):
        calls.clear()
        verdict = isotopic(atlas, left, right)
        assert verdict.reason == "common twisted-copy presentation found"
        assert len(calls) == expanded, (left, right)
    # the node cap is checked before the stop, so a cap of 1 never meets
    verdict = isotopic(tw, x, y, node_cap=1)
    assert verdict.is_unknown and verdict.reason == "presentation search exceeded its node budget"
