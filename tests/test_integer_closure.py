"""Integer-slope closures over the per-atlas destabilization table.

The decider and the oracle share ``links.integer_moves``, so agreement
between them cannot show that the table changes nothing.  The references
here are the table-free move set: every destabilization rescans its lattice
point and every state is normalized again.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legcable import (
    Generic,
    Named,
    NEG,
    POS,
    atlas_to_json,
    builtin_atlas,
    class_rows,
    classes_at,
    classes_at_tb,
    invariants,
    make_integer_link,
    normalize,
    stabilize,
)
from legcable import atlas as atlas_module
from legcable import links as links_module
from legcable.errors import WrongRegime
from test_atlas import count_normalize, small_atlases

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
    except WrongRegime:
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

