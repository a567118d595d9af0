"""Rewrite-closure oracle: equality, confluence, brute-force ranges."""

import pytest

from legcable import (
    Generic,
    Named,
    SearchBudget,
    brute_cable_mountain_range,
    brute_lesser_mountain_range,
    brute_mountain_range,
    builtin_atlas,
    cable_mountain_range,
    check_confluence,
    closure_equal,
    lesser_mountain_range,
    make_atlas,
    make_greater_link,
    make_integer_link,
    mountain_range,
)
from legcable.errors import BudgetExceeded, KindMismatch

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
