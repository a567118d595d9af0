"""Slope regimes, greater cables and diamonds, twisted copies, lesser cables.

A cable knot is a 1-component cable link, so the knot cases run on the
n = 1 link API.
"""

from math import gcd

import pytest

from legcable import (
    DIVIDE,
    Generic,
    Named,
    NEG,
    POS,
    RULING,
    Regime,
    builtin_atlas,
    cable_mountain_range,
    canonicalize,
    component_invariants,
    invariants,
    isotopic,
    lesser_mountain_range,
    lesser_thresholds,
    make_greater_link,
    make_integer_link,
    make_lesser_link,
    regime,
    stabilize,
    stabilize_component,
    window_classes,
)
from legcable.errors import OutOfRange, WrongRegime
from test_errors import raises_code
from legcable import cables as cables_module
from legcable.mountain import tally
from legcable.oracle import brute_cable_mountain_range


def test_regime_examples():
    un = builtin_atlas("unknot")
    tw2 = builtin_atlas("twist-even-2")
    assert regime(un, 2, 1) is Regime.GREATER
    assert regime(tw2, 2, -3) is Regime.NONINTEGER_LESSER
    assert regime(tw2, 1, 0) is Regime.INTEGER_LESSER
    assert regime(tw2, 1, 1) is Regime.INTEGER_LESSER  # maximal-slope integer cable
    # the unknot is not uniformly thick: no non-integer lesser regime
    assert regime(un, 2, -3) is Regime.UNSUPPORTED_WINDOW


def test_regime_unsupported_window():
    from legcable import make_atlas

    # width ceiling above tbb: slopes in between are out of reach
    atl = make_atlas(
        {
            "name": "wide",
            "generators": [{"id": "g", "rot": 0, "tb": -3}],
            "rules": [
                {"src": "g", "da": 1, "db": 0, "dst": "generic"},
                {"src": "g", "da": 0, "db": 1, "dst": "generic"},
            ],
            "tbb": -3,
            "width_ceiling": -1,
            "uniformly_thick": False,
        }
    )
    assert regime(atl, 1, -2) is Regime.UNSUPPORTED_WINDOW
    assert regime(atl, 2, -5) is Regime.UNSUPPORTED_WINDOW
    assert regime(atl, 2, -7) is Regime.UNSUPPORTED_WINDOW  # lesser needs thickness
    assert regime(atl, 1, -3) is Regime.INTEGER_LESSER
    assert regime(atl, 1, 0) is Regime.GREATER


def test_regime_rejects_unreduced_slopes():
    un = builtin_atlas("unknot")
    with raises_code(WrongRegime, "unreduced-slope"):
        regime(un, 2, 4)
    with raises_code(WrongRegime, "unreduced-slope"):
        regime(un, 0, 1)


def cable(atlas, u, p, q, i=0, j=0):
    """The greater (p, q)-cable knot of ``u`` with diamond coordinates (i, j)."""
    return make_greater_link(atlas, u, 1, p, q, ((i, j),))


def lesser(atlas, base, sign, p, q):
    """The standard (p, q)-cable knot of a window class."""
    return make_lesser_link(atlas, base, sign, 1, p, q)


def knot_invariants(atlas, knot):
    (rot_tb,) = component_invariants(atlas, knot)
    return rot_tb


def test_greater_cable_formulas():
    un = builtin_atlas("unknot")
    c = cable(un, Named("U"), 2, 3)
    assert knot_invariants(un, c) == (0, 1)  # 6 - 5
    k5 = builtin_atlas("k-minus-5")
    assert knot_invariants(k5, cable(k5, Named("A"), 2, 1)) == (0, -5)
    # a (1, q) greater cable carries the invariants of the core
    c1 = cable(un, Named("U"), 1, 3)
    assert knot_invariants(un, c1) == invariants(un, Named("U"))


def test_greater_cable_wrong_regime():
    tw2 = builtin_atlas("twist-even-2")
    with raises_code(WrongRegime, "not-greater"):
        cable(tw2, Named("P1"), 2, -3)


def test_cable_knot_stabilization_pushes_after_p_steps():
    k5 = builtin_atlas("k-minus-5")
    c = cable(k5, Named("A"), 2, 1)
    twice = stabilize_component(k5, c, 1, POS, 2)
    assert isotopic(k5, twice, cable(k5, stabilize(k5, Named("A"), POS, 1), 2, 1)).is_isotopic
    once = stabilize_component(k5, c, 1, POS, 1)
    assert once.vec == ((1, 0),)
    assert knot_invariants(k5, once) == (1, -6)
    # p = 1: every stabilization pushes straight into the underlying knot
    un = builtin_atlas("unknot")
    c1 = stabilize_component(un, cable(un, Named("U"), 1, 3), 1, POS, 1)
    assert c1.vec == ((0, 0),)
    assert is_stabilized_core(un, c1)


def is_stabilized_core(atlas, c):
    return invariants(atlas, c.u) == (1, -2)


def test_cable_knot_isotopy_examples():
    k5 = builtin_atlas("k-minus-5")
    a = cable(k5, Named("A"), 2, 1, 1, 0)
    b = cable(k5, Named("B"), 2, 1, 1, 0)
    assert not isotopic(k5, a, b).is_isotopic
    resolved = stabilize_component(k5, cable(k5, Named("A"), 2, 1), 1, POS, 2)
    assert isotopic(k5, resolved, cable(k5, stabilize(k5, Named("A"), POS, 1), 2, 1)).is_isotopic
    assert isotopic(k5, a, a).is_isotopic
    with raises_code(WrongRegime, "link-mismatch"):
        isotopic(k5, a, cable(k5, Named("A"), 2, 3, 1, 0))


def test_diamond_has_p_squared_distinct_classes():
    k5 = builtin_atlas("k-minus-5")
    for p, q in ((2, 1), (3, 1), (4, 1)):
        seen = set()
        for i in range(p):
            for j in range(p):
                seen.add(knot_invariants(k5, cable(k5, Named("A"), p, q, i, j)))
        assert len(seen) == p * p


def test_cable_mountain_range_fixtures():
    k5 = builtin_atlas("k-minus-5")
    got = cable_mountain_range(k5, 2, 1, -7).entries
    assert got[(0, -5)] == 2 and got[(1, -6)] == 2 and got[(-1, -6)] == 2
    assert got[(0, -7)] == 2
    un = builtin_atlas("unknot")
    assert cable_mountain_range(un, 2, 3, 1).entries == {(0, 1): 1}
    # (3,2) of the unknot, cross-checked against the brute-force oracle
    greedy = cable_mountain_range(un, 3, 2, -2).entries
    brute = brute_cable_mountain_range(un, 3, 2, -2).entries
    assert greedy == brute
    assert greedy[(0, 1)] == 1  # 6 - |3(-1) - 2| = 1


def test_cable_ranges_reject_a_cutoff_above_the_peak_row():
    k5, tw2 = builtin_atlas("k-minus-5"), builtin_atlas("twist-even-2")
    peak = 2 * 1 - (1 - 2 * k5.tbb)  # greater (2,1) cables of the tb = -3 classes
    assert cable_mountain_range(k5, 2, 1, peak).entries == {(0, peak): 2}
    above = f"tb_min={peak + 1} above the peak row tb={peak}"
    with raises_code(OutOfRange, "cutoff-above-peak", match=above):
        cable_mountain_range(k5, 2, 1, peak + 1)
    assert lesser_mountain_range(tw2, 2, -3, -6).total() == 6  # two per window class
    with raises_code(OutOfRange, "cutoff-above-peak", match="above the peak row tb=-6"):
        lesser_mountain_range(tw2, 2, -3, -5)


# The slopes that cable-mountain requests of the perfbench ranges workload
# draw: greater twist and k-minus-5 slopes, then the lesser ones.
RANGE_SLOPES = (
    ((2, 3), (3, 4), (2, 5), (3, 5))
    + tuple((p, q) for p in (2, 3) for q in range(-3 * p + 1, -3 * p + 8) if gcd(p, q) == 1)
    + ((2, -3), (3, -4), (2, -5), (2, -7), (3, -10), (2, -9), (2, 1))
)
RANGE_ATLASES = (
    "unknot", "k-minus-5", "twist-even-2", "twist-even-3", "twist-even-4", "twist-even-8",
    "twist-even-2-surgery",
)


def test_cable_labels_are_sorted_per_point_as_the_global_sort_left_them(monkeypatch):
    """Each point's labels are sorted and distinct, and the ranges equal those
    of the builders that sorted every labelled point before counting."""
    cases = {}
    for name in RANGE_ATLASES:
        atlas = builtin_atlas(name)
        for p, q in RANGE_SLOPES:
            kind = regime(atlas, p, q)
            if kind is Regime.GREATER:
                build, peak = cable_mountain_range, p * q - (q - p * atlas.tbb)
            elif kind is Regime.NONINTEGER_LESSER:
                build, peak = lesser_mountain_range, p * q
            else:
                continue
            for depth in range(15):
                key = (build, name, p, q, peak - depth)
                cases[key] = build(atlas, p, q, peak - depth)
    assert {key[0] for key in cases} == {cable_mountain_range, lesser_mountain_range}
    for mr in cases.values():
        assert all(list(labels) == sorted(set(labels)) for labels in mr.labels.values())
    # the builders as they were: every labelled point sorted, then counted
    monkeypatch.setattr(cables_module, "tally",
                        lambda labelled, tb_min, sort_labels: tally(sorted(labelled), tb_min))
    for (build, name, p, q, tb_min), mr in cases.items():
        assert build(builtin_atlas(name), p, q, tb_min) == mr, (name, p, q, tb_min)


def test_cable_mountain_range_wrong_regime():
    tw2 = builtin_atlas("twist-even-2")
    with raises_code(WrongRegime, "not-greater"):
        cable_mountain_range(tw2, 2, -3, -8)


def test_greater_stabilization_consistency_up_to_p4():
    for name in ("unknot", "k-minus-5", "twist-even-2"):
        atlas = builtin_atlas(name)
        from math import gcd

        for g in atlas.generators:
            for p in (2, 3, 4):
                q = p * atlas.width_ceiling + 1
                while gcd(p, q) != 1:
                    q += 1
                for sign in (POS, NEG):
                    lhs = stabilize_component(atlas, cable(atlas, Named(g.id), p, q), 1, sign, p)
                    rhs = cable(atlas, stabilize(atlas, Named(g.id), sign, 1), p, q)
                    assert knot_invariants(atlas, lhs) == knot_invariants(atlas, rhs)
                    assert isotopic(atlas, lhs, rhs).is_isotopic


def copy_invariants(atlas, L, n, t):
    """Component invariants of the unstabilized twisted copy."""
    return component_invariants(atlas, make_integer_link(atlas, L, n, t))


def test_twisted_n_copy_component_invariants():
    tw2 = builtin_atlas("twist-even-2")
    assert copy_invariants(tw2, Named("P1"), 2, 1) == [(0, 1), (0, -1)]
    un = builtin_atlas("unknot")
    assert copy_invariants(un, Named("U"), 2, 2) == [(0, -1), (0, -5)]
    assert copy_invariants(un, Named("U"), 3, 0) == [(0, -1)] * 3
    assert make_integer_link(un, Named("U"), 3, 0).q == -1


def test_twisted_n_copy_satisfies_both_stabilization_identities():
    # component invariants of T^t(nL) match both sign instances of the
    # twisted-copy stabilization relation
    tw2 = builtin_atlas("twist-even-2")
    for t in (1, 2, 3):
        for n in (2, 3):
            lhs = copy_invariants(tw2, Named("P1"), n, t)
            for sign in (POS, NEG):
                rhs = copy_invariants(tw2, stabilize(tw2, Named("P1"), sign, 1), n, t - 1)
                # comp 1 stabilized on the left, comps 2..n on the right
                got_l = [(lhs[0][0] + sign, lhs[0][1] - 1)] + lhs[1:]
                got_r = [rhs[0]] + [(r - sign, tb - 1) for r, tb in rhs[1:]]
                assert got_l == got_r


def test_lesser_knot_examples():
    tw2 = builtin_atlas("twist-even-2")
    c = lesser(tw2, Generic(0, -1), POS, 2, -3)
    assert knot_invariants(tw2, c) == (1, -6)
    right = Named("R1", 1, 0)  # the right-edge class at tb = -1
    assert knot_invariants(tw2, lesser(tw2, right, POS, 2, -3)) == (5, -6)
    assert knot_invariants(tw2, lesser(tw2, right, NEG, 2, -3)) == (3, -6)


def test_lesser_knot_window_and_regime_errors():
    tw2 = builtin_atlas("twist-even-2")
    with raises_code(WrongRegime, "wrong-window"):
        lesser(tw2, Named("P1"), POS, 2, -3)  # tb 1, window is -1
    un = builtin_atlas("unknot")
    with raises_code(WrongRegime, "not-noninteger-lesser"):
        lesser(un, Named("U"), POS, 2, -3)
    with raises_code(WrongRegime, "not-noninteger-lesser"):
        lesser_mountain_range(un, 2, -3, -8)


def test_lesser_rotation_window_property():
    tw2 = builtin_atlas("twist-even-2")
    for p, q in ((2, -3), (3, -4), (2, 1)):
        if regime(tw2, p, q) is not Regime.NONINTEGER_LESSER:
            continue
        for w in window_classes(tw2, p, q):
            rot_w, tb_w = invariants(tw2, w)
            for sign in (POS, NEG):
                c = lesser(tw2, w, sign, p, q)
                rot, tb = knot_invariants(tw2, c)
                assert abs(rot - p * rot_w) == p * tb_w - q
                assert 0 < p * tb_w - q < p
                assert (rot + tb) % 2 == 1


def test_lesser_canonical_form_reaches_ruling():
    tw2 = builtin_atlas("twist-even-2")
    c = lesser(tw2, Generic(0, -1), POS, 2, -3)
    th0, _ = lesser_thresholds(tw2, 2, -3)
    form = stabilize_component(tw2, c, 1, NEG, th0)
    assert form.form == RULING and form.vec == ((0, 0),)
    shallow = canonicalize(tw2, c)
    assert shallow.form == DIVIDE and shallow.sign == POS


def test_lesser_thresholds_sum_to_p():
    tw2 = builtin_atlas("twist-even-2")
    for p, q in ((2, -3), (3, -4), (2, 1), (3, 2)):
        th0, th1 = lesser_thresholds(tw2, p, q)
        assert th0 + th1 == p
        assert 0 < th0 < p


def test_parity_of_all_cable_constructions():
    k5 = builtin_atlas("k-minus-5")
    for i in range(2):
        for j in range(2):
            rot, tb = knot_invariants(k5, cable(k5, Named("A"), 2, 1, i, j))
            assert (rot + tb) % 2 == 1
    tw2 = builtin_atlas("twist-even-2")
    for w in window_classes(tw2, 2, -3):
        for sign in (POS, NEG):
            rot, tb = knot_invariants(tw2, lesser(tw2, w, sign, 2, -3))
            assert (rot + tb) % 2 == 1
