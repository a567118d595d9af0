"""The acceptance suite: one callable check per gate, shared by CLI and tests.

Each check recomputes its expected values from first principles (explicit
censuses, independent closed forms, or the brute-force oracle) and compares
the engine against them exactly.  ``run_all`` returns one result per
criterion; the CLI's ``selfcheck`` command prints a PASS/FAIL line for each.
"""

from __future__ import annotations

import random
from math import gcd
from typing import NamedTuple

from .atlas import (
    Named,
    NEG,
    POS,
    builtin_atlas,
    ceil_div,
    classes_at_tb,
    invariants,
    is_equal,
    mountain_range,
    normalize,
    peaks,
    stabilize,
)
from .cables import (
    cable_mountain_range,
    lesser_mountain_range,
    lesser_thresholds,
    window_classes,
)
from .links import (
    GreaterLink,
    IntegerLink,
    LesserLink,
    canonicalize,
    component_class,
    component_invariants,
    componentwise_isotopic,
    enumerate_nondestab_links,
    isotopic,
    link_label,
    make_greater_link,
    make_integer_link,
    make_lesser_link,
    stabilize_component,
)
from .oracle import SearchBudget, check_confluence, closure_equal, unsound_moves

BUILTINS = ("unknot", "k-minus-5", "twist-even-2", "twist-even-3")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], detail_ok: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        return CheckResult(name, False, shown + more)
    return CheckResult(name, True, detail_ok)


# -- 1 -----------------------------------------------------------------------


def check_twist_mountain_ranges() -> CheckResult:
    """Twist atlases reproduce their published mountain ranges down to tb=-3."""
    failures = []
    for n in (2, 3, 4):
        atlas = builtin_atlas(f"twist-even-{n}")
        l, k = ceil_div(n * n, 2), ceil_div(n, 2)
        expected = {(0, 1): l}
        for t in range(0, -4, -1):
            expected[(t - 1, t)] = k
            expected[(1 - t, t)] = k
            for r in range(t + 1, -t, 2):
                expected[(r, t)] = 1
        got = mountain_range(atlas, -3).entries
        if got != expected:
            failures.append(f"n={n}: {got} != {expected}")
    return _result("twist-mountain-ranges", failures, "n=2,3,4 exact down to tb=-3")


# -- 2 -----------------------------------------------------------------------


def check_k5_cable_range() -> CheckResult:
    """The (2,1)-cable of the -5 twist knot: doubled diamond over two peaks."""
    atlas = builtin_atlas("k-minus-5")
    got = cable_mountain_range(atlas, 2, 1, -7).entries
    expected = {
        (0, -5): 2,
        (1, -6): 2,
        (-1, -6): 2,
        (0, -7): 2,
        (2, -7): 1,
        (-2, -7): 1,
    }
    failures = [] if got == expected else [f"{got} != {expected}"]
    return _result("k5-cable-range", failures, "peak (0,-5) x2 and (+-1,-6), (0,-7) x2")


# -- 3 -----------------------------------------------------------------------


def check_k5_link_table() -> CheckResult:
    """Verdict table for the 2-component (4,2)-cable of the -5 twist knot."""
    atlas = builtin_atlas("k-minus-5")

    def lam(base, m, n, k, l):
        return make_greater_link(atlas, Named(base), 2, 2, 1, ((m, n), (k, l)))

    failures = []
    for m in range(4):
        for n in range(4):
            for k in range(4):
                for l in range(4):
                    a, b = lam("A", m, n, k, l), lam("B", m, n, k, l)
                    v = isotopic(atlas, a, b)
                    # isotopic where m,k >= 2 or n,l >= 2 (so where all are >= 2);
                    # not where m,l <= 1 and n,k >= 2, nor where m,l >= 2 and n,k <= 1
                    want = (m >= 2 and k >= 2) or (n >= 2 and l >= 2)
                    if v.is_isotopic != want or v.is_unknown:
                        failures.append(f"({m},{n},{k},{l}): {v.kind}, wanted iso={want}")
                    cw = componentwise_isotopic(atlas, a, b)
                    cw_want = (m >= 2 or n >= 2) and (k >= 2 or l >= 2)
                    if cw != cw_want:
                        failures.append(f"({m},{n},{k},{l}): componentwise {cw}")
    return _result("k5-link-table", failures, "256 cells exact, spot regions exact")


# -- 4 -----------------------------------------------------------------------


def check_componentwise_witness() -> CheckResult:
    """Stabilized 2-copies that are component-wise isotopic but not isotopic."""
    atlas = builtin_atlas("twist-even-4")
    failures = []
    pair = None
    l_count = len([g for g in atlas.generators if g.id.startswith("P")])
    for i in range(1, l_count + 1):
        for j in range(i + 1, l_count + 1):
            if (
                atlas.sigma_plus[i - 1] == atlas.sigma_plus[j - 1]
                and atlas.sigma_minus[i - 1] == atlas.sigma_minus[j - 1]
            ):
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        return CheckResult("componentwise-witness", False, "no peak pair shares both images")
    i, j = pair
    vec = ((1, 0), (0, 1))
    li = make_integer_link(atlas, Named(f"P{i}"), 2, 0, vec)
    lj = make_integer_link(atlas, Named(f"P{j}"), 2, 0, vec)
    v = isotopic(atlas, li, lj)
    cw = componentwise_isotopic(atlas, li, lj)
    if not v.is_not_isotopic:
        failures.append(f"expected NotIsotopic, got {v.kind}")
    if not cw:
        failures.append("expected component-wise isotopic")
    return _result(
        "componentwise-witness",
        failures,
        f"P{i} vs P{j}: NotIsotopic yet component-wise isotopic",
    )


# -- 5 -----------------------------------------------------------------------


def check_lesser_census() -> CheckResult:
    """Peak-row census of lesser cables of twist knots: 2m + 4k classes."""
    failures = []
    for (n, p, q, m) in ((2, 2, 3, 1), (3, 2, 3, 1), (2, 3, 4, 1), (2, 2, 5, 2)):
        atlas = builtin_atlas(f"twist-even-{n}")
        k = ceil_div(n, 2)
        mr = lesser_mountain_range(atlas, p, -q, -p * q - 1)
        row = mr.row(-p * q)
        expected: dict[int, int] = {}
        for l in range(m):
            for s in (1, -1):
                r = s * (p - q + 2 * p * l)
                expected[r] = expected.get(r, 0) + 1
        for r in (p + q, -(p + q), (2 * m + 1) * p - q, -((2 * m + 1) * p - q)):
            expected[r] = expected.get(r, 0) + k
        if row != expected or sum(row.values()) != 2 * m + 4 * k:
            failures.append(f"(n,p,q,m)=({n},{p},{q},{m}): {row} != {expected}")
    return _result("lesser-census", failures, "peak rows exact for all four slopes")


# -- 6 -----------------------------------------------------------------------


def check_positive_window_structure() -> CheckResult:
    """Slope (2,1) cables of the n=2 twist atlas with surgery-distinct peaks."""
    atlas = builtin_atlas("twist-even-2-surgery")
    p, q = 2, 1
    failures = []
    mr = lesser_mountain_range(atlas, p, q, -1)
    row = mr.row(p * q)
    if row != {1: 2, -1: 2}:
        failures.append(f"peak row {row} != {{1: 2, -1: 2}}")
    th0, _ = lesser_thresholds(atlas, p, q)
    if th0 != p - q:
        failures.append(f"theta0 {th0} != p-q {p - q}")
    for i in (1, 2):
        plus = make_lesser_link(atlas, Named(f"P{i}"), POS, 1, p, q, ((0, p - q),))
        minus = make_lesser_link(atlas, Named(f"P{i}"), NEG, 1, p, q, ((p - q, 0),))
        if not isotopic(atlas, plus, minus).is_isotopic:
            failures.append(f"S-^(p-q)(L+_{i}) != S+^(p-q)(L-_{i})")
    collapsed = {
        repr(canonicalize(atlas, make_lesser_link(atlas, Named(f"P{i}"), POS, 1, p, q, ((q, 0),))))
        for i in (1, 2)
    }
    if len(collapsed) != 1:
        failures.append(f"+stabilized family has {len(collapsed)} classes, wanted 1")
    return _result(
        "positive-window-structure",
        failures,
        "2l=4 peak classes at rot +-1, threshold identity, family collapses to k=1",
    )


# -- 7 -----------------------------------------------------------------------


def _sample_classes(atlas, levels=3, per_level=3):
    out = []
    for tb in range(atlas.tbb, atlas.tbb - levels, -1):
        out.extend(classes_at_tb(atlas, tb)[:per_level])
    return out


def check_twist_relations() -> CheckResult:
    """Both twisted-copy stabilization identities hold as engine equalities."""
    failures = []
    for name in BUILTINS:
        atlas = builtin_atlas(name)
        for L in _sample_classes(atlas):
            for n in (2, 3):
                for t in (1, 2, 3):
                    for sign in (POS, NEG):
                        lhs_vec = ((1, 0) if sign == POS else (0, 1),) + tuple(
                            (0, 0) for _ in range(n - 1)
                        )
                        lhs = make_integer_link(atlas, L, n, t, lhs_vec)
                        rhs_vec = ((0, 0),) + tuple(
                            ((0, 1) if sign == POS else (1, 0)) for _ in range(n - 1)
                        )
                        rhs = make_integer_link(
                            atlas, stabilize(atlas, L, sign, 1), n, t - 1, rhs_vec
                        )
                        v = isotopic(atlas, lhs, rhs)
                        if not v.is_isotopic:
                            failures.append(
                                f"{name} L={link_label(atlas, lhs)} t={t} n={n} "
                                f"sign={sign}: {v.kind}"
                            )
    return _result(
        "twist-relations", failures, "all sampled instances isotopic (t=1 case included)"
    )


# -- 8 -----------------------------------------------------------------------


def _greater_slopes(atlas):
    out = []
    for p in (1, 2, 3):
        q = p * atlas.width_ceiling + 1
        found = 0
        while found < 2:
            if gcd(p, q) == 1:
                out.append((p, q))
                found += 1
            q += 1
    return out


def _lesser_slopes(atlas):
    out = []
    for p in (2, 3):
        for q in range(p * atlas.tbb - 1, p * atlas.tbb - 7, -1):
            if gcd(p, q) == 1:
                out.append((p, q))
    return out


def _sample_greater(rng, pool, atlas, n, p, q):
    u = rng.choice(pool)
    vec = tuple((rng.randint(0, 6), rng.randint(0, 6)) for _ in range(n))
    return make_greater_link(atlas, u, n, p, q, vec)


def _sample_integer(rng, pool, atlas, n, q):
    L = rng.choice(pool)
    t = invariants(atlas, L).tb - q
    vec = tuple((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n))
    return make_integer_link(atlas, L, n, t, vec)


def _sample_lesser(rng, pool, atlas, n, p, q):
    w = rng.choice(pool)
    sign = rng.choice((POS, NEG))
    vec = tuple((rng.randint(0, 6), rng.randint(0, 6)) for _ in range(n))
    return make_lesser_link(atlas, w, sign, n, p, q, vec)


def _representation_twin(atlas, link):
    """A different presentation of the same link, built from a known identity."""
    if isinstance(link, GreaterLink):
        u = stabilize(atlas, link.u, POS, 1)
        vec = tuple((a + link.p, b) for a, b in link.vec)
        return GreaterLink(normalize(atlas, link.u), link.n, link.p, link.q, vec), \
            make_greater_link(atlas, u, link.n, link.p, link.q, link.vec)
    if isinstance(link, IntegerLink):
        # first displayed twisted-copy identity, applied at the base
        lhs_vec = ((link.vec[0][0] + 1, link.vec[0][1]),) + link.vec[1:]
        rhs_vec = (link.vec[0],) + tuple((a, b + 1) for a, b in link.vec[1:])
        up = stabilize(atlas, link.L, POS, 1)
        return link._replace(vec=lhs_vec), link._replace(L=up, t=link.t - 1, vec=rhs_vec)
    th0, _ = lesser_thresholds(atlas, link.p, link.q)
    vec_plus = tuple((a, b + th0) for a, b in link.vec)
    vec_minus = tuple((a + th0, b) for a, b in link.vec)
    lhs = LesserLink(link.form, link.base, POS, link.n, link.p, link.q, vec_plus)
    rhs = LesserLink(link.form, link.base, NEG, link.n, link.p, link.q, vec_minus)
    return lhs, rhs


def check_oracle_agreement(samples: int = 500) -> CheckResult:
    """Decider vs rewrite-closure oracle on randomized instances per regime."""
    budget = SearchBudget(depth=96, node_cap=60000)
    failures = []
    counts = {}
    unsound = set()

    def compare(atlas, l1, l2, tag):
        counts[tag] = counts.get(tag, 0) + 1
        # One pair in 50 per regime first checks the oracle's moves near both
        # links: closure_equal answers differing invariants unsearched, so a
        # move that changes them would pass unseen.  Unsound moves can make
        # searches run to the node cap, so a regime that failed the check is
        # not searched again.
        if counts[tag] % 50 == 1:
            bad = unsound_moves(atlas, l1) + unsound_moves(atlas, l2)
            if bad:
                unsound.add(tag)
                failures.append(
                    f"{tag}: {bad} oracle moves change the invariants near "
                    f"{link_label(atlas, l1)} / {link_label(atlas, l2)}"
                )
        if tag in unsound:
            return
        v = isotopic(atlas, l1, l2)
        w = closure_equal(atlas, l1, l2, budget)
        if w.conclusive and v.kind != w.kind:
            failures.append(
                f"{tag}: decider {v.kind} vs oracle {w.kind} on "
                f"{link_label(atlas, l1)} / {link_label(atlas, l2)}"
            )

    # Each sampling pool is built on first use and kept for the gate's run:
    # the greater classes per atlas, the integer rows per atlas and q, the
    # lesser window per atlas and slope.  Building one calls no rng.
    pools: dict = {}

    def pool(key, build):
        found = pools.get(key)
        if found is None:
            found = pools[key] = build()
        return found

    rng = random.Random(20250808)
    greater_atlases = [builtin_atlas(n) for n in BUILTINS]
    lesser_atlases = [
        builtin_atlas(n)
        for n in ("k-minus-5", "twist-even-2", "twist-even-3", "twist-even-2-surgery")
    ]
    for count in range(samples):
        atlas = rng.choice(greater_atlases)
        n = rng.randint(1, 3)
        p, q = rng.choice(_greater_slopes(atlas))
        classes = pool(("greater", atlas.name),
                       lambda: _sample_classes(atlas, levels=2, per_level=4))
        l1 = _sample_greater(rng, classes, atlas, n, p, q)
        if count % 3 == 0:
            l1, l2 = _representation_twin(atlas, l1)
        else:
            l2 = _sample_greater(rng, classes, atlas, n, p, q)
        compare(atlas, l1, l2, "greater")

        atlas = rng.choice(greater_atlases)
        n = rng.randint(1, 3)
        q = atlas.tbb - rng.randint(0, 2)
        rows = pool(("integer", atlas.name, q), lambda: [
            c for tb in range(q, atlas.tbb + 1) for c in classes_at_tb(atlas, tb)])
        l1 = _sample_integer(rng, rows, atlas, n, q)
        if count % 3 == 0 and l1.t >= 1:
            l1, l2 = _representation_twin(atlas, l1)
        else:
            l2 = _sample_integer(rng, rows, atlas, n, q)
        compare(atlas, l1, l2, "integer")

        atlas = rng.choice(lesser_atlases)
        n = rng.randint(1, 3)
        p, q = rng.choice(_lesser_slopes(atlas))
        window = pool(("lesser", atlas.name, p, q), lambda: window_classes(atlas, p, q))
        l1 = _sample_lesser(rng, window, atlas, n, p, q)
        if count % 3 == 0:
            l1, l2 = _representation_twin(atlas, l1)
        else:
            l2 = _sample_lesser(rng, window, atlas, n, p, q)
        compare(atlas, l1, l2, "lesser")

    # a regime that was never compared must not read as agreement
    failures += [f"{tag}: zero comparisons" for tag in ("greater", "integer", "lesser")
                 if tag not in counts]
    detail = ", ".join(f"{tag}: {num}" for tag, num in sorted(counts.items()))
    return _result("oracle-agreement", failures, f"zero disagreements over {detail}")


# -- 9 -----------------------------------------------------------------------


def check_structural_invariants() -> CheckResult:
    """Diamond relation, parity preservation, equal components of peak links."""
    failures = []
    for name in BUILTINS:
        atlas = builtin_atlas(name)
        for g in peaks(atlas):
            for p in (2, 3, 4):
                q = p * atlas.width_ceiling + 1
                while gcd(p, q) != 1:
                    q += 1
                for sign in (POS, NEG):
                    lhs = stabilize_component(
                        atlas, make_greater_link(atlas, Named(g.id), 1, p, q), 1, sign, p
                    )
                    rhs = make_greater_link(
                        atlas, stabilize(atlas, Named(g.id), sign, 1), 1, p, q
                    )
                    if not isotopic(atlas, lhs, rhs).is_isotopic:
                        failures.append(f"{name} {g.id} ({p},{q}) sign {sign}: diamond")
        # parity through stabilization chains and cables
        for L in _sample_classes(atlas):
            rot, tb = invariants(atlas, L)
            if (rot + tb) % 2 == 0:
                failures.append(f"{name}: even parity at {L}")
            for sign in (POS, NEG):
                rot2, tb2 = invariants(atlas, stabilize(atlas, L, sign, 3))
                if (rot2 + tb2) % 2 == 0:
                    failures.append(f"{name}: parity broken by stabilization")
        p, q = _greater_slopes(atlas)[2]
        for u in _sample_classes(atlas, levels=2, per_level=2):
            c = make_greater_link(atlas, u, 1, p, q)
            for sign in (POS, NEG):
                stabilized = stabilize_component(atlas, c, 1, sign, 3)
                rot2, tb2 = component_invariants(atlas, stabilized)[0]
                if (rot2 + tb2) % 2 == 0:
                    failures.append(f"{name}: cable parity broken")
        # all components of a maximal peak link lie in one class, all regimes
        for n in (2, 3):
            for p, q in (_greater_slopes(atlas)[0],):
                for link in enumerate_nondestab_links(atlas, n, p, q):
                    ks = [component_class(atlas, link, c + 1) for c in range(n)]
                    if any(not isotopic(atlas, ks[0], kk).is_isotopic for kk in ks[1:]):
                        failures.append(f"{name}: greater peak link components differ")
            q = atlas.tbb - 1
            for link in enumerate_nondestab_links(atlas, n, 1, q):
                if link.t != 0:
                    continue  # only the n-copies realize every component at tb = q
                ks = [component_class(atlas, link, c + 1) for c in range(n)]
                if any(not is_equal(atlas, ks[0], kk) for kk in ks[1:]):
                    failures.append(f"{name}: integer peak link components differ")
            if atlas.uniformly_thick:
                pl, ql = _lesser_slopes(atlas)[0]
                for link in enumerate_nondestab_links(atlas, n, pl, ql):
                    ks = [component_class(atlas, link, c + 1) for c in range(n)]
                    if any(
                        not isotopic(atlas, ks[0], kk).is_isotopic for kk in ks[1:]
                    ):
                        failures.append(f"{name}: lesser peak link components differ")
    return _result(
        "structural-invariants",
        failures,
        "diamond relation p<=4, parity everywhere, peak links single-class",
    )


# -- 10 ----------------------------------------------------------------------


def check_confluence_gate() -> CheckResult:
    """Every builtin atlas rewrites confluently to depth 8."""
    failures = []
    for name in BUILTINS + ("twist-even-2-surgery", "twist-even-4"):
        report = check_confluence(builtin_atlas(name), SearchBudget(depth=8))
        if not report.ok:
            failures.append(f"{name}: {len(report.divergences)} divergences")
    return _result("confluence-gate", failures, "zero divergences at depth 8")


ALL_CHECKS = (
    check_twist_mountain_ranges,
    check_k5_cable_range,
    check_k5_link_table,
    check_componentwise_witness,
    check_lesser_census,
    check_positive_window_structure,
    check_twist_relations,
    check_oracle_agreement,
    check_structural_invariants,
    check_confluence_gate,
)


def run_all(samples: int = 500) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        if check is check_oracle_agreement:
            results.append(check(samples))
        else:
            results.append(check())
    return results
