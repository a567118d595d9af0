"""Link canonicalization, isotopy verdicts, components, and permutations."""

import random
from itertools import permutations
from math import gcd

import pytest

from legcable import (
    DIVIDE,
    Generic,
    GreaterLink,
    IntegerLink,
    LesserLink,
    Named,
    NEG,
    POS,
    RULING,
    builtin_atlas,
    canonicalize,
    class_rows,
    classes_at_tb,
    component_class,
    component_invariants,
    componentwise_isotopic,
    enumerate_nondestab_links,
    invariants,
    is_equal,
    isotopic,
    lesser_thresholds,
    link_label,
    link_to_json,
    make_greater_link,
    make_integer_link,
    make_lesser_link,
    make_link,
    normalize,
    permutation_realizable,
    stabilize,
    stabilize_component,
)
from legcable import links as links_module
from legcable.atlas import ceil_div
from legcable.errors import (
    BadIndex,
    EngineError,
    InvariantMismatch,
    LengthMismatch,
    MalformedDocument,
    NotAPermutation,
    RegimeMismatch,
    WrongRegime,
    WrongWindow,
)


def k5():
    return builtin_atlas("k-minus-5")


def tw(n=2, surgery=False):
    return builtin_atlas(f"twist-even-{n}" + ("-surgery" if surgery else ""))


# -- construction -------------------------------------------------------------


def test_make_link_constructors_validate():
    atlas = k5()
    link = make_greater_link(atlas, Named("A"), 2, 2, 1)
    assert link.vec == ((0, 0), (0, 0))
    with pytest.raises(LengthMismatch):
        make_greater_link(atlas, Named("A"), 2, 2, 1, ((0, 0),))
    most = links_module.MAX_COMPONENTS
    assert len(make_greater_link(atlas, Named("A"), most, 2, 1).vec) == most
    with pytest.raises(LengthMismatch):
        make_greater_link(atlas, Named("A"), most + 1, 2, 1)
    with pytest.raises(WrongRegime):
        make_greater_link(tw(), Named("P1"), 2, 2, -3)
    doc = {
        "regime": "integer-lesser",
        "q": 0,
        "n": 2,
        "base": {"class": {"gen": "P1"}, "t": 1},
        "vec": [[0, 0], [0, 0]],
    }
    link = make_link(tw(), doc)
    assert isinstance(link, IntegerLink) and link.t == 1
    assert make_link(tw(), dict(doc, p=1)) == link
    for p in (2, 7):
        with pytest.raises(RegimeMismatch):
            make_link(tw(), dict(doc, p=p))
    doc = {
        "regime": "noninteger-lesser",
        "p": 2,
        "q": -3,
        "n": 2,
        "base": {"class": {"rot": 0, "tb": -1}, "sign": "+"},
    }
    link = make_link(tw(), doc)
    assert isinstance(link, LesserLink) and link.sign == POS


def test_zero_component_documents_are_rejected():
    docs = [
        (k5(), {"regime": "greater", "p": 2, "q": 1, "base": {"class": {"gen": "A"}}}),
        (tw(), {"regime": "integer-lesser", "q": 0, "base": {"class": {"gen": "R1"}}}),
        (tw(), {"regime": "noninteger-lesser", "p": 2, "q": -3,
                "base": {"class": {"rot": 0, "tb": -1}, "sign": "+"}}),
    ]
    for atlas, doc in docs:
        for vec in ([], None):
            with pytest.raises(EngineError):
                make_link(atlas, dict(doc, n=0, vec=vec))


def test_link_json_round_trip():
    atlas = tw()
    links = [
        make_greater_link(atlas, Named("P1"), 2, 1, 2, ((1, 0), (0, 3))),
        make_integer_link(atlas, Named("P2"), 3, 1, ((1, 1), (0, 0), (2, 0))),
        make_lesser_link(atlas, Generic(0, -1), NEG, 2, 2, -3, ((0, 1), (4, 0))),
        make_lesser_link(atlas, Named("R1", 1, 0), 0, 2, 2, -3, ((1, 0), (0, 2)), form=RULING),
    ]
    for link in links:
        assert make_link(atlas, link_to_json(atlas, link)) == link


def test_make_link_reads_only_the_sign_spellings():
    doc = {"regime": "noninteger-lesser", "p": 2, "q": -3, "n": 1,
           "base": {"class": {"rot": 0, "tb": -1}}}
    for sign, want in (("+", POS), (1, POS), ("-", NEG), (-1, NEG)):
        assert make_link(tw(), dict(doc, base={**doc["base"], "sign": sign})).sign == want
    ruling = {**doc["base"], "form": RULING}
    for sign in ("0", 0, "+", "-"):
        assert make_link(tw(), dict(doc, base={**ruling, "sign": sign})).sign == 0
    for sign in ("banana", "0", 0, 2, True, 1.0, None, [1]):
        with pytest.raises(MalformedDocument):
            make_link(tw(), dict(doc, base={**doc["base"], "sign": sign}))
    with pytest.raises(MalformedDocument):
        make_link(tw(), dict(doc, base={**ruling, "sign": "banana"}))


def test_make_link_rejects_generic_classes_the_atlas_does_not_hold():
    def doc(rot, tb, q):
        return {"regime": "integer-lesser", "q": q, "n": 2,
                "base": {"class": {"rot": rot, "tb": tb}}}

    # on twist-even-2, (0, 2) has even rot + tb, it, (1, 2) and (0, 5) lie
    # above the peak row tb = 1, and every class at (0, 1) and (2, -1) is Named
    for rot, tb in ((0, 2), (1, 2), (0, 5), (0, 1), (2, -1)):
        with pytest.raises(InvariantMismatch, match="is not a class of twist-even-2"):
            make_link(tw(), doc(rot, tb, -2))
    # the Named and Generic spellings of one class are still both accepted
    assert make_link(tw(), doc(0, -3, -4)).L == Generic(0, -3)
    assert make_link(tw(), {**doc(0, -3, -4), "base": {"class": {"gen": "P1", "plus": 2,
                                                                 "minus": 2}}}).L == Generic(0, -3)
    link = make_link(builtin_atlas("unknot"), doc(0, -127, -128))
    assert link.L == Generic(0, -127) and link.t == 1


def test_link_constructors_reject_generic_classes_the_atlas_does_not_hold():
    # each slope is of the constructor's regime; every class at (0, 1) and
    # (2, -1) is Named, and (0, 5) lies above the peak row
    atlas = tw()
    builds = (
        lambda c: make_greater_link(atlas, c, 2, 2, 3),
        lambda c: make_integer_link(atlas, c, 2, 7),
        lambda c: make_lesser_link(atlas, c, POS, 1, 2, -3),
        lambda c: make_lesser_link(atlas, c, 0, 1, 2, -3, form="ruling"),
    )
    for build in builds:
        for c in (Generic(0, 5), Generic(0, 1), Generic(2, -1), Generic(0, 2)):
            with pytest.raises(InvariantMismatch, match=r"is not a class of twist-even-2$"):
                build(c)
    # a Generic the atlas holds, and the Named spelling of one it does not
    assert make_greater_link(atlas, Generic(0, -1), 2, 2, 3).u == Generic(0, -1)
    assert make_integer_link(atlas, Generic(0, -1), 2, 1).L == Generic(0, -1)
    assert make_lesser_link(atlas, Generic(0, -1), POS, 1, 2, -3).base == Generic(0, -1)
    assert make_integer_link(atlas, Named("P1", 2, 0), 2, 1).L == Named("R1", 1, 0)


def test_link_constructors_reject_one_negative_count_in_an_entry():
    atlas = tw()
    builds = (
        lambda vec: make_greater_link(atlas, Named("P1"), 2, 2, 3, vec),
        lambda vec: make_integer_link(atlas, Named("P1"), 2, 1, vec),
        lambda vec: make_lesser_link(atlas, Generic(0, -1), POS, 2, 2, -3, vec),
    )
    for build in builds:
        for vec in (((-1, 2), (0, 0)), ((2, -1), (0, 0))):
            with pytest.raises(LengthMismatch, match="must be nonnegative"):
                build(vec)


def test_divide_form_needs_a_sign():
    # a document cannot ask for this: make_link reads only the sign spellings
    with pytest.raises(WrongWindow, match=r"^divide form needs sign \+1 or -1, got 0$"):
        make_lesser_link(tw(), Named("P1"), 0, 2, 2, 1)


# -- canonicalization ----------------------------------------------------------


def test_greater_canonicalization_pushes_full_rounds():
    atlas = k5()
    link = make_greater_link(atlas, Named("A"), 2, 2, 1, ((2, 0), (2, 0)))
    canon = canonicalize(atlas, link)
    assert canon.vec == ((0, 0), (0, 0))
    assert is_equal(atlas, canon.u, stabilize(atlas, Named("A"), POS, 1))


def test_lesser_canonicalization_threshold_to_ruling():
    atlas = tw()
    th0, th1 = lesser_thresholds(atlas, 2, -3)
    assert (th0, th1) == (1, 1)
    link = make_lesser_link(atlas, Generic(0, -1), POS, 2, 2, -3, ((0, th0), (0, th0)))
    canon = canonicalize(atlas, link)
    assert canon.form == RULING
    assert canon.vec == ((0, 0), (0, 0))
    assert is_equal(atlas, canon.base, Generic(0, -1))


def test_canonicalize_is_idempotent_on_fixpoints():
    atlas = tw()
    link = make_lesser_link(atlas, Generic(0, -1), POS, 2, 2, -3)
    assert canonicalize(atlas, link) == canonicalize(atlas, canonicalize(atlas, link))
    glink = make_greater_link(atlas, Named("P1"), 2, 1, 2, ((1, 0), (0, 1)))
    assert canonicalize(atlas, glink) == glink


def stepwise_canonical(atlas, link):
    """The canonical form by the stabilization relations, one round per step."""
    p = link.p
    th0, th1 = lesser_thresholds(atlas, p, link.q) if isinstance(link, LesserLink) else (p, p)
    if isinstance(link, GreaterLink):
        form, base, sign = RULING, link.u, 0  # a greater cable pushes like a deep ruling
    else:
        form, base, sign = link.form, link.base, link.sign
    base, vec = normalize(atlas, base), list(link.vec)
    window = ceil_div(link.q, p)

    def every(sign, k):
        return all((a if sign == POS else b) >= k for a, b in vec)

    def moved(da, db):
        return [(a + da, b + db) for a, b in vec]

    while True:
        if form == DIVIDE:
            if every(-sign, th0):
                form, sign, vec = RULING, 0, moved(*((0, -th0) if sign == POS else (-th0, 0)))
            elif every(sign, th1):
                base = stabilize(atlas, base, sign, 1)
                form, sign, vec = RULING, 0, moved(*((-th1, 0) if sign == POS else (0, -th1)))
            else:
                break
        elif isinstance(link, LesserLink) and invariants(atlas, base).tb == window:
            if every(POS, th1):
                base, vec = stabilize(atlas, base, POS, 1), moved(-th1, th0)
            elif every(NEG, th1):
                base, vec = stabilize(atlas, base, NEG, 1), moved(th0, -th1)
            else:
                break
        elif every(POS, p):
            base, vec = stabilize(atlas, base, POS, 1), moved(-p, 0)
        elif every(NEG, p):
            base, vec = stabilize(atlas, base, NEG, 1), moved(0, -p)
        else:
            break
    if isinstance(link, GreaterLink):
        return GreaterLink(base, link.n, p, link.q, tuple(vec))
    return LesserLink(form, base, sign, link.n, p, link.q, tuple(vec))


def test_canonicalize_matches_stepwise_reference():
    rng = random.Random(11)
    checked = {"greater": 0, "divide": 0, "ruling-window": 0, "ruling-deep": 0}
    for name in ("unknot", "k-minus-5", "twist-even-2", "twist-even-3", "twist-even-4"):
        atlas = builtin_atlas(name)
        for _ in range(120):
            n = rng.randint(1, 4)
            vec = tuple((rng.randint(0, 14), rng.randint(0, 14)) for _ in range(n))
            p = rng.randint(1, 4)
            q = p * atlas.width_ceiling + rng.randint(1, 5)
            if gcd(p, q) == 1:
                u = rng.choice(classes_at_tb(atlas, atlas.tbb - rng.randint(0, 2)))
                link = make_greater_link(atlas, u, n, p, q, vec)
                assert canonicalize(atlas, link) == stepwise_canonical(atlas, link)
                checked["greater"] += 1
            p = rng.randint(2, 5)
            q = p * atlas.tbb - rng.randint(1, 7)
            if not atlas.uniformly_thick or gcd(p, q) != 1:
                continue
            depth = rng.randint(0, 2)
            base = rng.choice(classes_at_tb(atlas, ceil_div(q, p) - depth))
            if rng.random() < 0.5 and depth == 0:
                link = make_lesser_link(atlas, base, rng.choice((POS, NEG)), n, p, q, vec)
                checked["divide"] += 1
            else:
                link = make_lesser_link(atlas, base, 0, n, p, q, vec, form=RULING)
                checked["ruling-deep" if depth else "ruling-window"] += 1
            assert canonicalize(atlas, link) == stepwise_canonical(atlas, link)
    assert min(checked.values()) >= 20, checked


def test_canonicalize_cost_does_not_grow_with_stabilization_counts(monkeypatch):
    calls = []

    def counting(atlas, c, sign, count=1):
        calls.append(count)
        return stabilize(atlas, c, sign, count)

    monkeypatch.setattr(links_module, "stabilize", counting)
    deep = ((10**6, 0), (10**6, 3))
    greater = make_greater_link(k5(), Named("A"), 2, 2, 1, deep)
    canon = canonicalize(k5(), greater)
    assert len(calls) <= 4
    assert canon.vec == ((0, 0), (0, 3))
    assert component_invariants(k5(), canon) == component_invariants(k5(), greater)
    calls.clear()
    atlas = tw()
    lesser = make_lesser_link(atlas, Named("R1", 1, 0), POS, 2, 2, -3, deep)
    canon = canonicalize(atlas, lesser)
    assert len(calls) <= 4
    assert canon.form == RULING and max(a for a, _ in canon.vec) < 2
    assert component_invariants(atlas, canon) == component_invariants(atlas, lesser)


def test_stabilize_component_examples():
    atlas = tw()
    ncopy = make_integer_link(atlas, Named("P1"), 2, 0)
    mixed = stabilize_component(atlas, stabilize_component(atlas, ncopy, 1, POS), 2, NEG)
    assert mixed.vec == ((1, 0), (0, 1))
    assert stabilize_component(atlas, ncopy, 1, POS, 0) == ncopy
    with pytest.raises(BadIndex):
        stabilize_component(atlas, ncopy, 3, POS)
    # stabilizing every component p times pushes into the underlying knot
    k5a = k5()
    link = make_greater_link(k5a, Named("A"), 2, 2, 1)
    for c in (1, 2):
        link = stabilize_component(k5a, link, c, POS, 2)
    assert link.vec == ((0, 0), (0, 0))
    assert invariants(k5a, link.u) == (1, -4)


def test_stabilize_component_rejects_bad_sign_and_count():
    atlas, k5a = tw(), k5()
    ncopy = make_integer_link(atlas, Named("P1"), 2, 0)
    greater = make_greater_link(k5a, Named("A"), 2, 2, 1)
    for bad_sign in (7, 0, "banana"):
        with pytest.raises(InvariantMismatch, match="sign must be"):
            stabilize_component(atlas, ncopy, 1, bad_sign)
    for a, link in ((atlas, ncopy), (k5a, greater)):
        with pytest.raises(InvariantMismatch, match="count must be >= 0, got -3"):
            stabilize_component(a, link, 2, POS, -3)


# -- isotopy -------------------------------------------------------------------


def test_isotopic_greater_k5_cases():
    atlas = k5()

    def lam(base, m, n, kk, ll):
        return make_greater_link(atlas, Named(base), 2, 2, 1, ((m, n), (kk, ll)))

    assert isotopic(atlas, lam("A", 2, 0, 2, 0), lam("B", 2, 0, 2, 0)).is_isotopic
    assert isotopic(atlas, lam("A", 1, 2, 2, 1), lam("B", 1, 2, 2, 1)).is_not_isotopic
    assert isotopic(atlas, lam("A", 0, 0, 0, 0), lam("B", 0, 0, 0, 0)).is_not_isotopic


def test_isotopic_unordered_multiset_semantics():
    atlas = k5()
    one = make_greater_link(atlas, Named("A"), 2, 2, 1, ((1, 0), (0, 1)))
    two = make_greater_link(atlas, Named("A"), 2, 2, 1, ((0, 1), (1, 0)))
    assert isotopic(atlas, one, two).is_isotopic


def test_isotopic_integer_mixed_sign_witness():
    atlas = tw(4)
    vec = ((1, 0), (0, 1))
    li = make_integer_link(atlas, Named("P1"), 2, 0, vec)
    lj = make_integer_link(atlas, Named("P3"), 2, 0, vec)
    assert atlas.sigma_plus[0] == atlas.sigma_plus[2]
    assert isotopic(atlas, li, lj).is_not_isotopic
    assert componentwise_isotopic(atlas, li, lj)


def test_isotopic_integer_one_signed_merges_through_sigma():
    atlas = tw(2)  # sigma sends both peaks to the single edge base
    vec = ((1, 0), (1, 0))
    l1 = make_integer_link(atlas, Named("P1"), 2, 0, vec)
    l2 = make_integer_link(atlas, Named("P2"), 2, 0, vec)
    assert isotopic(atlas, l1, l2).is_isotopic
    # partially stabilized copies keep the peaks apart
    vec = ((1, 0), (0, 0))
    l1 = make_integer_link(atlas, Named("P1"), 2, 0, vec)
    l2 = make_integer_link(atlas, Named("P2"), 2, 0, vec)
    assert isotopic(atlas, l1, l2).is_not_isotopic


def test_isotopic_integer_both_signs_cases():
    vec = ((1, 1), (1, 1))
    atlas = tw(2)  # records both-sign stabilized copies as invariant-determined
    l1 = make_integer_link(atlas, Named("P1"), 2, 0, vec)
    l2 = make_integer_link(atlas, Named("P2"), 2, 0, vec)
    assert isotopic(atlas, l1, l2).is_isotopic
    k5a = k5()  # no such record: the classification is silent
    l1 = make_integer_link(k5a, Named("A"), 2, 0, vec)
    l2 = make_integer_link(k5a, Named("B"), 2, 0, vec)
    verdict = isotopic(k5a, l1, l2)
    assert verdict.is_unknown and verdict.reason


def test_isotopic_integer_general_case_uses_max_component():
    atlas = tw(2)
    # two presentations of one link with different twisted-copy bases
    l1 = make_integer_link(atlas, Named("P1"), 2, 1, ((1, 0), (0, 0)))
    l2 = make_integer_link(atlas, normalize(atlas, Named("P1", 1, 0)), 2, 0, ((0, 0), (0, 1)))
    assert isotopic(atlas, l1, l2).is_isotopic
    # distinct maximal components at the same invariants stay distinct
    l1 = make_integer_link(atlas, Named("P1"), 2, 1)
    l2 = make_integer_link(atlas, Named("P2"), 2, 1)
    assert isotopic(atlas, l1, l2).is_not_isotopic


def test_isotopic_lesser_cases():
    atlas = tw()
    w = Generic(0, -1)
    plus = make_lesser_link(atlas, w, POS, 2, 2, -3)
    minus = make_lesser_link(atlas, w, NEG, 2, 2, -3)
    assert isotopic(atlas, plus, minus).is_not_isotopic  # below both thresholds
    th0, _ = lesser_thresholds(atlas, 2, -3)
    merged_plus = make_lesser_link(atlas, w, POS, 2, 2, -3, ((0, th0), (0, th0)))
    merged_minus = make_lesser_link(atlas, w, NEG, 2, 2, -3, ((th0, 0), (th0, 0)))
    assert isotopic(atlas, merged_plus, merged_minus).is_isotopic
    # edge-window classes are surgery-distinct, so their cables stay distinct
    tw3 = tw(3)
    a = make_lesser_link(tw3, Named("R1", 1, 0), POS, 2, 2, -3)
    b = make_lesser_link(tw3, Named("R2", 1, 0), POS, 2, 2, -3)
    assert isotopic(tw3, a, b).is_not_isotopic


def test_isotopic_lesser_unknown_cases():
    atlas = tw()  # peak surgery distinctness not recorded
    a = make_lesser_link(atlas, Named("P1"), POS, 2, 2, 1)
    b = make_lesser_link(atlas, Named("P2"), POS, 2, 2, 1)
    verdict = isotopic(atlas, a, b)
    assert verdict.is_unknown and "silent" in verdict.reason
    sd = tw(surgery=True)
    assert isotopic(sd, make_lesser_link(sd, Named("P1"), POS, 2, 2, 1),
                    make_lesser_link(sd, Named("P2"), POS, 2, 2, 1)).is_not_isotopic


def test_isotopic_rejects_mismatched_links():
    atlas = tw()
    g = make_greater_link(atlas, Named("P1"), 2, 1, 2)
    i = make_integer_link(atlas, Named("P1"), 2, 0)
    with pytest.raises(RegimeMismatch):
        isotopic(atlas, g, i)
    with pytest.raises(RegimeMismatch):
        isotopic(atlas, g, make_greater_link(atlas, Named("P1"), 3, 1, 2))


def test_isotopic_is_an_equivalence_where_conclusive():
    atlas = tw()
    rng = random.Random(4)
    pool = []
    for _ in range(12):
        vec = tuple((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2))
        L, t = rng.choice([Named("P1"), Named("P2"), Named("R1")]), rng.randint(0, 1)
        if invariants(atlas, L).tb - t > atlas.tbb:
            continue
        pool.append(make_integer_link(atlas, L, 2, t, vec))
    pool = [l for l in pool if l.q == pool[0].q]
    for a in pool:
        assert isotopic(atlas, a, a).is_isotopic
        for b in pool:
            assert isotopic(atlas, a, b).kind == isotopic(atlas, b, a).kind
            for c in pool:
                if isotopic(atlas, a, b).is_isotopic and isotopic(atlas, b, c).is_isotopic:
                    assert isotopic(atlas, a, c).is_isotopic


def test_isotopic_implies_componentwise_implies_invariants():
    atlas = k5()

    def lam(base, m, n, kk, ll):
        return make_greater_link(atlas, Named(base), 2, 2, 1, ((m, n), (kk, ll)))

    for args in ((2, 0, 2, 0), (0, 2, 0, 2), (1, 2, 2, 1), (0, 0, 0, 0)):
        a, b = lam("A", *args), lam("B", *args)
        if isotopic(atlas, a, b).is_isotopic:
            assert componentwise_isotopic(atlas, a, b)
        if componentwise_isotopic(atlas, a, b):
            assert sorted(component_invariants(atlas, a)) == sorted(component_invariants(atlas, b))
    # recorded counterexamples: the converses must fail
    a, b = lam("A", 1, 2, 2, 1), lam("B", 1, 2, 2, 1)
    assert componentwise_isotopic(atlas, a, b) and isotopic(atlas, a, b).is_not_isotopic
    a, b = lam("A", 0, 0, 0, 0), lam("B", 0, 0, 0, 0)
    assert sorted(component_invariants(atlas, a)) == sorted(component_invariants(atlas, b))
    assert not componentwise_isotopic(atlas, a, b)


# -- components ---------------------------------------------------------------


def test_component_class_examples():
    atlas = tw()
    t1 = make_integer_link(atlas, Named("P1"), 2, 1)
    assert component_class(atlas, t1, 2) == Generic(0, -1)
    assert component_class(atlas, t1, 1) == Named("P1")
    k5a = k5()
    link = make_greater_link(k5a, Named("A"), 2, 2, 1, ((1, 0), (0, 0)))
    comp = component_class(k5a, link, 1)
    assert comp.vec == ((1, 0),)
    assert component_invariants(k5a, comp) == [(1, -6)]
    ncopy = make_integer_link(atlas, Named("R1"), 3, 0)
    assert all(component_class(atlas, ncopy, c) == Named("R1") for c in (1, 2, 3))
    with pytest.raises(BadIndex):
        component_class(atlas, ncopy, 4)


def test_componentwise_isotopic_basics():
    atlas = tw()
    a = make_integer_link(atlas, Named("P1"), 2, 1)
    assert componentwise_isotopic(atlas, a, a)
    b = make_integer_link(atlas, Named("P1"), 2, 1, ((1, 0), (0, 0)))
    assert not componentwise_isotopic(atlas, a, b)


def test_componentwise_isotopic_many_components_without_a_match():
    # no bijection exists, and there are 12! candidates to rule out
    atlas = k5()
    a = make_greater_link(atlas, Named("A"), 12, 2, 1, ((1, 0),) * 12)
    b = make_greater_link(atlas, Named("A"), 12, 2, 1, ((1, 0),) * 11 + ((0, 1),))
    assert not componentwise_isotopic(atlas, a, b)


def bijection_reference(atlas, link1, link2, same) -> bool:
    """Componentwise isotopy by trying every bijection of components."""
    n = len(link1.vec)
    k1 = [component_class(atlas, link1, c) for c in range(1, n + 1)]
    k2 = [component_class(atlas, link2, c) for c in range(1, n + 1)]
    return any(
        all(same(atlas, k1[i], k2[perm[i]]) for i in range(n))
        for perm in permutations(range(n))
    )


def same_knot(atlas, x, y) -> bool:
    return isotopic(atlas, x, y).is_isotopic


def test_componentwise_isotopic_matches_bijection_reference():
    rng = random.Random(7)

    def greater(atlas, vec):
        return make_greater_link(atlas, rng.choice([Named("A"), Named("B")]), len(vec), 2, 1, vec)

    def integer(atlas, vec):
        L, t = rng.choice([(Named("P1"), 1), (Named("R1"), 0), (Named("L1"), 0)])
        return make_integer_link(atlas, L, len(vec), t, vec)

    def lesser(atlas, vec):
        w = rng.choice([Generic(0, -1), Named("R1", 1, 0)])
        return make_lesser_link(atlas, w, rng.choice([POS, NEG]), len(vec), 2, -3, vec)

    for atlas, build, same in (
        (k5(), greater, same_knot),
        (tw(), integer, is_equal),
        (tw(), lesser, same_knot),
    ):
        outcomes = set()
        for _ in range(60):
            n = rng.randint(1, 5)
            vec = tuple((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n))
            other = list(vec)
            rng.shuffle(other)
            if rng.random() < 0.3:
                other[0] = (rng.randint(0, 3), rng.randint(0, 3))
            x, y = build(atlas, vec), build(atlas, tuple(other))
            want = bijection_reference(atlas, x, y, same)
            assert componentwise_isotopic(atlas, x, y) == want
            outcomes.add(want)
        assert outcomes == {True, False}


# -- permutations ---------------------------------------------------------------


def test_permutation_realizable_greater():
    atlas = k5()
    link = make_greater_link(atlas, Named("A"), 2, 2, 1)
    assert permutation_realizable(atlas, link, [2, 1]).is_isotopic
    skew = make_greater_link(atlas, Named("A"), 2, 2, 1, ((1, 0), (0, 1)))
    assert permutation_realizable(atlas, skew, [2, 1]).is_not_isotopic
    with pytest.raises(NotAPermutation):
        permutation_realizable(atlas, link, [1, 1])


def test_permutation_realizable_integer_cases():
    atlas = tw()
    two_copy = make_integer_link(atlas, Named("P1"), 2, 0)
    assert permutation_realizable(atlas, two_copy, [2, 1]).is_not_isotopic  # q = tbb
    three = make_integer_link(atlas, Named("R1"), 3, 0)
    assert permutation_realizable(atlas, three, [2, 3, 1]).is_isotopic  # q < tbb, cyclic
    assert permutation_realizable(atlas, three, [2, 1, 3]).is_not_isotopic
    # not an n-copy: invariant-preserving permutations are free
    twisted = make_integer_link(atlas, Named("P1"), 3, 2)
    assert permutation_realizable(atlas, twisted, [1, 3, 2]).is_isotopic
    assert permutation_realizable(atlas, twisted, [2, 1, 3]).is_not_isotopic


def test_permutation_realizable_searches_no_presentation(monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("a presentation search ran")

    monkeypatch.setattr(links_module, "integer_closure", search)
    monkeypatch.setattr(links_module, "integer_moves", search)
    test_permutation_realizable_integer_cases()
    # T^1(2.(0,-127))[+0-0,+126-126]: its closure holds 4,096 states, but its
    # core has tb = q + 1, so it is not an n-copy
    atlas = builtin_atlas("unknot")
    deep = make_integer_link(atlas, Generic(0, -127), 2, 1, ((0, 0), (126, 126)))
    verdict = permutation_realizable(atlas, deep, [1, 2])
    assert verdict.is_isotopic and verdict.reason.startswith("not an n-copy")
    with pytest.raises(TypeError):
        permutation_realizable(atlas, deep, [1, 2], node_cap=4000)


def test_permutation_realizable_lesser_is_unknown():
    atlas = tw()
    link = make_lesser_link(atlas, Generic(0, -1), POS, 2, 2, -3)
    assert permutation_realizable(atlas, link, [2, 1]).is_unknown


# -- enumeration ----------------------------------------------------------------


def test_enumerate_nondestab_links_fixtures():
    atlas = tw()
    got = {link_label(atlas, l) for l in enumerate_nondestab_links(atlas, 2, 1, 0)}
    assert got == {
        "T^1(2.P1)[+0-0,+0-0]",
        "T^1(2.P2)[+0-0,+0-0]",
        "T^0(2.R1)[+0-0,+0-0]",
        "T^0(2.L1)[+0-0,+0-0]",
    }
    k5a = k5()
    bases = enumerate_nondestab_links(k5a, 2, 2, 1)
    assert sorted(l.u.gen for l in bases) == ["A", "B"]
    lesser = enumerate_nondestab_links(atlas, 1, 2, -3)
    assert len(lesser) == 6
    with pytest.raises(WrongRegime):
        enumerate_nondestab_links(builtin_atlas("unknot"), 2, 2, -3)


@pytest.mark.parametrize("name, n, q", [("unknot", 2, -4), ("k-minus-5", 3, -9),
                                         ("twist-even-3", 2, -2), ("twist-even-4", 1, 0)])
def test_integer_enumeration_checks_no_row_class(monkeypatch, name, n, q):
    # every row class is a class of the atlas, so asking the atlas again is waste
    atlas = builtin_atlas(name)
    through_constructor = [
        make_integer_link(atlas, c, n, tb - q) for tb, row in class_rows(atlas, q) for c in row
    ]

    def refuse(*args):
        raise AssertionError("holds called during an integer enumeration")

    monkeypatch.setattr(links_module, "holds", refuse)
    links = enumerate_nondestab_links(atlas, n, 1, q)
    assert links == through_constructor and len(links) > 1
    assert [repr(link) for link in links] == [repr(link) for link in through_constructor]


def test_max_tb_peak_links_have_constant_components():
    atlas = tw(3)
    for link in enumerate_nondestab_links(atlas, 3, 2, 3):  # greater
        classes = [component_class(atlas, link, c) for c in (1, 2, 3)]
        assert all((k.u, k.vec) == (classes[0].u, ((0, 0),)) for k in classes)
    for link in enumerate_nondestab_links(atlas, 3, 1, 0):  # integer
        if link.t == 0:
            classes = [component_class(atlas, link, c) for c in (1, 2, 3)]
            assert all(is_equal(atlas, classes[0], k) for k in classes)
    for link in enumerate_nondestab_links(atlas, 3, 2, -3):  # lesser
        classes = [component_class(atlas, link, c) for c in (1, 2, 3)]
        assert all(isotopic(atlas, classes[0], k).is_isotopic for k in classes)


def test_twisted_n_copy_relation_holds_as_engine_equality():
    for name in ("unknot", "k-minus-5", "twist-even-2", "twist-even-3"):
        atlas = builtin_atlas(name)
        tops = [Named(g.id) for g in atlas.generators][:3]
        for L in tops:
            for n in (2, 3):
                for t in (1, 2, 3):
                    for sign in (POS, NEG):
                        lhs_vec = ((1, 0) if sign == POS else (0, 1),) + ((0, 0),) * (n - 1)
                        lhs = make_integer_link(atlas, L, n, t, lhs_vec)
                        rhs_vec = ((0, 0),) + (((0, 1) if sign == POS else (1, 0)),) * (n - 1)
                        rhs = make_integer_link(
                            atlas, stabilize(atlas, L, sign, 1), n, t - 1, rhs_vec
                        )
                        assert isotopic(atlas, lhs, rhs).is_isotopic
