"""Every verdict site has a witness, and the two lemmas that let the others go.

``SITES`` reads every ``Verdict.yes/no/maybe`` call in ``links`` and
``oracle`` from the source, keyed on (function, reason text).  ``ROWS``
holds one row per site: a witness, written as the labels ``link_label``
and ``class_label`` print, the verdict it gets there, and the other side's
verdict on the same witness (the oracle's for a decider site, the decider's
for an oracle site).  The tests check that the rows and the sites match one
to one, that each witness reaches its own site with the recorded verdict
and witness, and that the decider and ``closure_equal`` agree wherever both
are conclusive.

``closure_equal`` compares unordered links (its states keep each vector
sorted), so it cannot decide whether a permutation of components is
realizable, and the ``permutation_realizable`` rows have no other side.

The Hypothesis tests check the lesser and integer lemmas of the ``links``
docstring on small random atlases marked uniformly thick, confluent or not;
the lemmas are why the clauses for links in different forms, signs or
lattice points, and for exactly one stabilized n-copy, are not in
``_isotopic_lesser`` and ``_isotopic_integer``.  They are also why
``_isotopic_lesser`` compares only base classes and ``permutation_realizable``
searches no presentation; ``test_lesser_identity_is_the_full_comparison``
and ``test_permutation_realizable_matches_the_search`` hold the two to the
comparison and the search they replace.
``test_tag_sets_of_disjoint_closures_can_differ`` pins why the stabilization
tag clauses of ``_isotopic_integer`` ask both closures.
"""

import ast
import re
import sys
from collections import Counter, defaultdict
from itertools import combinations_with_replacement, permutations, product
from math import gcd
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from legcable import (
    DIVIDE,
    Generic,
    NEG,
    Named,
    POS,
    RULING,
    SearchBudget,
    Verdict,
    builtin_atlas,
    canonicalize,
    classes_at_tb,
    closure_equal,
    component_invariants,
    invariants,
    is_equal,
    isotopic,
    link_label,
    make_atlas,
    make_greater_link,
    make_integer_link,
    make_lesser_link,
    permutation_realizable,
)
from legcable.atlas import ceil_div
from legcable import links as links_module
from legcable.links import ISOTOPIC, NOT_ISOTOPIC, UNKNOWN, integer_closure, integer_moves
from test_atlas import small_atlases

SRC = Path(__file__).resolve().parent.parent / "src" / "legcable"


def verdict_sites():
    """(function, reason, first line, last line) of every Verdict call."""
    sites = []
    for module in ("links", "oracle"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Verdict"
                ):
                    reason = node.args[0].value if node.args else None
                    sites.append((fn.name, reason, node.lineno, node.end_lineno))
    return sites


SITES = verdict_sites()


# -- witnesses written as labels --------------------------------------------

CLASS = re.compile(r"\((-?\d+),(-?\d+)\)|(\w+)(?:\+(\d+)-(\d+))?")
LINKS = (
    ("integer", re.compile(r"T\^(\d+)\((\d+)\.(.+)\)\[(.*)\]")),
    ("lesser", re.compile(r"(rul:)?(.+)\^([+-]?)_(\d+)\((\d+),(-?\d+)\)\[(.*)\]")),
    ("greater", re.compile(r"(.+)_(\d+)\((\d+),(-?\d+)\)\[(.*)\]")),
)


def parse_class(label):
    rot, tb, gen, plus, minus = CLASS.fullmatch(label).groups()
    if gen is None:
        return Generic(int(rot), int(tb))
    return Named(gen, int(plus or 0), int(minus or 0))


def parse_vec(text):
    return tuple((int(a), int(b)) for a, b in re.findall(r"\+(\d+)-(\d+)", text))


def parse_link(atlas, label):
    for kind, pattern in LINKS:
        m = pattern.fullmatch(label)
        if m is None:
            continue
        if kind == "integer":
            t, n, base, vec = m.groups()
            return make_integer_link(atlas, parse_class(base), int(n), int(t), parse_vec(vec))
        if kind == "lesser":
            ruling, base, sign, n, p, q, vec = m.groups()
            return make_lesser_link(
                atlas, parse_class(base), {"+": POS, "-": NEG, "": 0}[sign], int(n),
                int(p), int(q), parse_vec(vec), form=RULING if ruling else DIVIDE,
            )
        base, n, p, q, vec = m.groups()
        return make_greater_link(atlas, parse_class(base), int(n), int(p), int(q), parse_vec(vec))
    raise ValueError(label)


class Row(NamedTuple):
    function: str
    reason: str
    kind: str  # the verdict the witness gets at this site
    atlas: str
    call: str  # "isotopic", "permute" or "closure_equal"
    args: tuple  # labels, then a permutation
    witness: Optional[dict] = None  # the verdict's own witness
    other: Optional[str] = None  # the other side's verdict; None: it cannot decide
    limits: Optional[dict] = None  # keyword arguments of the call: node_cap or budget


YES, NO, MAYBE = ISOTOPIC, NOT_ISOTOPIC, UNKNOWN


def lr(left, right):
    return {"left": left, "right": right}


ROWS = [
    # -- _isotopic_greater
    Row("_isotopic_greater", "minimal underlying knots are not isotopic", NO,
        "k-minus-5", "isotopic", ("A_2(2,1)[+1-2,+2-1]", "B_2(2,1)[+1-2,+2-1]"),
        lr("A_2(2,1)[+1-2,+2-1]", "B_2(2,1)[+1-2,+2-1]"), NO),
    Row("_isotopic_greater", "same underlying knot but component invariants do not match", NO,
        "unknot", "isotopic", ("U_1(2,-1)[+0-0]", "U_1(2,-1)[+1-0]"),
        lr("U_1(2,-1)[+0-0]", "U_1(2,-1)[+1-0]"), NO),
    Row("_isotopic_greater", "same cone over the minimal underlying knot, equal invariants", YES,
        "twist-even-2", "isotopic", ("P1_2(2,3)[+2-0,+3-0]", "R1_2(2,3)[+0-0,+1-0]"),
        lr("R1_2(2,3)[+0-0,+1-0]", "R1_2(2,3)[+0-0,+1-0]"), YES),
    # -- _isotopic_integer, _components_differ and _distinct_max_tb
    Row("_isotopic_integer", "component invariant multisets differ", NO,
        "unknot", "isotopic", ("T^0(1.U)[+0-0]", "T^0(1.U)[+1-0]"), None, NO),
    Row("_isotopic_integer", "single components are the same class", YES,
        "twist-even-2", "isotopic", ("T^1(1.P1)[+1-0]", "T^0(1.R1)[+0-0]"), None, YES),
    Row("_isotopic_integer", "single components are distinct classes", NO,
        "k-minus-5", "isotopic", ("T^0(1.A)[+0-0]", "T^0(1.B)[+0-0]"), None, NO),
    Row("_isotopic_integer", "common twisted-copy presentation found", YES,
        "twist-even-2", "isotopic", ("T^1(2.R1)[+1-0,+0-0]", "T^0(2.R1+1-0)[+0-0,+0-1]"),
        None, YES),
    Row("_isotopic_integer", "presentation search exceeded its node budget", MAYBE,
        "twist-even-2", "isotopic", ("T^1(2.R1)[+1-0,+0-0]", "T^0(2.R1+1-0)[+0-0,+0-1]"),
        None, YES, limits={"node_cap": 1}),
    Row("_isotopic_integer",
        "one-signed stabilizations of n-copies with isotopic maximal-tb components", YES,
        "k-minus-5", "isotopic", ("T^0(2.A)[+1-0,+1-0]", "T^0(2.B)[+1-0,+1-0]"), None, MAYBE),
    Row("_isotopic_integer", "mixed-sign stabilized n-copies over distinct classes stay distinct",
        NO, "k-minus-5", "isotopic", ("T^0(2.A)[+1-0,+0-1]", "T^0(2.B)[+1-0,+0-1]"),
        None, MAYBE),
    Row("_isotopic_integer",
        "every component stabilized both ways; this atlas records such links as determined "
        "by classical invariants", YES,
        "twist-even-2", "isotopic", ("T^0(2.P1)[+1-1,+1-1]", "T^0(2.P2)[+1-1,+1-1]"),
        None, MAYBE),
    Row("_isotopic_integer",
        "every component stabilized both positively and negatively over a maximal-slope "
        "n-copy; the classification is silent for this atlas", MAYBE,
        "k-minus-5", "isotopic", ("T^0(2.A)[+1-1,+1-1]", "T^0(2.B)[+1-1,+1-1]"), None, MAYBE),
    Row("_isotopic_integer",
        "stabilization pattern of the n-copy presentations is not covered by the "
        "integer-slope classification", MAYBE,
        "k-minus-5", "isotopic", ("T^0(2.A)[+0-1,+1-1]", "T^0(2.B)[+0-1,+1-1]"), None, MAYBE),
    Row("_components_differ", "no matching of the components pairs equal Legendrian classes",
        NO, "k-minus-5", "isotopic", ("T^0(2.A)[+0-0,+1-1]", "T^0(2.B)[+0-0,+1-1]"),
        None, NO),
    Row("_distinct_max_tb", "maximal-tb components lie in distinct Legendrian classes",
        NO, "k-minus-5", "isotopic", ("T^0(2.A)[+0-0,+0-0]", "T^0(2.B)[+0-0,+0-0]"),
        lr("A", "B"), NO),
    # -- _isotopic_lesser
    Row("_isotopic_lesser", "component invariant multisets differ", NO,
        "twist-even-2", "isotopic", ("(0,-1)^+_2(2,-3)[+0-0,+0-0]", "(0,-1)^-_2(2,-3)[+0-0,+0-0]"),
        lr("(0,-1)^+_2(2,-3)[+0-0,+0-0]", "(0,-1)^-_2(2,-3)[+0-0,+0-0]"), NO),
    Row("_isotopic_lesser", "identical canonical forms", YES,
        "twist-even-2", "isotopic", ("(0,-1)^+_2(2,-3)[+0-1,+0-1]", "(0,-1)^-_2(2,-3)[+1-0,+1-0]"),
        lr("rul:(0,-1)^_2(2,-3)[+0-0,+0-0]", "rul:(0,-1)^_2(2,-3)[+0-0,+0-0]"), YES),
    Row("_isotopic_lesser", "one-sided stabilizations of the window classes differ", NO,
        "twist-even-3", "isotopic", ("P1^+_1(2,1)[+0-0]", "P2^+_1(2,1)[+0-0]"),
        lr("P1^+_1(2,1)[+0-0]", "P2^+_1(2,1)[+0-0]"), MAYBE),
    Row("_isotopic_lesser", "surgery on the window classes yields distinct contact manifolds", NO,
        "twist-even-2-surgery", "isotopic", ("P1^+_1(2,1)[+0-0]", "P2^+_1(2,1)[+0-0]"),
        lr("P1^+_1(2,1)[+0-0]", "P2^+_1(2,1)[+0-0]"), MAYBE),
    Row("_isotopic_lesser",
        "window classes share rotation number and one-sided stabilizations, and surgery "
        "distinctness is not recorded; the classification is silent", MAYBE,
        "k-minus-5", "isotopic", ("A^+_1(2,-7)[+0-0]", "B^+_1(2,-7)[+0-0]"),
        lr("A^+_1(2,-7)[+0-0]", "B^+_1(2,-7)[+0-0]"), MAYBE),
    Row("_isotopic_lesser", "ruling families over surgery-distinct classes stay distinct", NO,
        "twist-even-3", "isotopic", ("P1^+_1(2,1)[+1-0]", "P2^+_1(2,1)[+1-0]"),
        lr("rul:R1^_1(2,1)[+0-0]", "rul:R2^_1(2,1)[+0-0]"), MAYBE),
    Row("_isotopic_lesser",
        "distinct ruling families with equal invariants and no recorded surgery "
        "distinctness; the classification is silent", MAYBE,
        "k-minus-5", "isotopic", ("A^+_1(2,-7)[+0-1]", "B^+_1(2,-7)[+0-1]"),
        lr("rul:A^_1(2,-7)[+0-0]", "rul:B^_1(2,-7)[+0-0]"), MAYBE),
    # -- permutation_realizable
    Row("permutation_realizable", "permutation preserves the classical invariants", YES,
        "k-minus-5", "permute", ("A_2(2,1)[+1-2,+1-2]", (2, 1))),
    Row("permutation_realizable", "permutation moves components with distinct invariants", NO,
        "k-minus-5", "permute", ("A_2(2,1)[+1-0,+0-1]", (2, 1))),
    Row("permutation_realizable",
        "ordered classification of non-integer lesser cables is not available", MAYBE,
        "twist-even-2", "permute", ("(0,-1)^+_2(2,-3)[+0-0,+0-0]", (2, 1))),
    Row("permutation_realizable", "permutation moves components with distinct invariants", NO,
        "twist-even-2", "permute", ("T^2(3.P1)[+0-0,+0-0,+0-0]", (2, 1, 3))),
    Row("permutation_realizable", "not an n-copy; invariant-preserving permutations are free",
        YES, "twist-even-2", "permute", ("T^2(3.P1)[+0-0,+0-0,+0-0]", (1, 3, 2))),
    Row("permutation_realizable",
        "all components of the n-copy are stabilized; invariant-preserving permutations are "
        "free", YES, "twist-even-2", "permute", ("T^0(2.P1)[+1-0,+1-0]", (2, 1))),
    Row("permutation_realizable",
        "maximal-slope n-copy: unstabilized components fixed, the rest permute within equal "
        "invariants", YES, "twist-even-2", "permute", ("T^0(2.P1)[+0-0,+0-0]", (1, 2))),
    Row("permutation_realizable",
        "maximal-slope n-copy: no permutation of the maximal-tb components is realizable", NO,
        "twist-even-2", "permute", ("T^0(2.P1)[+0-0,+0-0]", (2, 1))),
    Row("permutation_realizable",
        "below-maximal-slope n-copy: maximal-tb components rotate cyclically, the rest "
        "permute within equal invariants", YES,
        "twist-even-2", "permute", ("T^0(3.R1)[+0-0,+0-0,+0-0]", (2, 3, 1))),
    Row("permutation_realizable",
        "below-maximal-slope n-copy: only cyclic permutations of the maximal-tb components "
        "are realizable", NO,
        "twist-even-2", "permute", ("T^0(3.R1)[+0-0,+0-0,+0-0]", (2, 1, 3))),
    # -- closure_equal; the other side is is_equal on classes, isotopic on links
    Row("closure_equal", "rewrite path found", YES,
        "twist-even-2", "closure_equal", ("P1+1-0", "R1"), {"path": ["P1+1-0", "R1+0-0"]}, YES),
    Row("closure_equal", "orbits intersect", YES,
        "twist-even-2", "closure_equal", ("P1+1-1", "(0,-1)"), None, YES,
        limits={"budget": SearchBudget(depth=1)}),
    Row("closure_equal", "budget exceeded before both orbits were explored", MAYBE,
        "twist-even-2", "closure_equal", ("P1+1-0", "R1"), None, YES,
        limits={"budget": SearchBudget(node_cap=1)}),
    Row("closure_equal", "orbits disjoint and fully explored", NO,
        "k-minus-5", "closure_equal", ("A", "B"), None, NO),
    Row("closure_equal", "component invariants differ", NO,
        "k-minus-5", "closure_equal", ("A^+_1(2,-7)[+0-0]", "B^+_1(2,-7)[+1-0]"), None, NO),
    Row("closure_equal", "orbits disjoint, fully explored, and away from the n-copy sector", NO,
        "k-minus-5", "closure_equal", ("T^1(2.A)[+0-0,+0-0]", "T^1(2.B)[+0-0,+0-0]"), None, NO),
    Row("closure_equal", "component classes differ", NO,
        "k-minus-5", "closure_equal", ("T^0(2.A)[+0-0,+0-0]", "T^0(2.B)[+0-0,+0-0]"), None, NO),
    Row("closure_equal",
        "orbits disjoint but the n-copy sector merges lie outside the move set", MAYBE,
        "k-minus-5", "closure_equal", ("T^0(2.A)[+0-1,+1-1]", "T^0(2.B)[+0-1,+1-1]"), None,
        MAYBE),
    Row("closure_equal",
        "orbits disjoint; distinctness of lesser cables rests on side conditions outside the "
        "move set", MAYBE,
        "k-minus-5", "closure_equal", ("A^+_1(2,-7)[+0-0]", "B^+_1(2,-7)[+0-0]"), None, MAYBE),
]

ROW_IDS = [f"{row.function}-{i}" for i, row in enumerate(ROWS)]


def parse_object(atlas, label):
    return parse_link(atlas, label) if "[" in label else parse_class(label)


def run_witness(row):
    """The verdict ``row``'s witness gets at its own call."""
    atlas = builtin_atlas(row.atlas)
    if row.call == "permute":
        return permutation_realizable(atlas, parse_link(atlas, row.args[0]), row.args[1])
    x, y = (parse_object(atlas, label) for label in row.args)
    call = isotopic if row.call == "isotopic" else closure_equal
    return call(atlas, x, y, **(row.limits or {}))


def other_side(row):
    """The verdict kind of the side a row does not run, on the same witness."""
    atlas = builtin_atlas(row.atlas)
    x, y = (parse_object(atlas, label) for label in row.args)
    if row.call == "isotopic":
        return closure_equal(atlas, x, y).kind
    if isinstance(x, (Named, Generic)):
        return YES if is_equal(atlas, x, y) else NO
    return isotopic(atlas, x, y).kind


@pytest.fixture
def reached(monkeypatch):
    """(function, line) of every Verdict built while the fixture is active."""
    calls = []
    for name in ("yes", "no", "maybe"):
        build = getattr(Verdict, name)

        def record(cls, *args, _build=build, **kwargs):
            caller = sys._getframe(1)
            calls.append((caller.f_code.co_name, caller.f_lineno))
            return _build(*args, **kwargs)

        monkeypatch.setattr(Verdict, name, classmethod(record))
    return calls


def site_at(function, line):
    """The site whose call spans ``line`` of ``function``."""
    (site,) = [s for s in SITES if s[0] == function and s[2] <= line <= s[3]]
    return site


def test_every_site_has_a_literal_reason():
    assert all(isinstance(reason, str) and reason for _, reason, _, _ in SITES)


def test_rows_and_sites_match_one_to_one():
    # a Verdict call added without a row, or a row left after its call went,
    # fails here
    assert Counter((f, r) for f, r, _, _ in SITES) == Counter((r.function, r.reason) for r in ROWS)


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_witness_reaches_its_site(row, reached):
    verdict = run_witness(row)
    assert [site_at(*call)[:2] for call in reached] == [(row.function, row.reason)]
    assert (verdict.kind, verdict.reason, verdict.witness) == (row.kind, row.reason, row.witness)


def test_rows_reach_every_site(reached):
    hit = set()
    for row in ROWS:
        reached.clear()
        run_witness(row)
        hit.update(site_at(*call) for call in reached)
    assert [s for s in SITES if s not in hit] == []


@pytest.mark.parametrize("row", [r for r in ROWS if r.call != "permute"], ids=[
    i for i, r in zip(ROW_IDS, ROWS) if r.call != "permute"])
def test_decider_and_oracle_agree_where_both_are_conclusive(row):
    other = other_side(row)
    assert other == row.other
    if MAYBE not in (row.kind, other):
        assert row.kind == other


def test_labels_round_trip():
    for row in ROWS:
        if row.call != "closure_equal":
            atlas = builtin_atlas(row.atlas)
            labels = [a for a in row.args if isinstance(a, str)]
            assert [link_label(atlas, parse_link(atlas, a)) for a in labels] == labels


# -- the lemmas ---------------------------------------------------------------


@st.composite
def thick_atlases(draw):
    """``small_atlases`` marked uniformly thick; not all of them are confluent."""
    return draw(small_atlases()).replace(uniformly_thick=True)


def multiset(atlas, link):
    return (link.n, tuple(sorted(component_invariants(atlas, link))))


def lesser_links(atlas, p, data):
    """Lesser links of a drawn slope q/p over the window and the row below,
    with vectors past every canonical bound."""
    qs = [q for q in range(p * (atlas.tbb - 2) + 1, p * atlas.tbb) if gcd(p, q) == 1]
    q = data.draw(st.sampled_from(qs))
    window = ceil_div(q, p)
    cells = list(product(range(p + 1), repeat=2))  # past every canonical bound
    vecs = [(c,) for c in cells] + list(combinations_with_replacement(cells, 2))
    links = []
    for w in classes_at_tb(atlas, window):
        links += [make_lesser_link(atlas, w, s, len(v), p, q, v) for s in (POS, NEG) for v in vecs]
    for tb in (window, window - 1):
        for base in classes_at_tb(atlas, tb):
            links += [make_lesser_link(atlas, base, 0, len(v), p, q, v, form=RULING) for v in vecs]
    return links


@settings(max_examples=60, deadline=None)
@given(thick_atlases(), st.sampled_from([2, 3]), st.data())
def test_lesser_lemma(atlas, p, data):
    """Canonical lesser links with equal invariant multisets share form,
    sign, base lattice point and sorted vector."""
    shapes = defaultdict(set)
    for link in lesser_links(atlas, p, data):
        c = canonicalize(atlas, link)
        shapes[multiset(atlas, c)].add(
            (c.form, c.sign, invariants(atlas, c.base), tuple(sorted(c.vec)))
        )
    assert all(len(found) == 1 for found in shapes.values())


def full_lesser_same(atlas, x, y):
    """The identity test ``_isotopic_lesser`` ran before the lesser lemma."""
    return (
        x.form == y.form
        and x.sign == y.sign
        and is_equal(atlas, x.base, y.base)
        and tuple(sorted(x.vec)) == tuple(sorted(y.vec))
    )


@settings(max_examples=60, deadline=None)
@given(thick_atlases(), st.sampled_from([2, 3]), st.data())
def test_lesser_identity_is_the_full_comparison(atlas, p, data):
    """Wherever ``_isotopic_lesser`` reaches its base comparison (equal
    invariant multisets), equal bases mean the full comparison holds."""
    groups = defaultdict(set)
    for link in lesser_links(atlas, p, data):
        c = canonicalize(atlas, link)
        groups[multiset(atlas, c)].add(c)
    for group in groups.values():
        for x, y in product(group, repeat=2):
            verdict = isotopic(atlas, x, y)
            identical = verdict.reason == "identical canonical forms"
            assert identical == full_lesser_same(atlas, x, y), (x, y, verdict)


def twisted_copies(atlas, n, t, vec):
    top = atlas.tbb
    return [
        make_integer_link(atlas, c, n, t, vec)
        for tb in (top, top - 1, top - 2)
        for c in classes_at_tb(atlas, tb)
    ]


@settings(max_examples=60, deadline=None)
@given(thick_atlases(), st.integers(2, 3), st.integers(0, 2), st.data())
def test_integer_lemma(atlas, n, t, data):
    """For t >= 1 every twisted-copy move keeps t - a1 - b1, so a complete
    closure reaches t = 0 exactly when no component has tb above q."""
    vec = tuple(data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2))) for _ in range(n))
    for link in twisted_copies(atlas, n, t, vec):
        states, complete = integer_closure(atlas, link)
        for L, s_t, s_vec in states:
            if s_t >= 1:
                for _, m_t, m_vec in integer_moves(atlas, (L, s_t, s_vec)):
                    if m_t >= 1:
                        assert m_t - sum(m_vec[0]) == s_t - sum(s_vec[0])
        if complete:
            top = max(tb for _, tb in component_invariants(atlas, link))
            assert any(s[1] == 0 for s in states) == (top <= link.q)


def test_tag_sets_of_disjoint_closures_can_differ():
    """The tag clauses of ``_isotopic_integer`` ask both closures.  With two
    peaks of one tb at rots 0 and 2, the 2-copy of one stabilized positively
    and of the other negatively have equal multisets and complete, disjoint
    closures at t = 0, but one is tagged plus and the other minus, so no
    one-signed clause applies.  Their components g0+1-0 and g1+0-1 are
    distinct classes, so the decider answers from them instead of Unknown."""
    atlas = make_atlas({"generators": [{"id": "g0", "rot": 0, "tb": -1},
                                       {"id": "g1", "rot": 2, "tb": -1}], "tbb": -1})
    x = make_integer_link(atlas, Named("g0"), 2, 0, ((1, 0), (1, 0)))
    y = make_integer_link(atlas, Named("g1"), 2, 0, ((0, 1), (0, 1)))
    (cx, okx), (cy, oky) = (integer_closure(atlas, link) for link in (x, y))
    assert okx and oky and not cx & cy
    tags = [set().union(*(links_module._pattern_tags(s[2]) for s in c if s[1] == 0)) for c in (cx, cy)]
    assert tags == [{"plus"}, {"minus"}]
    verdict = isotopic(atlas, x, y)
    assert (verdict.kind, verdict.reason) == (
        NO, "no matching of the components pairs equal Legendrian classes")


def searched_permutation_realizable(atlas, link, perm, node_cap=4000):
    """``permutation_realizable`` on an integer-slope link as it was before
    the integer lemma: n-copy or not is read off a presentation search."""
    n = link.n
    sigma = [int(v) for v in perm]
    invs = component_invariants(atlas, link)
    if not all(invs[sigma[c] - 1] == invs[c] for c in range(n)):
        return Verdict.no("permutation moves components with distinct invariants")
    states, complete = integer_closure(atlas, link, node_cap)
    if not any(s[1] == 0 for s in states):
        if not complete:
            return Verdict.maybe(
                "presentation search exceeded its node budget before finding an "
                "n-copy presentation"
            )
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


@settings(max_examples=60, deadline=None)
@given(st.one_of(thick_atlases(), small_atlases()), st.integers(2, 3), st.integers(0, 2),
       st.data())
def test_permutation_realizable_matches_the_search(atlas, n, t, data):
    """Wherever the presentation search is complete, it and the integer
    lemma give one verdict and one reason for every permutation."""
    vec = tuple(data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2))) for _ in range(n))
    # the zero vector puts every component of an n-copy at tb = q
    links = twisted_copies(atlas, n, t, vec) + twisted_copies(atlas, n, t, ((0, 0),) * n)
    for link in links:
        if not integer_closure(atlas, link)[1]:
            continue
        for perm in permutations(range(1, n + 1)):
            got = permutation_realizable(atlas, link, perm)
            want = searched_permutation_realizable(atlas, link, perm)
            assert (got.kind, got.reason) == (want.kind, want.reason), (link, perm)
