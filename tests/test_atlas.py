"""Atlas construction, normalization, invariants, and mountain ranges."""

import dataclasses
import json
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from legcable import (
    Generator,
    Generic,
    KnotAtlas,
    Named,
    NEG,
    POS,
    RewriteRule,
    atlas_to_json,
    atlas_to_json_str,
    builtin_atlas,
    check_confluence,
    class_from_json,
    class_label,
    class_rows,
    classes_at_tb,
    invariants,
    is_equal,
    make_atlas,
    mountain_range,
    normalize,
    peaks,
    stabilize,
)
from legcable import atlas as atlas_module
from legcable.cli import run as cli_run
from legcable.errors import (
    CutoffAbovePeak,
    DuplicateId,
    InvariantMismatch,
    MalformedDocument,
    MetadataInconsistent,
    ParityViolation,
    TooManyRows,
    UnknownGenerator,
    UnsupportedKind,
)
from legcable.links import GreaterLink, IntegerLink, LesserLink, Verdict
from legcable.mountain import MAX_ROWS, MountainRange, tally
from legcable.oracle import ConfluenceReport, SearchBudget, closure_equal, legclass_moves
from legcable.render import Overlay
from legcable.selfcheck import CheckResult

UNKNOT_SPEC = {
    "name": "unknot",
    "generators": [{"id": "U", "name": "U", "rot": 0, "tb": -1}],
    "rules": [
        {"src": "U", "da": 1, "db": 0, "dst": "generic"},
        {"src": "U", "da": 0, "db": 1, "dst": "generic"},
    ],
    "tbb": -1,
    "width_ceiling": -1,
    "uniformly_thick": False,
}


def test_make_atlas_accepts_unknot_spec():
    atlas = make_atlas(UNKNOT_SPEC)
    assert atlas.tbb == -1
    assert [g.id for g in atlas.generators] == ["U"]


def test_make_atlas_rejects_inconsistent_rule():
    spec = {
        "name": "bad",
        "generators": [
            {"id": "g", "name": "g", "rot": 0, "tb": 1},
            {"id": "h", "name": "h", "rot": 3, "tb": 0},  # rot(h) != rot(g) + 1
        ],
        "rules": [{"src": "g", "da": 1, "db": 0, "dst": "h"}],
        "tbb": 1,
    }
    with pytest.raises(InvariantMismatch):
        make_atlas(spec)


def test_make_atlas_rejects_duplicate_and_parity_and_metadata():
    with pytest.raises(DuplicateId):
        make_atlas(
            {
                "generators": [
                    {"id": "g", "rot": 0, "tb": 1},
                    {"id": "g", "rot": 0, "tb": 1},
                ],
                "tbb": 1,
            }
        )
    with pytest.raises(ParityViolation):
        make_atlas({"generators": [{"id": "g", "rot": 0, "tb": 2}], "tbb": 2})
    with pytest.raises(MetadataInconsistent):
        make_atlas(
            {
                "generators": [{"id": "g", "rot": 0, "tb": 1}],
                "tbb": 1,
                "width_ceiling": 2,
                "uniformly_thick": True,
            }
        )
    with pytest.raises(MetadataInconsistent):
        make_atlas({"generators": [{"id": "g", "rot": 0, "tb": 1}], "tbb": 0})


def test_builtin_twist_even_2_shape():
    atlas = builtin_atlas("twist-even-2")
    ps = [g for g in atlas.generators if g.id.startswith("P")]
    rs = [g for g in atlas.generators if g.id.startswith("R")]
    ls = [g for g in atlas.generators if g.id.startswith("L")]
    assert len(ps) == 2 and len(rs) == 1 and len(ls) == 1
    assert all((g.rot, g.tb) == (0, 1) for g in ps)
    assert (rs[0].rot, rs[0].tb) == (1, 0) and (ls[0].rot, ls[0].tb) == (-1, 0)


def test_builtin_sizes_scale_with_n():
    atlas = builtin_atlas("twist-even-4")
    assert len([g for g in atlas.generators if g.id.startswith("P")]) == 8
    assert len([g for g in atlas.generators if g.id.startswith("R")]) == 2


def test_builtin_k_minus_5_and_unknot():
    k5 = builtin_atlas("k-minus-5")
    assert sorted(g.id for g in peaks(k5)) == ["A", "B"]
    assert all((g.rot, g.tb) == (0, -3) for g in k5.generators)
    un = builtin_atlas("unknot")
    assert [g.id for g in peaks(un)] == ["U"]
    assert not un.uniformly_thick


def test_builtin_rejects_unknown_kind():
    with pytest.raises(UnsupportedKind):
        builtin_atlas("twist-even-1")
    with pytest.raises(UnsupportedKind):
        builtin_atlas("granny")


# -- builtins from records, documents through the same validator ---------------


def reference_twist_even_doc(n, surgery=False):
    """The twist-even document that the builtin was once read from."""
    l = atlas_module.ceil_div(n * n, 2)
    k = atlas_module.ceil_div(n, 2)
    sigma = [((i - 1) % k) + 1 for i in range(1, l + 1)]
    generators = (
        [{"id": f"P{i}", "name": f"P{i}", "rot": 0, "tb": 1} for i in range(1, l + 1)]
        + [{"id": f"R{j}", "name": f"R{j}", "rot": 1, "tb": 0} for j in range(1, k + 1)]
        + [{"id": f"L{j}", "name": f"L{j}", "rot": -1, "tb": 0} for j in range(1, k + 1)]
    )
    rules = (
        [{"src": f"P{i}", "da": 1, "db": 0, "dst": f"R{sigma[i - 1]}"} for i in range(1, l + 1)]
        + [{"src": f"P{i}", "da": 0, "db": 1, "dst": f"L{sigma[i - 1]}"} for i in range(1, l + 1)]
        + [{"src": f"R{j}", "da": 0, "db": 1, "dst": "generic"} for j in range(1, k + 1)]
        + [{"src": f"L{j}", "da": 1, "db": 0, "dst": "generic"} for j in range(1, k + 1)]
    )
    edges = [f"R{j}" for j in range(1, k + 1)] + [f"L{j}" for j in range(1, k + 1)]
    distinct = [
        {"a": edges[i], "b": edges[j], "value": "yes"}
        for i in range(len(edges))
        for j in range(i + 1, len(edges))
    ]
    if surgery:
        distinct += [
            {"a": f"P{i}", "b": f"P{j}", "value": "yes"}
            for i in range(1, l + 1)
            for j in range(i + 1, l + 1)
        ]
    return {
        "name": f"twist-even-{n}" + ("-surgery" if surgery else ""),
        "generators": generators,
        "rules": rules,
        "tbb": 1,
        "width_ceiling": 1,
        "uniformly_thick": True,
        "surgery_distinct": distinct,
        "sigma_plus": [f"R{j}" for j in sigma],
        "sigma_minus": [f"L{j}" for j in sigma],
        "both_signs_determined": True,
    }


REFERENCE_DOCS = {
    "unknot": lambda: dict(UNKNOT_SPEC, both_signs_determined=True),
    "k-minus-5": lambda: {
        "name": "k-minus-5",
        "generators": [
            {"id": "A", "name": "A", "rot": 0, "tb": -3},
            {"id": "B", "name": "B", "rot": 0, "tb": -3},
        ],
        "rules": [
            {"src": "A", "da": 1, "db": 0, "dst": "generic"},
            {"src": "A", "da": 0, "db": 1, "dst": "generic"},
            {"src": "B", "da": 1, "db": 0, "dst": "generic"},
            {"src": "B", "da": 0, "db": 1, "dst": "generic"},
        ],
        "tbb": -3,
        "width_ceiling": -3,
        "uniformly_thick": True,
        "surgery_distinct": [{"a": "A", "b": "B", "value": "unknown"}],
    },
    **{f"twist-even-{n}": (lambda n=n: reference_twist_even_doc(n)) for n in range(2, 49)},
    **{f"twist-even-{n}-surgery": (lambda n=n: reference_twist_even_doc(n, True))
       for n in range(2, 9)},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_DOCS))
def test_builtins_equal_the_documents_they_were_read_from(name):
    built, read = builtin_atlas(name), make_atlas(REFERENCE_DOCS[name]())
    assert built == read and repr(built) == repr(read)
    assert atlas_to_json_str(built) == atlas_to_json_str(read)
    assert make_atlas(atlas_to_json(built)) == built


def test_every_builtin_goes_through_the_record_validator(monkeypatch):
    checked = []

    def counting(atlas):
        checked.append(atlas.name)
        return validate(atlas)

    validate = atlas_module.validate_atlas
    monkeypatch.setattr(atlas_module, "validate_atlas", counting)
    for name in ("unknot", "k-minus-5", "twist-even-3", "twist-even-2-surgery"):
        builtin_atlas(name)
    make_atlas(UNKNOT_SPEC)
    assert checked == ["unknot", "k-minus-5", "twist-even-3", "twist-even-2-surgery", "unknot"]


TE2 = builtin_atlas("twist-even-2")
TE2_DOC = atlas_to_json(TE2)
X_DOC = {"id": "X", "name": "X", "rot": 0, "tb": 0}

# One row per fault the validator checks, each the only fault of its atlas:
# the fault as a change to the twist-even-2 document, the same fault as a
# change to its records, and the error that make_atlas raises for it.
VALIDATOR_FAULTS = [
    ({"generators": TE2_DOC["generators"] + [TE2_DOC["generators"][0]]},
     {"generators": TE2.generators + (TE2.generators[0],)},
     DuplicateId, "generator id 'P1' appears twice"),
    ({"generators": TE2_DOC["generators"] + [X_DOC]},
     {"generators": TE2.generators + (Generator("X", "X", 0, 0),)},
     ParityViolation, "generator 'X' has even rot + tb = 0"),
    ({"rules": TE2_DOC["rules"] + [{"src": "X", "da": 1, "db": 0, "dst": "generic"}]},
     {"rules": TE2.rules + (RewriteRule("X", 1, 0, None),)},
     UnknownGenerator, "rule source 'X' is not a generator"),
    ({"rules": TE2_DOC["rules"] + [{"src": "P1", "da": 0, "db": 0, "dst": "generic"}]},
     {"rules": TE2.rules + (RewriteRule("P1", 0, 0, None),)},
     InvariantMismatch, "rule (P1,0,0) needs da,db >= 0, da+db >= 1"),
    ({"rules": TE2_DOC["rules"] + [{"src": "P1", "da": -1, "db": 2, "dst": "generic"}]},
     {"rules": TE2.rules + (RewriteRule("P1", -1, 2, None),)},
     InvariantMismatch, "rule (P1,-1,2) needs da,db >= 0, da+db >= 1"),
    ({"rules": TE2_DOC["rules"] + [{"src": "P1", "da": 2, "db": 0, "dst": "X"}]},
     {"rules": TE2.rules + (RewriteRule("P1", 2, 0, "X"),)},
     UnknownGenerator, "rule target 'X' is not a generator"),
    ({"rules": TE2_DOC["rules"] + [{"src": "P1", "da": 1, "db": 1, "dst": "R1"}]},
     {"rules": TE2.rules + (RewriteRule("P1", 1, 1, "R1"),)},
     InvariantMismatch, "rule (P1,1,1)->R1: target invariants (1, 0) differ from (0, -1)"),
    ({"generators": TE2_DOC["generators"] + [dict(X_DOC, rot=1, tb=-2)],
      "rules": TE2_DOC["rules"] + [{"src": "P1", "da": 1, "db": 0, "dst": "X"}]},
     {"generators": TE2.generators + (Generator("X", "X", 1, -2),),
      "rules": TE2.rules + (RewriteRule("P1", 1, 0, "X"),)},
     InvariantMismatch, "rule (P1,1,0)->X: target invariants (1, -2) differ from (1, 0)"),
    ({"generators": [], "rules": [], "surgery_distinct": [], "sigma_plus": [],
      "sigma_minus": []},
     {"generators": (), "rules": (), "surgery_distinct": (), "sigma_plus": (),
      "sigma_minus": ()},
     InvariantMismatch, "an atlas needs at least one generator"),
    ({"tbb": 2, "width_ceiling": 2}, {"tbb": 2, "width_ceiling": 2},
     MetadataInconsistent, "tbb=2 but the maximal generator tb is 1"),
    ({"width_ceiling": 3}, {"width_ceiling": 3},
     MetadataInconsistent, "uniformly thick atlases must have width_ceiling == tbb, got 3 != 1"),
    ({"width_ceiling": 0, "uniformly_thick": False},
     {"width_ceiling": 0, "uniformly_thick": False},
     MetadataInconsistent, "width_ceiling 0 below tbb 1"),
    ({"surgery_distinct": [{"a": "R1", "b": "X", "value": "yes"}]},
     {"surgery_distinct": (("R1", "X", "yes"),)},
     UnknownGenerator,
     "surgery_distinct names unknown generator in {'a': 'R1', 'b': 'X', 'value': 'yes'}"),
    ({"surgery_distinct": [{"a": "R1", "b": "L1", "value": "maybe"}]},
     {"surgery_distinct": (("R1", "L1", "maybe"),)},
     InvariantMismatch, "surgery_distinct value 'maybe' not in ('yes', 'no', 'unknown')"),
    ({"sigma_plus": ["R1", "X"]}, {"sigma_plus": ("R1", "X")},
     UnknownGenerator, "sigma_plus names unknown generator 'X'"),
    ({"sigma_minus": ["X", "L1"]}, {"sigma_minus": ("X", "L1")},
     UnknownGenerator, "sigma_minus names unknown generator 'X'"),
]


@pytest.mark.parametrize("doc_change, record_change, error, message", VALIDATOR_FAULTS)
def test_one_fault_raises_alike_from_documents_and_records(
        doc_change, record_change, error, message, tmp_path, capsys):
    doc = dict(TE2_DOC, **doc_change)
    with pytest.raises(error) as raised:
        make_atlas(doc)
    assert str(raised.value) == message
    path = tmp_path / "atlas.json"
    path.write_text(json.dumps(doc))
    assert cli_run(["mountain", "--atlas", str(path), "--tb-min", "-3"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(error) as raised:
        atlas_module.validate_atlas(TE2.replace(**record_change))
    assert str(raised.value) == message


def test_normalize_examples():
    atlas = builtin_atlas("twist-even-2")
    assert normalize(atlas, Named("P1", 1, 0)) == Named("R1")
    assert normalize(atlas, Named("P1", 1, 1)) == Generic(0, -1)
    assert normalize(atlas, Named("P1")) == Named("P1")


def test_normalize_unknown_generator():
    atlas = builtin_atlas("unknot")
    with pytest.raises(UnknownGenerator):
        normalize(atlas, Named("Z", 1, 0))


def test_stabilize_examples():
    k5 = builtin_atlas("k-minus-5")
    assert stabilize(k5, Named("A"), POS, 1) == Generic(1, -4)
    assert stabilize(k5, Generic(0, -1), NEG, 2) == Generic(-2, -3)
    tw2 = builtin_atlas("twist-even-2")
    assert stabilize(tw2, Named("R1"), POS, 3) == Named("R1", 3, 0)


def test_invariants_examples():
    tw2 = builtin_atlas("twist-even-2")
    assert invariants(tw2, Named("P1")) == (0, 1)
    assert invariants(tw2, Named("R1", 2, 0)) == (3, -2)
    assert invariants(tw2, Generic(-2, -3)) == (-2, -3)


def test_is_equal_examples():
    k5 = builtin_atlas("k-minus-5")
    assert is_equal(k5, stabilize(k5, Named("A"), POS, 1), stabilize(k5, Named("B"), POS, 1))
    tw2 = builtin_atlas("twist-even-2")
    assert not is_equal(tw2, Named("P1"), Named("P2"))
    one = stabilize(tw2, stabilize(tw2, Named("P1"), POS, 1), NEG, 1)
    other = stabilize(tw2, stabilize(tw2, Named("P1"), NEG, 1), POS, 1)
    assert is_equal(tw2, one, other)


def test_peaks_exclude_edge_bases():
    tw2 = builtin_atlas("twist-even-2")
    assert sorted(g.id for g in peaks(tw2)) == ["P1", "P2"]


def test_mountain_range_fixtures():
    tw2 = builtin_atlas("twist-even-2")
    assert mountain_range(tw2, -1).entries == {
        (0, 1): 2,
        (1, 0): 1,
        (-1, 0): 1,
        (0, -1): 1,
        (2, -1): 1,
        (-2, -1): 1,
    }
    k5 = builtin_atlas("k-minus-5")
    assert mountain_range(k5, -4).entries == {
        (0, -3): 2,
        (1, -4): 1,
        (-1, -4): 1,
    }
    un = builtin_atlas("unknot")
    assert mountain_range(un, -3).entries == {
        (0, -1): 1,
        (1, -2): 1,
        (-1, -2): 1,
        (0, -3): 1,
        (2, -3): 1,
        (-2, -3): 1,
    }


def test_mountain_range_cutoff_above_peak():
    with pytest.raises(CutoffAbovePeak):
        mountain_range(builtin_atlas("unknot"), 0)


def test_row_walks_stop_at_the_row_limit():
    atlas = builtin_atlas("twist-even-3")
    bottom = atlas.tbb - (MAX_ROWS - 1)
    assert classes_at_tb(atlas, bottom)
    assert class_rows(atlas, bottom, bottom + 1)
    for walk in (
        lambda: classes_at_tb(atlas, bottom - 1),
        lambda: class_rows(atlas, bottom - 1),
        lambda: mountain_range(atlas, bottom - 1),
        lambda: mountain_range(atlas, -10**12),
    ):
        with pytest.raises(TooManyRows, match=f"at most {MAX_ROWS}"):
            walk()


def test_mountain_range_symmetry_for_twist_atlases():
    for n in (2, 3, 4):
        atlas = builtin_atlas(f"twist-even-{n}")
        entries = mountain_range(atlas, -4).entries
        assert all(entries[(r, t)] == entries[(-r, t)] for (r, t) in entries)


def test_normalization_preserves_invariants_exhaustively():
    # every presentation with a + b <= 8 over every builtin atlas
    for name in ("unknot", "k-minus-5", "twist-even-2", "twist-even-3"):
        atlas = builtin_atlas(name)
        for g in atlas.generators:
            for total in range(9):
                for a in range(total + 1):
                    c = Named(g.id, a, total - a)
                    assert invariants(atlas, normalize(atlas, c)) == invariants(atlas, c)


def test_normalization_rules_strictly_decrease():
    # rules with da + db = 0 are rejected, so rewriting terminates
    with pytest.raises(InvariantMismatch):
        make_atlas(
            {
                "generators": [
                    {"id": "g", "rot": 0, "tb": 1},
                    {"id": "h", "rot": 0, "tb": 1},
                ],
                "rules": [{"src": "g", "da": 0, "db": 0, "dst": "h"}],
                "tbb": 1,
            }
        )


@settings(max_examples=80)
@given(st.integers(0, 5), st.integers(0, 5), st.sampled_from(["unknot", "k-minus-5", "twist-even-2"]))
def test_stabilization_commutes(a, b, name):
    atlas = builtin_atlas(name)
    for g in atlas.generators:
        start = Named(g.id, a, b)
        one = stabilize(atlas, stabilize(atlas, start, POS, 1), NEG, 1)
        other = stabilize(atlas, stabilize(atlas, start, NEG, 1), POS, 1)
        assert is_equal(atlas, one, other)


@settings(max_examples=80)
@given(st.integers(0, 6), st.integers(0, 6))
def test_parity_preserved_by_stabilization(a, b):
    atlas = builtin_atlas("twist-even-3")
    for g in atlas.generators:
        rot, tb = invariants(atlas, normalize(atlas, Named(g.id, a, b)))
        assert (rot + tb) % 2 == 1


def test_classes_at_tb_counts():
    tw3 = builtin_atlas("twist-even-3")  # l = 5, k = 2
    assert len(classes_at_tb(tw3, 1)) == 5
    assert len(classes_at_tb(tw3, 0)) == 4  # two edge families per side
    assert len(classes_at_tb(tw3, -1)) == 5  # edges + one interior point


def reference_rows(atlas, tb_min, tb_max=None):
    tb_max = atlas.tbb if tb_max is None else tb_max
    return [(tb, classes_at_tb(atlas, tb)) for tb in range(tb_max, tb_min - 1, -1)]


def reference_normalize(atlas, c):
    """The rewrite loop one generator lookup and one ``invariants`` call at a time."""
    while isinstance(c, Named):
        atlas.generator(c.gen)
        for rule in atlas.rules_for(c.gen):
            if c.plus >= rule.da and c.minus >= rule.db:
                if rule.dst is None:
                    return Generic(*invariants(atlas, c))
                c = Named(rule.dst, c.plus - rule.da, c.minus - rule.db)
                break
        else:
            return c
    return c


def per_class_rows(atlas, tb_min, tb_max=None):
    """The stabilization cone walked one class at a time: both stabilizations
    of every class of a row, Generic ones included, plus the generators born
    on the next row, deduplicated and sorted by ``class_key``."""
    tb_max = atlas.tbb if tb_max is None else tb_max
    if tb_min > tb_max:
        return []
    row = classes_at_tb(atlas, tb_max)
    rows = [(tb_max, row)]
    for tb in range(tb_max - 1, tb_min - 1, -1):
        found = set()
        for c in row:
            if isinstance(c, Generic):
                found.update(Generic(c.rot + s, c.tb - 1) for s in (POS, NEG))
            else:
                found.add(reference_normalize(atlas, Named(c.gen, c.plus + 1, c.minus)))
                found.add(reference_normalize(atlas, Named(c.gen, c.plus, c.minus + 1)))
        found.update(reference_normalize(atlas, Named(g.id)) for g in atlas.generators
                     if g.tb == tb)
        row = sorted(found, key=lambda c: atlas_module.class_key(atlas, c))
        rows.append((tb, row))
    return rows


def assert_rows_are_the_per_class_walk(atlas, tb_min, tb_max=None):
    rows = class_rows(atlas, tb_min, tb_max)
    want = per_class_rows(atlas, tb_min, tb_max)
    assert rows == want
    # a Generic also equals its bare (rot, tb) tuple, so compare the types too
    assert [[type(c) for c in row] for _, row in rows] == [[type(c) for c in row]
                                                           for _, row in want]


def assert_mountain_range_counts_the_rows(atlas, tb_min):
    """``mountain_range`` equals ``tally`` over the per-class rows: entries,
    label tuples in order, and ``truncated``."""
    want = tally(
        (((invariants(atlas, c).rot, tb), class_label(atlas, c))
         for tb, row in per_class_rows(atlas, tb_min) for c in row),
        tb_min,
    )
    got = mountain_range(atlas, tb_min)
    assert got.entries == want.entries
    assert got.labels == want.labels
    assert (got.tb_min, got.truncated) == (want.tb_min, want.truncated)


@pytest.mark.parametrize("name, depth", [
    ("unknot", 25), ("k-minus-5", 25), ("twist-even-2", 25), ("twist-even-3", 25),
    ("twist-even-4", 25), ("twist-even-8", 25), ("twist-even-16", 10),
    ("twist-even-2-surgery", 25),
])
def test_class_rows_match_classes_at_tb_on_builtins(name, depth):
    atlas = builtin_atlas(name)
    assert class_rows(atlas, atlas.tbb - depth) == reference_rows(atlas, atlas.tbb - depth)
    assert_rows_are_the_per_class_walk(atlas, atlas.tbb - depth)
    assert_mountain_range_counts_the_rows(atlas, atlas.tbb - depth)
    top = atlas.tbb - 3
    assert class_rows(atlas, top - 6, top) == reference_rows(atlas, top - 6, top)
    assert_rows_are_the_per_class_walk(atlas, top - 6, top)
    assert class_rows(atlas, atlas.tbb + 1) == []
    assert class_rows(atlas, top + 1, top) == []


@st.composite
def small_atlases(draw):
    """Atlases of up to five generators with rule offsets of at most 2.

    A rule drawn as named lands on the generator at its target invariants,
    which is added when there is none; other rules land on the generic class.
    """
    spots = [(rot, tb) for tb in range(-1, 2) for rot in range(-1, 2) if (rot + tb) % 2]
    gens = [(f"g{i}", spot) for i, spot in enumerate(
        draw(st.lists(st.sampled_from(spots), min_size=1, max_size=2)))]
    rules = []
    for src, da, db, named in draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2), st.booleans()),
        max_size=6,
    )):
        gid, (rot, tb) = gens[src % len(gens)]
        if da + db == 0:
            continue
        at = (rot + da - db, tb - da - db)
        dst = "generic"
        if named:
            dst = next((h for h, spot in gens if spot == at), None)
            if dst is None and len(gens) < 5:
                dst = f"g{len(gens)}"
                gens.append((dst, at))
        rules.append({"src": gid, "da": da, "db": db, "dst": dst or "generic"})
    return make_atlas({
        "name": "random",
        "generators": [{"id": gid, "rot": rot, "tb": tb} for gid, (rot, tb) in gens],
        "rules": rules,
        "tbb": max(tb for _, (_, tb) in gens),
    })


@settings(max_examples=150, deadline=None)
@given(small_atlases())
def test_class_rows_match_classes_at_tb_on_confluent_atlases(atlas):
    # offsets of at most 2 put every critical pair within depth 8 of its source
    assume(check_confluence(atlas).ok)
    tb_min = min(g.tb for g in atlas.generators) - 8
    assert class_rows(atlas, tb_min) == reference_rows(atlas, tb_min)
    top = atlas.tbb - 2
    assert class_rows(atlas, tb_min, top) == reference_rows(atlas, tb_min, top)


@settings(max_examples=150, deadline=None)
@given(small_atlases())
def test_class_rows_are_the_per_class_walk_on_random_atlases(atlas):
    # no confluence assumption: the rot-set walk is the per-class walk on
    # every atlas, whether or not its rows are the classes of each level
    tb_min = min(g.tb for g in atlas.generators) - 8
    assert_rows_are_the_per_class_walk(atlas, tb_min)
    assert_rows_are_the_per_class_walk(atlas, tb_min, atlas.tbb - 2)
    assert_mountain_range_counts_the_rows(atlas, tb_min)


@settings(max_examples=150, deadline=None)
@given(small_atlases())
def test_holds_is_membership_in_classes_at(atlas):
    # parities both ways, points above the peak row and outside every cone
    for tb in range(atlas.tbb + 2, atlas.tbb - 7, -1):
        for rot in range(-9, 10):
            c = Generic(rot, tb)
            assert atlas_module.holds(atlas, c) == (c in atlas_module.classes_at(atlas, rot, tb))


def reference_stab_counts_for(g, rot, tb):
    """The unique (a, b) with Named(g, a, b) at (rot, tb), if it exists."""
    total = g.tb - tb
    diff = rot - g.rot
    if total < 0 or (total + diff) % 2 != 0:
        return None
    a = (total + diff) // 2
    b = (total - diff) // 2
    if a < 0 or b < 0:
        return None
    return a, b


def reference_classes_at(atlas, rot, tb):
    """One normal form per ``class_key``, from each generator that reaches (rot, tb)."""
    found = {}
    for g in atlas.generators:
        ab = reference_stab_counts_for(g, rot, tb)
        if ab is None:
            continue
        nf = normalize(atlas, Named(g.id, *ab))
        found[atlas_module.class_key(atlas, nf)] = nf
    return [found[k] for k in sorted(found)]


def reference_classes_at_tb(atlas, tb):
    """One normal form per ``class_key``, from every stabilization down to ``tb``."""
    found = {}
    for g in atlas.generators:
        total = g.tb - tb
        if total < 0:
            continue
        for a in range(total + 1):
            nf = normalize(atlas, Named(g.id, a, total - a))
            found[atlas_module.class_key(atlas, nf)] = nf
    return [found[k] for k in sorted(found)]


def assert_same_classes(got, want):
    # a Generic also equals its bare (rot, tb) tuple, so compare the types too
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def assert_point_queries_match_references(atlas, depth):
    """Rows and points from two rows above the peak row down to ``depth``
    below it, both parities, and rots past every generator's cone."""
    rots = [g.rot for g in atlas.generators]
    for tb in range(atlas.tbb + 2, atlas.tbb - depth - 1, -1):
        assert_same_classes(classes_at_tb(atlas, tb), reference_classes_at_tb(atlas, tb))
        for rot in range(min(rots) - depth - 3, max(rots) + depth + 4):
            want = reference_classes_at(atlas, rot, tb)
            assert_same_classes(atlas_module.classes_at(atlas, rot, tb), want)
            assert atlas_module.holds(atlas, Generic(rot, tb)) == (Generic(rot, tb) in want)


@pytest.mark.parametrize("name, depth", [
    ("unknot", 12), ("k-minus-5", 12), ("twist-even-2", 12), ("twist-even-3", 10),
    ("twist-even-4", 8), ("twist-even-8", 6), ("twist-even-16", 4),
    ("twist-even-2-surgery", 12),
])
def test_point_and_row_queries_match_references_on_builtins(name, depth):
    assert_point_queries_match_references(builtin_atlas(name), depth)


@settings(max_examples=150, deadline=None)
@given(small_atlases())
def test_point_and_row_queries_match_references_on_random_atlases(atlas):
    # neither query needs confluence, so non-confluent draws stay in
    assert_point_queries_match_references(atlas, 6)


def test_point_queries_normalize_once_per_generator_that_reaches_the_point(monkeypatch):
    atlas = builtin_atlas("twist-even-16")  # 128 peaks at (0, 1), 8 + 8 edge bases at (±1, 0)
    calls = count_normalize(monkeypatch)
    # the first peak's stabilization P1+1-1 normalizes to the class held
    assert atlas_module.holds(atlas, Generic(0, -1))
    assert calls == [Named("P1", 1, 1)]
    calls.clear()
    # the peaks and the right-edge bases reach (2, -1); the left-edge ones do not
    assert len(atlas_module.classes_at(atlas, 2, -1)) == 8
    assert len(calls) == 128 + 8
    calls.clear()
    assert not atlas_module.holds(atlas, Generic(2, -1))
    assert len(calls) == 128 + 8


@settings(max_examples=150, deadline=None)
@given(small_atlases(), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 7),
                                           st.integers(0, 7)), min_size=1, max_size=12))
def test_normalize_is_the_reference_loop(atlas, raw):
    gens = atlas.generators
    for i, a, b in raw:
        c = Named(gens[i % len(gens)].id, a, b)
        assert normalize(atlas, c) == reference_normalize(atlas, c)
        assert type(normalize(atlas, c)) is type(reference_normalize(atlas, c))
    with pytest.raises(UnknownGenerator):
        normalize(atlas, Named("missing", raw[0][1], raw[0][2]))
    assert normalize(atlas, Generic(3, -8)) == Generic(3, -8)


def test_normalize_raises_on_an_unknown_rule_target():
    # make_atlas rejects such a rule; a hand-built atlas meets it mid-rewrite
    atlas = KnotAtlas(name="bare", generators=(Generator("g", "g", 0, 1),),
                      rules=(RewriteRule("g", 1, 0, "h"),), tbb=1, width_ceiling=1,
                      uniformly_thick=False)
    assert normalize(atlas, Named("g", 0, 3)) == Named("g", 0, 3)
    for norm in (normalize, reference_normalize):
        with pytest.raises(UnknownGenerator):
            norm(atlas, Named("g", 1, 0))


def count_normalize(monkeypatch):
    """The list that every later ``atlas.normalize`` call appends its class to."""
    calls = []
    original = atlas_module.normalize

    def counting(atlas, c):
        calls.append(c)
        return original(atlas, c)

    monkeypatch.setattr(atlas_module, "normalize", counting)
    return calls


def test_mountain_range_normalizes_a_few_times_per_class(monkeypatch):
    # two stabilizations per class of the row above, one normal form per
    # generator, and no second normalization to label a class
    atlas = builtin_atlas("twist-even-16")
    calls = count_normalize(monkeypatch)
    mr = mountain_range(atlas, -10)
    assert mr.total() == 359
    assert len(calls) <= 2 * mr.total() + len(atlas.generators)


def reference_peaks(atlas):
    """Pairwise search: g is a peak unless a rule targets it or a stabilized
    state of a generator at g's invariants normalizes onto Named(g)."""
    targets = {rule.dst for rule in atlas.rules if rule.dst is not None}
    result = []
    for g in atlas.generators:
        if g.id in targets:
            continue
        states = (
            Named(h.id, a, h.tb - g.tb - a)
            for h in atlas.generators
            if h.tb > g.tb
            for a in range(h.tb - g.tb + 1)
        )
        if not any(
            invariants(atlas, state) == (g.rot, g.tb) and normalize(atlas, state) == Named(g.id)
            for state in states
        ):
            result.append(g)
    return result


def reference_destabilizations(atlas, c, sign):
    """Row scan: every class one row up whose stabilization equals ``c``."""
    c = normalize(atlas, c)
    tb = invariants(atlas, c).tb
    if tb + 1 > atlas.tbb:
        return []
    return [
        cand for cand in classes_at_tb(atlas, tb + 1)
        if is_equal(atlas, stabilize(atlas, cand, sign, 1), c)
    ]


def destabilization_queries(atlas, depth):
    """Normal forms down to ``depth`` below the peak row, raw states of at
    most one stabilization, and Generic classes around and above the peak row."""
    queries = [c for _, row in class_rows(atlas, atlas.tbb - depth) for c in row]
    queries += [Named(g.id, a, b) for g in atlas.generators for a, b in ((0, 0), (1, 0), (0, 1))]
    queries += [
        Generic(rot, tb)
        for tb in range(atlas.tbb - 3, atlas.tbb + 2)
        for rot in range(-4, 5)
        if (rot + tb) % 2
    ]
    return queries


def assert_closed_forms_match_references(atlas, depth):
    assert atlas_module.peaks(atlas) == reference_peaks(atlas)
    for c in destabilization_queries(atlas, depth):
        for sign in (POS, NEG):
            assert (
                atlas_module.destabilizations(atlas, c, sign)
                == reference_destabilizations(atlas, c, sign)
            ), (c, sign)


@pytest.mark.parametrize("name, depth", [
    ("unknot", 12), ("k-minus-5", 12), ("twist-even-2", 12), ("twist-even-3", 10),
    ("twist-even-4", 8), ("twist-even-8", 4), ("twist-even-16", 2),
    ("twist-even-2-surgery", 12),
])
def test_peaks_and_destabilizations_match_references_on_builtins(name, depth):
    assert_closed_forms_match_references(builtin_atlas(name), depth)


@settings(max_examples=150, deadline=None)
@given(small_atlases())
def test_peaks_and_destabilizations_match_references_on_random_atlases(atlas):
    # neither closed form needs confluence, so non-confluent draws stay in
    assert_closed_forms_match_references(atlas, 6)


def test_peaks_never_normalize(monkeypatch):
    tw16 = builtin_atlas("twist-even-16")
    # S sits under T, and no rule targets it: a search would normalize T+1-0
    lower = make_atlas({
        "name": "lower-peak",
        "generators": [{"id": "T", "rot": 0, "tb": 1}, {"id": "S", "rot": 1, "tb": 0}],
        "rules": [{"src": "T", "da": 1, "db": 0, "dst": "generic"}],
        "tbb": 1,
    })
    calls = count_normalize(monkeypatch)
    assert len(peaks(tw16)) == 128
    assert [g.id for g in peaks(lower)] == ["T", "S"]
    assert calls == []


def test_destabilizations_normalize_at_most_twice_per_generator(monkeypatch):
    atlas = builtin_atlas("twist-even-16")
    calls = count_normalize(monkeypatch)
    assert atlas_module.destabilizations(atlas, Generic(0, -39), POS) == [Generic(-1, -38)]
    assert len(calls) <= 2 * len(atlas.generators) + 1


def test_class_from_json_rejects_negative_counts():
    assert class_from_json({"gen": "A", "plus": 2}) == Named("A", 2, 0)
    for doc in ({"gen": "A", "plus": -3}, {"gen": "A", "minus": -1}):
        with pytest.raises(MalformedDocument):
            class_from_json(doc)


def test_atlas_json_round_trip_is_byte_stable():
    for name in ("unknot", "k-minus-5", "twist-even-3"):
        atlas = builtin_atlas(name)
        text = atlas_to_json_str(atlas)
        again = atlas_to_json_str(make_atlas(json.loads(text)))
        assert text == again
        assert make_atlas(json.loads(text)) == atlas


NAMES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['P"1', "P\\2", "R\u03a91", 'L"\\\u03a9', "\u2028", "\ud800", "\x00\t"]),
)


@st.composite
def named_atlases(draw):
    """``small_atlases`` under drawn ids, names and metadata: quotes,
    backslashes, control and non-ASCII characters included."""
    spec = atlas_to_json(draw(small_atlases()))
    ids = draw(st.lists(NAMES.filter(lambda s: s not in ("", "generic")), unique=True,
                        min_size=len(spec["generators"]), max_size=len(spec["generators"])))
    rename = {g["id"]: new for g, new in zip(spec["generators"], ids)}
    for g in spec["generators"]:
        g["id"], g["name"] = rename[g["id"]], draw(NAMES)
    for r in spec["rules"]:
        r["src"], r["dst"] = rename[r["src"]], rename.get(r["dst"], r["dst"])
    ids = st.sampled_from(ids)
    spec["name"] = draw(NAMES)
    spec["surgery_distinct"] = [
        {"a": a, "b": b, "value": v} for a, b, v in
        draw(st.lists(st.tuples(ids, ids, st.sampled_from(atlas_module.SURGERY_VALUES)),
                      max_size=4))
    ]
    spec["sigma_plus"] = draw(st.lists(ids, max_size=3))
    spec["sigma_minus"] = draw(st.lists(ids, max_size=3))
    spec["uniformly_thick"] = draw(st.booleans())
    spec["both_signs_determined"] = draw(st.booleans())
    return make_atlas(spec)


@settings(max_examples=150, deadline=None)
@given(named_atlases())
def test_atlas_json_text_is_the_stdlib_dump(atlas):
    text = atlas_to_json_str(atlas)
    assert text == json.dumps(atlas_to_json(atlas), sort_keys=True, indent=2) + "\n"
    assert make_atlas(json.loads(text)) == atlas


# The class records as the frozen dataclasses they used to be.
DataNamed = dataclasses.make_dataclass(
    "Named", [("gen", str), ("plus", int, 0), ("minus", int, 0)], frozen=True)
DataGeneric = dataclasses.make_dataclass("Generic", [("rot", int), ("tb", int)], frozen=True)


def twin(record, fields, frozen=True):
    """The dataclass ``record`` was, or a frozen one if it is now read-only."""
    return dataclasses.make_dataclass(record.__name__, fields, frozen=frozen)


LINK_VEC = ((1, 2), (2, 1))
# record, its dataclass twin, and argument tuples to build both from
RECORD_TWINS = [
    (Generator, twin(Generator, ["id", "name", "rot", "tb"]),
     [("P1", "P1", 0, 1), ("P2", "P2", 0, 1), ("R1", "R1", 1, 0)]),
    (RewriteRule, twin(RewriteRule, ["src", "da", "db", "dst"]),
     [("P1", 1, 0, "R1"), ("P1", 0, 1, "L1"), ("R1", 0, 1, None)]),
    (Verdict, twin(Verdict, ["kind", ("reason", str, ""), ("witness", dict, None)]),
     [("isotopic",), ("not_isotopic", "r"), ("unknown", "r", {"left": "A"})]),
    (GreaterLink, twin(GreaterLink, ["u", "n", "p", "q", "vec"]),
     [(Named("A"), 2, 2, 1, LINK_VEC), (Named("B"), 2, 2, 1, LINK_VEC),
      (Generic(0, -5), 1, 2, 1, ((0, 0),))]),
    (IntegerLink, twin(IntegerLink, ["L", "n", "t", "q", "vec"]),
     [(Named("A"), 2, 2, 1, LINK_VEC), (Named("R1", 1), 2, 0, -1, LINK_VEC)]),
    (LesserLink, twin(LesserLink, ["form", "base", "sign", "n", "p", "q", "vec"]),
     [("divide", Named("A"), 1, 2, 2, -7, LINK_VEC),
      ("ruling", Named("A"), 0, 2, 2, -7, LINK_VEC)]),
    (SearchBudget, twin(SearchBudget, [("depth", int, 64), ("node_cap", int, 50000)]),
     [(), (8,), (8, 100)]),
    (Overlay, twin(Overlay, ["points", ("labels", tuple, ()), ("closed", bool, False)]),
     [(((0, 1), (1, 0)),), (((0, 1), (1, 0)), ("a", "b"), True)]),
    # the two result records were mutable dataclasses and are now read-only
    (CheckResult, twin(CheckResult, ["name", "passed", "detail"]),
     [("gate", True, "ok"), ("gate", False, "ok")]),
    (ConfluenceReport, twin(ConfluenceReport, ["divergences"]), [([],), ([{"input": "g"}],)]),
    # the atlas stays mutable; it and the range stay unhashable
    (KnotAtlas, twin(KnotAtlas, [
        "name", "generators", "rules", "tbb", "width_ceiling", "uniformly_thick",
        ("surgery_distinct", tuple, ()), ("sigma_plus", tuple, ()), ("sigma_minus", tuple, ()),
        ("both_signs_determined", bool, False)], frozen=False),
     [(b.name, b.generators, b.rules, b.tbb, b.width_ceiling, b.uniformly_thick,
       b.surgery_distinct, b.sigma_plus, b.sigma_minus, b.both_signs_determined)
      for b in map(builtin_atlas, ("unknot", "k-minus-5", "twist-even-2-surgery"))]
     + [("u", (Generator("U", "U", 0, -1),), (), -1, -1, False)]),
    (MountainRange, twin(MountainRange, [
        "entries", "tb_min", ("labels", dict, dataclasses.field(default_factory=dict)),
        ("truncated", bool, True)]),
     [({(0, 1): 2}, -3), ({(0, 1): 2}, -3, {(0, 1): ("P1", "P2")}, False), ({}, 0)]),
]


def test_class_records_keep_value_semantics():
    """Named and Generic are named tuples, and behave as the frozen
    dataclasses they replaced.

    A Generic now also equals the plain tuple and the RotTb of its fields;
    every set and dict keyed by classes (normal forms, the destabilization
    table, integer-closure states, oracle orbits) holds classes or states
    built from them only, never bare invariant pairs.
    """
    assert Named("A", 1, 2) == Named("A", 1, 2)
    assert hash(Named("A", 1, 2)) == hash(Named("A", 1, 2))
    assert Named("A") == Named("A", 0, 0) and Named("A") != Named("A", 0, 1)
    assert Generic(0, -1) == Generic(0, -1)
    assert hash(Generic(0, -1)) == hash(Generic(0, -1))
    assert Generic(0, -1) != Generic(-1, 0)
    assert all(Named(g, a, b) != Generic(a, b) for g in ("A", "B") for a in range(2)
               for b in range(2))
    for record, field in ((Named("A", 1, 2), "plus"), (Generic(0, -1), "tb")):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
        with pytest.raises(AttributeError):
            record.other = 5
    # witness labels and golden bytes print these
    assert repr(Named("P1", 2, 1)) == "Named(gen='P1', plus=2, minus=1)"
    assert repr(Named("U")) == "Named(gen='U', plus=0, minus=0)"
    assert repr(Generic(-3, -4)) == "Generic(rot=-3, tb=-4)"
    assert repr(DataNamed("P1", 2, 1)) == repr(Named("P1", 2, 1))
    assert repr(DataGeneric(-3, -4)) == repr(Generic(-3, -4))


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("record, data, samples", RECORD_TWINS,
                         ids=[record.__name__ for record, _, _ in RECORD_TWINS])
def test_records_keep_their_dataclass_semantics(record, data, samples):
    """Every record that was a dataclass has its ``repr``, equality and hash.

    A hash equal to the hash of the field tuple keeps set iteration order,
    and with it golden bytes, under every hash seed.
    """
    built = [record(*args) for args in samples]
    twins = [data(*args) for args in samples]
    names = [f.name for f in dataclasses.fields(data)]
    for rec, tw in zip(built, twins):
        assert repr(rec) == repr(tw)
        values = tuple(getattr(tw, name) for name in names)
        assert tuple(getattr(rec, name) for name in names) == values
        assert hash_or_error(rec) == hash_or_error(tw)
        if hash_or_error(tw) is not TypeError:
            assert hash(rec) == hash(values)
        if data.__dataclass_params__.frozen:
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(rec, name, 5)
    for (a, ta), (b, tb) in product(zip(built, twins), repeat=2):
        assert (a == b, a != b) == (ta == tb, ta != tb)
    if record in (KnotAtlas, MountainRange):
        assert all(hash_or_error(rec) is TypeError for rec in built)


def test_links_of_different_types_are_never_equal():
    fields = (Named("A"), 2, 2, 1, LINK_VEC)
    greater, integer = GreaterLink(*fields), IntegerLink(*fields)
    lesser = LesserLink("divide", Named("A"), 1, 2, 2, 1, LINK_VEC)
    assert greater != integer and not greater == integer and integer != greater
    assert greater != fields and fields != greater and integer != fields
    assert lesser != tuple(lesser) and len({greater, integer, lesser}) == 3
    assert IntegerLink(*fields).p == 1
    assert greater._replace(n=3) == GreaterLink(Named("A"), 3, 2, 1, LINK_VEC)


def test_atlas_replace_rebuilds_indexes_and_starts_an_empty_table():
    atlas = builtin_atlas("twist-even-2")
    shown = repr(atlas)
    assert (atlas._moves, atlas._rules_by_dst) == ({}, None)
    atlas_module.destabilizations(atlas, Named("R1"), POS)
    assert atlas._destabs
    assert closure_equal(atlas, Named("P1", 1, 1), Generic(0, -1)).is_isotopic
    assert atlas._moves and atlas._rules_by_dst is not None
    assert all(isinstance(c, (Named, Generic)) for c in atlas._moves)
    # full tables change neither equality, repr nor the document
    assert atlas == builtin_atlas("twist-even-2") and repr(atlas) == shown
    assert make_atlas(atlas_to_json(atlas)) == atlas
    copy = atlas.replace()
    assert copy == atlas and copy is not atlas and copy._destabs == {}
    assert (copy._moves, copy._rules_by_dst) == ({}, None)
    renamed = atlas.replace(name="other", rules=atlas.rules[:1])
    assert (renamed.name, renamed.rules) == ("other", atlas.rules[:1])
    assert renamed.rules_for("P1") == list(atlas.rules[:1]) and renamed.rules_for("P2") == []
    assert renamed.generators == atlas.generators and atlas.name == "twist-even-2"
    # the copy's moves come from its own rules, not from the full index
    assert legclass_moves(atlas, Named("R1")) == (Named("P1", 1, 0), Named("P2", 1, 0))
    assert legclass_moves(renamed, Named("R1")) == (Named("P1", 1, 0),)
    assert legclass_moves(atlas, Generic(0, -1)) == (Named("R1", 0, 1), Named("L1", 1, 0))
    assert legclass_moves(renamed, Generic(0, -1)) == ()
    with pytest.raises(TypeError):
        atlas.replace(colour="red")


@pytest.mark.parametrize("name", ["k-minus-5", "twist-even-3"])
def test_class_sets_iterate_as_dataclass_sets(name):
    # equal hashes and equal insertion order give equal iteration order
    atlas = builtin_atlas(name)
    classes = [c for _, row in class_rows(atlas, atlas.tbb - 12) for c in row]
    classes += [Named(g.id, a, b) for g in atlas.generators for a in range(4) for b in range(4)]

    def as_data(c):
        return DataNamed(*c) if isinstance(c, Named) else DataGeneric(*c)

    data = [as_data(c) for c in classes]
    assert [hash(c) for c in classes] == [hash(d) for d in data]
    assert [as_data(c) for c in set(classes)] == list(set(data))
    keyed = {(c, sign): i for i, c in enumerate(classes) for sign in (POS, NEG)}
    data_keyed = {(d, sign): i for i, d in enumerate(data) for sign in (POS, NEG)}
    assert [(as_data(c), s, i) for (c, s), i in keyed.items()] == [
        (d, s, i) for (d, s), i in data_keyed.items()]
