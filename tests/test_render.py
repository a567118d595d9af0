"""ASCII, SVG and JSON mountain-range renderers."""

import json
import xml.etree.ElementTree as ET
from pyexpat import ExpatError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legcable import (
    MountainRange,
    ascii_mountain,
    builtin_atlas,
    cable_mountain_range,
    ifsurg_overlay,
    json_mountain,
    lesser_mountain_range,
    mountain_range,
    svg_entries,
    svg_mountain,
)
from legcable.errors import (
    EmptyRange,
    EngineError,
    InvalidMultiplicity,
    ParityViolation,
    TooWide,
)
from legcable.render import MAX_COLUMNS


def test_ascii_rows_and_digits():
    k5 = builtin_atlas("k-minus-5")
    text = ascii_mountain(mountain_range(k5, -4))
    first = text.splitlines()[0]
    assert first.startswith("tb=  -3") and first.count("2") == 1
    un = builtin_atlas("unknot")
    apex = ascii_mountain(mountain_range(un, -2)).splitlines()[0]
    assert "1" in apex and "2" not in apex
    tw2 = builtin_atlas("twist-even-2")
    lines = ascii_mountain(mountain_range(tw2, 0)).splitlines()
    assert lines[0].endswith("2 . .") or "2" in lines[0]
    assert lines[1].count("1") == 2


def test_ascii_marks_truncation():
    tw2 = builtin_atlas("twist-even-2")
    assert "~" in ascii_mountain(mountain_range(tw2, -2))


def test_ascii_empty_range():
    with pytest.raises(EmptyRange):
        ascii_mountain(MountainRange(entries={}, tb_min=0))


def test_ascii_column_limit():
    r_max = (MAX_COLUMNS - 1) // 2
    grid = ascii_mountain(MountainRange(entries={(r_max, 1): 1, (-r_max, 1): 1}, tb_min=1))
    assert len(grid.splitlines()[0].split("|")[1].split()) == MAX_COLUMNS
    with pytest.raises(TooWide):
        ascii_mountain(MountainRange(entries={(r_max + 2, 1): 1}, tb_min=1))


def test_mountain_range_rejects_even_parity():
    with pytest.raises(ParityViolation):
        MountainRange(entries={(0, 2): 1}, tb_min=0)


def test_mountain_range_rejects_zero_multiplicity_as_engine_error():
    with pytest.raises(EngineError) as caught:
        MountainRange(entries={(0, 1): 0}, tb_min=0)
    assert isinstance(caught.value, InvalidMultiplicity)


def test_svg_round_trip_is_lossless():
    tw3 = builtin_atlas("twist-even-3")
    mr = mountain_range(tw3, -3)
    assert svg_entries(svg_mountain(mr)) == mr.entries
    k5 = builtin_atlas("k-minus-5")
    mr = cable_mountain_range(k5, 2, 1, -8)
    assert svg_entries(svg_mountain(mr)) == mr.entries


def test_svg_single_point_range():
    mr = MountainRange(entries={(0, 1): 1}, tb_min=1, truncated=False)
    text = svg_mountain(mr)
    assert text.count("<circle") == 1
    assert svg_entries(text) == {(0, 1): 1}


def element_tree_entries(svg_text):
    """The ElementTree reader ``svg_entries`` replaced."""
    ns = "{http://www.w3.org/2000/svg}"
    entries = {}
    for circle in ET.fromstring(svg_text).iter(f"{ns}circle"):
        r, t, m = circle.get("data-rot"), circle.get("data-tb"), circle.get("data-mult")
        if r is not None and t is not None and m is not None:
            entries[(int(r), int(t))] = int(m)
    return entries


def test_svg_entries_reads_as_element_tree_did():
    surgery = builtin_atlas("twist-even-2-surgery")
    for text in (svg_mountain(mountain_range(builtin_atlas("twist-even-8"), -20)),
                 svg_mountain(lesser_mountain_range(surgery, 2, 1, -8), ifsurg_overlay(2, 1, -8))):
        assert svg_entries(text) == element_tree_entries(text)
        assert len(svg_entries(text)) > 50


def test_svg_entries_is_strict_and_reads_svg_circles_only():
    text = svg_mountain(MountainRange(entries={(0, 1): 2}, tb_min=1, truncated=False))
    for broken in (text[:-10], text.replace("<circle", "<circle <"), "", text + "<svg/>"):
        with pytest.raises(ExpatError):
            svg_entries(broken)
    foreign = ('<svg xmlns="http://www.w3.org/2000/svg" xmlns:x="urn:other">'
               '<x:circle data-rot="1" data-tb="0" data-mult="5"/>'
               '<circle data-rot="0" data-tb="1" data-mult="2"/></svg>')
    assert svg_entries(foreign) == element_tree_entries(foreign) == {(0, 1): 2}
    bare = '<svg><circle data-rot="0" data-tb="1" data-mult="2"/></svg>'
    assert svg_entries(bare) == {}


def test_ascii_and_svg_render_same_entries():
    tw2 = builtin_atlas("twist-even-2")
    mr = lesser_mountain_range(tw2, 2, -3, -8)
    drawn = svg_entries(svg_mountain(mr))
    text = ascii_mountain(mr)
    for (r, t), m in mr.entries.items():
        assert drawn[(r, t)] == m
    digits = sum(
        row.split("|")[1].split().count(str(m))
        for row in text.splitlines()
        if "|" in row
        for m in set(mr.entries.values())
    )
    assert digits >= len(mr.entries)


def test_ifsurg_overlay_corners():
    overlays = ifsurg_overlay(2, 1, -2)
    labels = {lab for ov in overlays for lab in ov.labels if lab}
    assert labels == {"(-1,2)", "(1,2)", "(0,1)", "(2,1)", "(-2,1)", "(0,-1)"}
    sd = builtin_atlas("twist-even-2-surgery")
    mr = lesser_mountain_range(sd, 2, 1, -2)
    text = svg_mountain(mr, overlays)
    assert "(1,2)" in text and "<line" in text
    assert svg_entries(text) == mr.entries


def test_renderers_are_deterministic():
    tw2 = builtin_atlas("twist-even-2")
    mr = mountain_range(tw2, -4)
    assert svg_mountain(mr) == svg_mountain(mountain_range(tw2, -4))
    assert ascii_mountain(mr) == ascii_mountain(mountain_range(tw2, -4))


def reference_to_json(mr):
    """The JSON document of a range, built as a dict for ``json.dumps``."""
    doc = {
        "tb_min": mr.tb_min,
        "truncated": mr.truncated,
        "entries": [
            {"rot": r, "tb": t, "multiplicity": mr.entries[(r, t)]}
            for (r, t) in mr.points()
        ],
    }
    if mr.labels:
        doc["labels"] = [
            {"rot": r, "tb": t, "classes": list(mr.labels[(r, t)])}
            for (r, t) in sorted(mr.labels, key=lambda pt: (-pt[1], pt[0]))
        ]
    return doc


coords = st.integers(-10**6, 10**6)
# plain text plus the characters JSON escapes: quotes, backslashes, control
# characters, and astral-plane characters (written as surrogate pairs)
names = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u2028\u03a9\U0001d11e\U0001f600'),
    st.characters(),
))


@st.composite
def mountain_ranges(draw):
    entries = {}
    for r, t, m in draw(st.lists(st.tuples(coords, coords, st.integers(1, 10**4)),
                                 max_size=12)):
        entries[(r, t + (r + t + 1) % 2)] = m
    labels = draw(st.dictionaries(st.tuples(coords, coords),
                                  st.lists(names, max_size=3).map(tuple), max_size=6))
    return MountainRange(entries=entries, tb_min=draw(coords), labels=labels,
                         truncated=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(mountain_ranges())
@example(MountainRange(entries={}, tb_min=0, truncated=False))
@example(MountainRange(entries={}, tb_min=-3, labels={(0, 1): ()}))
@example(MountainRange(entries={(-12, -3): 17, (4, 1): 1}, tb_min=-3,
                       labels={(4, 1): ('a"b\\c', "\U0001f600\n"), (-12, -3): ()}))
def test_json_mountain_matches_the_indented_dump(mr):
    assert json_mountain(mr) == json.dumps(reference_to_json(mr), sort_keys=True, indent=2)

