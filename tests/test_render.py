"""ASCII and SVG mountain-range renderers."""

import pytest

from legcable import (
    MountainRange,
    ascii_mountain,
    builtin_atlas,
    cable_mountain_range,
    ifsurg_overlay,
    lesser_mountain_range,
    mountain_range,
    svg_entries,
    svg_mountain,
)
from legcable.errors import EmptyRange, EngineError, InvalidMultiplicity, ParityViolation


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
