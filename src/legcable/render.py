"""Mountain-range renderers: fixed-width ASCII grids, SVG documents and JSON.

All three renderers emit exactly the entry set of the range (the SVG embeds
the lattice data on each marker so it can be parsed back losslessly), and
all three are byte-deterministic for a fixed input.  The JSON text equals
``json.dumps(doc, sort_keys=True, indent=2)`` of the document described in
``json_mountain``, written without the standard library's indenting encoder,
which runs in pure Python.

Each renderer makes one pass over its rows or points, and none reads the
order of a range's dicts: ASCII looks cells up by row, and SVG and JSON sort
the points once.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from pyexpat import ParserCreate
from typing import NamedTuple

from .errors import EmptyRange, TooWide
from .mountain import MountainRange

# The most rot columns of an ASCII grid.  Its cost is rows times columns, and
# a range's rot values are not bounded by its rows (an atlas generator or a
# cable slope can put them anywhere), so a wider grid raises TooWide.
MAX_COLUMNS = 2001


def ascii_mountain(mr: MountainRange) -> str:
    """tb rows descending, rot columns centered at 0, '.' for empty cells."""
    entries = mr.entries
    if not entries:
        raise EmptyRange("mountain range has no entries")
    t_max = max(t for _, t in entries)
    r_max = max(abs(r) for r, _ in entries)
    if 2 * r_max + 1 > MAX_COLUMNS:
        raise TooWide(
            f"{2 * r_max + 1} rot columns from rot={-r_max} to rot={r_max}; "
            f"at most {MAX_COLUMNS} are drawn"
        )
    width = max(len(str(m)) for m in entries.values())
    rots = range(-r_max, r_max + 1)
    cells: dict[int, dict[int, str]] = {}
    for (r, t), m in entries.items():
        cells.setdefault(t, {})[r] = str(m).rjust(width)
    empty = ".".rjust(width)
    lines = []
    for t in range(t_max, mr.tb_min - 1, -1):
        row = cells.get(t, {})
        lines.append(f"tb={t:>4} | " + " ".join([row.get(r, empty) for r in rots]))
    if mr.truncated:
        lines.append(" " * 8 + "| " + " ".join(["~".rjust(width)] * len(rots)))
    marker = [" ".rjust(width) if r else "0".rjust(width) for r in rots]
    lines.append(" " * 8 + "  " + " ".join(marker) + "   (rot)")
    return "\n".join(lines) + "\n"


def json_mountain(mr: MountainRange) -> str:
    """The range as JSON: ``entries`` (rot, tb, multiplicity; top row first,
    then by rot), ``labels`` (rot, tb, classes; same order, and absent when
    the range has none), ``tb_min`` and ``truncated``.

    Each entry and label block is one fixed template; class names go through
    the string encoder that ``json.dumps`` uses, so escaping is unchanged.
    """
    entries, labels = mr.entries, mr.labels
    points = mr.points()
    blocks = [
        f'{{\n      "multiplicity": {entries[pt]},\n'
        f'      "rot": {pt[0]},\n      "tb": {pt[1]}\n    }}'
        for pt in points
    ]
    parts = ['{\n  "entries": ', json_array(blocks, "  "), ",\n"]
    if labels:
        if labels.keys() != entries.keys():
            points = sorted(labels, key=lambda pt: (-pt[1], pt[0]))
        blocks = []
        for pt in points:
            names = labels[pt]
            classes = "[]"
            if names:
                classes = (
                    "[\n        " + ",\n        ".join(map(encode_basestring_ascii, names))
                    + "\n      ]"
                )
            blocks.append(
                f'{{\n      "classes": {classes},\n'
                f'      "rot": {pt[0]},\n      "tb": {pt[1]}\n    }}'
            )
        parts += ['  "labels": ', json_array(blocks, "  "), ",\n"]
    truncated = "true" if mr.truncated else "false"
    parts.append(f'  "tb_min": {mr.tb_min},\n  "truncated": {truncated}\n}}')
    return "".join(parts)


def json_array(items: list[str], indent: str) -> str:
    """A JSON array of already encoded ``items`` closing at ``indent``, as
    ``json.dumps(..., indent=2)`` writes it."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


class Overlay(NamedTuple):
    """A polyline overlay with optional labels at its vertices."""

    points: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] = ()
    closed: bool = False


def ifsurg_overlay(p: int, q: int, tb_min: int) -> list[Overlay]:
    """Region boundaries for cables with slope in (0, 1): the top region
    between the peaks, the two side cones, and the bottom cone, with the
    six labeled corner points."""
    pq = p * q
    top = Overlay(
        points=((q - p, pq), (p - q, pq), (0, pq - p + q)),
        labels=(f"({q - p},{pq})", f"({p - q},{pq})", f"(0,{pq - p + q})"),
        closed=True,
    )
    drop = (pq - q) - tb_min
    right = Overlay(
        points=((p - drop, tb_min), (p, pq - q), (p + drop, tb_min)),
        labels=("", f"({p},{pq - q})", ""),
    )
    left = Overlay(
        points=((-p - drop, tb_min), (-p, pq - q), (-p + drop, tb_min)),
        labels=("", f"(-{p},{pq - q})", ""),
    )
    drop0 = (pq - p - q) - tb_min
    bottom = Overlay(
        points=((-drop0, tb_min), (0, pq - p - q), (drop0, tb_min)),
        labels=("", f"(0,{pq - p - q})", ""),
    )
    return [top, right, left, bottom]


_SCALE = 28
_MARGIN = 48


def svg_mountain(mr: MountainRange, overlays=None) -> str:
    """SVG 1.1 subset (lines, circles, text); markers carry their lattice data.

    (x0, y0) is where the lattice point (0, 0) falls on the canvas.
    """
    if not mr.entries:
        raise EmptyRange("mountain range has no entries")
    overlays = list(overlays or [])
    pts = list(mr.entries) + [p for ov in overlays for p in ov.points]
    r_max = max(abs(r) for r, _ in pts)
    t_max = max(t for _, t in pts)
    t_min = min(min(t for _, t in pts), mr.tb_min)
    x0 = _MARGIN + r_max * _SCALE
    y0 = _MARGIN + t_max * _SCALE
    width = 2 * x0
    height = 2 * _MARGIN + (t_max - t_min) * _SCALE
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for ov in overlays:
        xys = [(x0 + r * _SCALE, y0 - t * _SCALE) for r, t in ov.points]
        ends = xys + xys[:1] if ov.closed else xys
        out += [
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="firebrick" stroke-width="1"/>'
            for (x1, y1), (x2, y2) in zip(ends, ends[1:])
        ]
        out += [
            f'<text x="{x + 8}" y="{y - 8}" font-size="10" fill="firebrick">{label}</text>'
            for (x, y), label in zip(xys, ov.labels)
            if label
        ]
    entries = mr.entries
    for r, t in mr.points():
        m = entries[(r, t)]
        x, y = x0 + r * _SCALE, y0 - t * _SCALE
        out.append(
            f'<circle cx="{x}" cy="{y}" r="7" fill="white" stroke="black" '
            f'stroke-width="1" data-rot="{r}" data-tb="{t}" data-mult="{m}"/>\n'
            f'<text x="{x}" y="{y + 3}" font-size="9" text-anchor="middle">{m}</text>'
        )
    if mr.truncated:
        x, y = x0, y0 - mr.tb_min * _SCALE
        out.append(
            f'<text x="{x}" y="{y + _SCALE - 6}" font-size="12" '
            f'text-anchor="middle">&#8942;</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# a circle's name as expat reports it: namespace, separator, local name
_SVG_CIRCLE = "http://www.w3.org/2000/svg circle"


def svg_entries(svg_text: str) -> dict[tuple[int, int], int]:
    """Recover the exact entry set from a rendered SVG document.

    Reads the lattice data of every SVG ``circle`` through expat with
    namespaces on, so a circle outside the SVG namespace is skipped; text
    that is not well-formed XML raises ``pyexpat.ExpatError``.
    """
    entries = {}

    def start(name: str, attrs: dict) -> None:
        if name == _SVG_CIRCLE:
            r, t, m = attrs.get("data-rot"), attrs.get("data-tb"), attrs.get("data-mult")
            if r is not None and t is not None and m is not None:
                entries[(int(r), int(t))] = int(m)

    parser = ParserCreate(namespace_separator=" ")
    parser.StartElementHandler = start
    parser.Parse(svg_text, True)
    return entries
