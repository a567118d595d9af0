"""Mountain ranges: multiplicities of isotopy classes over the (rot, tb) lattice."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import OutOfRange

Point = tuple[int, int]

# The most tb rows a range, an enumeration or a class listing walks, its top
# row included.  Work grows with the square of the depth: at the limit a
# builtin mountain takes about 0.25-0.35 s to count and 0.35-0.75 s as a CLI
# request with its output, and an integer-slope enumerate (126k links) about
# 1.1 s on a 2-vCPU host.  Deeper requests raise OutOfRange.
MAX_ROWS = 500


class _RangeFields(NamedTuple):
    entries: dict[Point, int]
    tb_min: int
    labels: dict[Point, tuple[str, ...]]
    truncated: bool


class MountainRange(_RangeFields):
    """Association from lattice points (rot, tb) to class multiplicities.

    Entries only occupy points with rot + tb odd.  ``tb_min`` records the
    cutoff row; ``truncated`` is set when families continue below it (for
    stabilization cones that is always the case once the bottom row is
    occupied).  ``labels`` optionally names the classes at a point.  A range
    is an immutable named tuple: it compares by its four fields as a tuple
    does, and does not hash, since two of its fields are dicts.
    """

    __slots__ = ()

    def __new__(
        cls,
        entries: dict[Point, int],
        tb_min: int,
        labels: Optional[dict[Point, tuple[str, ...]]] = None,
        truncated: bool = True,
    ) -> MountainRange:
        for (rot, tb), mult in entries.items():
            if (rot + tb) % 2 == 0:
                raise OutOfRange("entry-parity", f"entry at ({rot}, {tb}) has even rot + tb")
            if mult < 1:
                raise OutOfRange(
                    "bad-multiplicity", f"multiplicity {mult} at ({rot}, {tb}) must be >= 1"
                )
        return super().__new__(cls, entries, tb_min, {} if labels is None else labels, truncated)

    def points(self) -> list[Point]:
        """Occupied lattice points, top row first, left to right."""
        return sorted(self.entries, key=lambda pt: (-pt[1], pt[0]))

    def row(self, tb: int) -> dict[int, int]:
        """Multiplicities of one tb row, keyed by rot."""
        return {r: m for (r, t), m in self.entries.items() if t == tb}

    def total(self) -> int:
        return sum(self.entries.values())


def check_rows(top: int, bottom: int) -> None:
    """Raise OutOfRange when more than MAX_ROWS rows lie from ``top`` down to ``bottom``."""
    if top - bottom >= MAX_ROWS:
        raise OutOfRange(
            "too-many-rows",
            f"{top - bottom + 1} rows from tb={top} down to tb={bottom}; "
            f"at most {MAX_ROWS} are walked"
        )


def check_cutoff(tb_min: int, peak: int) -> None:
    """Raise OutOfRange when the cutoff row lies above the peak row, or when
    the range would have more than MAX_ROWS rows."""
    if tb_min > peak:
        raise OutOfRange("cutoff-above-peak", f"tb_min={tb_min} above the peak row tb={peak}")
    check_rows(peak, tb_min)


def from_counts(
    entries: dict[Point, int], tb_min: int, labels: Optional[dict] = None
) -> MountainRange:
    """The range of counted points cut at ``tb_min``.

    Every builder here enumerates whole stabilization cones, so the range is
    truncated exactly when its cutoff row is occupied.
    """
    truncated = any(t == tb_min for (_, t) in entries)
    return MountainRange(entries, tb_min, labels, truncated)


def tally(
    labelled: Iterable[tuple[Point, str]], tb_min: int, sort_labels: bool = False
) -> MountainRange:
    """Count labelled (rot, tb) points at or above ``tb_min`` into a range.

    Each pair is one class at one point.  The labels of a point keep the
    order the pairs arrive in, or string order with ``sort_labels``.  Three
    ranges count here: ``atlas.mountain_range`` passes its classes in row
    order, so a point's labels keep generator order, and
    ``cables.cable_mountain_range`` and ``cables.lesser_mountain_range`` pass
    theirs in cell order and sort each point's labels once counted.
    """
    names: dict[Point, list[str]] = {}
    for point, label in labelled:
        if point[1] >= tb_min:
            found = names.get(point)
            if found is None:
                names[point] = [label]
            else:
                found.append(label)
    order = sorted if sort_labels else tuple
    return from_counts(
        {pt: len(ls) for pt, ls in names.items()},
        tb_min,
        {pt: tuple(order(ls)) for pt, ls in names.items()},
    )
