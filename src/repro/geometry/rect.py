"""Axis-aligned rectangles, the primitive of the layout database.

Rectangles are stored in canonical form (``x1 <= x2``, ``y1 <= y2``).
A degenerate rectangle with zero width or height is permitted: ports on
cell edges are represented as zero-thickness edge segments so abutment of
two cells makes their port rectangles coincide exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.geometry.point import Point
from repro.geometry.transform import Transform


@dataclass(frozen=True, order=True)
class Rect:
    """A canonical axis-aligned rectangle on the integer grid."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(
                f"Rect not canonical: ({self.x1},{self.y1})-({self.x2},{self.y2})"
            )

    @classmethod
    def from_points(cls, p1: Point, p2: Point) -> "Rect":
        """Build the canonical rectangle spanned by two corner points."""
        return cls(
            min(p1.x, p2.x), min(p1.y, p2.y), max(p1.x, p2.x), max(p1.y, p2.y)
        )

    @classmethod
    def from_size(cls, origin: Point, width: int, height: int) -> "Rect":
        """Build a rectangle from its lower-left corner and its size."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        return cls(origin.x, origin.y, origin.x + width, origin.y + height)

    # -- basic measures -------------------------------------------------

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> Point:
        """The center, rounded down to the grid."""
        return Point((self.x1 + self.x2) // 2, (self.y1 + self.y2) // 2)

    @property
    def lower_left(self) -> Point:
        return Point(self.x1, self.y1)

    @property
    def upper_right(self) -> Point:
        return Point(self.x2, self.y2)

    def aspect_ratio(self) -> float:
        """Long side over short side; 1.0 is a square, inf is degenerate."""
        short = min(self.width, self.height)
        long = max(self.width, self.height)
        if short == 0:
            return float("inf")
        return long / short

    # -- set-like operations --------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True when the two rectangles share interior or boundary."""
        return (
            self.x1 <= other.x2
            and other.x1 <= self.x2
            and self.y1 <= other.y2
            and other.y1 <= self.y2
        )

    def overlaps(self, other: "Rect") -> bool:
        """True when the rectangles share *interior* area (not mere touch)."""
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Return the shared rectangle, or None when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.x1, other.x1),
            max(self.y1, other.y1),
            min(self.x2, other.x2),
            min(self.y2, other.y2),
        )

    def union_bbox(self, other: "Rect") -> "Rect":
        """The bounding box of both rectangles."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def contains_point(self, p: Point) -> bool:
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def spacing_to(self, other: "Rect") -> int:
        """Euclidean-free Manhattan gap between two rectangles.

        Returns 0 when they touch or overlap.  For diagonal separation the
        design-rule convention is the max of the x and y gaps, matching the
        corner-to-corner spacing checks of classic scalable rule decks.
        """
        dx = max(0, max(self.x1, other.x1) - min(self.x2, other.x2))
        dy = max(0, max(self.y1, other.y1) - min(self.y2, other.y2))
        if dx > 0 and dy > 0:
            return max(dx, dy)
        return dx + dy

    def abuts(self, other: "Rect") -> bool:
        """True when the rectangles share an edge segment of nonzero length.

        This is the relation BISRAMGEN exploits for routing-free assembly:
        ports on abutting edges connect without any wire.
        """
        if self.overlaps(other):
            return False
        shares_vertical_edge = (
            (self.x2 == other.x1 or other.x2 == self.x1)
            and min(self.y2, other.y2) > max(self.y1, other.y1)
        )
        shares_horizontal_edge = (
            (self.y2 == other.y1 or other.y2 == self.y1)
            and min(self.x2, other.x2) > max(self.x1, other.x1)
        )
        return shares_vertical_edge or shares_horizontal_edge

    # -- construction of derived rectangles ------------------------------

    def translated(self, delta: Point) -> "Rect":
        return Rect(
            self.x1 + delta.x, self.y1 + delta.y, self.x2 + delta.x, self.y2 + delta.y
        )

    def expanded(self, margin: int) -> "Rect":
        """Grow (or shrink, for negative margin) by ``margin`` on all sides."""
        r = Rect.from_points(
            Point(self.x1 - margin, self.y1 - margin),
            Point(self.x2 + margin, self.y2 + margin),
        )
        return r

    def transformed(self, transform: Transform) -> "Rect":
        """Apply a placement transform; the result is re-canonicalised."""
        x1, y1 = transform.apply_xy(self.x1, self.y1)
        x2, y2 = transform.apply_xy(self.x2, self.y2)
        return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


def bounding_box(rects: Iterable[Rect]) -> Optional[Rect]:
    """Bounding box of a collection of rectangles (None when empty)."""
    box = None
    for r in rects:
        box = r if box is None else box.union_bbox(r)
    return box


def total_area(rects: Iterable[Rect]) -> int:
    """Exact area of the union of rectangles (sweep-line).

    Uses a coordinate-compressed scanline, so overlapping rectangles are
    not double counted.  Needed for honest area-overhead accounting when
    macrocell outlines overlap routing regions.
    """
    rects = [r for r in rects if r.area > 0]
    if not rects:
        return 0
    xs = sorted({r.x1 for r in rects} | {r.x2 for r in rects})
    area = 0
    for left, right in zip(xs, xs[1:]):
        spans = sorted(
            (r.y1, r.y2) for r in rects if r.x1 <= left and r.x2 >= right
        )
        covered = 0
        last_end = None
        for y1, y2 in spans:
            if last_end is None or y1 > last_end:
                covered += y2 - y1
                last_end = y2
            elif y2 > last_end:
                covered += y2 - last_end
                last_end = y2
        area += covered * (right - left)
    return area
