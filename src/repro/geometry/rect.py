"""Axis-aligned rectangles, the primitive of the layout database.

Rectangles are stored in canonical form (``x1 <= x2``, ``y1 <= y2``).
A degenerate rectangle with zero width or height is permitted: ports on
cell edges are represented as zero-thickness edge segments so abutment of
two cells makes their port rectangles coincide exactly.

A :class:`Rect` *is* its ``(x1, y1, x2, y2)`` tuple, so the DRC and
extraction kernels read it as a box without copying, and it compares,
sorts and hashes as that tuple.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter
from typing import Iterable, Optional

from repro.geometry.point import Point
from repro.geometry.transform import Orientation, Transform

#: Builds a Rect without the canonical check, for the methods below
#: whose result is canonical by construction.
_new = tuple.__new__


class Rect(namedtuple("Rect", "x1 y1 x2 y2")):
    """A canonical axis-aligned rectangle on the integer grid."""

    __slots__ = ()

    def __new__(cls, x1: int, y1: int, x2: int, y2: int) -> "Rect":
        if x1 > x2 or y1 > y2:
            raise ValueError(
                f"Rect not canonical: ({x1},{y1})-({x2},{y2})")
        return _new(cls, (x1, y1, x2, y2))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Rect":
        # namedtuple's own _make (and so _replace) skips __new__.
        return cls(*iterable)

    @classmethod
    def from_points(cls, p1: Point, p2: Point) -> "Rect":
        """Build the canonical rectangle spanned by two corner points."""
        return _new(cls, (min(p1.x, p2.x), min(p1.y, p2.y),
                          max(p1.x, p2.x), max(p1.y, p2.y)))

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
        ax1, ay1, ax2, ay2 = self
        bx1, by1, bx2, by2 = other
        return ax1 <= bx2 and bx1 <= ax2 and ay1 <= by2 and by1 <= ay2

    def overlaps(self, other: "Rect") -> bool:
        """True when the rectangles share *interior* area (not mere touch)."""
        ax1, ay1, ax2, ay2 = self
        bx1, by1, bx2, by2 = other
        return ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Return the shared rectangle, or None when disjoint."""
        if not self.intersects(other):
            return None
        ax1, ay1, ax2, ay2 = self
        bx1, by1, bx2, by2 = other
        return _new(Rect, (max(ax1, bx1), max(ay1, by1), min(ax2, bx2),
                           min(ay2, by2)))

    def union_bbox(self, other: "Rect") -> "Rect":
        """The bounding box of both rectangles."""
        ax1, ay1, ax2, ay2 = self
        bx1, by1, bx2, by2 = other
        return _new(Rect, (min(ax1, bx1), min(ay1, by1), max(ax2, bx2),
                           max(ay2, by2)))

    def contains_point(self, p: Point) -> bool:
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        ax1, ay1, ax2, ay2 = self
        bx1, by1, bx2, by2 = other
        return ax1 <= bx1 and ay1 <= by1 and bx2 <= ax2 and by2 <= ay2

    def spacing_to(self, other: "Rect") -> int:
        """Euclidean-free Manhattan gap between two rectangles.

        Returns 0 when they touch or overlap.  For diagonal separation the
        design-rule convention is the max of the x and y gaps, matching the
        corner-to-corner spacing checks of classic scalable rule decks.
        """
        ax1, ay1, ax2, ay2 = self
        bx1, by1, bx2, by2 = other
        dx = max(0, max(ax1, bx1) - min(ax2, bx2))
        dy = max(0, max(ay1, by1) - min(ay2, by2))
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
        ax1, ay1, ax2, ay2 = self
        bx1, by1, bx2, by2 = other
        shares_vertical_edge = (
            (ax2 == bx1 or bx2 == ax1) and min(ay2, by2) > max(ay1, by1))
        shares_horizontal_edge = (
            (ay2 == by1 or by2 == ay1) and min(ax2, bx2) > max(ax1, bx1))
        return shares_vertical_edge or shares_horizontal_edge

    # -- construction of derived rectangles ------------------------------

    def translated(self, delta: Point) -> "Rect":
        x1, y1, x2, y2 = self
        dx, dy = delta.x, delta.y
        return _new(Rect, (x1 + dx, y1 + dy, x2 + dx, y2 + dy))

    def expanded(self, margin: int) -> "Rect":
        """Grow (or shrink, for negative margin) by ``margin`` on all sides.

        A shrink past the middle flips the sides back into canonical
        order, as :meth:`from_points` would.
        """
        x1, y1, x2, y2 = self
        x1, y1, x2, y2 = x1 - margin, y1 - margin, x2 + margin, y2 + margin
        return _new(Rect, (min(x1, x2), min(y1, y2), max(x1, x2),
                           max(y1, y2)))

    def transformed(self, transform: Transform) -> "Rect":
        """Apply a placement transform; the result is re-canonicalised.

        The identity returns ``self`` (rectangles are immutable) and a
        pure translation just adds the offset.
        """
        t = transform.translation
        x1, y1, x2, y2 = self
        if transform.orientation is Orientation.R0:
            if not (t.x or t.y):
                return self
            return _new(Rect, (x1 + t.x, y1 + t.y, x2 + t.x, y2 + t.y))
        x1, y1 = transform.apply_xy(x1, y1)
        x2, y2 = transform.apply_xy(x2, y2)
        return _new(Rect, (min(x1, x2), min(y1, y2), max(x1, x2),
                           max(y1, y2)))


_X1, _Y1, _X2, _Y2 = (itemgetter(k) for k in range(4))


def bounding_box(rects: Iterable[Rect]) -> Optional[Rect]:
    """Bounding box of a collection of rectangles (None when empty)."""
    if isinstance(rects, Rect):
        raise TypeError("bounding_box takes a collection of Rects, "
                        "not a single Rect")
    rects = rects if isinstance(rects, (list, tuple)) else list(rects)
    if not rects:
        return None
    return _new(Rect, (min(map(_X1, rects)), min(map(_Y1, rects)),
                       max(map(_X2, rects)), max(map(_Y2, rects))))


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
