"""Design-rule checking on flattened layout.

The checker implements the rule classes the scalable deck defines:

* minimum width per layer,
* minimum same-layer spacing (between non-touching shape groups),
* contact/via enclosure by the surrounding conductor.

Shapes that touch or overlap are merged into connected groups first so
that a wide wire drawn as several overlapping rectangles is not flagged
for "spacing" against itself — the classic polygon-vs-rectangle DRC
subtlety.  The checker runs on flattened geometry, so hierarchical
interactions (a bit-cell shape against an abutting neighbour's shape)
are checked for real.

No rule class compares all pairs: spacing and gate checks run on one
banded x-sweep (:func:`_near_pairs`), enclosure on a grid point index
(:class:`_PointIndex`).  The original pairwise checks are kept as a
test-side oracle (``tests/drc_reference.py``) that these must match
violation for violation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import isqrt
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.geometry import Rect
from repro.layout.cell import Cell
from repro.tech.process import Process


@dataclass(frozen=True)
class DrcViolation:
    """One design-rule violation."""

    rule: str
    layer: str
    measured: int
    required: int
    where: Rect

    def __str__(self) -> str:
        return (
            f"{self.rule} on {self.layer}: measured {self.measured} cu, "
            f"requires {self.required} cu near "
            f"({self.where.x1},{self.where.y1})-({self.where.x2},{self.where.y2})"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form, journalable by ``CheckpointJournal``."""
        return {
            "rule": self.rule,
            "layer": self.layer,
            "measured": self.measured,
            "required": self.required,
            "where": [self.where.x1, self.where.y1,
                      self.where.x2, self.where.y2],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DrcViolation":
        x1, y1, x2, y2 = data["where"]
        return cls(
            rule=data["rule"],
            layer=data["layer"],
            measured=int(data["measured"]),
            required=int(data["required"]),
            where=Rect(int(x1), int(y1), int(x2), int(y2)),
        )


class _DisjointSet:
    """Union-find over shape indices, for merging touching rectangles."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _merged(a: Rect, b: Rect, corner_touch: bool) -> bool:
    """Whether two rectangles belong to one electrical/DRC group.

    With ``corner_touch`` the deck says a pure corner contact conducts,
    so any boundary intersection merges.  Without it, only an interior
    overlap or a shared edge segment of nonzero length does — two
    shapes meeting at a single point stay separate groups (and are then
    subject to the spacing rule between groups).
    """
    if corner_touch:
        return a.intersects(b)
    return a.overlaps(b) or a.abuts(b)


_Box = Tuple[int, int, int, int]


def _grid_step(boxes: Sequence[_Box]) -> int:
    """Grid pitch for bucketing ``boxes``: about one box per cell.

    The pitch is also at least the bounding box's longer side over the
    box count, so one box never spans more than O(n) cells.
    """
    if not boxes:
        return 1
    width = max(b[2] for b in boxes) - min(b[0] for b in boxes)
    height = max(b[3] for b in boxes) - min(b[1] for b in boxes)
    n = len(boxes)
    return max(1, isqrt(width * height // n), max(width, height) // n)


def _near_pairs(boxes: Sequence[_Box], reach: int,
                ) -> Iterator[Tuple[int, int, int, int]]:
    """Every pair of boxes within ``reach`` on both axes, once each.

    Yields ``(a, b, dx, dy)`` for the pairs whose signed x and y gaps
    (negative where the extents overlap) are both below ``reach``:
    ``reach=0`` finds the pairs sharing positive area, ``reach=1`` the
    touching ones, and ``reach=r`` the pairs closer than a spacing rule
    ``r``.

    One x-sorted active-window pass: a box stays active while its
    ``x2`` is above the sweep position minus ``reach``, and the window
    is split into horizontal bands so a box meets only the active
    boxes in the bands its y-range (grown by ``reach``) covers.  A pair
    is examined in the one band holding the larger of its two ``y1``.
    That keeps tiled arrays, where a whole column of shapes is active
    at once, near linear: O(n log n) for the sort plus the pairs that
    share a band.
    """
    step = max(reach, _grid_step(boxes))
    bands: Dict[int, List[int]] = {}
    for idx in sorted(range(len(boxes)), key=lambda i: boxes[i][0]):
        x1, y1, x2, y2 = boxes[idx]
        limit = x1 - reach
        for band in range(y1 // step, (y2 + reach - 1) // step + 1):
            still = []
            for a in bands.get(band, ()):
                _, ay1, ax2, ay2 = boxes[a]
                if ax2 <= limit:
                    continue  # out of the window for good
                still.append(a)
                top = max(ay1, y1)
                if top // step == band:
                    dx = x1 - min(ax2, x2)
                    dy = top - min(ay2, y2)
                    if dx < reach and dy < reach:
                        yield a, idx, dx, dy
            still.append(idx)
            bands[band] = still


def _boxes(rects: Sequence[Rect]) -> List[_Box]:
    return [(r.x1, r.y1, r.x2, r.y2) for r in rects]


def _sweep(rects: Sequence[Rect], reach: int, corner_touch: bool,
           ) -> Tuple[_DisjointSet, List[Tuple[int, int, int]]]:
    """Connectivity and close pairs of ``rects`` from one sweep.

    Touching pairs that the deck's ``touch.corner`` rule connects (see
    :func:`_merged`) are unioned; every other pair closer than
    ``reach`` (``reach >= 1``) is returned as a ``(gap, a, b)`` triple
    with ``a < b`` and ``gap`` the
    :meth:`~repro.geometry.Rect.spacing_to` value.
    """
    ds = _DisjointSet(len(rects))
    close: List[Tuple[int, int, int]] = []
    for a, b, dx, dy in _near_pairs(_boxes(rects), reach):
        # spacing_to: the larger of the x and y gaps, floored at 0.
        gap = max(0, dx, dy)
        if gap == 0 and (corner_touch or _merged(rects[a], rects[b], False)):
            ds.union(a, b)
        else:
            close.append((gap, a, b) if a < b else (gap, b, a))
    return ds, close


def _group_ids(ds: _DisjointSet, n: int) -> List[int]:
    """Dense group ids, numbered in order of each group's first member."""
    ids: Dict[int, int] = {}
    return [ids.setdefault(ds.find(i), len(ids)) for i in range(n)]


def _connected_groups(
    rects: Sequence[Rect], corner_touch: bool = True
) -> List[int]:
    """Group id of each rectangle: shapes that touch or overlap share one.

    Ids are dense and numbered in order of each group's lowest-index
    member.  The merge criterion follows the deck's ``touch.corner``
    rule via ``corner_touch`` (see :func:`_merged`).
    """
    ds, _ = _sweep(rects, 1, corner_touch)
    return _group_ids(ds, len(rects))


def _closest_pairs(rects: Sequence[Rect], required: int,
                   corner_touch: bool) -> List[Tuple[int, int, int]]:
    """The closest shape pair of every group pair closer than ``required``.

    One :func:`_sweep` yields the connectivity groups and every
    unmerged shape pair within the rule distance; each pair of groups
    keeps its minimum ``(gap, a, b)``, ``a`` in the group whose lowest
    member index is smaller.  Pairs come out in group-bounding-box
    sweep order: by the later group, then the earlier one, where
    groups are ranked by bbox ``x1`` and then group id.
    """
    if required <= 0:
        return []
    ds, close = _sweep(rects, required, corner_touch)
    gid = _group_ids(ds, len(rects))
    best: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    for gap, a, b in close:
        ga, gb = gid[a], gid[b]
        if ga == gb:
            continue
        if ga > gb:
            ga, gb, a, b = gb, ga, b, a
        found = best.get((ga, gb))
        if found is None or (gap, a, b) < found:
            best[(ga, gb)] = (gap, a, b)
    if not best:
        return []
    left: Dict[int, int] = {}
    for r, g in zip(rects, gid):
        left[g] = min(left.get(g, r.x1), r.x1)
    rank = {g: k for k, g in enumerate(
        sorted(left, key=lambda g: (left[g], g)))}

    def emission(pair: Tuple[int, int]) -> Tuple[int, int]:
        ri, rj = rank[pair[0]], rank[pair[1]]
        return (ri, rj) if ri > rj else (rj, ri)

    return [best[pair] for pair in sorted(best, key=emission)]


def _crossings(polys: Sequence[Rect], diffs: Sequence[Rect],
               ) -> List[Tuple[int, int]]:
    """``(d, p)`` for every poly crossing a diff in a channel, sorted.

    A channel is a positive-area poly/diffusion intersection.  One
    :func:`_near_pairs` sweep over both lists finds them at zero reach,
    so a diff meets only the polys in a window bounded on both edges:
    those whose x-extent overlaps its own, in its y-bands.
    """
    if not polys or not diffs:
        return []
    n = len(polys)
    found = []
    for a, b, _, _ in _near_pairs(_boxes(polys) + _boxes(diffs), 0):
        if a < n <= b:
            found.append((b - n, a))
        elif b < n <= a:
            found.append((a - n, b))
    found.sort()
    return found


def _endcap_violation(poly: Rect, diff: Rect,
                      endcap: int) -> Optional[DrcViolation]:
    """The gate-endcap violation of one poly/diffusion crossing, if any.

    The poly must extend past the diffusion by the endcap rule on the
    channel axis (otherwise the transistor can leak around the gate
    end).  The channel axis is inferred from which pair of gate edges
    falls strictly inside the diffusion.
    """
    crosses_x = poly.x1 <= diff.x1 and poly.x2 >= diff.x2
    crosses_y = poly.y1 <= diff.y1 and poly.y2 >= diff.y2
    if crosses_x:
        # Horizontal poly crossing: endcap in x already guaranteed;
        # nothing to measure on this axis.
        margin = min(diff.x1 - poly.x1, poly.x2 - diff.x2)
    elif crosses_y:
        margin = min(diff.y1 - poly.y1, poly.y2 - diff.y2)
    else:
        # Poly ends inside the diffusion on both axes: no complete
        # gate is formed — flag it.
        margin = -1
    if margin >= endcap:
        return None
    return DrcViolation("gate-endcap", "poly", max(margin, 0), endcap,
                        poly.intersection(diff))


class _PointIndex:
    """Uniform-grid buckets of rectangles for point-containment queries.

    Each rectangle is filed under every grid cell it covers, so the
    rectangles containing a point are among those filed under the
    point's own cell (see :func:`_grid_step` for the pitch).
    """

    def __init__(self, rects: Sequence[Rect]) -> None:
        self._buckets: Dict[Tuple[int, int], List[Rect]] = defaultdict(list)
        self._step = step = _grid_step(_boxes(rects))
        for r in rects:
            for gx in range(r.x1 // step, r.x2 // step + 1):
                for gy in range(r.y1 // step, r.y2 // step + 1):
                    self._buckets[(gx, gy)].append(r)

    def at(self, x: int, y: int) -> Sequence[Rect]:
        """Candidates (a superset) for the rectangles containing (x, y)."""
        return self._buckets.get((x // self._step, y // self._step), ())


class DrcChecker:
    """Checks a cell against a process rule deck."""

    #: layers whose enclosure of cuts is verified: cut layer -> enclosing
    #: conductor rule names.
    _CUT_ENCLOSURES = {
        "contact": ("metal1",),
        "via1": ("metal1", "metal2"),
        "via2": ("metal2", "metal3"),
    }

    def __init__(self, process: Process) -> None:
        self.process = process

    def check(self, cell: Cell, max_violations: int = 1000) -> List[DrcViolation]:
        """Run all checks on the flattened cell; returns violations found."""
        by_layer: Dict[str, List[Rect]] = defaultdict(list)
        for layer, rect in cell.flatten():
            by_layer[layer].append(rect)
        return self.check_layers(by_layer, max_violations)

    def check_layers(
        self,
        by_layer: Dict[str, List[Rect]],
        max_violations: int = 1000,
        widths: bool = True,
    ) -> List[DrcViolation]:
        """Run the rule classes on pre-flattened per-layer geometry.

        The entry point the hierarchical signoff sweep uses for its
        boundary-band interaction windows, where geometry is clipped
        out of several cells and no single ``Cell`` exists.  Width
        checks can be disabled (``widths=False``) for windows whose
        shapes are clipped — a clipped shape is legitimately narrow.
        """
        violations: List[DrcViolation] = []
        for layer, rects in sorted(by_layer.items()):
            if widths:
                violations.extend(self._check_width(layer, rects))
                if len(violations) >= max_violations:
                    return violations[:max_violations]
            violations.extend(self._check_spacing(layer, rects))
            if len(violations) >= max_violations:
                return violations[:max_violations]
        violations.extend(self._check_enclosures(by_layer))
        violations.extend(self._check_gates(by_layer))
        return violations[:max_violations]

    # -- individual rule classes -----------------------------------------

    def _rule(self, name: str) -> Optional[int]:
        return self.process.rules.rules.get(name)

    def _check_width(self, layer: str, rects: Sequence[Rect]) -> List[DrcViolation]:
        required = self._rule(f"width.{layer}")
        if required is None:
            return []
        out = []
        for r in rects:
            if r.area == 0:
                continue  # zero-thickness port markers are not drawn metal
            measured = min(r.width, r.height)
            if measured < required:
                out.append(
                    DrcViolation("min-width", layer, measured, required, r)
                )
        return out

    def _check_spacing(self, layer: str, rects: Sequence[Rect]) -> List[DrcViolation]:
        required = self._rule(f"space.{layer}")
        if required is None or len(rects) < 2:
            return []
        solid = [r for r in rects if r.area > 0]
        corner_touch = self.process.rules.corner_touch_connects()
        # A zero gap between *different* groups only happens when the
        # deck says corner contact does not conduct (otherwise the
        # shapes would have merged), and is then a violation.
        return [
            DrcViolation("min-space", layer, gap, required,
                         solid[a].union_bbox(solid[b]))
            for gap, a, b in _closest_pairs(solid, required, corner_touch)
        ]

    def _check_enclosures(
        self, by_layer: Dict[str, List[Rect]]
    ) -> List[DrcViolation]:
        # A metal shape enclosing a grown cut contains its lower-left
        # corner, so a point-location index finds the candidates.
        indexes: Dict[str, _PointIndex] = {}
        out = []
        for cut_layer, enclosers in self._CUT_ENCLOSURES.items():
            cuts = by_layer.get(cut_layer, [])
            if not cuts:
                continue
            for encloser in enclosers:
                required = self._rule(f"enclose.{encloser}_{cut_layer}")
                if required is None:
                    continue
                if encloser not in indexes:
                    indexes[encloser] = _PointIndex(
                        by_layer.get(encloser, []))
                metal = indexes[encloser]
                for cut in cuts:
                    grown = cut.expanded(required)
                    if not any(m.contains_rect(grown)
                               for m in metal.at(grown.x1, grown.y1)):
                        margin = self._best_margin(
                            cut, metal.at(cut.x1, cut.y1))
                        out.append(
                            DrcViolation(
                                f"enclosure-{encloser}",
                                cut_layer,
                                margin,
                                required,
                                cut,
                            )
                        )
        return out

    def _check_gates(
        self, by_layer: Dict[str, List[Rect]]
    ) -> List[DrcViolation]:
        """Transistor-geometry rules at every poly-diffusion crossing.

        A gate is a poly rectangle overlapping a diffusion rectangle;
        see :func:`_endcap_violation` for the rule.
        """
        endcap = self._rule("overhang.gate_poly")
        if endcap is None:
            return []
        polys = by_layer.get("poly", [])
        out: List[DrcViolation] = []
        for diff_layer in ("ndiff", "pdiff"):
            diffs = by_layer.get(diff_layer, [])
            for d, p in _crossings(polys, diffs):
                found = _endcap_violation(polys[p], diffs[d], endcap)
                if found is not None:
                    out.append(found)
        return out

    @staticmethod
    def _best_margin(cut: Rect, metal: Sequence[Rect]) -> int:
        """Largest enclosure margin any single metal shape achieves."""
        best = -1
        for m in metal:
            if not m.contains_rect(cut):
                continue
            margin = min(
                cut.x1 - m.x1, m.x2 - cut.x2, cut.y1 - m.y1, m.y2 - cut.y2
            )
            best = max(best, margin)
        return best
