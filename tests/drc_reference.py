"""Reference DRC kernels: the straightforward pairwise rule checks.

These are the original all-pairs implementations of the rule classes
that :mod:`repro.layout.drc` and :mod:`repro.verify.hierdrc` now run as
sweeps, and the original per-shape zone collection.  They are kept
here, outside the package, as the slow oracle the fast kernels must
agree with exactly — same violations, same ``measured``/``where``
values, same order (``test_drc_kernels.py``).

Each function takes the :class:`~repro.layout.drc.DrcChecker` whose
deck it checks against, in place of the method's ``self``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.geometry import Rect
from repro.layout.cell import Cell
from repro.layout.drc import DrcChecker, DrcViolation


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
    if corner_touch:
        return a.intersects(b)
    return a.overlaps(b) or a.abuts(b)


def _connected_groups(
    rects: Sequence[Rect], corner_touch: bool = True
) -> List[List[Rect]]:
    n = len(rects)
    ds = _DisjointSet(n)
    order = sorted(range(n), key=lambda i: rects[i].x1)
    active: List[int] = []
    for idx in order:
        r = rects[idx]
        active = [a for a in active if rects[a].x2 >= r.x1]
        for a in active:
            if _merged(rects[a], r, corner_touch):
                ds.union(a, idx)
        active.append(idx)
    groups: Dict[int, List[Rect]] = defaultdict(list)
    for i in range(n):
        groups[ds.find(i)].append(rects[i])
    return list(groups.values())


def _close_box_pairs(boxes: Sequence[Rect], required: int):
    order = sorted(range(len(boxes)), key=lambda i: boxes[i].x1)
    active: List[int] = []
    for idx in order:
        b = boxes[idx]
        active = [a for a in active if boxes[a].x2 + required > b.x1]
        for a in active:
            other = boxes[a]
            if other.y1 - required < b.y2 and b.y1 - required < other.y2 \
                    and other.spacing_to(b) < required:
                yield (a, idx) if a < idx else (idx, a)
        active.append(idx)


# -- flat rule classes (DrcChecker methods) --------------------------------


def check_spacing(checker: DrcChecker, layer: str,
                  rects: Sequence[Rect]) -> List[DrcViolation]:
    required = checker._rule(f"space.{layer}")
    if required is None or len(rects) < 2:
        return []
    solid = [r for r in rects if r.area > 0]
    corner_touch = checker.process.rules.corner_touch_connects()
    groups = _connected_groups(solid, corner_touch)
    if len(groups) < 2:
        return []
    boxes = []
    for g in groups:
        box = g[0]
        for r in g[1:]:
            box = box.union_bbox(r)
        boxes.append(box)
    out = []
    for i, j in _close_box_pairs(boxes, required):
        gap, pair = min(
            ((a.spacing_to(b), (a, b))
             for a in groups[i] for b in groups[j]),
            key=lambda item: item[0],
        )
        if gap < required and (gap > 0 or not corner_touch):
            where = pair[0].union_bbox(pair[1])
            out.append(
                DrcViolation("min-space", layer, gap, required, where)
            )
    return out


def _best_margin(cut: Rect, metal: Sequence[Rect]) -> int:
    best = -1
    for m in metal:
        if not m.contains_rect(cut):
            continue
        margin = min(
            cut.x1 - m.x1, m.x2 - cut.x2, cut.y1 - m.y1, m.y2 - cut.y2
        )
        best = max(best, margin)
    return best


def check_enclosures(checker: DrcChecker,
                     by_layer: Dict[str, List[Rect]]) -> List[DrcViolation]:
    out = []
    for cut_layer, enclosers in DrcChecker._CUT_ENCLOSURES.items():
        cuts = by_layer.get(cut_layer, [])
        if not cuts:
            continue
        for encloser in enclosers:
            required = checker._rule(f"enclose.{encloser}_{cut_layer}")
            if required is None:
                continue
            metal = by_layer.get(encloser, [])
            for cut in cuts:
                grown = cut.expanded(required)
                if not any(m.contains_rect(grown) for m in metal):
                    margin = _best_margin(cut, metal)
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


def check_gates(checker: DrcChecker,
                by_layer: Dict[str, List[Rect]]) -> List[DrcViolation]:
    endcap = checker._rule("overhang.gate_poly")
    if endcap is None:
        return []
    polys = by_layer.get("poly", [])
    out: List[DrcViolation] = []
    for diff_layer in ("ndiff", "pdiff"):
        for diff in by_layer.get(diff_layer, []):
            if diff.area == 0:
                continue
            for poly in polys:
                channel = poly.intersection(diff)
                if channel is None or channel.area == 0:
                    continue
                crosses_x = poly.x1 <= diff.x1 and poly.x2 >= diff.x2
                crosses_y = poly.y1 <= diff.y1 and poly.y2 >= diff.y2
                if crosses_x:
                    margin = min(diff.x1 - poly.x1,
                                 poly.x2 - diff.x2)
                elif crosses_y:
                    margin = min(diff.y1 - poly.y1,
                                 poly.y2 - diff.y2)
                else:
                    margin = -1
                if margin < endcap:
                    out.append(
                        DrcViolation(
                            "gate-endcap", "poly",
                            max(margin, 0), endcap, channel,
                        )
                    )
    return out


# -- seam rule classes (hierdrc zone kernels) ------------------------------


def cross_spacing(checker: DrcChecker, layer: str,
                  items: Sequence[Tuple[Rect, int]],
                  ) -> List[DrcViolation]:
    required = checker.process.rules.rules.get(f"space.{layer}")
    if required is None or len(items) < 2:
        return []
    corner_touch = checker.process.rules.corner_touch_connects()
    rects = [r for r, _ in items]
    sources = [s for _, s in items]
    n = len(rects)
    ds = _DisjointSet(n)
    order = sorted(range(n), key=lambda i: rects[i].x1)
    active: List[int] = []
    for idx in order:
        r = rects[idx]
        active = [a for a in active if rects[a].x2 >= r.x1]
        for a in active:
            if _merged(rects[a], r, corner_touch):
                ds.union(a, idx)
        active.append(idx)
    groups: Dict[int, List[int]] = {}
    for i in range(n):
        groups.setdefault(ds.find(i), []).append(i)
    members = list(groups.values())
    if len(members) < 2:
        return []
    boxes = []
    for g in members:
        box = rects[g[0]]
        for i in g[1:]:
            box = box.union_bbox(rects[i])
        boxes.append(box)
    out: List[DrcViolation] = []
    for i, j in _close_box_pairs(boxes, required):
        cand_a = [a for a in members[i]
                  if rects[a].spacing_to(boxes[j]) < required]
        cand_b = [b for b in members[j]
                  if rects[b].spacing_to(boxes[i]) < required]
        if not cand_a or not cand_b:
            continue
        gap, pair = min(
            ((rects[a].spacing_to(rects[b]), (a, b))
             for a in cand_a for b in cand_b),
            key=lambda item: item[0],
        )
        if gap >= required or (gap == 0 and corner_touch):
            continue
        a, b = pair
        if sources[a] == sources[b] and sources[a] != 0:
            continue
        where = rects[a].union_bbox(rects[b])
        out.append(
            DrcViolation("min-space", layer, gap, required, where))
    return out


def cross_gates(checker: DrcChecker,
                polys: Sequence[Tuple[Rect, int]],
                diffs: Sequence[Tuple[Rect, int]],
                ) -> List[DrcViolation]:
    endcap = checker.process.rules.rules.get("overhang.gate_poly")
    if endcap is None or not polys or not diffs:
        return []
    by_x1 = sorted(polys, key=lambda item: item[0].x1)
    x1s = [item[0].x1 for item in by_x1]
    out: List[DrcViolation] = []
    for diff, src_d in diffs:
        for poly, src_p in by_x1[:bisect_right(x1s, diff.x2)]:
            if src_p == src_d or poly.x2 < diff.x1:
                continue
            if not poly.overlaps(diff):
                continue
            channel = poly.intersection(diff)
            if channel is None or channel.area == 0:
                continue
            crosses_x = poly.x1 <= diff.x1 and poly.x2 >= diff.x2
            crosses_y = poly.y1 <= diff.y1 and poly.y2 >= diff.y2
            if crosses_x:
                margin = min(diff.x1 - poly.x1, poly.x2 - diff.x2)
            elif crosses_y:
                margin = min(diff.y1 - poly.y1, poly.y2 - diff.y2)
            else:
                margin = -1
            if margin < endcap:
                out.append(DrcViolation(
                    "gate-endcap", "poly", max(margin, 0), endcap, channel))
    return out


def shapes_in_region(cell: Cell, transform, region: Rect,
                     out: List[Tuple[str, Rect]]) -> None:
    box = cell.bbox()
    if box is None:
        return
    placed_box = box if transform is None else box.transformed(transform)
    if not placed_box.intersects(region):
        return
    for layer, rect in cell.shapes():
        if rect.area == 0:
            continue
        placed = rect if transform is None else rect.transformed(transform)
        if placed.intersects(region):
            out.append((layer, placed))
    for inst in cell.instances():
        eff = (inst.transform if transform is None
               else transform.compose(inst.transform))
        shapes_in_region(inst.cell, eff, region, out)
