"""Hierarchical DRC sweep with a content-hash leaf cache.

Flat DRC on an assembled macro re-verifies every one of the thousands
of identical bit-cell placements — tens of seconds for a small array,
unusable as a per-build stage gate.  This sweep exploits the compiler's
own structure instead:

* every *unique* cell (keyed by a content hash over its geometry and
  its children's hashes — not its name) is flat-checked exactly once,
  and the verdict is cached against the hash + rule-deck digest, so a
  second build on the same node re-checks nothing;
* every *composite* cell is then checked only where hierarchy can
  create new violations: interaction zones around each close instance
  pair's halo overlap and around each parent-drawn routing shape —
  the abutment seams where stretching, tiling, and routing interact.
  Identical instance pairs (same content hashes, orientations, and
  relative offset) are checked once, and shape pairs wholly inside one
  already-verified child are never re-examined.

The zone checks run the same rule classes as the flat checker
(:class:`~repro.layout.drc.DrcChecker`), restricted to pairs the flat
checks cannot own — two shapes from different instances, an instance
shape against parent-level routing, or two parent-drawn shapes.

Kernels.  Leaf and zone checks share the sweeps of
:mod:`repro.layout.drc`, so no rule class does all-pairs work:

* spacing — one x-sorted, y-banded active-window sweep per layer
  (``_closest_pairs``) both groups the shapes and keeps the closest
  ``(gap, a, b)`` of every close group pair: O(n log n) for the sort
  plus the pairs that meet in a band.  The sweep reads each
  :class:`~repro.geometry.Rect` as its ``(x1, y1, x2, y2)`` box, so no
  shape is copied for it.  Zone shapes carry their source, and
  same-instance pairs are dropped;
* gate endcaps — the same sweep at zero reach over polys and
  diffusions (``_crossings``);
* enclosure — a grid point-location index over each metal layer;
* zone collection — :class:`_PlacedShapes` caches each cell's shapes
  per orientation for one call, finds the elements of an instance
  array near a zone by index arithmetic, and translates only the
  shapes a zone selects (a shape placed untranslated is the cell's
  own ``Rect``);
* zone folding — a long zone is cut where the arrays crossing it
  start an element, and each distinct window (by its placement
  signature) is checked once (:func:`_folds_clean`).  Only a zone
  with a flagged window is checked whole.

A zone sees only the shapes inside it, so a ``min-space`` between two
of its groups is confirmed by growing the zone until the shapes join
or one group closes (see ``_composite_check``).

The original pairwise kernels are kept as the test-side oracle in
``tests/drc_reference.py``; ``tests/test_drc_kernels.py`` pins exact
agreement and ``tests/test_hierdrc_agreement.py`` pins hierarchical
against flat DRC.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from dataclasses import dataclass, field
from typing import (Callable, Collection, Dict, List, MutableMapping,
                    Optional, Sequence, Tuple)

from repro.geometry import Orientation, Rect, Transform
from repro.layout.cell import Cell, InstanceArray
from repro.layout.drc import (
    DrcChecker,
    DrcViolation,
    _closest_pairs,
    _connected_groups,
    _crossings,
    _endcap_violation,
    _group_ids,
    _near_pairs,
    _sweep,
)
from repro.tech.process import Process


def _shape_digest(cell: Cell,
                  known: Optional[MutableMapping]) -> "hashlib._Hash":
    """A fresh sha256 primed with ``cell``'s own drawn shapes.

    ``known`` remembers the primed state per cell with the shape count
    it covers; shapes are only ever appended, so an unchanged count
    means unchanged shapes and a warm sweep skips re-hashing them.
    """
    shapes = cell.shapes()
    count = len(shapes)
    found = known.get(cell) if known is not None else None
    if found is None or found[0] != count:
        # Plain-tuple keys sort like the (layer, Rect) pairs, only
        # faster; one joined update hashes what one per shape would.
        digest = hashlib.sha256("".join([
            f"s:{layer}:{x1}:{y1}:{x2}:{y2};"
            for layer, x1, y1, x2, y2 in sorted(
                [(layer, r.x1, r.y1, r.x2, r.y2)
                 for layer, r in shapes])
            if x1 != x2 and y1 != y2]).encode())
        found = (count, digest)
        if known is not None:
            known[cell] = found
    return found[1].copy()


def cell_hash(cell: Cell, memo: Optional[dict] = None,
              shape_digests: Optional[MutableMapping] = None) -> str:
    """Content hash of a cell's full geometry hierarchy.

    Two cells with identical shapes and identically-placed identical
    children hash equal regardless of their names, so cache verdicts
    transfer between builds and between configurations sharing leaf
    generators.  Ports and zero-area shapes are excluded: both are
    markers with no DRC significance (and neither survives a CIF
    round-trip).  ``shape_digests`` (e.g.
    :attr:`DrcCache.shape_digests`) carries the hashed own shapes of
    each cell across calls.
    """
    memo = memo if memo is not None else {}
    key = id(cell)
    if key in memo:
        return memo[key]
    digest = _shape_digest(cell, shape_digests)
    children = []
    for inst in cell.instances():
        t = inst.transform
        children.append(
            f"i:{cell_hash(inst.cell, memo, shape_digests)}"
            f":{t.orientation.value}"
            f":{t.translation.x}:{t.translation.y};")
    for entry in sorted(children):
        digest.update(entry.encode())
    value = digest.hexdigest()[:24]
    memo[key] = value
    return value


class DrcCache:
    """Verdict cache keyed on (rule-deck digest, cell content hash).

    Stores violation tuples for both flat leaf checks and composite
    band checks, so an unchanged cell is never re-verified — across
    stages of one signoff, across builds, and (via the module-level
    :data:`default_cache`) across compilations in one process.  It
    also keeps each live cell's hashed own shapes
    (:attr:`shape_digests`, weakly keyed), so a warm sweep re-hashes
    nothing but the instance lists.
    """

    def __init__(self) -> None:
        self._verdicts: Dict[str, Tuple[DrcViolation, ...]] = {}
        self.shape_digests: MutableMapping = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: str) -> Optional[Tuple[DrcViolation, ...]]:
        found = self._verdicts.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store(self, key: str, violations: Sequence[DrcViolation]) -> None:
        self._verdicts[key] = tuple(violations)

    def clear(self) -> None:
        self._verdicts.clear()
        self.shape_digests.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Shared process-wide cache: repeated builds (campaign shards, test
#: suites, the bench) pay for each unique cell once.
default_cache = DrcCache()


@dataclass
class HierDrcResult:
    """Outcome of one hierarchical sweep."""

    leaf_violations: Dict[str, List[DrcViolation]] = field(
        default_factory=dict)
    assembly_violations: Dict[str, List[DrcViolation]] = field(
        default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.leaf_violations and not self.assembly_violations


def _halo_cu(process: Process) -> int:
    """Interaction radius: the largest spacing/overhang rule of the deck.

    No same-layer spacing or transistor-geometry rule reaches farther
    than this, so shapes deeper inside a verified child cannot violate
    against anything outside it.
    """
    values = [v for k, v in process.rules.rules.items()
              if k.startswith(("space.", "overhang.", "enclose."))]
    return max(values) if values else 0


def _repeats(lo: int, hi: int, a1: int, a2: int, step: int,
             count: int) -> Tuple[int, int]:
    """Repeats ``k`` of ``[a1, a2] + k * step`` that meet ``[lo, hi]``.

    Returned as a half-open range clipped to ``[0, count)``.
    """
    if step > 0:
        k1, k2 = -((a2 - lo) // step), (hi - a1) // step
    elif step < 0:
        k1, k2 = -((hi - a1) // -step), (a2 - lo) // -step
    else:
        return (0, count) if a1 <= hi and lo <= a2 else (0, 0)
    return max(k1, 0), min(k2 + 1, count)


class _PlacedShapes:
    """Per-call cache of each cell's geometry under each orientation.

    A view holds the cell's bounding box, its drawn shapes and its
    instance entries as *runs* with the orientation already applied at
    the origin.  A run is a period of placements repeated ``count``
    times at a fixed step: a single instance is a one-placement run of
    one, and an :class:`~repro.layout.cell.InstanceArray` becomes its
    full repeats plus, when the last one is partial, a run of one
    holding that prefix.  Index arithmetic (:func:`_repeats`) then
    finds the repeats near a region without visiting the others, and
    placing a view is a translation, done only for the shapes a region
    selects.  Views are keyed by cell identity, not content hash: the
    hash ignores drawing order, and the order of a zone's shapes sets
    the spacing kernel's tie-breaks.  The cache, and the verdicts of
    the zone windows checked so far (:attr:`windows`), live as long as
    one :func:`hierarchical_drc` call.
    """

    def __init__(self, hash_memo: Optional[dict] = None) -> None:
        self._views: Dict[tuple, tuple] = {}
        self._boxes: Dict[tuple, Optional[tuple]] = {}
        self._arrayed: Dict[int, bool] = {}
        self._hash_memo = hash_memo if hash_memo is not None else {}
        #: Window signature -> whether that window is clean.
        self.windows: Dict[tuple, bool] = {}

    def _box(self, cell: Cell, orientation: Orientation) -> Optional[tuple]:
        """``cell``'s bounding box turned by ``orientation``, as ints."""
        key = (id(cell), orientation)
        if key not in self._boxes:
            box = cell.bbox()
            if box is not None:
                box = box.transformed(Transform(orientation))
            self._boxes[key] = box
        return self._boxes[key]

    def _view(self, cell: Cell, orientation: Orientation) -> tuple:
        key = (id(cell), orientation)
        view = self._views.get(key)
        if view is None:
            turn = Transform(orientation)
            turned = (cell.shapes() if orientation is Orientation.R0
                      else [(layer, r.transformed(turn))
                            for layer, r in cell.shapes()])
            shapes = [(layer, r) for layer, r in turned
                      if r.x1 != r.x2 and r.y1 != r.y2]
            runs = []
            base = 0
            for entry in cell.entries():
                if isinstance(entry, InstanceArray):
                    period, count = entry.period, entry.count
                    sx, sy = turn.apply_xy(entry.step.x, entry.step.y)
                else:
                    period, count, sx, sy = (entry,), 1, 0, 0
                placements = [self._placement(turn, inst)
                              for inst in period]
                full, rest = divmod(count, len(period))
                if full:
                    runs.append(self._run(placements, full, sx, sy, base))
                if rest:
                    tail = [(c, o, dx + full * sx, dy + full * sy, b, leaf)
                            for c, o, dx, dy, b, leaf in placements[:rest]]
                    runs.append(self._run(tail, 1, sx, sy,
                                          base + full * len(period)))
                base += count
            view = self._views[key] = (self._box(cell, orientation),
                                       shapes, runs)
        return view

    def _placement(self, turn: Transform, inst) -> tuple:
        """``(cell, orientation, dx, dy, box, leaf key)`` in a view frame.

        Only the child's box is read here; its own view is built when a
        region first reaches its shapes.
        """
        eff = turn.compose(inst.transform)
        child = inst.cell
        leaf = (None if child.entries()
                else cell_hash(child, self._hash_memo))
        return (child, eff.orientation, eff.translation.x,
                eff.translation.y, self._box(child, eff.orientation),
                leaf)

    @staticmethod
    def _run(placements: list, count: int, sx: int, sy: int,
             base: int) -> tuple:
        boxes = [(dx + b[0], dy + b[1], dx + b[2], dy + b[3])
                 for _, _, dx, dy, b, _ in placements if b is not None]
        pbox = (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes)
                ) if boxes else None
        return (tuple(placements), count, sx, sy, pbox, base)

    def _has_arrays(self, cell: Cell) -> bool:
        """Whether ``cell`` or any cell below it holds an array."""
        found = self._arrayed.get(id(cell))
        if found is None:
            found = self._arrayed[id(cell)] = any(
                isinstance(entry, InstanceArray)
                or self._has_arrays(entry.cell)
                for entry in cell.entries())
        return found

    @staticmethod
    def _span(run: tuple, rx1: int, ry1: int, rx2: int, ry2: int,
              ) -> range:
        """The repeats of ``run`` whose period box meets the region."""
        _, count, sx, sy, pbox, _ = run
        if pbox is None:
            return range(0)
        if count == 1:
            return range(pbox[0] <= rx2 and rx1 <= pbox[2]
                         and pbox[1] <= ry2 and ry1 <= pbox[3])
        x1, x2 = _repeats(rx1, rx2, pbox[0], pbox[2], sx, count)
        y1, y2 = _repeats(ry1, ry2, pbox[1], pbox[3], sy, count)
        return range(max(x1, y1), min(x2, y2))

    def collect(self, cell: Cell, transform: Transform, region: Rect,
                out: List[Tuple[str, Rect]],
                layers: Optional[Collection[str]] = None) -> None:
        """Append ``cell``'s placed shapes intersecting ``region`` to ``out``.

        The descent is pruned on bounding boxes, so the cost scales with
        the shapes near the region, not with the cell's total area.
        ``layers`` restricts the collection to those layers.
        """
        t = transform.translation
        self._collect(cell, transform.orientation, t.x, t.y, region, out,
                      layers)

    def _collect(self, cell, orientation, tx, ty, region, out, layers):
        box, shapes, runs = self._view(cell, orientation)
        if box is None:
            return
        # Compare in the view's own frame: shift the region, not shapes.
        rx1, ry1 = region[0] - tx, region[1] - ty
        rx2, ry2 = region[2] - tx, region[3] - ty
        if not (box[0] <= rx2 and rx1 <= box[2]
                and box[1] <= ry2 and ry1 <= box[3]):
            return
        for layer, rect in shapes:
            x1, y1, x2, y2 = rect
            if x1 <= rx2 and rx1 <= x2 and y1 <= ry2 and ry1 <= y2 \
                    and (layers is None or layer in layers):
                out.append((layer, Rect(x1 + tx, y1 + ty, x2 + tx, y2 + ty)
                            if tx or ty else rect))
        for run in runs:
            period, _, sx, sy, _, _ = run
            for k in self._span(run, rx1, ry1, rx2, ry2):
                ox, oy = tx + k * sx, ty + k * sy
                for child, orient, dx, dy, _, _ in period:
                    self._collect(child, orient, ox + dx, oy + dy, region,
                                  out, layers)

    def sourced(self, cell: Cell, region: Rect,
                layers: Optional[Collection[str]] = None,
                ) -> Dict[str, List[Tuple[Rect, int]]]:
        """``cell``'s shapes meeting ``region`` by layer, with sources.

        Source 0 is the cell's own drawn geometry; source ``k + 1`` is
        its ``k``-th instance, arrays expanded (the order of
        :meth:`~repro.layout.cell.Cell.instances`).  Shapes come out in
        that order too.
        """
        rx1, ry1, rx2, ry2 = region
        _, shapes, runs = self._view(cell, Orientation.R0)
        by_layer: Dict[str, List[Tuple[Rect, int]]] = {}
        for layer, rect in shapes:
            x1, y1, x2, y2 = rect
            if x1 <= rx2 and rx1 <= x2 and y1 <= ry2 and ry1 <= y2 \
                    and (layers is None or layer in layers):
                by_layer.setdefault(layer, []).append((rect, 0))
        collected: List[Tuple[str, Rect]] = []
        for run in runs:
            period, _, sx, sy, _, base = run
            for k in self._span(run, *region):
                for j, (child, orient, dx, dy, _, _) in enumerate(period):
                    self._collect(child, orient, k * sx + dx,
                                  k * sy + dy, region, collected, layers)
                    source = base + k * len(period) + j + 1
                    for layer, rect in collected:
                        by_layer.setdefault(layer, []).append(
                            (rect, source))
                    collected.clear()
        return by_layer

    # -- zone folding ------------------------------------------------------

    def cuts(self, cell: Cell, region: Rect, axis: int) -> List[int]:
        """Where the arrays crossing ``region`` start an element.

        Descends through single instances and through arrays that step
        across ``axis`` (0 = x, 1 = y) down to the arrays that step
        along it, and returns the sorted low edges of their elements
        strictly inside the region.
        """
        found: set = set()
        if self._has_arrays(cell):
            self._cuts(cell, Orientation.R0, 0, 0, region, axis, found)
        return sorted(c for c in found
                      if region[axis] < c < region[axis + 2])

    def _cuts(self, cell, orientation, tx, ty, region, axis, found):
        _, _, runs = self._view(cell, orientation)
        rx1, ry1 = region[0] - tx, region[1] - ty
        rx2, ry2 = region[2] - tx, region[3] - ty
        for run in runs:
            period, _, sx, sy, _, _ = run
            along = sy if axis else sx
            for k in self._span(run, rx1, ry1, rx2, ry2):
                ox, oy = tx + k * sx, ty + k * sy
                for child, orient, dx, dy, box, leaf in period:
                    if box is None:
                        continue
                    if along:
                        found.add(oy + dy + box[1] if axis
                                  else ox + dx + box[0])
                    elif leaf is None and self._has_arrays(child):
                        self._cuts(child, orient, ox + dx, oy + dy,
                                   region, axis, found)

    def atoms(self, cell: Cell, region: Rect, axis: int) -> List[tuple]:
        """What the windows of a zone are made of, sorted along ``axis``.

        Every leaf placement meeting ``region`` as ``(lo, hi, "c",
        source, (content hash, orientation), x, y)`` and every drawn
        shape of the composites above them as ``(lo, hi, "s", source,
        layer, x1, y1, x2, y2)``, where ``lo``/``hi`` is the extent
        along ``axis`` and the source is as in :meth:`sourced`.
        """
        found: List[tuple] = []
        self._atoms(cell, Orientation.R0, 0, 0, region, 0, axis, found)
        found.sort(key=lambda atom: atom[0])
        return found

    def _atoms(self, cell, orientation, tx, ty, region, source, axis, found):
        box, shapes, runs = self._view(cell, orientation)
        rx1, ry1 = region[0] - tx, region[1] - ty
        rx2, ry2 = region[2] - tx, region[3] - ty
        if box is None or not (box[0] <= rx2 and rx1 <= box[2]
                               and box[1] <= ry2 and ry1 <= box[3]):
            return
        for layer, (x1, y1, x2, y2) in shapes:
            if x1 <= rx2 and rx1 <= x2 and y1 <= ry2 and ry1 <= y2:
                x1, y1, x2, y2 = x1 + tx, y1 + ty, x2 + tx, y2 + ty
                found.append(((y1, y2) if axis else (x1, x2))
                             + ("s", source, layer, x1, y1, x2, y2))
        for run in runs:
            period, _, sx, sy, _, base = run
            for k in self._span(run, rx1, ry1, rx2, ry2):
                ox, oy = tx + k * sx, ty + k * sy
                for j, (child, orient, dx, dy, b, leaf) in enumerate(period):
                    src = source or base + k * len(period) + j + 1
                    x, y = ox + dx, oy + dy
                    if leaf is None:
                        self._atoms(child, orient, x, y, region, src, axis,
                                    found)
                    elif b is not None and (
                            b[0] + x <= region[2] and region[0] <= b[2] + x
                            and b[1] + y <= region[3]
                            and region[1] <= b[3] + y):
                        found.append(((b[1] + y, b[3] + y) if axis
                                      else (b[0] + x, b[2] + x))
                                     + ("c", src, (leaf, orient), x, y))


def _clip(box: Tuple[int, int, int, int],
          clip: Tuple[Optional[int], Optional[int]], axis: int,
          ) -> Optional[Tuple[int, int, int, int]]:
    """``box`` cut to ``clip`` along ``axis``; None when nothing is left.

    A ``None`` bound leaves that side uncut.  A box the clip does not
    cut comes back as itself; a cut one as a new :class:`Rect`.
    """
    lo, hi = clip
    a1, a2 = box[axis], box[axis + 2]
    c1 = a1 if lo is None or a1 >= lo else lo
    c2 = a2 if hi is None or a2 <= hi else hi
    if c1 >= c2:
        return None
    if c1 == a1 and c2 == a2:
        return box
    return (Rect(c1, box[1], c2, box[3]) if axis == 0
            else Rect(box[0], c1, box[2], c2))


def _cross_spacing(checker: DrcChecker, layer: str,
                   items: Sequence[Tuple[Rect, int]],
                   joined: Optional[Callable[[Rect, Rect], bool]] = None,
                   ) -> List[DrcViolation]:
    """Spacing between shapes of *different* sources only.

    Groups all shapes with the deck's connectivity semantics (an
    abutting pair from two instances is one intentional wire, not a
    violation), then flags close group pairs whose nearest shapes come
    from different sources.  Same-source violations were already caught
    by that source's own flat check.  ``joined`` confirms a candidate:
    when it reports the two shapes connected through geometry outside
    ``items``, the pair is one polygon and is not flagged.
    """
    required = checker.process.rules.rules.get(f"space.{layer}")
    if required is None or len(items) < 2:
        return []
    corner_touch = checker.process.rules.corner_touch_connects()
    rects = [r for r, _ in items]
    out: List[DrcViolation] = []
    for gap, a, b in _closest_pairs(rects, required, corner_touch):
        src = items[a][1]
        if src == items[b][1] and src != 0:
            continue  # intra-instance: the child's own check owns it
        # Source 0 (parent-drawn routing) has no flat check of its
        # own, so own-vs-own pairs are flagged here too.
        if joined is not None and joined(rects[a], rects[b]):
            continue
        out.append(DrcViolation("min-space", layer, gap, required,
                                rects[a].union_bbox(rects[b])))
    return out


def _cross_gates(checker: DrcChecker,
                 polys: Sequence[Tuple[Rect, int]],
                 diffs: Sequence[Tuple[Rect, int]],
                 ) -> List[DrcViolation]:
    """Gate-endcap check for poly/diffusion pairs from different sources."""
    endcap = checker.process.rules.rules.get("overhang.gate_poly")
    if endcap is None or not polys or not diffs:
        return []
    by_x1 = sorted(polys, key=lambda item: item[0].x1)
    poly_rects = [r for r, _ in by_x1]
    out: List[DrcViolation] = []
    for d, p in _crossings(poly_rects, [r for r, _ in diffs]):
        (diff, src_d), (poly, src_p) = diffs[d], by_x1[p]
        if src_p == src_d:
            continue
        found = _endcap_violation(poly, diff, endcap)
        if found is not None:
            out.append(found)
    return out


def _composite_check(cell: Cell, checker: DrcChecker, halo: int,
                     hash_memo: dict, placed: _PlacedShapes,
                     max_violations: int) -> List[DrcViolation]:
    """Check one composite cell's assembly seams via interaction zones.

    Sources: 0 = the cell's own drawn shapes (routing, straps), 1..n =
    its instances.  Instead of sweeping every child's boundary band at
    once (quadratic on a stack of identical rows), the check builds
    small *zones* where hierarchy can create new violations — the
    halo-overlap window of each close instance pair, and a band around
    each parent-drawn shape — and examines cross-source pairs inside
    them.  Identical pairs (same child content hashes, orientations,
    and relative offset) are checked once, so a 256-row array pays for
    one row seam, not 255; and a long zone — one row seam still holds
    every bit column — is proved clean from its distinct windows
    (:func:`_folds_clean`).
    """
    own: List[Tuple[str, Rect]] = [
        (layer, rect) for layer, rect in cell.shapes() if rect.area > 0]
    violations: List[DrcViolation] = []

    # Parent-level drawn geometry gets the full width check; instance
    # shapes already passed their own cell's check.
    own_by_layer: Dict[str, List[Rect]] = {}
    for layer, rect in own:
        own_by_layer.setdefault(layer, []).append(rect)
    for layer, rects in sorted(own_by_layer.items()):
        violations.extend(checker._check_width(layer, rects))
        if len(violations) >= max_violations:
            return violations[:max_violations]

    insts = list(cell.instances())
    boxes = [inst.bbox() for inst in insts]
    whole = cell.bbox()
    corner_touch = checker.process.rules.corner_touch_connects()

    def joined(layer: str, region: Rect) -> Callable[[Rect, Rect], bool]:
        """Whether two shapes of a zone are one polygon outside it.

        A zone holds only the shapes inside it, so two of its groups
        may be bridged just beyond its edge.  Grow the zone until the
        bridge shows up or one shape's group closes — every member
        strictly inside the grown zone, where nothing outside can touch
        it — or the zone covers the whole cell.
        """
        def check(a: Rect, b: Rect) -> bool:
            grown, margin = region, max(halo, 1)
            while True:
                grown = grown.expanded(margin)
                margin *= 2
                rects = [r for r, _ in placed.sourced(
                    cell, grown, (layer,)).get(layer, ())]
                ids = _connected_groups(rects, corner_touch)
                ga, gb = ids[rects.index(a)], ids[rects.index(b)]
                if ga == gb:
                    return True
                if whole is None or grown.contains_rect(whole):
                    return False
                for g in (ga, gb):
                    if all(grown.x1 < r.x1 and r.x2 < grown.x2
                           and grown.y1 < r.y1 and r.y2 < grown.y2
                           for r, i in zip(rects, ids) if i == g):
                        return False
        return check

    def check_zone(region: Rect) -> List[DrcViolation]:
        if _folds_clean(cell, region, checker, halo, placed):
            return []
        found: List[DrcViolation] = []
        by_layer = placed.sourced(cell, region)
        for layer, items in sorted(by_layer.items()):
            n_own = sum(1 for _, src in items if src == 0)
            if len({src for _, src in items}) < 2 and n_own < 2:
                continue
            found.extend(_cross_spacing(checker, layer, items,
                                        joined(layer, region)))
        for diff_layer in ("ndiff", "pdiff"):
            found.extend(_cross_gates(
                checker,
                by_layer.get("poly", ()),
                by_layer.get(diff_layer, ()),
            ))
        return found

    # Instance-pair zones, deduped by relative placement.  The pairs
    # whose halo-expanded boxes meet come from the shared banded sweep
    # and are visited in x1 order of the later box, then of the
    # earlier one: the first pair of each placement class is its zone.
    expanded = [b.expanded(halo) if b is not None else None for b in boxes]
    seen: set = set()
    order = sorted(
        (k for k in range(len(insts)) if boxes[k] is not None),
        key=lambda k: boxes[k].x1)
    rank = {k: i for i, k in enumerate(order)}
    pairs = []
    for i, j, _, _ in _near_pairs([boxes[k] for k in order], halo + 1):
        a, k = order[min(i, j)], order[max(i, j)]
        pairs.append((rank[k], rank[a], a, k))
    pairs.sort()
    for _, _, a, k in pairs:
        ta, tk = insts[a].transform, insts[k].transform
        key_a = (cell_hash(insts[a].cell, hash_memo), ta.orientation.value)
        key_k = (cell_hash(insts[k].cell, hash_memo), tk.orientation.value)
        dx = tk.translation.x - ta.translation.x
        dy = tk.translation.y - ta.translation.y
        if (key_k, key_a) < (key_a, key_k):
            sig = (key_k, key_a, -dx, -dy)
        else:
            sig = (key_a, key_k, dx, dy)
        if sig in seen:
            continue
        seen.add(sig)
        window = expanded[a].intersection(expanded[k])
        if window is None:
            continue
        violations.extend(check_zone(window.expanded(2 * halo)))
        if len(violations) >= max_violations:
            return _dedup(violations)[:max_violations]

    # One zone per parent-drawn shape: catches routing-vs-instance and
    # routing-vs-routing interactions wherever the parent drew.
    for _, rect in own:
        violations.extend(check_zone(rect.expanded(2 * halo)))
        if len(violations) >= max_violations:
            return _dedup(violations)[:max_violations]

    # Parent-level cuts may rely on instance metal for enclosure, so
    # they are checked against everything near them.
    own_cuts = [(layer, rect) for layer, rect in own
                if layer in DrcChecker._CUT_ENCLOSURES]
    if own_cuts:
        enclosure_view: Dict[str, List[Rect]] = {}
        for _, cut in own_cuts:
            for layer, items in placed.sourced(
                    cell, cut.expanded(halo)).items():
                enclosure_view.setdefault(layer, []).extend(
                    r for r, _ in items)
        for cut_layer in DrcChecker._CUT_ENCLOSURES:
            if cut_layer in enclosure_view:
                enclosure_view[cut_layer] = own_by_layer.get(cut_layer, [])
        violations.extend(checker._check_enclosures(enclosure_view))

    return _dedup(violations)[:max_violations]


#: Fewest windows a zone is cut into before folding pays off.
_FOLD_MIN_WINDOWS = 8


def _folds_clean(cell: Cell, region: Rect, checker: DrcChecker, halo: int,
                 placed: _PlacedShapes) -> bool:
    """Whether a long zone is provably clean from its distinct windows.

    The zone is cut along its long axis where the arrays crossing it
    start an element (:meth:`_PlacedShapes.cuts`).  Each window spans
    one cut interval plus ``halo`` on either side, so two shapes closer
    than any spacing rule meet in one window; shapes are cut to the
    window along the axis except at the zone's own ends.

    A window's *signature* is what it holds relative to its origin:
    each leaf placement's content hash, orientation and offset, and
    each parent-drawn shape cut to the window, all tagged with their
    source ranked among the window's sources.  Equal signatures mean
    the same geometry up to a translation, so each distinct signature
    is checked once (:func:`_window_clean`).  A window check flags a
    superset of what the zone check reports, so when every window is
    clean the zone is; otherwise the caller checks the whole zone, and
    reports exactly what the expanded zone check reports.
    """
    axis = 0 if region.width >= region.height else 1
    cuts = placed.cuts(cell, region, axis)
    if len(cuts) + 1 < _FOLD_MIN_WINDOWS:
        return False
    lo, hi = (region.x1, region.x2) if axis == 0 else (region.y1, region.y2)
    across = (region.y1, region.y2) if axis == 0 else (region.x1, region.x2)
    atoms = placed.atoms(cell, region, axis)
    bounds = [lo] + cuts + [hi]
    last = len(bounds) - 2
    active: List[tuple] = []
    pending = 0
    for i in range(last + 1):
        a, b = bounds[i], bounds[i + 1]
        w1, w2 = max(lo, a - halo), min(hi, b + halo)
        clip = (a - halo if i else None, b + halo if i < last else None)
        # Windows only move forward: slide the atoms meeting [w1, w2].
        while pending < len(atoms) and atoms[pending][0] <= w2:
            active.append(atoms[pending])
            pending += 1
        active = [atom for atom in active if atom[1] >= w1]
        sig = _signature(active, a, axis, clip, (w1 - a, w2 - a), across)
        clean = placed.windows.get(sig)
        if clean is None:
            window = (Rect(w1, region.y1, w2, region.y2) if axis == 0
                      else Rect(region.x1, w1, region.x2, w2))
            clean = placed.windows[sig] = _window_clean(
                checker, placed.sourced(cell, window), clip, axis)
        if not clean:
            return False
    return True


def _signature(atoms: Sequence[tuple], origin: int, axis: int,
               clip: Tuple[Optional[int], Optional[int]],
               span: Tuple[int, int], across: Tuple[int, int]) -> tuple:
    """One window's signature (see :func:`_folds_clean`).

    The window spans ``span`` from ``origin`` along ``axis`` and the
    zone's ``across`` range on the other axis.  Offsets are taken from
    ``origin`` along ``axis`` and kept absolute across it, like
    ``across`` itself.
    """
    sources = sorted({atom[3] for atom in atoms} - {0})
    rank = {src: k for k, src in enumerate(sources, 1)}
    ox, oy = (0, origin) if axis else (origin, 0)
    held = []
    for atom in atoms:
        if atom[2] == "c":
            _, _, kind, src, key, x, y = atom
            held.append((kind, rank.get(src, 0), key[0], key[1].value,
                         x - ox, y - oy))
        else:
            _, _, kind, src, layer, x1, y1, x2, y2 = atom
            cut = _clip((x1, y1, x2, y2), clip, axis)
            if cut is not None:
                held.append((kind, rank.get(src, 0), layer,
                             cut[0] - ox, cut[1] - oy,
                             cut[2] - ox, cut[3] - oy))
    held.sort()
    lo, hi = clip
    return (axis, span, across,
            None if lo is None else lo - origin,
            None if hi is None else hi - origin, tuple(held))


def _window_clean(checker: DrcChecker,
                  by_layer: Dict[str, List[Tuple[Rect, int]]],
                  clip: Tuple[Optional[int], Optional[int]],
                  axis: int) -> bool:
    """No seam candidate in one window, its shapes cut to ``clip``.

    The zone check reports, per pair of connected groups, the closest
    shape pair when it crosses sources, and every poly/diffusion
    crossing between sources that breaks the endcap rule.  Here a
    group pair is flagged when *any* of its closest pairs crosses
    sources, and every crossing between sources is flagged.  Cutting
    shapes only splits groups and keeps every gap inside the window,
    so a zone violation always shows up in some window.
    """
    rules = checker.process.rules.rules
    corner_touch = checker.process.rules.corner_touch_connects()
    cut: Dict[str, List[Tuple[Rect, int]]] = {}
    for layer, items in by_layer.items():
        for rect, src in items:
            box = _clip(rect, clip, axis)
            if box is not None:
                cut.setdefault(layer, []).append((box, src))
    for layer, items in cut.items():
        required = rules.get(f"space.{layer}")
        if not required or len(items) < 2:
            continue
        rects = [r for r, _ in items]
        ds, close = _sweep(rects, required, corner_touch)
        gid = _group_ids(ds, len(rects))
        best: Dict[Tuple[int, int], Tuple[int, bool]] = {}
        for gap, a, b in close:
            ga, gb = gid[a], gid[b]
            if ga == gb:
                continue
            pair = (ga, gb) if ga < gb else (gb, ga)
            crossing = items[a][1] != items[b][1] or items[a][1] == 0
            found = best.get(pair)
            if found is None or gap < found[0] or (gap == found[0]
                                                   and crossing):
                best[pair] = (gap, crossing)
        if any(crossing for _, crossing in best.values()):
            return False
    polys = cut.get("poly", ())
    for diff_layer in ("ndiff", "pdiff"):
        diffs = cut.get(diff_layer, ())
        for d, p in _crossings([r for r, _ in polys], [r for r, _ in diffs]):
            if diffs[d][1] != polys[p][1]:
                return False
    return True


def _dedup(violations: Sequence[DrcViolation]) -> List[DrcViolation]:
    """Drop duplicates produced by overlapping zones, keeping order."""
    seen: set = set()
    out: List[DrcViolation] = []
    for v in violations:
        key = (v.rule, v.layer, v.measured, v.required, v.where)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def hierarchical_drc(
    cell: Cell,
    process: Process,
    cache: Optional[DrcCache] = None,
    max_violations: int = 200,
) -> HierDrcResult:
    """Run the hierarchical sweep over ``cell`` and everything below it.

    Returns per-cell violation lists split into *leaf* (a generator
    produced dirty geometry) and *assembly* (composition created a
    violation across a seam), plus cache/coverage statistics and the
    time spent in leaf checks (``leaf_s``), in seam checks
    (``seam_s``) and in the whole sweep (``elapsed_s``).
    """
    cache = cache if cache is not None else default_cache
    checker = DrcChecker(process)
    deck = process.rules.digest()
    halo = _halo_cu(process)
    hash_memo: dict = {}
    placed = _PlacedShapes(hash_memo)
    result = HierDrcResult()
    hits0, misses0 = cache.hits, cache.misses
    t0 = time.perf_counter()

    # Unique cells by content hash; keep the first-seen name for blame.
    unique: Dict[str, Cell] = {}
    for name, sub in cell.subcells().items():
        unique.setdefault(cell_hash(sub, hash_memo, cache.shape_digests),
                          sub)

    leaf_checks = composite_checks = 0
    leaf_s = seam_s = 0.0
    budget = max_violations
    for content, sub in sorted(unique.items(),
                               key=lambda item: item[1].name):
        if budget <= 0:
            break
        is_leaf = not sub.instances()
        key = f"{deck}:{'leaf' if is_leaf else 'comp'}:{content}"
        verdict = cache.lookup(key)
        if verdict is None:
            started = time.perf_counter()
            if is_leaf:
                leaf_checks += 1
                verdict = tuple(checker.check(sub, budget))
                leaf_s += time.perf_counter() - started
            else:
                composite_checks += 1
                verdict = tuple(_composite_check(
                    sub, checker, halo, hash_memo, placed, budget))
                seam_s += time.perf_counter() - started
            # A verdict as long as its budget may have been cut short;
            # only a complete one may answer a later, larger budget.
            if len(verdict) < budget:
                cache.store(key, verdict)
        if verdict:
            bucket = (result.leaf_violations if is_leaf
                      else result.assembly_violations)
            bucket[sub.name] = list(verdict[:budget])
            budget -= len(bucket[sub.name])

    hits = cache.hits - hits0
    misses = cache.misses - misses0
    result.stats = {
        "halo_cu": halo,
        "unique_cells": len(unique),
        "leaf_checks": leaf_checks,
        "composite_checks": composite_checks,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": round(hits / (hits + misses), 4)
        if hits + misses else 0.0,
        "leaf_s": round(leaf_s, 6),
        "seam_s": round(seam_s, 6),
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }
    return result
