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
  plus the pairs that meet in a band.  Zone shapes carry their source,
  and same-instance pairs are dropped;
* gate endcaps — the same sweep at zero reach over polys and
  diffusions (``_crossings``);
* enclosure — a grid point-location index over each metal layer;
* zone collection — :class:`_PlacedShapes` caches each cell's shapes
  per orientation for one call and translates only the shapes a zone
  selects.

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
from repro.layout.cell import Cell
from repro.layout.drc import (
    DrcChecker,
    DrcViolation,
    _closest_pairs,
    _connected_groups,
    _crossings,
    _endcap_violation,
)
from repro.tech.process import Process


def _shape_digest(cell: Cell,
                  known: Optional[MutableMapping]) -> "hashlib._Hash":
    """A fresh sha256 primed with ``cell``'s own drawn shapes.

    ``known`` remembers the primed state per cell with the shape count
    it covers; shapes are only ever appended, so an unchanged count
    means unchanged shapes and a warm sweep skips re-hashing them.
    """
    count = len(cell.shapes())
    found = known.get(cell) if known is not None else None
    if found is None or found[0] != count:
        digest = hashlib.sha256()
        # Plain-tuple keys sort like the (layer, Rect) pairs, only faster.
        for layer, x1, y1, x2, y2 in sorted(
                (layer, r.x1, r.y1, r.x2, r.y2)
                for layer, r in cell.shapes()):
            if x1 == x2 or y1 == y2:
                continue
            digest.update(f"s:{layer}:{x1}:{y1}:{x2}:{y2};".encode())
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


class _PlacedShapes:
    """Per-call cache of each cell's geometry under each orientation.

    A view holds the cell's bounding box, its drawn shapes and its
    instances' placements with the orientation already applied at the
    origin.  Placing a view is then a translation, done only for the
    shapes a region selects, so a shape is transformed once per
    orientation rather than once per placement.  Views are keyed by
    cell identity, not content hash: the hash ignores drawing order,
    and the order of a zone's shapes sets the spacing kernel's
    tie-breaks.  The cache lives as long as one
    :func:`hierarchical_drc` call.
    """

    def __init__(self) -> None:
        self._views: Dict[tuple, tuple] = {}

    def _view(self, cell: Cell, orientation: Orientation) -> tuple:
        key = (id(cell), orientation)
        view = self._views.get(key)
        if view is None:
            turn = Transform(orientation)
            box = cell.bbox()
            if box is not None:
                box = box.transformed(turn)
                box = (box.x1, box.y1, box.x2, box.y2)
            shapes = []
            for layer, rect in cell.shapes():
                if rect.area:
                    r = rect.transformed(turn)
                    shapes.append((layer, r.x1, r.y1, r.x2, r.y2))
            children = []
            for inst in cell.instances():
                eff = turn.compose(inst.transform)
                children.append((inst.cell, eff.orientation,
                                 eff.translation.x, eff.translation.y))
            view = self._views[key] = (box, shapes, children)
        return view

    def collect(self, cell: Cell, transform: Transform, region: Rect,
                out: List[Tuple[str, Rect]],
                layers: Optional[Collection[str]] = None) -> None:
        """Append ``cell``'s placed shapes intersecting ``region`` to ``out``.

        The descent is pruned on bounding boxes, so the cost scales with
        the shapes near the region, not with the cell's total area.
        ``layers`` restricts the collection to those layers.
        """
        t = transform.translation
        self._collect(cell, transform.orientation, t.x, t.y,
                      (region.x1, region.y1, region.x2, region.y2),
                      out, layers)

    def _collect(self, cell, orientation, tx, ty, region, out, layers):
        box, shapes, children = self._view(cell, orientation)
        if box is None:
            return
        # Compare in the view's own frame: shift the region, not shapes.
        rx1, ry1 = region[0] - tx, region[1] - ty
        rx2, ry2 = region[2] - tx, region[3] - ty
        if not (box[0] <= rx2 and rx1 <= box[2]
                and box[1] <= ry2 and ry1 <= box[3]):
            return
        for layer, x1, y1, x2, y2 in shapes:
            if x1 <= rx2 and rx1 <= x2 and y1 <= ry2 and ry1 <= y2 \
                    and (layers is None or layer in layers):
                out.append((layer, Rect(x1 + tx, y1 + ty,
                                        x2 + tx, y2 + ty)))
        for child, orient, dx, dy in children:
            self._collect(child, orient, tx + dx, ty + dy, region, out,
                          layers)


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
    one row seam, not 255.
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

    def zone_items(region: Rect, layers: Optional[Collection[str]] = None,
                   ) -> Dict[str, List[Tuple[Rect, int]]]:
        by_layer: Dict[str, List[Tuple[Rect, int]]] = {}
        for layer, rect in own:
            if rect.intersects(region) and (layers is None
                                            or layer in layers):
                by_layer.setdefault(layer, []).append((rect, 0))
        for k, inst in enumerate(insts):
            if boxes[k] is None or not boxes[k].intersects(region):
                continue
            collected: List[Tuple[str, Rect]] = []
            placed.collect(inst.cell, inst.transform, region, collected,
                           layers)
            for layer, rect in collected:
                by_layer.setdefault(layer, []).append((rect, k + 1))
        return by_layer

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
                rects = [r for r, _ in zone_items(
                    grown, (layer,)).get(layer, ())]
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
        found: List[DrcViolation] = []
        by_layer = zone_items(region)
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

    # Instance-pair zones, deduped by relative placement: sweep over
    # halo-expanded bboxes to find interacting pairs.
    expanded = [b.expanded(halo) if b is not None else None for b in boxes]
    seen: set = set()
    order = sorted(
        (k for k in range(len(insts)) if boxes[k] is not None),
        key=lambda k: expanded[k].x1)
    active: List[int] = []
    for k in order:
        e = expanded[k]
        active = [a for a in active if expanded[a].x2 >= e.x1]
        for a in active:
            if not expanded[a].intersects(boxes[k]):
                continue
            ta, tk = insts[a].transform, insts[k].transform
            key_a = (cell_hash(insts[a].cell, hash_memo),
                     ta.orientation.value)
            key_k = (cell_hash(insts[k].cell, hash_memo),
                     tk.orientation.value)
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
        active.append(k)

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
            for layer, items in zone_items(cut.expanded(halo)).items():
                enclosure_view.setdefault(layer, []).extend(
                    r for r, _ in items)
        for cut_layer in DrcChecker._CUT_ENCLOSURES:
            if cut_layer in enclosure_view:
                enclosure_view[cut_layer] = own_by_layer.get(cut_layer, [])
        violations.extend(checker._check_enclosures(enclosure_view))

    return _dedup(violations)[:max_violations]


def _dedup(violations: Sequence[DrcViolation]) -> List[DrcViolation]:
    """Drop duplicates produced by overlapping zones, keeping order."""
    seen: set = set()
    out: List[DrcViolation] = []
    for v in violations:
        key = (v.rule, v.layer, v.measured, v.required,
               v.where.x1, v.where.y1, v.where.x2, v.where.y2)
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
    placed = _PlacedShapes()
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
