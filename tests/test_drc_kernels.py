"""The sweep-based DRC kernels agree exactly with the pairwise reference.

:mod:`tests.drc_reference` keeps the original all-pairs rule checks.
On random rectangle soups over every packaged deck — with zero-area
markers, shapes from several sources, and the deck's ``touch.corner``
rule both on and off — the fast leaf and seam kernels must return the
same violations, with the same ``measured`` and ``where`` values, in
the same order.  Zone collection must place the same shapes in the
same order as the per-shape original.
"""

from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.geometry import ALL_ORIENTATIONS, Point, Rect, Transform
from repro.layout.cell import Cell
from repro.layout.drc import DrcChecker, _near_pairs
from repro.tech import get_process
from repro.tech.rules import DesignRules
from repro.verify.hierdrc import _cross_gates, _cross_spacing, _PlacedShapes

from tests import drc_reference as ref

DECKS = ("cda05", "cda07", "mos06", "mos08", "scn4m", "pfin7")
LAYERS = ("metal1", "metal2", "poly", "ndiff", "pdiff", "contact", "via1",
          "via2")
SOUP = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _checker(deck: str, corner_touch: bool) -> DrcChecker:
    process = get_process(deck)
    if not corner_touch:
        rules = dict(process.rules.rules, **{"touch.corner": 0})
        process = replace(process, rules=DesignRules.absolute(
            process.rules.lambda_cu, rules))
    return DrcChecker(process)


@st.composite
def soups(draw):
    """A deck, a corner-touch setting, and sourced shapes on its grid.

    Coordinates are multiples of a unit near a third of the deck's
    metal1 spacing, so gaps land on both sides of every rule, and
    sizes start at zero so zero-area markers occur.
    """
    deck = draw(st.sampled_from(DECKS))
    corner_touch = draw(st.booleans())
    checker = _checker(deck, corner_touch)
    unit = max(1, checker.process.rules.rules["space.metal1"] // 3)
    coord = st.integers(0, 24)
    size = st.integers(0, 9)
    shapes = draw(st.lists(
        st.tuples(st.sampled_from(LAYERS), coord, coord, size, size,
                  st.integers(0, 3)),
        max_size=60))
    items = [(layer, Rect(x * unit, y * unit, (x + w) * unit,
                          (y + h) * unit), src)
             for layer, x, y, w, h, src in shapes]
    return checker, items


def _by_layer(items):
    out = {}
    for layer, rect, _ in items:
        out.setdefault(layer, []).append(rect)
    return out


def _assert_leaf_kernels_match(checker, items):
    by_layer = _by_layer(items)
    for layer, rects in sorted(by_layer.items()):
        assert checker._check_spacing(layer, rects) == \
            ref.check_spacing(checker, layer, rects)
    assert checker._check_enclosures(by_layer) == \
        ref.check_enclosures(checker, by_layer)
    assert checker._check_gates(by_layer) == \
        ref.check_gates(checker, by_layer)


def _assert_seam_kernels_match(checker, items):
    sourced = {}
    for layer, rect, src in items:
        sourced.setdefault(layer, []).append((rect, src))
    for layer, layer_items in sorted(sourced.items()):
        assert _cross_spacing(checker, layer, layer_items) == \
            ref.cross_spacing(checker, layer, layer_items)
    for diff_layer in ("ndiff", "pdiff"):
        polys = sourced.get("poly", [])
        diffs = sourced.get(diff_layer, [])
        assert _cross_gates(checker, polys, diffs) == \
            ref.cross_gates(checker, polys, diffs)


@SOUP
@given(soups())
def test_leaf_kernels_match_reference(soup):
    _assert_leaf_kernels_match(*soup)


@SOUP
@given(soups())
def test_seam_kernels_match_reference(soup):
    _assert_seam_kernels_match(*soup)


def test_dense_soups_match_reference():
    """Seeded soups dense enough that many violations must be ordered.

    Fewer layers and more shapes than the hypothesis soups, with
    off-grid jitter and long wires, so that every rule class fires and
    many group pairs compete for position in the output.
    """
    import random

    rng = random.Random(7)
    rules = set()
    for _ in range(120):
        checker = _checker(rng.choice(DECKS), rng.random() < 0.5)
        unit = max(1, checker.process.rules.rules["space.metal1"] // 3)
        layers = rng.sample(LAYERS, 4) + ["poly", "ndiff"]
        items = []
        for _ in range(rng.randint(20, 80)):
            x, y = rng.randint(0, 30), rng.randint(0, 30)
            w, h = rng.choice((rng.randint(0, 6), rng.randint(0, 30))), \
                rng.randint(0, 6)
            if rng.random() < 0.5:
                w, h = h, w
            jitter = rng.randint(0, 3)
            items.append((rng.choice(layers),
                          Rect(x * unit + jitter, y * unit,
                               (x + w) * unit + jitter, (y + h) * unit),
                          rng.randint(0, 3)))
        _assert_leaf_kernels_match(checker, items)
        _assert_seam_kernels_match(checker, items)
        rules.update(v.rule for v in checker.check_layers(_by_layer(items)))
    assert {"min-space", "gate-endcap", "enclosure-metal1",
            "enclosure-metal2"} <= rules


@st.composite
def hierarchies(draw):
    """A three-level cell tree placed in all eight orientations.

    Each level also places an instance array — a period of one to
    three placements repeated at a step of either sign — so zone
    collection's index arithmetic meets every orientation of a step.
    """
    leaf = Cell("leaf")
    for layer, x, y, w, h in draw(st.lists(
            st.tuples(st.sampled_from(LAYERS[:3]), st.integers(-20, 20),
                      st.integers(-20, 20), st.integers(0, 12),
                      st.integers(0, 12)), min_size=1, max_size=12)):
        leaf.add_shape(layer, Rect(x, y, x + w, y + h))
    cells = [leaf]
    for level in range(2):
        parent = Cell(f"level{level}")
        child = cells[-1]
        for orient, x, y in draw(st.lists(
                st.tuples(st.sampled_from(ALL_ORIENTATIONS),
                          st.integers(-60, 60), st.integers(-60, 60)),
                min_size=1, max_size=4)):
            parent.add_instance(child, Transform(orient, Point(x, y)))
        period = draw(st.lists(
            st.tuples(st.sampled_from(ALL_ORIENTATIONS),
                      st.integers(-30, 30), st.integers(-30, 30)),
            min_size=1, max_size=3))
        parent.add_array(
            [(child, Transform(orient, Point(x, y)), "a_{}", 0)
             for orient, x, y in period],
            count=draw(st.integers(1, 7)),
            step=Point(draw(st.integers(-40, 40)),
                       draw(st.integers(-40, 40))))
        parent.add_shape("metal1", Rect(0, 0, 5, 5))
        cells.append(parent)
    x, y = draw(st.integers(-120, 120)), draw(st.integers(-120, 120))
    region = Rect(x, y, x + draw(st.integers(0, 80)),
                  y + draw(st.integers(0, 80)))
    orient = draw(st.sampled_from(ALL_ORIENTATIONS))
    return cells[-1], Transform(orient, Point(7, -3)), region


@SOUP
@given(hierarchies())
def test_zone_collection_matches_reference(case):
    top, transform, region = case
    fast, slow = [], []
    _PlacedShapes().collect(top, transform, region, fast)
    ref.shapes_in_region(top, transform, region, slow)
    assert fast == slow


def _all_pairs(boxes, reach):
    """The brute-force sweep: every pair, each in sweep orientation.

    ``(a, b)`` has ``a`` before ``b`` in the stable ``x1`` order the
    sweep visits boxes in; ``dx``/``dy`` are the signed gaps.
    """
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0])
    found = []
    for p, a in enumerate(order):
        for b in order[p + 1:]:
            ax1, ay1, ax2, ay2 = boxes[a]
            bx1, by1, bx2, by2 = boxes[b]
            dx = bx1 - min(ax2, bx2)
            dy = max(ay1, by1) - min(ay2, by2)
            if dx < reach and dy < reach:
                found.append((a, b, dx, dy))
    return sorted(found)


@st.composite
def box_soups(draw):
    """Rects with negative corners, zero widths and heights, and sizes
    up to several grid bands, at reach 0, 1 or a rule distance."""
    coord = st.integers(-60, 60)
    size = st.one_of(st.integers(0, 3), st.integers(0, 90))
    boxes = [Rect(x, y, x + w, y + h) for x, y, w, h in draw(st.lists(
        st.tuples(coord, coord, size, size), max_size=40))]
    return boxes, draw(st.sampled_from((0, 1, 3, 7, 25)))


@SOUP
@given(box_soups())
@example(([Rect(0, 0, 1, 10), Rect(0, 0, 20, 10), Rect(5, 0, 6, 10),
           Rect(5, 11, 6, 12)], 1)).via("a box expires from a live band")
@example(([Rect(0, -40, 0, 40), Rect(0, -40, 3, -40), Rect(-5, 0, 9, 0),
           Rect(-5, -5, -5, 5)], 0)).via("zero-width and zero-height boxes")
def test_near_pairs_equals_all_pairs(soup):
    boxes, reach = soup
    got = _near_pairs(boxes, reach)
    assert sorted(got) == _all_pairs(boxes, reach)
    assert len(set(got)) == len(got)
    assert _near_pairs([tuple(b) for b in boxes], reach) == got


def test_near_pairs_prunes_expired_boxes_in_place():
    """A band keeps its live boxes, in order, when one expires."""
    # The tall box at x 0..1 expires before x 5; the wide one stays
    # active in the same band and still meets the later boxes.
    boxes = [Rect(0, 0, 1, 50), Rect(0, 0, 40, 50), Rect(5, 0, 6, 50),
             Rect(8, 0, 9, 50), Rect(30, 0, 31, 50)]
    assert _near_pairs(boxes, 1) == [(0, 1, -1, -50), (1, 2, -1, -50),
                                     (1, 3, -1, -50), (1, 4, -1, -50)]
    assert sorted(_near_pairs(boxes, 3)) == _all_pairs(boxes, 3)
