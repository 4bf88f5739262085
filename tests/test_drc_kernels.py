"""The sweep-based DRC kernels agree exactly with the pairwise reference.

:mod:`tests.drc_reference` keeps the original all-pairs rule checks.
On random rectangle soups over every builtin deck — with zero-area
markers, shapes from several sources, and the deck's ``touch.corner``
rule both on and off — the fast leaf and seam kernels must return the
same violations, with the same ``measured`` and ``where`` values, in
the same order.  Zone collection must place the same shapes in the
same order as the per-shape original.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import ALL_ORIENTATIONS, Point, Rect, Transform
from repro.layout.cell import Cell
from repro.layout.drc import DrcChecker
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
    """A three-level cell tree placed in all eight orientations."""
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
