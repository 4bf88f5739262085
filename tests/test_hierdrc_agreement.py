"""Hierarchical DRC reports what flat DRC reports.

The hierarchical sweep checks each unique cell once and each composite
only at its seams; flat :class:`~repro.layout.drc.DrcChecker` checks the
whole flattened macro.  On small macros, and on seeded single-shape
mutants of them, both must agree on whether the layout is clean and on
which ``(rule, layer)`` classes it violates.

The floorplan places its repeated structures as instance arrays, which
lets the sweep fold long seam zones into their distinct windows.  Every
case here is therefore swept twice — as built, and with its arrays
expanded into plain instances (the form a CIF read-back has, which
cannot fold) — and the two must report the same violations.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compiler import compile_ram
from repro.core.config import RamConfig
from repro.geometry import Point, Rect, Transform
from repro.layout.cell import Cell
from repro.layout.drc import DrcChecker
from repro.tech import get_process
from repro.verify import DrcCache, hierarchical_drc, hierdrc

from tests.layout_reference import expand_arrays

DECKS = ("cda07", "scn4m", "pfin7")
MUTATIONS = ("shift", "widen", "duplicate-adjacent")
#: Mutant seeds per deck, one per mutation class in order.
SEEDS = {"cda07": (9, 7, 2), "scn4m": (11, 3, 10), "pfin7": (8, 7, 4)}


def _macro(deck, **shape):
    config = RamConfig(**dict(dict(words=32, bpw=4, bpc=2), **shape),
                       process=deck)
    return compile_ram(config, signoff=None).floorplan.top


def _mutate(top, rng, mutation, lam):
    """Apply one seeded single-shape mutation somewhere in ``top``.

    A drawn shape of a random cell is shifted or widened by one or two
    lambda, or a copy is placed beside it closer than it is wide.  Cell
    bounding boxes are cached, so every cell's cache is invalidated.
    """
    cells = sorted((c for c in top.subcells().values()
                    if any(r.area for _, r in c.shapes())),
                   key=lambda c: c.name)
    cell = rng.choice(cells)
    shapes = cell._shapes
    i = rng.choice([k for k, (_, r) in enumerate(shapes) if r.area])
    layer, r = shapes[i]
    d = rng.choice((1, 2)) * lam
    if mutation == "shift":
        dx, dy = rng.choice(((d, 0), (-d, 0), (0, d), (0, -d)))
        shapes[i] = (layer, Rect(r.x1 + dx, r.y1 + dy,
                                 r.x2 + dx, r.y2 + dy))
    elif mutation == "widen":
        side = rng.randrange(4)
        shapes[i] = (layer, Rect(r.x1 - d * (side == 0),
                                 r.y1 - d * (side == 1),
                                 r.x2 + d * (side == 2),
                                 r.y2 + d * (side == 3)))
    else:
        step = r.width + d
        shapes.append((layer, Rect(r.x1 + step, r.y1, r.x2 + step, r.y2)))
    for c in top.subcells().values():
        c._bbox_dirty = True


def _found(result):
    """Every reported violation with the cell it is blamed on."""
    return Counter((name, v) for bucket in (result.leaf_violations,
                                            result.assembly_violations)
                   for name, vs in bucket.items() for v in vs)


def _agree(top, process, caches=None):
    """Folded, expanded and flat DRC agree on ``top`` (expanded after).

    ``caches`` is a (folded, expanded) pair of verdict caches; they
    must differ, or the expanded sweep would replay folded verdicts.
    """
    folded_cache, expanded_cache = caches or (DrcCache(), DrcCache())
    hier = hierarchical_drc(top, process, cache=folded_cache,
                            max_violations=10_000)
    flat = DrcChecker(process).check(top, max_violations=10_000)
    expanded = hierarchical_drc(expand_arrays(top), process,
                                cache=expanded_cache, max_violations=10_000)
    assert _found(hier) == _found(expanded)
    found = [v for _, v in _found(hier).elements()]
    assert hier.clean == (not flat)
    assert {(v.rule, v.layer) for v in found} == \
        {(v.rule, v.layer) for v in flat}
    return bool(flat)


@pytest.fixture
def folds(monkeypatch):
    """Count the seam zones the sweep proves clean by folding."""
    seen = Counter()
    real = hierdrc._folds_clean

    def counted(cell, *args):
        clean = real(cell, *args)
        seen[cell.name] += clean
        return clean

    monkeypatch.setattr(hierdrc, "_folds_clean", counted)
    return seen


@pytest.mark.parametrize("deck", DECKS)
def test_macro_and_mutants_agree(deck, folds):
    process = get_process(deck)
    caches = (DrcCache(), DrcCache())
    assert not _agree(_macro(deck), process, caches)
    assert folds["array"] and folds["bisr_ram"]
    dirty = 0
    for mutation, seed in zip(MUTATIONS, SEEDS[deck]):
        top = _macro(deck)
        _mutate(top, random.Random(seed), mutation, process.lambda_cu)
        dirty += _agree(top, process, caches)
    assert dirty, "no mutant violated a rule: the comparison has no teeth"


@pytest.mark.parametrize("shape", [
    dict(words=64, bpw=8, bpc=4, strap_every=8),
    dict(words=64, bpw=8, bpc=4, strap_every=8, spare_cols=2),
    dict(words=64, bpw=8, bpc=4, strap_every=8, ports=2),
], ids=("strap-runs", "spare-cols", "dual-port"))
def test_arrayed_macros_fold_and_agree(shape, folds):
    process = get_process("cda07")
    assert not _agree(_macro("cda07", **shape), process)
    assert folds["array"] >= 2 and folds["bisr_ram"] >= 4


def _interior_bit(top, row, column):
    """The placement of one bit cell of ``array``, in ``array`` coordinates."""
    array = top.subcells()["array"]
    strip = array.instances()[row]
    bit = strip.cell.instances()[column]
    return strip.transform.compose(bit.transform), array


@pytest.mark.parametrize("parent", ("array", "bisr_ram"))
def test_parent_shape_breaking_a_period_agrees(parent):
    """A parent shape beside one interior bit cell is reported there.

    The shape lies in a long seam zone — the array's first row-pair
    seam, or the top level's array/precharge seam — so the window that
    holds it has a signature of its own.
    """
    process = get_process("cda07")
    lam = process.lambda_cu
    shape = dict(words=64, bpw=8, bpc=4, strap_every=8)
    top = _macro("cda07", **shape)
    rows = len(top.subcells()["array"].instances())
    place, array = _interior_bit(top, 0 if parent == "array" else rows - 1,
                                 13)
    if parent == "bisr_ram":
        where = next(i for i in top.instances() if i.name == "array")
        place = where.transform.compose(place)
    # metal1 1 lambda above the bit's node strap (y 630..770), joined
    # to the other storage node's strap above it: a min-space between
    # the two nodes of that one bit cell.
    strap = Rect(1000, 630, 1300, 770).transformed(place)
    target = top if parent == "bisr_ram" else array
    target.add_shape("metal1", Rect(strap.x1, strap.y2 + lam,
                                    strap.x2, strap.y2 + 4 * lam)
                     if place.orientation.value == "R0" else
                     Rect(strap.x1, strap.y1 - 4 * lam,
                          strap.x2, strap.y1 - lam))
    for c in top.subcells().values():
        c._bbox_dirty = True
    assert _agree(top, process)


def test_seam_violation_repeated_along_a_row_is_reported_per_copy():
    """A leaf widen that violates across every row-pair seam.

    The bit cell's n-well grows 6 lambda toward the mirrored row above,
    ending 2 lambda from that row's well: one min-space per bit column
    in the seam zone the sweep checks, and every copy is reported.
    """
    process = get_process("cda07")
    lam = process.lambda_cu
    shape = dict(words=64, bpw=8, bpc=4, strap_every=8)
    top = _macro("cda07", **shape)
    bit = top.subcells()["sram6t"]
    k = next(i for i, (layer, _) in enumerate(bit._shapes)
             if layer == "nwell")
    r = bit._shapes[k][1]
    bit._shapes[k] = ("nwell", Rect(r.x1, r.y1, r.x2, r.y2 + 6 * lam))
    for c in top.subcells().values():
        c._bbox_dirty = True
    caches = (DrcCache(), DrcCache())
    result = hierarchical_drc(top, process, cache=caches[0],
                              max_violations=10_000)
    seams = [v for v in result.assembly_violations["array"]
             if v.rule == "min-space" and v.layer == "nwell"]
    columns = RamConfig(**shape).columns
    assert len(seams) >= columns
    assert _agree(top, process)


def test_truncated_verdicts_are_not_cached():
    """A verdict cut at ``max_violations`` does not answer a larger run."""
    process = get_process("cda07")
    top = _macro("cda07")
    _mutate(top, random.Random(20), "widen", process.lambda_cu)
    full = hierarchical_drc(top, process, cache=DrcCache(),
                            max_violations=10_000)
    assert sum(_found(full).values()) >= 2
    cache = DrcCache()
    cut = hierarchical_drc(top, process, cache=cache, max_violations=1)
    assert sum(_found(cut).values()) == 1
    again = hierarchical_drc(top, process, cache=cache,
                             max_violations=10_000)
    assert _found(again) == _found(full)


@pytest.mark.xfail(strict=True, reason=(
    "leaf verdicts are context-free: two bit-cell rails joined only "
    "through the neighbouring cell's rail are flagged in the leaf"))
def test_leaf_shapes_joined_by_neighbours_are_one_group():
    """A known disagreement: hierarchical DRC over-reports here.

    The mutant copies the bit cell's top metal1 rail 35 cu to its right,
    past the cell pitch, where it overlaps the next cell's rail.  Flat,
    the rails and the copy are one polygon; the leaf check sees two
    groups 35 cu apart.
    """
    process = get_process("cda07")
    top = _macro("cda07")
    _mutate(top, random.Random(197), "duplicate-adjacent",
            process.lambda_cu)
    _agree(top, process)


def test_polygon_bridged_outside_a_seam_zone_is_one_group():
    """Two polys joined by a pad beyond the seam zone are not spaced.

    The parent poly sits 1 cu from a flattened poly; a pad that
    overlaps one and abuts the other joins them into one polygon, but
    the bridge lies outside the instance-pair zone that sees both.
    """
    process = get_process("pfin7")
    top = _macro("pfin7")
    top.add_shape("poly", Rect(430, 2339, 432, 2371))
    flat = [(layer, r) for layer, r in top.flatten()
            if r.intersects(Rect(426, 2339, 432, 2371))]
    assert ("poly", Rect(427, 2339, 429, 2371)) in flat
    assert ("poly", Rect(426, 2353, 430, 2357)) in flat
    assert not _agree(top, process)


@st.composite
def tiled_macros(draw):
    """A random leaf tiled in rows of one array, rows stacked in another.

    Leaf shapes may cross the cell edge and the pitches may leave gaps
    or overlaps, so the seams hold every kind of interaction; a few
    parent shapes may sit in the strip or the top cell.
    """
    deck = draw(st.sampled_from(DECKS))
    lam = get_process(deck).lambda_cu
    width, height = draw(st.integers(8, 12)), draw(st.integers(8, 12))
    leaf = Cell("leaf")
    for layer, x, y, w, h in draw(st.lists(st.tuples(
            st.sampled_from(("metal1", "poly", "ndiff", "metal2")),
            st.integers(-1, width), st.integers(-1, height),
            st.integers(2, 6), st.integers(2, 6)), min_size=1, max_size=6)):
        leaf.add_shape(layer, Rect(x * lam, y * lam,
                                   (x + w) * lam, (y + h) * lam))
    strip = Cell("strip")
    pitch = (width + draw(st.integers(-1, 2))) * lam
    strip.add_array([(leaf, Transform(), "b_{}", 0)],
                    count=draw(st.integers(9, 14)), step=Point(pitch, 0))
    top = Cell("top")
    top.tile(strip, columns=1, rows=draw(st.integers(2, 3)),
             pitch_x=strip.width,
             pitch_y=(height + draw(st.integers(-1, 2))) * lam,
             alternate_mirror_y=draw(st.booleans()), name_prefix="row")
    for cell in draw(st.lists(st.sampled_from((strip, top)), max_size=2)):
        x, y = draw(st.integers(0, 120)), draw(st.integers(-2, 30))
        cell.add_shape("metal1", Rect(x * lam, y * lam,
                                      (x + 3) * lam, (y + 3) * lam))
    return top, get_process(deck)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tiled_macros())
def test_random_tilings_fold_like_their_expansion(case):
    """Folding never hides, adds or moves a violation."""
    top, process = case
    folded = hierarchical_drc(top, process, cache=DrcCache(),
                              max_violations=10_000)
    expanded = hierarchical_drc(expand_arrays(top), process,
                                cache=DrcCache(), max_violations=10_000)
    assert _found(folded) == _found(expanded)
