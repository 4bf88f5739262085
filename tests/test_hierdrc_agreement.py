"""Hierarchical DRC reports what flat DRC reports.

The hierarchical sweep checks each unique cell once and each composite
only at its seams; flat :class:`~repro.layout.drc.DrcChecker` checks the
whole flattened macro.  On small macros, and on seeded single-shape
mutants of them, both must agree on whether the layout is clean and on
which ``(rule, layer)`` classes it violates.
"""

import random

import pytest

from repro.core.compiler import compile_ram
from repro.core.config import RamConfig
from repro.geometry import Rect
from repro.layout.drc import DrcChecker
from repro.tech import get_process
from repro.verify import DrcCache, hierarchical_drc

DECKS = ("cda07", "scn4m", "pfin7")
MUTATIONS = ("shift", "widen", "duplicate-adjacent")
#: Mutant seeds per deck, one per mutation class in order.
SEEDS = {"cda07": (9, 7, 2), "scn4m": (11, 3, 10), "pfin7": (8, 7, 4)}


def _macro(deck):
    config = RamConfig(words=32, bpw=4, bpc=2, process=deck)
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


def _agree(top, process, cache):
    hier = hierarchical_drc(top, process, cache=cache,
                            max_violations=10_000)
    flat = DrcChecker(process).check(top, max_violations=10_000)
    found = [v for bucket in (hier.leaf_violations,
                              hier.assembly_violations)
             for vs in bucket.values() for v in vs]
    assert hier.clean == (not flat)
    assert {(v.rule, v.layer) for v in found} == \
        {(v.rule, v.layer) for v in flat}
    return bool(flat)


@pytest.mark.parametrize("deck", DECKS)
def test_macro_and_mutants_agree(deck):
    process = get_process(deck)
    cache = DrcCache()
    assert not _agree(_macro(deck), process, cache)
    dirty = 0
    for mutation, seed in zip(MUTATIONS, SEEDS[deck]):
        top = _macro(deck)
        _mutate(top, random.Random(seed), mutation, process.lambda_cu)
        dirty += _agree(top, process, cache)
    assert dirty, "no mutant violated a rule: the comparison has no teeth"


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
    _agree(top, process, DrcCache())


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
    assert not _agree(top, process, DrcCache())
