"""The stamped PLA generator draws exactly what drawing in place did.

:func:`repro.cells.pla.pla_cell` draws each device template once and
stamps it by translation; ``tests/pla_reference.py`` keeps the
shape-by-shape generator it replaced.  Both must give the same
``(layer, Rect)`` list in the same order, the same ports and the same
content hash, on every packaged deck: the CIF, the plane files and the
DRC cache keys all follow from those.
"""

import random

import pytest

from repro.bist.controller import build_test_program
from repro.bist.march import ALL_TESTS
from repro.bist.microcode import assemble
from repro.cells.pla import pla_cell
from repro.tech import get_process
from repro.verify.hierdrc import cell_hash

from tests import pla_reference as ref

DECKS = ("cda05", "cda07", "mos06", "mos08", "scn4m", "pfin7")


def _assert_same(process, and_plane, or_plane):
    got = pla_cell(process, and_plane, or_plane, name="trpla")
    want = ref.pla_cell(process, and_plane, or_plane, name="trpla")
    assert got.shapes() == want.shapes()
    assert list(got.ports()) == list(want.ports())
    assert got.bbox() == want.bbox()
    assert cell_hash(got) == cell_hash(want)


@pytest.mark.parametrize("deck", DECKS)
def test_every_march_personality_matches_reference(deck):
    process = get_process(deck)
    for march in ALL_TESTS:
        assembled = assemble(build_test_program(march, passes=2))
        _assert_same(process, assembled.and_plane, assembled.or_plane)


@pytest.mark.parametrize("seed", range(6))
def test_random_personalities_match_reference(seed):
    rng = random.Random(seed)
    process = get_process(DECKS[seed % len(DECKS)])
    terms = rng.randint(1, 24)
    literals = 2 * rng.randint(1, 8)
    outputs = rng.randint(1, 12)
    density = rng.choice((0.1, 0.5, 0.9))
    and_plane = [[int(rng.random() < density) for _ in range(literals)]
                 for _ in range(terms)]
    or_plane = [[int(rng.random() < density) for _ in range(outputs)]
                for _ in range(terms)]
    _assert_same(process, and_plane, or_plane)


@pytest.mark.parametrize("deck", DECKS)
def test_single_term_and_single_output_match_reference(deck):
    process = get_process(deck)
    _assert_same(process, [[1, 0]], [[1]])
    _assert_same(process, [[0, 0, 0, 0]], [[0, 0, 0]])
    _assert_same(process, [[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0]],
                 [[1], [0], [1]])
