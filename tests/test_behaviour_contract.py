"""Byte goldens of the behaviour contract and of the DRC cache keys.

A strict compile of the 1024x32/8 macro must write the same
``macro.cif``, TRPLA plane files and datasheet, byte for byte, a small
macro must write the same ``macro.cif`` on every packaged deck, and a
fixed cell must hash to the same content key, so verdicts cached under
earlier keys stay valid.  Changes that only make the compiler faster
leave every digest here alone.
"""

import hashlib

import pytest

from repro.bist.controller import build_test_program
from repro.bist.march import IFA_9
from repro.bist.microcode import assemble
from repro.cells.pla import pla_cell
from repro.core.config import RamConfig
from repro.geometry import Orientation, Point, Rect, Transform
from repro.layout.cell import Cell
from repro.service.bundle import build_bundle
from repro.tech import get_process
from repro.verify.hierdrc import _shape_digest, cell_hash

#: sha256 of the strict 1024x32/8 compile's artifacts.
STRICT_1024X32_GOLDENS = {
    "macro.cif":
        "5af18d35137d0e9ca2c596c007884cb1faf19c55c453b516157d398170fc989b",
    "trpla_and.plane":
        "9206733b985b2321ed37c4d2c0dd115d8e8a9564089fb5d070888a73bfaede56",
    "trpla_or.plane":
        "1958a89e822f9954f5ef29f3ab14e21fcce72b3a172ce919860e826d01d473d5",
    "datasheet.txt":
        "515ab6127e233ea5bdfbed395d24f2ed61d0e8df64e95b8f5d5880e915c4857e",
}


def test_strict_1024x32_compile_is_byte_identical():
    bundle = build_bundle(RamConfig(words=1024, bpw=32, bpc=8),
                          signoff="strict")
    digests = {name: hashlib.sha256(bundle[name]).hexdigest()
               for name in STRICT_1024X32_GOLDENS}
    assert digests == STRICT_1024X32_GOLDENS


#: sha256 of the strict 64x8/4 (strap every 8) ``macro.cif`` per deck.
SMALL_CIF_GOLDENS = {
    "cda05":
        "2f0f6208a55e5ec5d93a8d34fd939c7f8610b85ba69bbd7142f2bd0e84c74a7c",
    "cda07":
        "9b2f54d6fae49468828bc568a4e4a71d1e7a4cf56891644c583716f610441001",
    "mos06":
        "08defc019d4e82820736b5f888d360b5e1870ac2106ee23b900bc096548beff8",
    "mos08":
        "2927969b9fbf08c96668afc369420837569f798e7fa5b08edd8ced52e6a49a63",
    "scn4m":
        "a903571918501c40c094f591a2fd4cd1af08ee79da3f0105be59d07c21550f11",
    "pfin7":
        "055e5a50b7ece2104192b8f9523c3c8b396180e0528b12c30984f99c1785f6d2",
}


@pytest.mark.parametrize("deck", sorted(SMALL_CIF_GOLDENS))
def test_small_strict_compile_cif_is_byte_identical(deck):
    config = RamConfig(words=64, bpw=8, bpc=4, strap_every=8, process=deck)
    bundle = build_bundle(config, signoff="strict")
    assert hashlib.sha256(bundle["macro.cif"]).hexdigest() == \
        SMALL_CIF_GOLDENS[deck]


def _fixed_cells():
    leaf = Cell("fixed")
    leaf.add_shape("metal1", Rect(0, 0, 10, 3))
    leaf.add_shape("poly", Rect(-4, 2, 6, 9))
    leaf.add_shape("metal1", Rect(5, 5, 5, 9))  # zero-area: not hashed
    leaf.add_shape("poly", Rect(0, 7, 10, 7))    # zero-area: not hashed
    leaf.add_shape("contact", Rect(1, 1, 3, 3))
    top = Cell("top")
    top.add_instance(leaf, Transform(Orientation.MX, Point(20, 7)), "u0")
    top.add_shape("metal2", Rect(0, 0, 40, 4))
    return leaf, top


def test_shape_digest_golden():
    leaf, top = _fixed_cells()
    assert _shape_digest(leaf, None).hexdigest() == (
        "9b8de53a9c8f4a1827985acaa584647957b9c797154d8a935c743993843cfe71")
    assert cell_hash(leaf) == "9b8de53a9c8f4a1827985aca"
    assert cell_hash(top) == "4329e617e2a772c07b8f4bb1"


def test_trpla_cell_hash_golden():
    assembled = assemble(build_test_program(IFA_9, passes=2))
    trpla = pla_cell(get_process("cda07"), assembled.and_plane,
                     assembled.or_plane, name="trpla")
    assert len(trpla.shapes()) == 15134
    assert cell_hash(trpla) == "072403004d5b5fad84d87f78"
