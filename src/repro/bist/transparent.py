"""Transparent BIST (the Kebichi-Nicolaidis transformation, paper §III).

"A RAM generator was described by Kebichi and Nicolaidis for RAMs
equipped with BIST and *transparent* BIST, i.e., BIST techniques that
result in the normal-mode contents of the RAM to remain unmodified at
the end of the self-test."  Their approach does not include self-repair
— which is the paper's point of comparison — but transparent testing is
valuable for periodic in-field testing, so this module implements the
standard transformation:

* every ``w0`` becomes "write the *complement* of the initial content",
  every ``w1`` "write the initial content back", and reads compare
  against the correspondingly transformed expected data;
* the transformed test must end with every address holding its initial
  content, which requires the op sequence to apply an even number of
  inversions per address — :func:`transparent_march` verifies this and
  appends a restoring element when needed;
* expected read values are content-dependent, so the comparator works
  against a signature captured in a pre-phase read sweep (modelled here
  by remembering the initial words).

:class:`TransparentBist` runs the transformed test against any
:class:`~repro.bist.controller.TestTarget` as one
:meth:`~repro.bist.controller.BistScheduler.run_pass` over an XOR view
of the target (reads and writes relative to the initial image), so
the march walk is the self-test's own; its guarantee — contents
preserved, faults still detected — is property-tested in the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bist.controller import BistScheduler, TestTarget
from repro.bist.march import MarchElement, MarchTest, Op, Order


def _inversions_per_address(test: MarchTest) -> int:
    """Net inversions each address suffers across the whole test.

    In the transparent transformation a write op stores the initial
    image or its complement, selected by the data bit; what matters
    for transparency is the *final* data bit written.
    """
    last_write_bit = None
    for element in test.elements:
        for op in element.ops:
            if not op.is_read:
                last_write_bit = op.data_bit
    return 0 if last_write_bit in (None, 0) else 1


def transparent_march(test: MarchTest) -> MarchTest:
    """Make a march test transparent-ready.

    Returns the test itself when it already ends with every address
    holding the initial image (final write bit 0 == "the original
    data"), otherwise appends a restoring ``m(w0)`` element.
    """
    if _inversions_per_address(test) == 0:
        return test
    restore = MarchElement(Order.EITHER, (Op.W0,))
    return MarchTest(
        name=f"{test.name} (transparent)",
        elements=test.elements + (restore,),
    )


@dataclass
class TransparentResult:
    """Outcome of a transparent self-test."""

    op_count: int
    fail_count: int
    contents_preserved: bool

    @property
    def passed(self) -> bool:
        return self.fail_count == 0


class _XorView:
    """The target seen through its initial image.

    Reads return ``stored ^ initial`` and writes store ``word ^
    initial``, so a plain march pass over the view is the transparent
    test: the data generator's pattern is exactly the transparent
    expected word.  The view offers no ``quiet_sweep`` (the image is
    not uniform), so the pass runs word by word.
    """

    def __init__(self, target: TestTarget, initial: List[int]) -> None:
        self.target = target
        self.initial = initial
        self.word_count = target.word_count

    def read(self, address: int) -> int:
        return self.target.read(address) ^ self.initial[address]

    def write(self, address: int, word: int) -> None:
        self.target.write(address, word ^ self.initial[address])

    def retention_wait(self) -> None:
        self.target.retention_wait()


class TransparentBist:
    """Run a march test transparently: contents restored afterwards.

    The data generator's background patterns are XOR-masks over the
    initial contents instead of absolute values: op data bit 0 writes
    ``initial ^ background``... with background 0 that is the initial
    word itself, so the classic all-0 background degenerates to pure
    transparency and the stripe backgrounds still exercise intra-word
    couplings relative to the stored image.
    """

    def __init__(self, march: MarchTest, bpw: int) -> None:
        self.march = transparent_march(march)
        self.scheduler = BistScheduler(self.march, bpw)
        self.mask = (1 << bpw) - 1

    def run(self, target: TestTarget) -> TransparentResult:
        # The signature pre-read sweep, then the march over the XOR view.
        initial = [target.read(a) for a in range(target.word_count)]
        walk = self.scheduler.run_pass(_XorView(target, initial))
        op_count = len(initial) + walk.op_count
        # Final restore sweep: the march leaves every word holding
        # ``initial ^ last_background``; one write pass folds the mask
        # back out (in hardware this is the inverse-mask write phase of
        # the transparent controller, not a stored-copy restore).
        if self.scheduler.datagen.pattern(0) != 0:
            for address in range(target.word_count):
                op_count += 1
                target.write(address, initial[address])
        preserved = all(
            target.read(a) == initial[a]
            for a in range(target.word_count)
        )
        return TransparentResult(
            op_count=op_count,
            fail_count=walk.fail_count,
            contents_preserved=preserved,
        )
