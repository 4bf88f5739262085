"""Word-by-word reference walks for the passes that now run on
:meth:`~repro.bist.controller.BistScheduler.run_pass`.

Both are the element walks the library used before diagnosis and
transparent BIST moved onto the scheduler's fault-sparse pass, kept
verbatim as test oracles: every word and every op goes through the
target's ``read``/``write``.
"""

from typing import Dict, List

from repro.bist.datagen import DataGen
from repro.bist.march import Order
from repro.bist.transparent import TransparentResult, transparent_march
from repro.memsim.diagnosis import FailRecord


def collect_fail_records_dense(march, device, bpw: int) -> List[FailRecord]:
    """One diagnostic pass of ``march``, word by word, logging every
    comparator hit with observed/expected data."""
    datagen = DataGen(bpw)
    records: List[FailRecord] = []
    datagen.reset()
    while True:
        for element in march.elements:
            if element.is_delay:
                device.retention_wait()
                continue
            addresses = (
                range(device.word_count - 1, -1, -1)
                if element.order is Order.DOWN
                else range(device.word_count)
            )
            for address in addresses:
                for op in element.ops:
                    if op.is_read:
                        word = device.read(address)
                        expected = datagen.pattern(op.data_bit)
                        if word != expected:
                            records.append(
                                FailRecord(address, word, expected)
                            )
                    else:
                        device.write(
                            address, datagen.pattern(op.data_bit)
                        )
        if datagen.done:
            break
        datagen.step()
    return records


def transparent_run_dense(march, bpw: int, target) -> TransparentResult:
    """The transparent test of ``march`` on ``target``, word by word:
    expected words are formed from the initial image directly."""
    march = transparent_march(march)
    datagen = DataGen(bpw)
    mask = (1 << bpw) - 1
    initial: Dict[int, int] = {
        a: target.read(a) for a in range(target.word_count)
    }
    op_count = len(initial)  # the signature pre-read sweep
    fails = 0
    datagen.reset()
    while True:
        background = datagen.pattern(0)
        for element in march.elements:
            if element.is_delay:
                target.retention_wait()
                continue
            addresses = (
                range(target.word_count - 1, -1, -1)
                if element.order is Order.DOWN
                else range(target.word_count)
            )
            for address in addresses:
                base = initial[address] ^ background
                for op in element.ops:
                    op_count += 1
                    expected = base ^ mask if op.data_bit else base
                    if op.is_read:
                        if target.read(address) != expected:
                            fails += 1
                    else:
                        target.write(address, expected)
        if datagen.done:
            break
        datagen.step()
    if datagen.pattern(0) != 0:
        for address in range(target.word_count):
            op_count += 1
            target.write(address, initial[address])
    preserved = all(
        target.read(a) == initial[a] for a in range(target.word_count)
    )
    return TransparentResult(
        op_count=op_count,
        fail_count=fails,
        contents_preserved=preserved,
    )
