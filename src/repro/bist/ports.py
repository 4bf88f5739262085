"""Port-aware BIST for dual-port devices.

A dual-port RAM has faults a single-port march cannot see: a broken
second word line, an open on a ``bl2``/``blb2`` pair, or a short
between the two ports' access paths leaves port A fully functional
while port B misreads.  The scheme here runs the existing march engine
unchanged through a :class:`PortView` — an adapter that binds each
read and write of the :class:`~repro.bist.controller.TestTarget`
protocol to a fixed device port — in three bindings:

1. all operations on port A (the classic single-port pass),
2. all operations on port B (exercises WL2 and the bl2 pair end to
   end),
3. cross-port: writes on one port, reads on the other, both
   directions — the binding that catches asymmetric open/short faults
   where a cell takes a value from one port but cannot deliver it to
   the other.

Diagnosis and repair plumbing (``record_fail``, repair mode, the TLB)
pass straight through to the shared device, so a fault seen from
either port is repaired for both — the spare row replicates both
ports' access structures.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bist.controller import BistScheduler, TestTarget
from repro.bist.march import IFA_9, MarchTest
from repro.memsim.device import BisrRam


class PortView:
    """A :class:`TestTarget` facade binding reads/writes to fixed ports.

    ``write_port`` and ``read_port`` may differ (cross-port testing);
    everything except read/write delegates to the underlying device.
    """

    def __init__(self, device: BisrRam, write_port: int = 0,
                 read_port: int = 0) -> None:
        if max(write_port, read_port) >= device.ports:
            raise ValueError(
                f"port binding (w={write_port}, r={read_port}) exceeds "
                f"the device's {device.ports} port(s)")
        self.device = device
        self.write_port = write_port
        self.read_port = read_port

    @property
    def word_count(self) -> int:
        return self.device.word_count

    def read(self, address: int) -> int:
        return self.device.read(address, port=self.read_port)

    def write(self, address: int, word: int) -> None:
        self.device.write(address, word, port=self.write_port)

    def set_repair_mode(self, enabled: bool) -> None:
        self.device.set_repair_mode(enabled)

    def record_fail(self, address: int) -> None:
        self.device.record_fail(address)

    def retention_wait(self) -> None:
        self.device.retention_wait()

    def reset_for_test(self) -> None:
        self.device.reset_for_test()

    def quiet_sweep(self, expect, final, last, reads, writes):
        return self.device.quiet_sweep(
            expect, final, last, reads, writes,
            read_port=self.read_port, write_port=self.write_port)


def port_bindings(ports: int) -> List[Tuple[str, int, int]]:
    """The (label, write_port, read_port) sweep for a device.

    Single-port devices get the one classic binding; dual-port devices
    add the port-B-only pass and both cross-port directions.
    """
    if ports == 1:
        return [("a", 0, 0)]
    return [
        ("a", 0, 0),
        ("b", 1, 1),
        ("w0r1", 0, 1),
        ("w1r0", 1, 0),
    ]


def run_dual_port_test(device: BisrRam, march: MarchTest = IFA_9,
                       passes: int = 2) -> dict:
    """Run the full port-binding sweep; return per-binding results.

    Each binding runs the complete test-and-repair schedule through its
    own :class:`PortView`.  The returned mapping carries, per binding
    label, the scheduler's repair verdict and fail count — all bindings
    must end repaired for the device to pass.
    """
    results = {}
    scheduler = BistScheduler(march, bpw=device.array.bpw)
    for label, wp, rp in port_bindings(device.ports):
        view = PortView(device, write_port=wp, read_port=rp)
        results[label] = scheduler.run(view, passes=passes)
    return results
