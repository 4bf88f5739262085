"""Shared check: the clocked TRPLA controller against the reference
:class:`~repro.bist.controller.BistScheduler` on one device build.

``build`` must return identically faulted fresh devices on every call
(seeded injection, seeded intermittent streams), so each side runs on
its own copy.
"""

from repro.bist import BistScheduler, TrplaController


def tlb_image(device):
    return device.tlb.mapped_rows(), device.tlb.overflowed


def assert_controller_equals_scheduler(build, march, bpw, fresh=True):
    """Equal op streams, fail counts and TLB images.

    ``fresh=False`` compares the re-entrant cycle: the controller with
    diversion left on against the scheduler's ``divert_during_test``.
    On a device the run cannot repair, the controller halts on the
    first failing verification read while the scheduler finishes the
    pass, so the controller's stream is then a prefix ending there.
    """
    def reference(passes):
        device = build()
        result = BistScheduler(march, bpw, record_ops=True).run(
            device, passes=passes, divert_during_test=not fresh)
        return result, device

    ref, ref_device = reference(2)
    device = build()
    got = TrplaController(march, bpw, target=device, record_ops=True,
                          fresh=fresh).run()
    assert tlb_image(device) == tlb_image(ref_device)
    assert got.repaired == ref.repaired
    if ref.repaired:
        assert got.ops == ref.ops
        assert got.fail_count == ref.fail_count
    else:
        assert got.ops == ref.ops[:len(got.ops)]
        assert got.ops[-1].pass_no == 2 and got.ops[-1].is_read
        assert got.fail_count == reference(1)[0].fail_count + 1
