"""The test-and-repair controller.

Two interchangeable implementations of the paper's two-pass flow:

* :class:`BistScheduler` — the algorithmic reference.  "The test
  involves two passes.  In the first pass, the memory array is tested
  and faulty addresses are stored in a translation lookaside buffer
  (TLB).  In the second pass, the array is retested along with the
  mapped redundant addresses.  Any fault detected in the second pass
  produces a 'Repair Unsuccessful' status signal."
* :class:`TrplaController` — the microprogrammed hardware model: a
  state register clocked against the TRPLA personality produced by
  :func:`build_test_program` + :func:`~repro.bist.microcode.assemble`.
  The equivalence test in the suite asserts that both emit identical
  memory-operation streams.

The two-pass flow generalises to 2k passes ("the cycle of self-testing
and self-repair may be iterated to repair faults within the spares
themselves") via the ``passes`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import (Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple)

from repro.bist.addgen import AddGen
from repro.bist.datagen import DataGen
from repro.bist.march import MarchElement, MarchTest, Order
from repro.bist.microcode import (AssembledPla, MicroInstruction,
                                  Microprogram, assemble)
from repro.bist.trpla import Trpla


class TestTarget(Protocol):
    """What the BIST engine drives: a RAM with repair plumbing."""

    def read(self, address: int) -> int: ...

    def write(self, address: int, word: int) -> None: ...

    def set_repair_mode(self, enabled: bool) -> None: ...

    def record_fail(self, address: int) -> None: ...

    def retention_wait(self) -> None: ...

    def reset_for_test(self) -> None: ...

    @property
    def word_count(self) -> int: ...


#: A comparator-hit sink: ``(address, observed, expected)``.
FailSink = Callable[[int, int, int], None]


@dataclass(frozen=True)
class MemoryOp:
    """One memory operation of the self-test, for stream comparison."""

    pass_no: int
    background: int
    address: int
    is_read: bool
    data_bit: int


@dataclass
class BistResult:
    """Outcome of a complete self-test/self-repair run."""

    passes_run: int = 0
    op_count: int = 0
    fail_count: int = 0
    repair_unsuccessful: bool = False
    ops: List[MemoryOp] = field(default_factory=list)

    @property
    def repaired(self) -> bool:
        """True when the final verification pass saw no fault."""
        return not self.repair_unsuccessful


class BistScheduler:
    """Algorithmic reference implementation of the two-pass self-test.

    The op-by-op loop (:meth:`_run_ops`) is the reference.  A target
    that also offers ``quiet_sweep`` (see
    :meth:`~repro.memsim.device.BisrRam.quiet_sweep`) is run fault
    sparse: each element goes op by op only over the rows a fault,
    diversion or steering touches, and advances each run of other rows
    in one bulk step that leaves counters, cells and column history as
    the loop would.  ``record_ops`` and targets without the hook keep
    the op-by-op loop everywhere.

    :meth:`run_pass` is one such pass with a fail sink and no repair
    plumbing; it is the one march walk that self-test, diagnosis,
    2-D repair and transparent BIST share.
    """

    def __init__(self, march: MarchTest, bpw: int,
                 record_ops: bool = False) -> None:
        self.march = march
        self.datagen = DataGen(bpw)
        self.record_ops = record_ops

    def run(self, target: TestTarget, passes: int = 2,
            stop_on_repair_fail: bool = True,
            divert_during_test: bool = False) -> BistResult:
        """Run ``passes`` passes against ``target``.

        Odd passes test-and-record with diversion reflecting previous
        repairs; even passes verify.  With the standard ``passes=2``,
        pass 1 records into the TLB and pass 2 verifies the repair.

        ``divert_during_test`` keeps diversion active in pass 1 as
        well — the re-entrant cycle of the paper's iterated 2k-pass
        repair (the equivalent of ``TrplaController(fresh=False)``):
        a mapped row that still fails advances to its next spare.
        """
        if passes < 1:
            raise ValueError("need at least one pass")
        result = BistResult()

        def record(address: int, observed: int, expected: int) -> None:
            target.record_fail(address)

        for pass_no in range(1, passes + 1):
            target.set_repair_mode(pass_no >= 2 or divert_during_test)
            verification = pass_no % 2 == 0
            failed = self._run_single_pass(
                target, pass_no, None if verification else record, result
            )
            result.passes_run = pass_no
            if verification:
                result.repair_unsuccessful = failed
                if failed and stop_on_repair_fail:
                    break
                if not failed:
                    break  # repaired and verified; later passes unneeded
        return result

    def run_pass(self, target,
                 on_fail: Optional[FailSink] = None) -> BistResult:
        """One march pass over ``target``, in its current repair mode.

        ``on_fail(address, observed, expected)`` receives every
        comparator hit in march order — the diagnosis-mode log.  The
        pass only reads and writes: it neither switches repair mode
        nor records into the TLB, so ``target`` needs only
        ``word_count``, ``read``, ``write`` and ``retention_wait``
        (plus ``quiet_sweep`` to run fault sparse).
        """
        result = BistResult()
        self._run_single_pass(target, 1, on_fail, result)
        result.passes_run = 1
        return result

    def _run_single_pass(self, target: TestTarget, pass_no: int,
                         on_fail: Optional[FailSink],
                         result: BistResult) -> bool:
        """The march element walk every pass of every flow runs."""
        any_fail = False
        sweep = None if self.record_ops else getattr(
            target, "quiet_sweep", None)
        self.datagen.reset()
        while True:
            for element in self.march.elements:
                if element.is_delay:
                    target.retention_wait()
                    continue
                plan = quiet_plan(
                    sweep, [(op.is_read, op.data_bit) for op in element.ops],
                    self.datagen.pattern) if sweep else None
                if plan is None:
                    addresses = self._addresses(element, target.word_count)
                    any_fail |= self._run_ops(target, addresses, element,
                                              pass_no, on_fail, result)
                else:
                    any_fail |= self._run_sparse(target, plan, element,
                                                 pass_no, on_fail, result)
            if self.datagen.done:
                break
            self.datagen.step()
        return any_fail

    def _run_ops(self, target: TestTarget, addresses, element: MarchElement,
                 pass_no: int, on_fail: Optional[FailSink],
                 result: BistResult) -> bool:
        """The reference loop: every op of ``element`` at each address."""
        any_fail = False
        for address in addresses:
            for op in element.ops:
                result.op_count += 1
                if self.record_ops:
                    result.ops.append(
                        MemoryOp(
                            pass_no,
                            self.datagen.index,
                            address,
                            op.is_read,
                            op.data_bit,
                        )
                    )
                if op.is_read:
                    word = target.read(address)
                    if self.datagen.compare(word, op.data_bit):
                        any_fail = True
                        result.fail_count += 1
                        if on_fail is not None:
                            on_fail(address, word,
                                    self.datagen.pattern(op.data_bit))
                else:
                    target.write(address, self.datagen.pattern(op.data_bit))
        return any_fail

    def _run_sparse(self, target: TestTarget, plan, element: MarchElement,
                    pass_no: int, on_fail: Optional[FailSink],
                    result: BistResult) -> bool:
        """Busy spans op by op, the quiet runs between them in bulk."""
        busy, advance = plan
        edges = [0] + [edge for span in busy for edge in span]
        edges.append(target.word_count)
        # Alternating quiet and busy segments, in march order.
        segments = list(enumerate(zip(edges, edges[1:])))
        down = element.order is Order.DOWN
        if down:
            segments.reverse()
        any_fail = False
        for index, (lo, hi) in segments:
            if index % 2:
                addresses = range(hi - 1, lo - 1, -1) if down else \
                    range(lo, hi)
                any_fail |= self._run_ops(target, addresses, element,
                                          pass_no, on_fail, result)
            elif lo < hi:
                advance(lo, hi)
                result.op_count += (hi - lo) * len(element.ops)
        return any_fail

    @staticmethod
    def _addresses(element: MarchElement, word_count: int) -> range:
        if element.order is Order.DOWN:
            return range(word_count - 1, -1, -1)
        return range(word_count)


def quiet_plan(sweep, ops: Sequence[Tuple[bool, int]],
               pattern: Callable[[int], int]):
    """Ask a target's ``quiet_sweep`` hook to split one march element.

    ``ops`` are the element's ``(is_read, data_bit)`` operations at one
    address, in order; ``pattern`` is :meth:`DataGen.pattern` at the
    element's background.  Returns the hook's ``(busy, advance)`` plan,
    or None, for the op-by-op path, when a read after the element's
    first write expects something other than that write: every row
    would then fail.
    """
    leading: List[int] = []
    written = None
    for is_read, data_bit in ops:
        if not is_read:
            written = data_bit
        elif written is None:
            leading.append(data_bit)
        elif data_bit != written:
            return None
    reads = sum(is_read for is_read, _ in ops)
    return sweep(
        sorted({pattern(bit) for bit in leading}),
        None if written is None else pattern(written),
        pattern(ops[-1][1]),
        reads, len(ops) - reads,
    )


# ---------------------------------------------------------------------------
# Microprogram construction
# ---------------------------------------------------------------------------


def build_test_program(march: MarchTest, passes: int = 2) -> Microprogram:
    """Build the controller microprogram for ``march`` over ``passes``.

    State budget: one init state per op element (loads the address
    counter direction), one state per operation, one wait state per
    delay element, one background-shift state per pass, pass-end glue,
    and the idle/done/repair-fail states.  For IFA-9 and two passes
    this lands at 50 states in 6 flip-flops — the same encoding budget
    as the paper's 59-state controller (the delta is bookkeeping states
    our flow folds into transitions).
    """
    if passes < 1:
        raise ValueError("need at least one pass")
    states: List[MicroInstruction] = []
    states.append(
        MicroInstruction(
            name="idle",
            branches=(((("go", 1),), "init"),),
            default="idle",
        )
    )

    def element_entry(pass_no: int, index: int) -> str:
        element = march.elements[index]
        prefix = f"p{pass_no}_e{index}"
        return f"{prefix}_wait" if element.is_delay else f"{prefix}_init"

    states.append(
        MicroInstruction(
            name="init",
            outputs=("tlb_reset", "datagen_reset"),
            default=element_entry(1, 0),
        )
    )

    for pass_no in range(1, passes + 1):
        verification = pass_no % 2 == 0
        for index, element in enumerate(march.elements):
            prefix = f"p{pass_no}_e{index}"
            is_last_element = index == len(march.elements) - 1
            if is_last_element:
                after = None  # resolved to bg/end logic below
            else:
                after = element_entry(pass_no, index + 1)

            if element.is_delay:
                exit_target = after or f"p{pass_no}_lastexit"
                states.append(
                    MicroInstruction(
                        name=f"{prefix}_wait",
                        outputs=("wait_retention",),
                        branches=(
                            ((("retention_done", 1),), exit_target),
                        ),
                        default=f"{prefix}_wait",
                    )
                )
                continue

            up = element.order is not Order.DOWN
            states.append(
                MicroInstruction(
                    name=f"{prefix}_init",
                    outputs=(
                        "addr_reset_up" if up else "addr_reset_down",
                    ),
                    default=f"{prefix}_o0",
                )
            )
            for j, op in enumerate(element.ops):
                outputs = []
                branches: List[tuple] = []
                if op.is_read:
                    outputs.append("op_read")
                    if verification:
                        branches.append(
                            ((("fail", 1),), "repair_fail")
                        )
                    else:
                        outputs.append("tlb_record")
                else:
                    outputs.append("op_write")
                if op.data_bit:
                    outputs.append("data_inv")
                is_last_op = j == len(element.ops) - 1
                if is_last_op:
                    outputs.append("addr_step")
                    advance = after or f"p{pass_no}_lastexit"
                    if op.is_read and verification:
                        branches = [
                            ((("fail", 1),), "repair_fail"),
                            ((("addr_done", 1),), advance),
                        ]
                    else:
                        branches.append(((("addr_done", 1),), advance))
                    default = f"{prefix}_o0"
                else:
                    default = f"{prefix}_o{j + 1}"
                states.append(
                    MicroInstruction(
                        name=f"{prefix}_o{j}",
                        outputs=tuple(outputs),
                        branches=tuple(branches),
                        default=default,
                    )
                )

        # End-of-march glue for this pass: loop backgrounds, then hand
        # over to the next pass or finish.
        if pass_no < passes:
            end_target = f"p{pass_no}_end"
        else:
            end_target = "pass_done"
        states.append(
            MicroInstruction(
                name=f"p{pass_no}_lastexit",
                branches=(((("bg_done", 1),), end_target),),
                default=f"p{pass_no}_bgshift",
            )
        )
        states.append(
            MicroInstruction(
                name=f"p{pass_no}_bgshift",
                outputs=("datagen_shift",),
                default=element_entry(pass_no, 0),
            )
        )
        if pass_no < passes:
            states.append(
                MicroInstruction(
                    name=f"p{pass_no}_end",
                    outputs=("datagen_reset", "phase_adv"),
                    default=element_entry(pass_no + 1, 0),
                )
            )

    states.append(
        MicroInstruction(
            name="pass_done", outputs=("done",), default="pass_done"
        )
    )
    states.append(
        MicroInstruction(
            name="repair_fail",
            outputs=("repair_unsuccessful",),
            default="repair_fail",
        )
    )
    return Microprogram(states, start="idle")


@dataclass(frozen=True)
class _AddressLoop:
    """One march element's per-address loop, as the PLA clocks it."""

    head: int  # the state of the element's first op
    last: int  # the state whose ``addr_step`` ends an address
    clocks: int  # clocks per address
    ops: Tuple[Tuple[bool, int], ...]  # (is_read, data_bit) per address


class TrplaController:
    """Cycle-stepped controller clocked against the TRPLA personality.

    Each clock: the PLA's unconditional terms produce the control
    outputs for the current state; the controller executes them against
    the address counter, data generator, and the target RAM; the
    condition signals that result (address done, background done, fail,
    retention done) feed the PLA's branch terms to produce the next
    state — exactly the settle-then-register behaviour of the silicon.

    The PLA is read through its compiled :attr:`Trpla.table`: the state
    register and the conditions form one packed input word (state bits
    low, conditions above, in :attr:`AssembledPla.input_names` order),
    and control outputs are tested with bitmasks over the packed output
    word, so a clock costs two table indexes.

    :meth:`step` is one clock, and the reference.  :meth:`run` is clock
    exact but fault sparse on a target that offers ``quiet_sweep`` (see
    :meth:`~repro.memsim.device.BisrRam.quiet_sweep`): each march
    element's per-address loop is read off the PLA once, and when ADDGEN
    reaches the first address of a run of quiet rows (no fault, no
    diversion, no steering) the whole run advances in one step — the
    target's bulk step, the clock and op counters by the loop's clocks
    and ops per address, and ADDGEN past the run.  The run's last clock
    is executed without its memory op, so the element's exit branch and
    the next state are the PLA's own.  ``record_ops`` and targets
    without the hook clock every op.
    """

    def __init__(self, march: MarchTest, bpw: int, target: TestTarget,
                 passes: int = 2, record_ops: bool = False,
                 fresh: bool = True) -> None:
        """``fresh=False`` re-runs the 2-pass cycle on a device that
        already holds a TLB image — the paper's iterated "2k-pass"
        repair of faults within the spares: diversion stays active, and
        recorded rows that still fail advance to their next spare.
        """
        self.march = march
        self.passes = passes
        self.target = target
        self.fresh = fresh
        compiled = _compiled(march, passes)
        self._table = compiled.table
        self.state_bits = compiled.state_bits
        self._state_mask = (1 << self.state_bits) - 1
        self._out = dict(compiled.out)
        self._cond = dict(compiled.cond)
        self.state = compiled.idle
        self._final = dict(compiled.final)
        self._loops = dict(compiled.loops)
        address_bits = max(1, (target.word_count - 1).bit_length())
        self.addgen = AddGen(address_bits, target.word_count)
        self.datagen = DataGen(bpw)
        self.record_ops = record_ops
        self.result = BistResult()
        self.pass_no = 1
        self.cycles = 0
        self.finished = False

    # The microprogram and its PLA, built for this controller on first
    # use: a caller may edit them without touching other controllers.

    @cached_property
    def program(self) -> Microprogram:
        return build_test_program(self.march, self.passes)

    @cached_property
    def assembled(self) -> AssembledPla:
        return assemble(self.program)

    @cached_property
    def pla(self) -> Trpla:
        return Trpla(self.assembled.and_plane, self.assembled.or_plane)

    # -- one clock ---------------------------------------------------------

    def step(self, go: int = 1) -> None:
        """Advance one controller clock."""
        if self.finished:
            return
        self.cycles += 1
        table = self._table
        conds = self._execute(table[self.state], go)
        self._latch(table[self.state | conds] & self._state_mask)

    def run(self, max_cycles: int = 50_000_000) -> BistResult:
        """Clock until done; raises RuntimeError on runaway programs."""
        sweep = None if self.record_ops else getattr(
            self.target, "quiet_sweep", None)
        loop = runs = advance = None
        while not self.finished:
            if self.cycles >= max_cycles:
                raise RuntimeError(
                    f"controller did not finish within {max_cycles} cycles"
                )
            if runs and self.state == loop.head:
                span = runs.get(self.addgen.value)
                if span is not None:
                    self._jump(loop, advance, *span)
                    continue
            state = self.state
            self.step()
            if sweep is not None and state in self._loops:
                # ``state`` loaded ADDGEN: an element starts.
                loop = self._loops[state]
                runs, advance = self._quiet_runs(sweep, loop)
        return self.result

    # -- internals -----------------------------------------------------------

    def _latch(self, state: int) -> None:
        """Register the next state; a final state ends the run."""
        self.state = state
        unsuccessful = self._final.get(state)
        if unsuccessful is not None:
            self.result.repair_unsuccessful = unsuccessful
            self.result.passes_run = self.pass_no
            self.finished = True

    def _quiet_runs(self, sweep, loop: _AddressLoop):
        """(runs, advance) for the element ADDGEN was just loaded for.

        ``runs`` maps the first address of each quiet run, in march
        order, to its ``(lo, hi)`` word span; both are None when the
        target's hook wants the element op by op.
        """
        plan = quiet_plan(sweep, loop.ops, self.datagen.pattern)
        if plan is None:
            return None, None
        busy, advance = plan
        edges = [0] + [edge for span in busy for edge in span]
        edges.append(self.target.word_count)
        up = self.addgen.up
        runs = {lo if up else hi - 1: (lo, hi)
                for lo, hi in zip(edges[::2], edges[1::2]) if lo < hi}
        return runs, advance

    def _jump(self, loop: _AddressLoop, advance, lo: int, hi: int) -> None:
        """Clock every op of the quiet words ``lo..hi-1`` in one step."""
        advance(lo, hi)
        self.cycles += (hi - lo) * loop.clocks
        self.result.op_count += (hi - lo) * len(loop.ops)
        # The run's last clock, less the memory op the bulk step made:
        # it raises addr_done on the element's last address and steps
        # ADDGEN past the run.
        self.addgen.value = hi - 1 if self.addgen.up else lo
        out = self._out
        conds = self._execute(
            self._table[loop.last] & ~(out["op_read"] | out["op_write"]), 1)
        self._latch(self._table[loop.last | conds] & self._state_mask)

    def _execute(self, outputs: int, go: int) -> int:
        """Carry out one clock's control outputs; returns the packed
        condition inputs they produce."""
        out, cond = self._out, self._cond
        conds = cond["go"] if go else 0
        if outputs & out["tlb_reset"] and self.fresh:
            self.target.reset_for_test()
        if outputs & out["datagen_reset"]:
            self.datagen.reset()
        if outputs & out["phase_adv"]:
            self.pass_no += 1
            self.target.set_repair_mode(True)
        if outputs & out["addr_reset_up"]:
            self.addgen.reset(up=True)
        if outputs & out["addr_reset_down"]:
            self.addgen.reset(up=False)
        if outputs & out["wait_retention"]:
            self.target.retention_wait()
            conds |= cond["retention_done"]

        is_read = bool(outputs & out["op_read"])
        if is_read or outputs & out["op_write"]:
            data_bit = 1 if outputs & out["data_inv"] else 0
            address = self.addgen.value
            self.result.op_count += 1
            if self.record_ops:
                self.result.ops.append(
                    MemoryOp(
                        self.pass_no,
                        self.datagen.index,
                        address,
                        is_read,
                        data_bit,
                    )
                )
            if is_read:
                word = self.target.read(address)
                if self.datagen.compare(word, data_bit):
                    conds |= cond["fail"]
                    self.result.fail_count += 1
                    if outputs & out["tlb_record"]:
                        self.target.record_fail(address)
            else:
                self.target.write(address, self.datagen.pattern(data_bit))

        if self.addgen.done:
            conds |= cond["addr_done"]
        if self.datagen.done:
            conds |= cond["bg_done"]
        if outputs & out["addr_step"]:
            self.addgen.step()
        if outputs & out["datagen_shift"]:
            self.datagen.step()
        return conds


#: Control outputs and condition inputs the controller acts on.
_CONTROLS = (
    "tlb_reset", "datagen_reset", "phase_adv", "addr_reset_up",
    "addr_reset_down", "wait_retention", "op_read", "op_write",
    "data_inv", "tlb_record", "addr_step", "datagen_shift",
)
_CONDITIONS = ("go", "retention_done", "fail", "addr_done", "bg_done")


def _bit_masks(names: Tuple[str, ...]) -> Dict[str, int]:
    """Signal name -> its bit in a packed PLA word."""
    return {name: 1 << i for i, name in enumerate(names)}


def _address_loops(table: Sequence[int], mask: int, out: Dict[str, int],
                   cond: Dict[str, int]) -> Dict[int, _AddressLoop]:
    """Address-loading state -> the per-address loop it starts.

    From the successor of a state that loads ADDGEN, the walk
    follows the ``go`` transitions until it returns to its start.
    A loop whose states drive anything but memory ops and
    ``addr_step``, step ADDGEN before their last clock, or branch
    on ``bg_done`` (constant over an element, but not over every
    element) is left out: its element always clocks.
    """
    go, bg_done = cond["go"], cond["bg_done"]
    loads = out["addr_reset_up"] | out["addr_reset_down"]
    allowed = (out["op_read"] | out["op_write"] | out["data_inv"]
               | out["tlb_record"] | out["addr_step"])
    loops = {}
    for init in range(mask + 1):
        if not table[init] & loads:
            continue
        head = table[init | go] & mask
        walk = [head]
        while len(walk) <= mask:
            after = table[walk[-1] | go] & mask
            if (after == head
                    or after != table[walk[-1] | go | bg_done] & mask):
                break
            walk.append(after)
        last = walk[-1]
        controls = [table[state] for state in walk]
        if (table[last | go] & mask != head
                or table[last | go | bg_done] & mask != head
                or any(c & ~allowed & ~mask for c in controls)
                or any(c & out["addr_step"] for c in controls[:-1])
                or not controls[-1] & out["addr_step"]):
            continue
        ops = tuple((bool(c & out["op_read"]),
                     1 if c & out["data_inv"] else 0)
                    for c in controls
                    if c & (out["op_read"] | out["op_write"]))
        if ops:
            loops[init] = _AddressLoop(head, last, len(walk), ops)
    return loops


@dataclass(frozen=True)
class _Compiled:
    """What a controller reads of one ``(march, passes)`` program.

    Built once per pair by :func:`_compiled` and shared by every
    controller, so it holds only immutable values: each controller
    makes its own dicts of the signal masks, final states and loops.
    """

    table: Tuple[int, ...]  # the PLA's compiled truth table
    state_bits: int
    out: Tuple[Tuple[str, int], ...]  # control output -> bitmask
    cond: Tuple[Tuple[str, int], ...]  # condition input -> bitmask
    idle: int
    final: Tuple[Tuple[int, bool], ...]  # final state -> unsuccessful
    loops: Tuple[Tuple[int, _AddressLoop], ...]


@lru_cache(maxsize=32)
def _compiled(march: MarchTest, passes: int) -> _Compiled:
    """Assemble ``march`` over ``passes`` and compile its PLA, once."""
    assembled = assemble(build_test_program(march, passes))
    table = Trpla(assembled.and_plane, assembled.or_plane).table
    mask = (1 << assembled.state_bits) - 1
    # A signal the program never uses gets mask 0: never asserted.
    outputs = _bit_masks(assembled.output_names)
    inputs = _bit_masks(assembled.input_names)
    out = {name: outputs.get(name, 0) for name in _CONTROLS}
    cond = {name: inputs.get(name, 0) for name in _CONDITIONS}
    encoding = assembled.state_encoding
    return _Compiled(
        table, assembled.state_bits, tuple(out.items()),
        tuple(cond.items()), encoding["idle"],
        ((encoding["pass_done"], False), (encoding["repair_fail"], True)),
        tuple(_address_loops(table, mask, out, cond).items()))
