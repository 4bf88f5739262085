"""The repair supervisor: an escalation ladder over BIST/BISR.

The raw two-pass flow trusts every comparator hit: one bad read burns
one entry of the strictly-increasing spare sequence, forever.  That is
the right call for manufacturing test (faults are solid, the tester is
golden) and the wrong call in the field, where reads lie transiently
(upsets), intermittently (marginal cells), or systematically (a flaky
comparator).  :class:`RepairSupervisor` wraps the
:class:`~repro.bist.controller.BistScheduler` with three defences:

1. **N-of-M confirmation** — before a failing address is recorded into
   the TLB, the supervisor re-reads it M times against the last value
   written there; only ``confirm_threshold`` mismatches consume a
   spare.  A solid or p≈0.5 intermittent fault confirms immediately; a
   single transient upset does not, and its corrupted content is
   scrubbed back instead.
2. **Bounded retry with backoff** — a failed verify pass does not end
   the story: the supervisor waits an (exponentially growing) number of
   simulated maintenance cycles and re-runs the cycle with diversion
   active, which is exactly the paper's iterated 2k-pass repair of
   faulty spares, now bounded and logged.
3. **Graceful degradation** — when the ladder is exhausted or the
   spares are, the supervisor localises what is still broken and
   returns a structured :class:`DegradedResult` instead of raising, so
   a mission computer can map out the bad rows and carry on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Set, Tuple

from repro.core.errors import ConfigError, ReproError

if TYPE_CHECKING:  # pragma: no cover - break the bisr <-> bist cycle
    from repro.bist.controller import TestTarget
    from repro.bist.march import MarchTest


@dataclass(frozen=True)
class EscalationPolicy:
    """Tunables of the escalation ladder.

    Attributes:
        confirm_reads: M — re-reads per suspected address.
        confirm_threshold: N — mismatches (out of M) required before a
            spare is consumed.
        max_attempts: bounded test/repair cycles before degrading.
        backoff_base: simulated maintenance cycles waited after the
            first failed attempt.
        backoff_factor: multiplier applied to the wait per attempt.
    """

    confirm_reads: int = 5
    confirm_threshold: int = 2
    max_attempts: int = 3
    backoff_base: int = 8
    backoff_factor: int = 2

    def __post_init__(self) -> None:
        if self.confirm_reads < 1:
            raise ConfigError("confirm_reads must be >= 1")
        if not 1 <= self.confirm_threshold <= self.confirm_reads:
            raise ConfigError(
                f"confirm_threshold must be in "
                f"1..{self.confirm_reads} (confirm_reads)"
            )
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ConfigError(
                "backoff_base must be >= 0 and backoff_factor >= 1"
            )


@dataclass
class AttemptRecord:
    """One rung of the ladder: what a test/repair cycle saw and did."""

    attempt: int
    fail_count: int
    confirmed_rows: Tuple[int, ...]
    rejected_addresses: Tuple[int, ...]
    spares_used: int
    repaired: bool
    backoff_cycles: int = 0


@dataclass
class SupervisorResult:
    """Outcome of a supervised self-repair run.

    ``rejected_addresses`` lists comparator hits that failed N-of-M
    confirmation — suspected transients that consumed no spare.
    """

    repaired: bool
    attempts: int
    confirmed_rows: Tuple[int, ...]
    rejected_addresses: Tuple[int, ...]
    spares_used: int
    probe_reads: int
    backoff_cycles: int
    history: Tuple[AttemptRecord, ...] = ()

    @property
    def degraded(self) -> bool:
        return False

    def to_dict(self) -> dict:
        """JSON-ready representation (the checkpoint-journal format).

        Includes the ``degraded`` discriminator so
        :func:`supervisor_result_from_dict` rebuilds the right class
        after a dict → JSON → dict round-trip.
        """
        data = asdict(self)
        data["degraded"] = self.degraded
        return data


@dataclass
class DegradedResult(SupervisorResult):
    """Repair did not converge; the device is degraded, not dead.

    Attributes:
        unrepaired_rows: rows a post-mortem sweep still found faulty
            (empty when failures could not be localised — the signature
            of a flaky comparator).
        reason: one-line diagnosis of why the ladder gave up.
    """

    unrepaired_rows: Tuple[int, ...] = ()
    reason: str = ""

    @property
    def degraded(self) -> bool:
        return True


def supervisor_result_from_dict(data: Mapping) -> SupervisorResult:
    """Rebuild a :meth:`SupervisorResult.to_dict` payload.

    Tolerates a JSON round-trip (tuples come back as lists) and older
    payloads missing the ``degraded`` discriminator, which are then
    classified by the presence of degradation-only fields.
    """
    data = dict(data)
    degraded = bool(data.pop("degraded",
                             "reason" in data or "unrepaired_rows" in data))
    history = tuple(
        AttemptRecord(
            attempt=record["attempt"],
            fail_count=record["fail_count"],
            confirmed_rows=tuple(record["confirmed_rows"]),
            rejected_addresses=tuple(record["rejected_addresses"]),
            spares_used=record["spares_used"],
            repaired=record["repaired"],
            backoff_cycles=record.get("backoff_cycles", 0),
        )
        for record in data.pop("history", ())
    )
    common = dict(
        repaired=data["repaired"],
        attempts=data["attempts"],
        confirmed_rows=tuple(data["confirmed_rows"]),
        rejected_addresses=tuple(data["rejected_addresses"]),
        spares_used=data["spares_used"],
        probe_reads=data["probe_reads"],
        backoff_cycles=data["backoff_cycles"],
        history=history,
    )
    if degraded:
        return DegradedResult(
            unrepaired_rows=tuple(data.get("unrepaired_rows", ())),
            reason=data.get("reason", ""),
            **common,
        )
    return SupervisorResult(**common)


def sweep_unrepaired(target: TestTarget, bpw: int,
                     bpc: int) -> Tuple[int, ...]:
    """Localise still-faulty rows with diversion (and steering) active.

    A destructive write/read sweep over both data polarities —
    acceptable after a supervised or 2-D repair run because that is a
    test context, and the caller needs the row list to degrade around
    (the mission computer's degrade-around map).
    """
    mask = (1 << bpw) - 1
    target.set_repair_mode(True)
    bad_rows: Set[int] = set()
    for pattern in (0, mask):
        for address in range(target.word_count):
            target.write(address, pattern)
        for address in range(target.word_count):
            if target.read(address) != pattern:
                bad_rows.add(address // bpc)
    return tuple(sorted(bad_rows))


class _ConfirmingTarget:
    """TestTarget proxy gating ``record_fail`` behind N-of-M re-reads.

    March semantics guarantee every read expects the last value written
    to that address, so the proxy shadows writes and adjudicates a
    suspected failure by re-reading against the shadow.  Rejected
    suspects get the expected value scrubbed back, healing transient
    content corruption on the spot.

    Writes a fault-sparse march applies in bulk are shadowed as
    ``(lo, hi, word)`` spans.  A row the march once ran op by op it
    never bulk-writes later in the run (faults stay, diversions only
    grow, and steering switches on with repair mode), so a
    per-address write is always newer than a span covering it.
    """

    def __init__(self, target: TestTarget, policy: EscalationPolicy) -> None:
        self.target = target
        self.policy = policy
        self._shadow = {}
        self._spans: List[Tuple[int, int, int]] = []
        self.confirmed: List[int] = []
        self.rejected: List[int] = []
        self.probe_reads = 0

    @property
    def word_count(self) -> int:
        return self.target.word_count

    def read(self, address: int) -> int:
        return self.target.read(address)

    def write(self, address: int, word: int) -> None:
        self._shadow[address] = word
        self.target.write(address, word)

    def set_repair_mode(self, enabled: bool) -> None:
        self.target.set_repair_mode(enabled)

    def retention_wait(self) -> None:
        self.target.retention_wait()

    def reset_for_test(self) -> None:
        self.target.reset_for_test()

    def quiet_sweep(self, expect, final, last, reads, writes):
        sweep = getattr(self.target, "quiet_sweep", None)
        plan = sweep(expect, final, last, reads, writes) if sweep else None
        if plan is None or final is None:
            return plan
        busy, advance = plan

        def advance_shadowed(lo: int, hi: int) -> None:
            advance(lo, hi)
            self._spans.append((lo, hi, final))

        return busy, advance_shadowed

    def _expected(self, address: int) -> Optional[int]:
        expected = self._shadow.get(address)
        if expected is None:
            for lo, hi, word in reversed(self._spans):
                if lo <= address < hi:
                    return word
        return expected

    def record_fail(self, address: int) -> None:
        expected = self._expected(address)
        if expected is None:
            # Nothing written yet — cannot adjudicate; trust the hit.
            self.target.record_fail(address)
            self.confirmed.append(address)
            return
        mismatches = 0
        for _ in range(self.policy.confirm_reads):
            self.probe_reads += 1
            if self.target.read(address) != expected:
                mismatches += 1
        if mismatches >= self.policy.confirm_threshold:
            self.target.record_fail(address)
            self.confirmed.append(address)
        else:
            self.rejected.append(address)
            self.target.write(address, expected)  # scrub the upset


class RepairSupervisor:
    """Escalating test-and-repair driver around a BistScheduler."""

    def __init__(self, march: "MarchTest", bpw: int,
                 policy: Optional[EscalationPolicy] = None) -> None:
        # Imported here, not at module level: the controller lives in
        # repro.bist, which itself imports repair types from repro.bisr.
        from repro.bist.controller import BistScheduler

        self.march = march
        self.bpw = bpw
        self.policy = policy or EscalationPolicy()
        self.scheduler = BistScheduler(march, bpw)

    # -- the ladder ---------------------------------------------------------

    def run(self, target: TestTarget) -> SupervisorResult:
        """Supervised self-repair; never raises for anticipated faults."""
        policy = self.policy
        history: List[AttemptRecord] = []
        confirmed_rows: Set[int] = set()
        rejected: List[int] = []
        probe_reads = 0
        total_backoff = 0
        bpc = self._bpc(target)
        out_of_spares = False

        for attempt in range(1, policy.max_attempts + 1):
            gate = _ConfirmingTarget(target, policy)
            try:
                # Attempt 1 is the standard two-pass flow; retries run
                # with diversion active during the test pass — the
                # iterated 2k-pass repair of faults within the spares.
                result = self.scheduler.run(
                    gate, passes=2, divert_during_test=attempt > 1
                )
            except ReproError as error:
                return self._degraded(
                    history, confirmed_rows, rejected, probe_reads,
                    total_backoff, target,
                    reason=f"escalation aborted: {error}",
                )
            probe_reads += gate.probe_reads
            confirmed_rows.update(a // bpc for a in gate.confirmed)
            rejected.extend(gate.rejected)
            record = AttemptRecord(
                attempt=attempt,
                fail_count=result.fail_count,
                confirmed_rows=tuple(sorted(
                    {a // bpc for a in gate.confirmed}
                )),
                rejected_addresses=tuple(gate.rejected),
                spares_used=self._spares_used(target),
                repaired=result.repaired,
            )
            history.append(record)
            if result.repaired:
                return SupervisorResult(
                    repaired=True,
                    attempts=attempt,
                    confirmed_rows=tuple(sorted(confirmed_rows)),
                    rejected_addresses=tuple(rejected),
                    spares_used=self._spares_used(target),
                    probe_reads=probe_reads,
                    backoff_cycles=total_backoff,
                    history=tuple(history),
                )
            out_of_spares = self._spares_left(target) == 0
            if out_of_spares:
                break  # retrying cannot help: the sequence is spent
            if attempt < policy.max_attempts:
                wait = policy.backoff_base * \
                    policy.backoff_factor ** (attempt - 1)
                record.backoff_cycles = wait
                total_backoff += wait

        reason = self._diagnose(history, confirmed_rows, rejected,
                                out_of_spares)
        return self._degraded(history, confirmed_rows, rejected,
                              probe_reads, total_backoff, target,
                              reason=reason)

    # -- post-mortem ----------------------------------------------------------

    def _degraded(self, history, confirmed_rows, rejected, probe_reads,
                  total_backoff, target, reason: str) -> DegradedResult:
        return DegradedResult(
            repaired=False,
            attempts=len(history),
            confirmed_rows=tuple(sorted(confirmed_rows)),
            rejected_addresses=tuple(rejected),
            spares_used=self._spares_used(target),
            probe_reads=probe_reads,
            backoff_cycles=total_backoff,
            history=tuple(history),
            unrepaired_rows=sweep_unrepaired(target, self.bpw,
                                             self._bpc(target)),
            reason=reason,
        )

    def _diagnose(self, history, confirmed_rows, rejected,
                  out_of_spares: bool) -> str:
        if out_of_spares:
            return (f"spares exhausted after "
                    f"{len(history)} attempt(s)")
        saw_fails = any(r.fail_count for r in history)
        if saw_fails and not confirmed_rows:
            return (f"inconsistent verdicts: {len(rejected)} comparator "
                    f"hit(s) failed {self.policy.confirm_threshold}-of-"
                    f"{self.policy.confirm_reads} confirmation "
                    f"(suspected flaky comparator or transient upsets)")
        return (f"repair did not converge within "
                f"{self.policy.max_attempts} attempt(s)")

    # -- device introspection -----------------------------------------------------

    @staticmethod
    def _tlb(target):
        return getattr(target, "tlb", None)

    def _spares_used(self, target) -> int:
        tlb = self._tlb(target)
        return tlb.spares_used if tlb is not None else 0

    def _spares_left(self, target) -> int:
        tlb = self._tlb(target)
        return tlb.spares_left if tlb is not None else 1

    def _bpc(self, target) -> int:
        array = getattr(target, "array", None)
        if array is not None:
            return array.bpc
        inner = getattr(target, "target", None)
        if inner is not None:
            return self._bpc(inner)
        return 1
