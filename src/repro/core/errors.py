"""The structured error taxonomy of the reproduction.

Every failure the tool can *anticipate* raises a subclass of
:class:`ReproError`, so callers (the CLI, the repair supervisor, long
Monte-Carlo campaigns) can distinguish "the user asked for something
impossible" from "the hardware model could not converge" from a genuine
bug — and degrade gracefully instead of dying on a traceback.

The taxonomy deliberately multiple-inherits from the builtin exception
each error used to be, so existing ``except ValueError`` /
``except RuntimeError`` call sites keep working:

* :class:`ConfigError` (also a ``ValueError``) — invalid user-supplied
  configuration: a bad :class:`~repro.core.config.RamConfig`, a
  degenerate :class:`~repro.memsim.injector.FaultMix`, an out-of-range
  escalation policy.
* :class:`RepairExhausted` — self-repair ran out of spare rows; carries
  the rows left unrepaired so the caller can report or map them out.
* :class:`SpiceConvergenceError` (also a ``RuntimeError``) — the
  transient engine hit its step budget before ``t_stop``; carries how
  far it got so callers can decide whether the partial run is usable.
* :class:`SignoffError` — a compiled macro failed signoff verification
  in ``strict`` mode; carries the JSON-serializable report dict so the
  CLI and campaign journal can render or persist the findings.

This module must stay import-light (stdlib only): it is imported from
every layer, including during package initialisation.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ReproError(Exception):
    """Base class of every anticipated failure in the reproduction."""


class ConfigError(ReproError, ValueError):
    """The user-supplied configuration is invalid.

    Also a ``ValueError`` so call sites predating the taxonomy keep
    catching it.
    """


class UnknownProcessError(ConfigError, KeyError):
    """A process/deck name resolved to nothing in the registry.

    Also a ``KeyError`` so call sites predating the taxonomy (the
    original ``get_process`` raised bare ``KeyError``) keep catching
    it.  The message always carries the available deck names.

    Attributes:
        name: the process name that failed to resolve.
        available: deck names the registry knows about.
    """

    def __init__(self, name: str,
                 available: Tuple[str, ...] = ()) -> None:
        super().__init__(
            f"unknown process {name!r}; available: {tuple(available)}"
        )
        self.name = name
        self.available = tuple(available)

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the message; restore the plain text.
        return self.args[0]


class DescriptorError(ConfigError):
    """A technology descriptor file failed validation.

    Attributes:
        path: the descriptor file (empty for in-memory descriptors).
        field_errors: ``(field, message)`` pairs, one per offending
            descriptor field, so callers can render a per-field report.
    """

    def __init__(self, message: str, path: str = "",
                 field_errors: Tuple[Tuple[str, str], ...] = ()) -> None:
        super().__init__(message)
        self.path = path
        self.field_errors = tuple(field_errors)


class RepairExhausted(ReproError):
    """Self-repair ran out of spare rows before the array was clean.

    Attributes:
        unrepaired_rows: row addresses still faulty when the spare
            sequence ran out.
        spares: total spare rows the device had.
    """

    def __init__(self, message: str,
                 unrepaired_rows: Tuple[int, ...] = (),
                 spares: int = 0) -> None:
        super().__init__(message)
        self.unrepaired_rows = tuple(unrepaired_rows)
        self.spares = spares


class SpiceConvergenceError(ReproError, RuntimeError):
    """The transient integration did not reach ``t_stop``.

    Also a ``RuntimeError`` so call sites predating the taxonomy keep
    catching it.

    Attributes:
        t_reached: simulated time actually reached (seconds).
        t_stop: requested end time (seconds).
        steps: integration steps spent.
    """

    def __init__(self, message: str, t_reached: float = 0.0,
                 t_stop: float = 0.0, steps: int = 0) -> None:
        super().__init__(message)
        self.t_reached = t_reached
        self.t_stop = t_stop
        self.steps = steps

    @property
    def progress(self) -> float:
        """Fraction of the requested transient actually integrated.

        Clamped to [0, 1], and 0.0 when ``t_stop`` is unknown or
        non-positive, so campaign degradation reports can average it
        over many failed shards without special cases.
        """
        if self.t_stop <= 0:
            return 0.0
        return max(0.0, min(1.0, self.t_reached / self.t_stop))


class ServiceUnavailable(ReproError):
    """The macro server refused a request it could not queue.

    Raised on submit when the bounded request queue is full
    (backpressure) or the server is draining for shutdown.  Clients
    should back off and retry; the CLI maps it — like every
    :class:`ReproError` — onto exit code 2.

    Attributes:
        reason: ``"saturated"``, ``"draining"``, ``"not_ready"``,
            ``"unreachable"`` / ``"interrupted"`` (client-side: the
            server did not answer, or a batch stream died
            mid-flight).
        retry_after_s: server's advice on how long to back off before
            retrying (the HTTP front-end sends it as ``Retry-After``).
    """

    def __init__(self, message: str, reason: str = "saturated",
                 retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class BuildCrashed(ReproError):
    """A build request kept killing its worker process and was
    quarantined as a poison config (or died with its crash budget
    spent).

    The process-pool build backend raises this instead of retrying
    forever: a request that SIGKILLs/OOMs every worker it touches
    must be isolated, not re-flown into a healthy pool.

    Attributes:
        key: the bundle key of the poisonous request.
        crashes: worker deaths charged to it.
    """

    def __init__(self, message: str, key: str = "",
                 crashes: int = 0) -> None:
        super().__init__(message)
        self.key = key
        self.crashes = crashes


class SignoffError(ReproError):
    """A compiled macro failed signoff verification in ``strict`` mode.

    Attributes:
        report: the :class:`~repro.verify.report.SignoffReport` as a
            plain JSON-serializable dict (this module must stay
            import-light, so the typed report is not stored directly;
            rebuild it with ``SignoffReport.from_dict`` if needed).
        failure_class: the highest-priority failing checker family,
            one of ``"drc"``, ``"lvs"``, ``"control"``.
    """

    def __init__(self, message: str, report: Optional[dict] = None,
                 failure_class: str = "") -> None:
        super().__init__(message)
        self.report = report if report is not None else {}
        self.failure_class = failure_class
