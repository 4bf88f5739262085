"""Deterministic chaos-injection harness for the service tier.

Crash-safety claims are worthless untested, and real faults are rare
and unreproducible.  This module makes them cheap and deterministic:

* **Injection specs** (:class:`ChaosSpec` / :class:`ChaosPlan`) ride
  into build workers as plain dicts and fire at named points of the
  worker lifecycle (``spawn``, ``pre_build``, ``pre_publish``,
  ``publish``, ``post_publish``).  Actions: SIGKILL the worker, hang
  past its deadline, raise ``ENOSPC``, publish a *torn* entry, or
  corrupt the published bytes in place.  A plan injects a fixed number
  of times per key and then stands down, so every scenario ends in
  recovery — the point is proving the system heals, not that it
  breaks.
* **Scenarios** (:data:`SCENARIOS`, ``repro chaos`` on the CLI) each
  stage one fault against a real store/backend/server in a scratch
  directory and assert the recovery invariants the docs promise:

  - no admitted request is ever lost,
  - no corrupt artifact bytes are ever returned to a caller,
  - the artifacts served after recovery are byte-identical to a
    clean, fault-free build,
  - a killed server replays its WAL to completion on restart.

The harness intentionally reaches into :class:`ArtifactStore` layout
internals (``_entry_dir``) — simulating torn disks requires writing
the torn bytes somewhere real.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.bist.march import IFA_9
from repro.core.config import RamConfig
from repro.core.errors import ConfigError
from repro.service.backend import ProcessPoolBackend
from repro.service.bundle import build_bundle, bundle_key
from repro.service.store import MANIFEST, STORE_VERSION, ArtifactStore, _sha256

#: Injection points a worker passes through, in lifecycle order.
POINTS = ("spawn", "pre_build", "pre_publish", "publish", "post_publish")

#: Supported fault actions.
ACTIONS = ("kill", "hang", "enospc", "torn_publish", "corrupt")


# ---------------------------------------------------------------------------
# injection: specs, plans, and the worker-side hook
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosSpec:
    """One fault: ``action`` fired when the worker reaches ``point``."""

    action: str
    point: str
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigError(f"unknown chaos action {self.action!r}")
        if self.point not in POINTS:
            raise ConfigError(f"unknown chaos point {self.point!r}")

    def to_dict(self) -> dict:
        return {"action": self.action, "point": self.point,
                "hang_s": self.hang_s}


class ChaosPlan:
    """Deterministic injector handed to :class:`ProcessPoolBackend`.

    Injects ``spec`` into the first ``fail_times`` dispatches of each
    (matching) key, then stands down so the retry/recovery machinery
    can be observed healing.  Counts dispatches itself rather than
    trusting the caller's attempt number: crash retries deliberately
    do not consume attempts, but they must consume injections or a
    kill spec would quarantine every key it touches.
    """

    def __init__(self, spec: ChaosSpec, fail_times: int = 1,
                 keys: Optional[frozenset] = None) -> None:
        if fail_times < 0:
            raise ConfigError("fail_times must be >= 0")
        self.spec = spec
        self.fail_times = fail_times
        self.keys = keys
        self._dispatches: Counter = Counter()
        self._lock = threading.Lock()

    def spec_for(self, key: str, attempt: int) -> Optional[dict]:
        if self.keys is not None and key not in self.keys:
            return None
        with self._lock:
            self._dispatches[key] += 1
            if self._dispatches[key] > self.fail_times:
                return None
        return self.spec.to_dict()


def apply_chaos(point: str, spec: Mapping, store: Optional[ArtifactStore],
                key: str, bundle: Optional[Dict[str, bytes]] = None) -> bool:
    """Fire ``spec`` if the worker has reached its point.

    Called from :func:`repro.service.backend.build_in_worker` at each
    lifecycle point.  Returns True only when the fault *replaced* the
    publish itself (``torn_publish``), telling the worker to skip its
    own ``store.put``.
    """
    if spec.get("point") != point:
        return False
    action = spec.get("action")
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "hang":
        time.sleep(float(spec.get("hang_s", 3600.0)))
        return False
    if action == "enospc":
        raise OSError(errno.ENOSPC,
                      "No space left on device (chaos injection)")
    if action == "torn_publish":
        _publish_torn(store, key, bundle)
        return True
    if action == "corrupt":
        _corrupt_entry(store, key)
        return False
    raise ConfigError(f"unknown chaos action {action!r}")


def _publish_torn(store: ArtifactStore, key: str,
                  bundle: Dict[str, bytes]) -> None:
    """Publish what a crash mid-publish would leave on a filesystem
    without atomic rename: a manifest promising full artifacts over a
    truncated payload."""
    entry = store._entry_dir(key)
    entry.mkdir(parents=True, exist_ok=True)
    manifest = {"version": STORE_VERSION, "key": key, "artifacts": {}}
    for index, (name, data) in enumerate(sorted(bundle.items())):
        manifest["artifacts"][name] = {
            "sha256": _sha256(data), "bytes": len(data)}
        if index == 0:
            data = data[: max(1, len(data) // 2)]  # the torn artifact
        (entry / name).write_bytes(data)
    (entry / MANIFEST).write_text(
        json.dumps(manifest, sort_keys=True), encoding="utf-8")


def _corrupt_entry(store: ArtifactStore, key: str) -> None:
    """Flip bits in one published artifact, bypassing the store API."""
    entry = store._entry_dir(key)
    for path in sorted(entry.iterdir()):
        if path.name == MANIFEST:
            continue
        data = path.read_bytes()
        path.write_bytes(bytes(b ^ 0xFF for b in data[:64]) + data[64:])
        return


# ---------------------------------------------------------------------------
# scenario harness
# ---------------------------------------------------------------------------


#: One small, fast configuration shared by every scenario.
_CONFIG = RamConfig(words=64, bpw=8, bpc=4, strap_every=8)

_REFERENCE: Optional[Dict[str, bytes]] = None


def _reference_bundle() -> Dict[str, bytes]:
    """A clean, fault-free build of the scenario config (memoised —
    the byte-identity oracle every scenario compares against)."""
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = build_bundle(_CONFIG, IFA_9)
    return _REFERENCE


class _Checks:
    """Collects named pass/fail assertions for one scenario."""

    def __init__(self) -> None:
        self.items: List[Tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append((name, bool(ok), detail))
        return bool(ok)

    __call__ = check


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of one chaos scenario."""

    name: str
    passed: bool
    elapsed_s: float
    checks: Tuple[Tuple[str, bool, str], ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": [
                {"check": name, "passed": ok,
                 **({"detail": detail} if detail else {})}
                for name, ok, detail in self.checks
            ],
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"[{verdict}] {self.name} ({self.elapsed_s:.1f}s)"]
        for name, ok, detail in self.checks:
            mark = "ok" if ok else "FAILED"
            suffix = f" — {detail}" if detail and not ok else ""
            lines.append(f"    {mark:>6}  {name}{suffix}")
        return "\n".join(lines)


def _fresh_backend(workdir: Path, plan: ChaosPlan,
                   deadline_s: float = 120.0) -> ProcessPoolBackend:
    store = ArtifactStore(workdir / "store")
    return ProcessPoolBackend(store, workers=2, deadline_s=deadline_s,
                              chaos=plan, poll_s=0.01)


def _assert_recovered(check: _Checks, backend: ProcessPoolBackend,
                      key: str, result) -> None:
    """The invariants every single-fault build scenario must satisfy."""
    reference = _reference_bundle()
    check("request survived the fault (not lost)", result is not None)
    if result is None:
        return
    check("artifacts byte-identical to a clean build",
          result.artifacts == reference,
          "served bytes differ from a fault-free build")
    check("published entry verifies on disk",
          backend.store.verify(key))
    check("recovery took more than one attempt or a crash retry",
          result.attempts > 1 or backend.stats.crashes > 0
          or backend.stats.timeouts > 0)


def _scenario_worker_kill(workdir: Path, check: _Checks) -> None:
    """SIGKILL the worker after it built but before it published."""
    plan = ChaosPlan(ChaosSpec("kill", "pre_publish"))
    key = bundle_key(_CONFIG, IFA_9)
    with _fresh_backend(workdir, plan) as backend:
        result = backend.build(key, _CONFIG, IFA_9)
        check("worker death was observed and blamed",
              backend.stats.crashes >= 1)
        check("key was not quarantined for a single crash",
              key not in backend.quarantined_keys)
        _assert_recovered(check, backend, key, result)


def _scenario_worker_hang(workdir: Path, check: _Checks) -> None:
    """Hang the worker past its deadline; supervision must kill it."""
    plan = ChaosPlan(ChaosSpec("hang", "pre_build", hang_s=600.0))
    key = bundle_key(_CONFIG, IFA_9)
    with _fresh_backend(workdir, plan, deadline_s=3.0) as backend:
        result = backend.build(key, _CONFIG, IFA_9)
        check("deadline fired on the hung worker",
              backend.stats.timeouts >= 1)
        _assert_recovered(check, backend, key, result)


def _scenario_torn_publish(workdir: Path, check: _Checks) -> None:
    """Worker publishes a torn entry (manifest promises more bytes
    than exist) and reports success; the read-back must catch it."""
    plan = ChaosPlan(ChaosSpec("torn_publish", "publish"))
    key = bundle_key(_CONFIG, IFA_9)
    with _fresh_backend(workdir, plan) as backend:
        result = backend.build(key, _CONFIG, IFA_9)
        check("torn entry was detected, never served",
              backend.store.stats.corrupt >= 1)
        check("read-back miss forced a rebuild",
              backend.stats.post_build_misses >= 1)
        _assert_recovered(check, backend, key, result)


def _scenario_corrupt_artifact(workdir: Path, check: _Checks) -> None:
    """Bit-rot the published bytes right after a clean publish."""
    plan = ChaosPlan(ChaosSpec("corrupt", "post_publish"))
    key = bundle_key(_CONFIG, IFA_9)
    with _fresh_backend(workdir, plan) as backend:
        result = backend.build(key, _CONFIG, IFA_9)
        check("corruption was detected, never served",
              backend.store.stats.corrupt >= 1)
        _assert_recovered(check, backend, key, result)


def _scenario_enospc(workdir: Path, check: _Checks) -> None:
    """The disk fills at publish time; the build must retry through."""
    plan = ChaosPlan(ChaosSpec("enospc", "pre_publish"))
    key = bundle_key(_CONFIG, IFA_9)
    with _fresh_backend(workdir, plan) as backend:
        result = backend.build(key, _CONFIG, IFA_9)
        check("ENOSPC failure was retried",
              backend.stats.retries >= 1)
        _assert_recovered(check, backend, key, result)


def _scenario_eviction_race(workdir: Path, check: _Checks) -> None:
    """Readers racing publish/evict churn from another store instance
    (simulating another process) must only ever see a clean hit with
    correct bytes or a clean miss — never garbage."""
    reference = _reference_bundle()
    size = sum(len(data) for data in reference.values())
    key = bundle_key(_CONFIG, IFA_9)
    other_key = "f" * len(key)
    other = {"macro.cif": b"x" * size}  # same footprint, different key
    # Two instances on one root = two locks = real interleaving, the
    # way two server processes sharing a store volume interleave.
    reader_store = ArtifactStore(workdir / "store")
    writer_store = ArtifactStore(workdir / "store",
                                 byte_budget=int(size * 1.5))
    writer_store.put(key, reference)
    mismatches: List[str] = []
    reads = hits = 0
    stop = threading.Event()

    def hammer() -> None:
        nonlocal reads, hits
        while not stop.is_set():
            got = reader_store.get(key)
            reads += 1
            if got is not None:
                hits += 1
                if got != reference:
                    mismatches.append("wrong bytes served")

    thread = threading.Thread(target=hammer, daemon=True)
    thread.start()
    try:
        # Budget fits ~1.5 bundles: every publish of `other` evicts
        # whichever bundle is LRU; re-publishing `key` churns it back.
        for _ in range(20):
            writer_store.put(other_key, other)
            writer_store.delete(other_key)
            writer_store.put(key, reference)
    finally:
        stop.set()
        thread.join(timeout=30.0)
    check("reader observed the churn", reads > 0)
    check("every hit served byte-identical artifacts",
          not mismatches, f"{len(mismatches)} corrupt read(s)")
    writer_store.put(key, reference)
    final = reader_store.get(key)
    check("bundle is cleanly readable after the churn",
          final == reference)


def _scenario_wal_replay(workdir: Path, check: _Checks) -> None:
    """A server killed after admitting (but before finishing) a
    request must replay it from the WAL on restart."""
    from repro.service.server import MacroServer
    from repro.service.wal import RequestLog

    store = ArtifactStore(workdir / "store")
    key = bundle_key(_CONFIG, IFA_9)
    wal_path = workdir / "requests.wal"
    # The "killed" server: admit was journaled, done never happened.
    dead = RequestLog(wal_path)
    dead.open()
    dead.admit(key=key, config=_CONFIG.to_dict(),
               march_name=IFA_9.name, march_notation=str(IFA_9),
               signoff=None)
    dead.close()
    # The restart: a fresh server over the same store and WAL.
    server = MacroServer(store=store, wal=RequestLog(wal_path))
    try:
        check("server became ready after replay",
              server.wait_ready(timeout=300.0))
        check("replay reported the orphaned request",
              server.stats()["wal"]["replayed"] == 1)
        check("orphaned request was rebuilt and published",
              store.contains(key) and store.verify(key))
        check("replayed artifacts byte-identical to a clean build",
              store.get(key) == _reference_bundle())
    finally:
        server.shutdown()
    survivor = RequestLog(wal_path)
    check("wal drained after replay", survivor.open() == [])
    survivor.close()


def _scenario_batch_worker_kill(workdir: Path, check: _Checks) -> None:
    """A worker SIGKILLed mid-batch must cost only a retry of its own
    item: every item in the batch completes, bytes stay identical,
    and the WAL drains to empty."""
    from repro.service.server import MacroServer
    from repro.service.wal import RequestLog

    store = ArtifactStore(workdir / "store")
    victim_key = bundle_key(_CONFIG, IFA_9)
    plan = ChaosPlan(ChaosSpec("kill", "pre_publish"),
                     keys=frozenset({victim_key}))
    backend = ProcessPoolBackend(store, workers=2, deadline_s=120.0,
                                 chaos=plan, poll_s=0.01)
    configs = [RamConfig(words=words, bpw=8, bpc=4, strap_every=strap)
               for words in (64, 128) for strap in (8, 16)]
    assert bundle_key(configs[0], IFA_9) == victim_key
    server = MacroServer(store=store, workers=4, backend=backend,
                         wal=RequestLog(workdir / "requests.wal"))
    try:
        outcomes = server.submit_batch(
            [(config, IFA_9, None) for config in configs])
        check("every batch item was admitted",
              all(tag == "future" for tag, _ in outcomes))
        responses = []
        for tag, value in outcomes:
            responses.append(value.result(timeout=300.0)
                             if tag == "future" else None)
        check("every item completed despite the worker kill",
              all(response is not None for response in responses))
        check("the victim's worker death was observed",
              backend.stats.crashes >= 1)
        check("victim artifacts byte-identical to a clean build",
              responses[0].artifacts == _reference_bundle())
        check("every published entry verifies on disk",
              all(store.verify(response.key)
                  for response in responses))
        deadline = time.monotonic() + 5.0
        while server._wal.pending() and time.monotonic() < deadline:
            time.sleep(0.02)
        check("wal drained: no batch admit was lost or duplicated",
              server._wal.pending() == [])
    finally:
        server.shutdown()


SCENARIOS: Dict[str, Callable[[Path, _Checks], None]] = {
    "worker_kill": _scenario_worker_kill,
    "worker_hang": _scenario_worker_hang,
    "torn_publish": _scenario_torn_publish,
    "corrupt_artifact": _scenario_corrupt_artifact,
    "enospc": _scenario_enospc,
    "eviction_race": _scenario_eviction_race,
    "wal_replay": _scenario_wal_replay,
    "batch_worker_kill": _scenario_batch_worker_kill,
}


def run_scenario(name: str, workdir) -> ScenarioReport:
    """Run one scenario in ``workdir/<name>``; never raises."""
    runner = SCENARIOS.get(name)
    if runner is None:
        raise ConfigError(
            f"unknown chaos scenario {name!r}; "
            f"known: {', '.join(sorted(SCENARIOS))}")
    checks = _Checks()
    scratch = Path(workdir) / name
    scratch.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    try:
        runner(scratch, checks)
    except Exception as error:  # a scenario crash is a failure, not an abort
        checks.check("scenario completed without raising", False,
                     f"{type(error).__name__}: {error}")
    return ScenarioReport(
        name=name,
        passed=all(ok for _, ok, _ in checks.items),
        elapsed_s=time.monotonic() - t0,
        checks=tuple(checks.items),
    )


def run_scenarios(names, workdir) -> List[ScenarioReport]:
    """Run scenarios in order; ``["all"]`` means every one of them."""
    if list(names) == ["all"]:
        names = list(SCENARIOS)
    return [run_scenario(name, workdir) for name in names]
