"""The benchmark's four workloads, and the child process that times them.

Every timed repetition runs in a fresh child process, so cold caches
are really cold and one repetition cannot warm the next.  Run as a
script, this module is that child: it reads one JSON spec on stdin,
sets the workload up, times its operations (optionally under the
:mod:`tracer`), checks every output, and prints one JSON result line.

Each workload reaches the program only through public callables of
``repro.core``, ``repro.service``, ``repro.bist``, ``repro.bisr``,
``repro.memsim`` and ``repro.runtime``; the tracer wraps the same
callables from outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

# -- per-layer metrics --------------------------------------------------------

def _floorplan_span(args: tuple, kwargs: dict) -> str:
    """``build_floorplan(with_bisr=False)`` is the baseline floorplan."""
    with_bisr = kwargs.get("with_bisr", args[2] if len(args) > 2 else True)
    return "core.floorplan" if with_bisr else "core.baseline_floorplan"


#: Public callables the traced run wraps: (module, class or None,
#: attribute, span name, hot).  Hot callables run tens of thousands of
#: times per operation and are aggregated instead of logged per call.
TRACE_POINTS = (
    ("repro.core.compiler", None, "build_floorplan", _floorplan_span, False),
    ("repro.core.compiler", None, "render_plane_text", "core.control_planes",
     False),
    ("repro.core.compiler", None, "build_datasheet", "core.datasheet", False),
    ("repro.core.compiler", None, "write_cif", "layout.cif_write", False),
    ("repro.verify.signoff", None, "hierarchical_drc", "verify.drc_seam",
     False),
    ("repro.layout.drc", "DrcChecker", "check", "verify.drc_leaf", False),
    ("repro.verify.signoff", None, "check_connectivity", "verify.lvs", False),
    ("repro.verify.signoff", None, "check_control", "verify.control", False),
    ("repro.service.bundle", None, "bundle_key", "service.bundle_key", False),
    ("repro.service.store", "ArtifactStore", "get", "service.store_get",
     False),
    ("repro.service.store", "ArtifactStore", "put", "service.store_put",
     False),
    ("repro.bist.controller", "TrplaController", "run", "bist.controller",
     False),
    ("repro.bist.controller", "BistScheduler", "run", "bist.scheduler", False),
    ("repro.bisr.escalation", "RepairSupervisor", "run", "bisr.supervisor",
     False),
    ("repro.memsim.injector", "DefectInjector", "inject", "memsim.inject",
     False),
    ("repro.bist.trpla", "Trpla", "evaluate", "bist.trpla_eval", True),
    ("repro.memsim.device", "BisrRam", "read", "memsim.read", True),
    ("repro.memsim.device", "BisrRam", "write", "memsim.write", True),
)

#: Span -> metric reporting its self time.  A span's self time is its
#: duration minus that of the wrapped calls inside it, so the hierdrc
#: span's self time is the seam (composite) DRC: its leaf checks are
#: the ``verify.drc_leaf`` span.
SELF_TIME_METRICS = {
    "core.floorplan": "core.floorplan_s",
    "core.baseline_floorplan": "core.baseline_floorplan_s",
    "core.control_planes": "core.control_planes_s",
    "core.datasheet": "core.datasheet_s",
    "layout.cif_write": "layout.cif_write_s",
    "verify.drc_leaf": "verify.drc_leaf_s",
    "verify.drc_seam": "verify.drc_seam_s",
    "verify.lvs": "verify.lvs_s",
    "verify.control": "verify.control_s",
    "service.bundle_key": "service.bundle_key_s",
    "service.store_get": "service.store_get_s",
    "service.store_put": "service.store_put_s",
    "bist.trpla_eval": "bist.trpla_eval_s",
    "bist.controller": "bist.controller_self_s",
    "bist.scheduler": "bist.scheduler_self_s",
    "bisr.supervisor": "bisr.supervisor_self_s",
    "memsim.read": "memsim.read_s",
    "memsim.write": "memsim.write_s",
    "memsim.inject": "memsim.inject_s",
}

#: Span -> metric reporting its call count.
CALL_METRICS = {
    "verify.drc_leaf": "verify.drc_leaf_calls",
    "bist.trpla_eval": "bist.trpla_eval_calls",
    "bist.scheduler": "bist.scheduler_runs",
    "memsim.read": "memsim.reads",
    "memsim.write": "memsim.writes",
}

# Which end-to-end metrics of which workload a layer should move.
_COLD = {"compile_cold": ("scaled_latency_p50_s",)}
_COLD_RSS = {"compile_cold": ("scaled_latency_p50_s", "peak_rss_mb")}
_WARM = {"compile_warm": ("scaled_latency_p50_s", "scaled_latency_p95_s")}
_SELFTEST = {"selftest": ("scaled_latency_p50_s", "scaled_sim_kops_per_s")}
_REPAIR = {"repair_campaign": ("scaled_latency_p50_s",
                               "scaled_sim_kops_per_s")}
_ARRAY = {**_SELFTEST, **_REPAIR}

#: Every per-layer metric: name -> (unit, better, {workload: end-to-end
#: metrics it should move}).  A workload that does not reach a layer
#: reports 0 for it.
PER_LAYER: Dict[str, tuple] = {
    "trace.overhead_pct": ("%", "lower", {}),
    "trace.attributed_pct": ("%", "higher", {}),
    "core.floorplan_s": ("s", "lower", _COLD_RSS),
    "core.baseline_floorplan_s": ("s", "lower",
                                  {**_COLD, "compile_warm": ("setup_s",)}),
    "core.control_planes_s": ("s", "lower", _COLD),
    "core.datasheet_s": ("s", "lower", _COLD),
    "core.compile_nosignoff_s": ("s", "lower", {"selftest": ("setup_s",)}),
    "layout.cif_write_s": ("s", "lower", _COLD),
    "verify.drc_leaf_s": ("s", "lower", _COLD_RSS),
    "verify.drc_leaf_max_s": ("s", "lower", _COLD),
    "verify.drc_leaf_calls": ("count", "lower", _COLD),
    "verify.drc_leaf_shapes": ("count", "lower", _COLD),
    "verify.drc_seam_s": ("s", "lower", _COLD_RSS),
    "verify.drc_unique_cells": ("count", "lower", _COLD),
    "verify.drc_composite_checks": ("count", "lower", _COLD),
    "verify.lvs_s": ("s", "lower", _COLD),
    "verify.control_s": ("s", "lower", _COLD),
    "service.bundle_key_s": ("s", "lower", _WARM),
    "service.store_get_s": ("s", "lower", _WARM),
    "service.store_put_s": ("s", "lower", _COLD),
    "service.store_hits": ("count", "higher", _WARM),
    "service.bytes_read": ("bytes", "lower", _WARM),
    "service.bundle_bytes": ("bytes", "lower", _COLD),
    "bist.trpla_eval_s": ("s", "lower", _SELFTEST),
    "bist.trpla_eval_calls": ("count", "lower", _SELFTEST),
    "bist.controller_self_s": ("s", "lower", _SELFTEST),
    "bist.scheduler_self_s": ("s", "lower", _REPAIR),
    "bist.scheduler_runs": ("count", "lower", _REPAIR),
    "bist.clocks": ("count", "lower", _SELFTEST),
    "bist.ops": ("count", "lower", _SELFTEST),
    "bist.fails": ("count", "lower", _SELFTEST),
    "bisr.supervisor_self_s": ("s", "lower", _REPAIR),
    "bisr.trials_repaired": ("count", "higher", _REPAIR),
    "bisr.spares_used": ("count", "lower", _REPAIR),
    "memsim.read_s": ("s", "lower", _ARRAY),
    "memsim.reads": ("count", "lower", _ARRAY),
    "memsim.write_s": ("s", "lower", _ARRAY),
    "memsim.writes": ("count", "lower", _ARRAY),
    "memsim.inject_s": ("s", "lower", _REPAIR),
}


def install_tracer(tracer) -> Dict[str, int]:
    """Wrap every trace point; returns the tallies the hooks fill."""
    import importlib

    tallies = {"verify.drc_leaf_shapes": 0, "service.store_hits": 0,
               "service.bytes_read": 0}

    def leaf_shapes(args, kwargs, result) -> None:
        tallies["verify.drc_leaf_shapes"] += len(args[1].shapes())

    def store_read(args, kwargs, result) -> None:
        if result is not None:
            tallies["service.store_hits"] += 1
            tallies["service.bytes_read"] += sum(map(len, result.values()))

    hooks = {"verify.drc_leaf": leaf_shapes, "service.store_get": store_read}
    for module, cls, attr, span, hot in TRACE_POINTS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, span, hot=hot, on_result=hooks.get(span))
    return tallies


def layer_metrics(tracer, tallies: Dict[str, int], op_s: float) -> dict:
    """Per-layer metrics of one traced child, from its spans."""
    out = dict(tallies)
    stats = tracer.stats
    attributed = 0.0
    for span, metric in SELF_TIME_METRICS.items():
        s = stats.get(span)
        out[metric] = s.self_s if s else 0.0
        attributed += out[metric]
    for span, metric in CALL_METRICS.items():
        s = stats.get(span)
        out[metric] = s.calls if s else 0
    leaf = stats.get("verify.drc_leaf")
    out["verify.drc_leaf_max_s"] = leaf.max_s if leaf else 0.0
    out["trace.attributed_pct"] = 100.0 * attributed / op_s if op_s else 0.0
    return out


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload: set-up, a timed operation, and its output check.

    A child runs at least ``ops`` operations, and more until its time
    budget is spent, unless ``fresh`` asks for one operation per
    process (a cold compile is only cold once).
    """

    name = ""
    why = ""
    ops = 1
    fresh = False

    def inputs(self, seed: int, smoke: bool) -> dict:
        """Generate the inputs in the parent (the program sees only these)."""
        return {"seed": seed, "smoke": smoke}

    def setup(self, inputs: dict, workdir: str) -> dict:
        raise NotImplementedError

    def request(self, state: dict, rep: int, index: int):
        """The argument of one operation, built outside the timed region."""
        return None

    def op(self, state: dict, request):
        raise NotImplementedError

    def check(self, state: dict, inputs: dict, request, output) -> List[str]:
        return []

    def counts(self, request, output) -> Dict[str, int]:
        """Exact counts of one operation (they repeat exactly on a seed)."""
        return {}

    def sim_ops(self, state: dict) -> int:
        """Simulated memory operations so far (0 when nothing simulates)."""
        return sum(sum(d.port_ops) for d in state.get("devices", ()))


#: Output goldens of the 1024x32, bpc 8 strict compile: the ROADMAP's
#: behaviour contract is byte-identical CIF, plane files and datasheet.
COLD_GOLDENS = {
    "macro.cif":
        "5af18d35137d0e9ca2c596c007884cb1faf19c55c453b516157d398170fc989b",
    "trpla_and.plane":
        "9206733b985b2321ed37c4d2c0dd115d8e8a9564089fb5d070888a73bfaede56",
    "trpla_or.plane":
        "1958a89e822f9954f5ef29f3ab14e21fcce72b3a172ce919860e826d01d473d5",
    "datasheet.txt":
        "515ab6127e233ea5bdfbed395d24f2ed61d0e8df64e95b8f5d5880e915c4857e",
}


class CompileCold(Workload):
    name = "compile_cold"
    why = ("strict-signoff compile in a fresh process, so the DRC cache "
           "starts empty; the signoff path")
    fresh = True

    def setup(self, inputs, workdir):
        from repro.core.config import RamConfig
        from repro.service import ArtifactStore, compile_cached
        from repro.tech.process import get_process
        # The compiler imports signoff lazily; module loading is set-up.
        import repro.verify.signoff  # noqa: F401

        config = (RamConfig(words=64, bpw=8, bpc=4, strap_every=8)
                  if inputs["smoke"] else RamConfig(words=1024, bpw=32, bpc=8))
        get_process(config.process)
        store = ArtifactStore(tempfile.mkdtemp(dir=workdir))
        return {"config": config, "store": store, "compile": compile_cached}

    def op(self, state, request):
        return state["compile"](state["config"], signoff="strict",
                                store=state["store"])

    def check(self, state, inputs, request, output):
        bundle, hit, _ = output
        errors = []
        if hit:
            errors.append("cold compile was served from the store")
        if not json.loads(bundle["signoff.json"])["clean"]:
            errors.append("signoff is not clean")
        if not inputs["smoke"]:
            errors += [f"{name} sha256 differs from the golden"
                       for name, digest in COLD_GOLDENS.items()
                       if hashlib.sha256(bundle[name]).hexdigest() != digest]
        return errors

    def counts(self, request, output):
        from repro.service import CORE_ARTIFACTS

        bundle = output[0]
        drc = json.loads(bundle["signoff.json"])["results"][0]["stats"]
        # signoff.json records checker run times, so its size varies.
        return {"service.bundle_bytes":
                sum(len(bundle[name]) for name in CORE_ARTIFACTS),
                "verify.drc_unique_cells": drc["unique_cells"],
                "verify.drc_composite_checks": drc["composite_checks"]}


class CompileWarm(Workload):
    name = "compile_warm"
    why = ("store hits only: bypasses signoff and simulation, catches "
           "per-call overhead in key derivation and store reads")
    #: Enough hits per child for ten samples beyond its p95.
    ops = 400
    CONFIGS = (
        {"words": 1024, "bpw": 32, "bpc": 8},
        {"words": 256, "bpw": 16, "bpc": 4},
        {"words": 64, "bpw": 8, "bpc": 4, "strap_every": 8},
        {"words": 4096, "bpw": 32, "bpc": 16},
    )

    def setup(self, inputs, workdir):
        from repro.core.config import RamConfig
        from repro.service import ArtifactStore, compile_cached

        configs = [RamConfig(**c) for c in self.CONFIGS]
        if inputs["smoke"]:
            configs = configs[1:3]
        store = ArtifactStore(tempfile.mkdtemp(dir=workdir))
        bundles = [compile_cached(c, store=store)[0] for c in configs]
        return {"configs": configs, "bundles": bundles, "store": store,
                "compile": compile_cached,
                "rng": random.Random(inputs["seed"]), "order": []}

    def request(self, state, rep, index):
        # Each round of len(configs) requests visits every config once,
        # in a seeded order.
        order = state["order"]
        if not order:
            order.extend(range(len(state["configs"])))
            state["rng"].shuffle(order)
        return order.pop()

    def op(self, state, request):
        return state["compile"](state["configs"][request],
                                store=state["store"])

    def check(self, state, inputs, request, output):
        bundle, hit, _ = output
        if not hit:
            return ["warm request missed the store"]
        if bundle != state["bundles"][request]:
            return ["store hit differs from the set-up bundle"]
        return []


class SelfTest(Workload):
    name = "selftest"
    why = ("TRPLA-clocked two-pass BIST/BISR of a 64x16 macro: the "
           "controller and TRPLA evaluation path")
    DEFECTS = 3
    #: ``repro selftest --words 64 --bpw 16 --bpc 4 --defects 3 --seed 1``
    PINNED = {1: {"clocks": 7791, "ops": 7680, "fails": 45,
                  "tlb": [[4, 18], [8, 16], [15, 17]]}}

    @staticmethod
    def _config(smoke: bool):
        from repro.core.config import RamConfig

        return (RamConfig(words=64, bpw=8, bpc=4, strap_every=8) if smoke
                else RamConfig(words=64, bpw=16, bpc=4))

    def _device(self, ram, seed: int, draw: int):
        """The device of the ``draw``-th defect draw of ``seed``."""
        from repro.memsim import DefectInjector

        rng = random.Random(seed)
        for _ in range(draw + 1):
            device = ram.simulation_model()
            DefectInjector(rng=rng).inject(device.array, self.DEFECTS)
        return device

    def inputs(self, seed, smoke):
        """Pick the first defect draw the device can repair, and its
        expected outcome from the ``BistScheduler`` reference.

        An unrepairable draw stops the TRPLA controller at its first
        pass-2 failure, which would make the operation seed-dependent
        in length; every draw the workload keeps runs both passes.
        """
        from repro.bist import IFA_9, BistScheduler
        from repro.core.compiler import compile_ram

        config = self._config(smoke)
        ram = compile_ram(config)
        for draw in range(50):
            device = self._device(ram, seed, draw)
            reference = BistScheduler(IFA_9, config.bpw).run(device, passes=2)
            if reference.repaired:
                return {"seed": seed, "smoke": smoke, "draw": draw,
                        "expect": {"ops": reference.op_count,
                                   "fails": reference.fail_count,
                                   "tlb": _tlb(device)}}
        raise RuntimeError(f"no repairable defect draw for seed {seed}")

    def setup(self, inputs, workdir):
        from repro.core.compiler import compile_ram

        start = time.perf_counter()
        ram = compile_ram(self._config(inputs["smoke"]))
        compile_s = time.perf_counter() - start
        return {"ram": ram, "seed": inputs["seed"], "draw": inputs["draw"],
                "devices": [],
                "setup_layers": {"core.compile_nosignoff_s": compile_s}}

    def request(self, state, rep, index):
        # Every operation tests a fresh copy of the same defective device.
        device = self._device(state["ram"], state["seed"], state["draw"])
        state["devices"].append(device)
        return device, state["ram"].self_test_controller(device)

    def op(self, state, request):
        return request[1].run()

    def check(self, state, inputs, request, output):
        device, controller = request
        got = {"ops": output.op_count, "fails": output.fail_count,
               "tlb": _tlb(device), "clocks": controller.cycles}
        errors = [] if output.repaired else ["device did not repair"]
        expect = dict(inputs["expect"])
        if not inputs["smoke"]:
            expect.update(self.PINNED.get(inputs["seed"], {}))
        errors += [f"{key}: got {got[key]}, expected {value}"
                   for key, value in expect.items() if got[key] != value]
        return errors

    def counts(self, request, output):
        return {"bist.clocks": request[1].cycles,
                "bist.ops": output.op_count, "bist.fails": output.fail_count}


def _tlb(device) -> List[List[int]]:
    return sorted([row, spare]
                  for row, spare in device.tlb.mapped_rows().items())


class RepairCampaign(Workload):
    name = "repair_campaign"
    why = ("supervised BistScheduler repair with intermittent faults: "
           "array read/write without the TRPLA")
    PARAMS = {"rows": 64, "bpw": 16, "bpc": 4, "spares": 4, "defects": 3,
              "intermittent": 0.2, "escalation_attempts": 2}
    #: One trial per operation.  About a fifth of trials need a second
    #: BIST pass and take twice as long; with one trial an operation,
    #: the median is the common one-pass trial, where shards of several
    #: trials made the median move with how many slow trials a seed
    #: drew.
    TRIALS = 1
    SHARDS = 64
    #: The traced run covers this many trials.
    ops = 8
    #: Seed-1 aggregates of each repetition's first shard: (repaired,
    #: degraded, spares_used, unrepaired_rows).
    PINNED = {(0, 0): (1, 0, 3, 0), (1, 0): (0, 1, 1, 0),
              (2, 0): (1, 0, 3, 0), (3, 0): (1, 0, 3, 0),
              (4, 0): (1, 0, 3, 0)}

    def setup(self, inputs, workdir):
        import numpy as np

        import repro.memsim
        from repro.runtime.drivers import repair_shard
        from repro.runtime.runner import ShardSpec

        trials = self.TRIALS
        params = {**self.PARAMS, "trials": trials * self.SHARDS}
        # The shard builds its devices through the package export;
        # recording them costs one call per trial and lets the run
        # count simulated reads and writes without tracing.
        devices = []
        real = repro.memsim.BisrRam

        def recorded(*args, **kwargs):
            device = real(*args, **kwargs)
            devices.append(device)
            return device

        repro.memsim.BisrRam = recorded
        return {"params": params, "trials": trials, "devices": devices,
                "shard": repair_shard, "spec": ShardSpec,
                "seed_seq": np.random.SeedSequence, "seed": inputs["seed"]}

    def request(self, state, rep, index):
        # Operation ``index`` of repetition ``rep`` is one shard of a
        # SHARDS-way campaign whose seed lineage is (seed, rep, index),
        # so the operations of a run all cover different trials.
        return state["spec"](index % self.SHARDS, self.SHARDS,
                             state["seed_seq"](state["seed"],
                                               spawn_key=(rep, index)))

    def op(self, state, request):
        return state["shard"](state["params"], request)

    def check(self, state, inputs, request, output):
        errors = []
        if output["trials"] != state["trials"]:
            errors.append(f"shard ran {output['trials']} trials, "
                          f"expected {state['trials']}")
        if output["repaired"] + output["degraded"] != output["trials"]:
            errors.append("repaired + degraded != trials")
        key = request.seed_seq.spawn_key
        pinned = (None if inputs["smoke"] or inputs["seed"] != 1
                  else self.PINNED.get(key))
        got = (output["repaired"], output["degraded"], output["spares_used"],
               output["unrepaired_rows"])
        if pinned is not None and got != pinned:
            errors.append(f"shard {key}: got {got}, expected {pinned}")
        return errors

    def counts(self, request, output):
        return {"bisr.trials_repaired": output["repaired"],
                "bisr.spares_used": output["spares_used"]}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (CompileCold(), CompileWarm(), SelfTest(),
                        RepairCampaign())
}


# -- the child ----------------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ``ru_maxrss`` would do, but Linux carries it across ``exec``, so a
    child would report its parent's peak when that is larger.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_child(spec: dict) -> dict:
    """Set one workload up, run its operations, report.

    ``samples`` are the operations' wall times less the host-speed
    probes that ran inside them; ``scaled`` are the same operations at
    the probes' nominal host speed.  A traced child runs no probe.
    """
    workload = WORKLOADS[spec["workload"]]
    inputs = spec["inputs"]
    state = workload.setup(inputs, spec["workdir"])
    setup_s = time.monotonic() - spec["spawned_at"]

    tracer = tallies = probe = None
    if spec.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
        tallies = install_tracer(tracer)
    elif spec["ops"]:
        from probe import Probe

        probe = Probe()
        probe.start()

    samples: List[float] = []
    spans: List[tuple] = []
    errors: List[str] = []
    counts: Dict[str, int] = {}
    attempted = failed = 0
    sim_before = workload.sim_ops(state)
    budget = 0.0 if workload.fresh else spec["budget_s"]
    try:
        while attempted < spec["ops"] or sum(samples) < budget:
            request = workload.request(state, spec["rep"], attempted)
            attempted += 1
            probed = probe.spent_s if probe else 0.0
            try:
                start = time.perf_counter()
                if tracer is None:
                    output = workload.op(state, request)
                else:
                    output = tracer.call("op", workload.op, state, request)
                end = time.perf_counter()
            except Exception as error:  # the run reports it and stops
                failed += 1
                errors.append(f"{type(error).__name__}: {error}")
                break
            samples.append(end - start
                           - ((probe.spent_s if probe else 0.0) - probed))
            spans.append((start, end))
            problems = workload.check(state, inputs, request, output)
            if problems:
                failed += 1
                errors += problems
            if not counts:
                counts = workload.counts(request, output)
    finally:
        if probe:
            probe.stop()

    result = {
        "setup_s": setup_s,
        "samples": samples,
        "scaled": ([probe.scaled(a, b, s) for s, (a, b) in zip(samples, spans)]
                   if probe else []),
        "rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "counts": counts,
        "sim_ops": workload.sim_ops(state) - sim_before,
    }
    if tracer is not None:
        tracer.close()
        op_s = sum(samples)
        layers = layer_metrics(tracer, tallies, op_s)
        layers.update(counts)
        layers.update(state.get("setup_layers", {}))
        result["layers"] = layers
        tracer.write_chrome(spec["trace_path"], {
            "workload": workload.name, "inputs": inputs,
            "operations": len(samples), "op_s": op_s})
    return result


def main() -> None:
    spec = json.load(sys.stdin)
    stdout = sys.stdout
    # Anything the program prints goes to stderr: stdout carries only
    # the result line.
    with contextlib.redirect_stdout(sys.stderr):
        result = run_child(spec)
    stdout.write(json.dumps(result) + "\n")
    stdout.flush()


if __name__ == "__main__":
    main()
