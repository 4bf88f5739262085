"""Campaign drivers: the repo's long statistical workloads, sharded.

Each driver is a pair of module-level functions — a shard task
(executed in worker processes, so picklable by name and fed only
JSON-serializable ``params`` plus a :class:`~repro.runtime.runner.ShardSpec`)
and a reducer (executed once on the main process over the *ordered*
shard results) — plus a ``*_campaign`` factory building the
:class:`~repro.runtime.runner.CampaignSpec`.

Five workloads are wired through the runtime:

* **Monte-Carlo yield** (:func:`montecarlo_campaign`) — Fig. 4 scale
  row-level yield simulation, trials split evenly over shards.
* **2-D Monte-Carlo yield** (:func:`montecarlo2d_campaign`) — cell and
  line defects over a row+column spare mix, repairability decided by
  the real must-repair + branch-and-bound allocator.
* **Fault-injection repair** (:func:`repair_campaign`) — inject
  defects, run the supervised BIST/BISR escalation ladder, count
  repaired / degraded devices.
* **SPICE sizing sweep** (:func:`sizing_campaign`) — one
  :func:`~repro.circuit.sizing.balance_inverter` run per NMOS width;
  the workload whose shards can genuinely raise
  :class:`~repro.core.errors.SpiceConvergenceError`.
* **Signoff sweep** (:func:`signoff_campaign`) — compile one geometry
  on every tech node with signoff in ``degrade`` mode, one shard per
  node; each shard's journaled result carries the full structured
  :class:`~repro.verify.report.SignoffReport` dict.
* **Tech matrix** (:func:`techmatrix_campaign`) — the registry-era
  signoff sweep: one shard per (rule deck, port count) grid point,
  compiling the geometry single- and dual-port on every named deck.
  The campaign params embed each deck's content fingerprint, so the
  checkpoint journal invalidates when a deck file is edited — a
  resumed run never adopts shards compiled against stale rules.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.errors import ConfigError
from repro.runtime.runner import CampaignSpec, ShardSpec


def _validate_workload(defects: float, trials: int) -> None:
    """Reject bad parameters at spec-build time, on the main process.

    Anything that would fail identically in every shard must surface
    as a :class:`ConfigError` (CLI exit code 2) before a single worker
    is spawned, not as ``n_shards`` 'unexpected' losses afterwards.
    """
    if defects < 0:
        raise ConfigError(f"defect count must be >= 0, got {defects!r}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")


def shard_trials(total: int, n_shards: int, index: int) -> int:
    """Trials assigned to shard ``index`` out of ``total``.

    Deterministic in (total, n_shards, index) only — never in worker
    count or completion order — and exact: the shard counts sum to
    ``total``, with the remainder spread over the lowest indices.
    """
    base, remainder = divmod(total, n_shards)
    return base + (1 if index < remainder else 0)


# ---------------------------------------------------------------------------
# Monte-Carlo yield (repro.yieldmodel.montecarlo)
# ---------------------------------------------------------------------------


def montecarlo_shard(params: dict, shard: ShardSpec) -> dict:
    from repro.yieldmodel.montecarlo import simulate_yield

    trials = shard_trials(params["trials"], shard.n_shards, shard.index)
    if trials == 0:
        return {"trials": 0, "good": 0}
    mc = simulate_yield(
        params["rows"], params["spares"], params["bpw"], params["bpc"],
        params["defects"], params.get("growth_factor", 1.0),
        trials=trials, rng=shard.rng(),
    )
    return {"trials": mc.trials, "good": mc.good}


def montecarlo_reduce(results: Sequence[Optional[dict]]) -> dict:
    from repro.yieldmodel.montecarlo import MonteCarloYield

    parts = [MonteCarloYield(trials=r["trials"], good=r["good"])
             for r in results if r is not None]
    merged = MonteCarloYield.merged(parts)
    aggregates = {"trials": merged.trials, "good": merged.good}
    if merged.trials:
        low, high = merged.wilson_interval()
        aggregates.update({
            "yield": merged.yield_estimate,
            "ci95": merged.confidence_95(),
            "wilson_low": low,
            "wilson_high": high,
        })
    return aggregates


def montecarlo_campaign(
    rows: int, spares: int, bpw: int, bpc: int, defects: float,
    trials: int = 100_000, n_shards: int = 8, seed: int = 0,
    growth_factor: float = 1.0,
) -> CampaignSpec:
    """Fig. 4 row-level yield simulation as a resumable campaign."""
    _validate_workload(defects, trials)
    return CampaignSpec(
        name="montecarlo-yield",
        task=montecarlo_shard,
        n_shards=n_shards,
        seed=seed,
        params={
            "rows": rows, "spares": spares, "bpw": bpw, "bpc": bpc,
            "defects": defects, "growth_factor": growth_factor,
            "trials": trials,
        },
        reduce=montecarlo_reduce,
    )


# ---------------------------------------------------------------------------
# 2-D Monte-Carlo yield (repro.yieldmodel.montecarlo + repro.bisr.allocate)
# ---------------------------------------------------------------------------


def montecarlo2d_shard(params: dict, shard: ShardSpec) -> dict:
    from repro.yieldmodel.montecarlo import simulate_yield_2d

    trials = shard_trials(params["trials"], shard.n_shards, shard.index)
    if trials == 0:
        return {"trials": 0, "good": 0}
    mc = simulate_yield_2d(
        params["rows"], params["bpw"], params["bpc"],
        params["spares_r"], params["spares_c"],
        params["defects"], params.get("growth_factor", 1.0),
        trials=trials, rng=shard.rng(),
        row_defect_frac=params.get("row_defect_frac", 0.0),
        col_defect_frac=params.get("col_defect_frac", 0.0),
        node_budget=params.get("node_budget", 4_000),
    )
    return {"trials": mc.trials, "good": mc.good}


def montecarlo2d_reduce(results: Sequence[Optional[dict]]) -> dict:
    # Same pooled-Bernoulli aggregate as the row-only driver.
    return montecarlo_reduce(results)


def montecarlo2d_campaign(
    rows: int, bpw: int, bpc: int, spares_r: int, spares_c: int,
    defects: float, trials: int = 20_000, n_shards: int = 8, seed: int = 0,
    growth_factor: float = 1.0, row_defect_frac: float = 0.0,
    col_defect_frac: float = 0.0, node_budget: int = 4_000,
) -> CampaignSpec:
    """2-D repairability simulation (allocator in the loop) as a
    resumable campaign.  Shard aggregates are bit-identical across
    worker counts and kill/resume because each shard draws from its own
    spawned SeedSequence and the reducer pools ordered results."""
    _validate_workload(defects, trials)
    if spares_r < 0 or spares_c < 0:
        raise ConfigError("spare counts must be >= 0")
    if not 0.0 <= row_defect_frac + col_defect_frac <= 1.0:
        raise ConfigError(
            "row/col defect fractions must sum to at most 1")
    return CampaignSpec(
        name="montecarlo-yield-2d",
        task=montecarlo2d_shard,
        n_shards=n_shards,
        seed=seed,
        params={
            "rows": rows, "bpw": bpw, "bpc": bpc,
            "spares_r": spares_r, "spares_c": spares_c,
            "defects": defects, "growth_factor": growth_factor,
            "trials": trials, "row_defect_frac": row_defect_frac,
            "col_defect_frac": col_defect_frac, "node_budget": node_budget,
        },
        reduce=montecarlo2d_reduce,
    )


# ---------------------------------------------------------------------------
# fault-injection repair (repro.memsim + repro.bisr)
# ---------------------------------------------------------------------------


def repair_shard(params: dict, shard: ShardSpec) -> dict:
    from repro.bist import IFA_9
    from repro.bisr import EscalationPolicy, RepairSupervisor
    from repro.memsim import BisrRam, DefectInjector, FaultMix

    rng = shard.py_rng()
    mix = FaultMix(column_defect=0.0,
                   intermittent=params.get("intermittent", 0.0))
    policy = EscalationPolicy(
        max_attempts=params.get("escalation_attempts", 2))
    supervisor = RepairSupervisor(IFA_9, bpw=params["bpw"], policy=policy)
    trials = shard_trials(params["trials"], shard.n_shards, shard.index)

    repaired = degraded = spares_used = unrepaired_rows = 0
    for _ in range(trials):
        device = BisrRam(rows=params["rows"], bpw=params["bpw"],
                         bpc=params["bpc"], spares=params["spares"])
        DefectInjector(rng=rng, mix=mix).inject(
            device.array, int(params["defects"]))
        outcome = supervisor.run(device)
        repaired += outcome.repaired
        degraded += outcome.degraded
        spares_used += outcome.spares_used
        if outcome.degraded:
            unrepaired_rows += len(outcome.unrepaired_rows)
    return {
        "trials": trials, "repaired": repaired, "degraded": degraded,
        "spares_used": spares_used, "unrepaired_rows": unrepaired_rows,
    }


def repair_reduce(results: Sequence[Optional[dict]]) -> dict:
    done = [r for r in results if r is not None]
    aggregates = {
        key: sum(r[key] for r in done)
        for key in ("trials", "repaired", "degraded", "spares_used",
                    "unrepaired_rows")
    }
    if aggregates["trials"]:
        aggregates["repaired_fraction"] = (
            aggregates["repaired"] / aggregates["trials"])
    return aggregates


def repair_campaign(
    rows: int, bpw: int, bpc: int, spares: int, defects: float,
    trials: int = 64, n_shards: int = 8, seed: int = 0,
    intermittent: float = 0.0, escalation_attempts: int = 2,
) -> CampaignSpec:
    """Supervised self-repair probability study as a campaign."""
    _validate_workload(defects, trials)
    return CampaignSpec(
        name="repair-probability",
        task=repair_shard,
        n_shards=n_shards,
        seed=seed,
        params={
            "rows": rows, "bpw": bpw, "bpc": bpc, "spares": spares,
            "defects": defects, "trials": trials,
            "intermittent": intermittent,
            "escalation_attempts": escalation_attempts,
        },
        reduce=repair_reduce,
    )


# ---------------------------------------------------------------------------
# SPICE sizing sweep (repro.circuit.sizing over repro.spice.engine)
# ---------------------------------------------------------------------------


def sizing_shard(params: dict, shard: ShardSpec) -> dict:
    from repro.circuit.sizing import balance_inverter
    from repro.tech import get_process

    widths = params["widths"]
    wn_um = widths[shard.index % len(widths)]
    sizing = balance_inverter(
        get_process(params["process"]), wn_um,
        load_ff=params.get("load_ff", 20.0),
        tolerance=params.get("tolerance", 0.05),
        max_iterations=params.get("max_iterations", 12),
    )
    return {
        "wn_um": sizing.wn_um, "wp_um": sizing.wp_um,
        "ratio": sizing.ratio, "rise_s": sizing.rise_s,
        "fall_s": sizing.fall_s, "imbalance": sizing.imbalance,
    }


def sizing_reduce(results: Sequence[Optional[dict]]) -> dict:
    done = [r for r in results if r is not None]
    aggregates = {"points": len(done)}
    if done:
        ratios = [r["ratio"] for r in done]
        imbalances = [r["imbalance"] for r in done]
        aggregates.update({
            "ratio_min": min(ratios),
            "ratio_max": max(ratios),
            "imbalance_mean": sum(imbalances) / len(imbalances),
            "imbalance_worst": max(imbalances),
        })
    return aggregates


def sizing_campaign(
    process: str = "cda07",
    widths: Sequence[float] = (0.6, 0.9, 1.2, 1.8),
    seed: int = 0, load_ff: float = 20.0, tolerance: float = 0.05,
    max_iterations: int = 12,
) -> CampaignSpec:
    """Rise/fall balancing sweep, one shard per NMOS width."""
    return CampaignSpec(
        name="sizing-sweep",
        task=sizing_shard,
        n_shards=len(tuple(widths)),
        seed=seed,
        params={
            "process": process, "widths": list(widths),
            "load_ff": load_ff, "tolerance": tolerance,
            "max_iterations": max_iterations,
        },
        reduce=sizing_reduce,
    )


# ---------------------------------------------------------------------------
# cross-node signoff sweep (repro.verify over repro.core.compiler)
# ---------------------------------------------------------------------------


def signoff_shard(params: dict, shard: ShardSpec) -> dict:
    import json

    from repro.core.config import RamConfig
    from repro.verify.report import SignoffReport

    processes = params["processes"]
    node = processes[shard.index % len(processes)]
    config = RamConfig(
        words=params["words"], bpw=params["bpw"], bpc=params["bpc"],
        spares=params["spares"], process=node,
        gate_size=params.get("gate_size", 1),
        strap_every=params.get("strap_every", 32),
    )
    cache_hit = False
    if params.get("cache_dir"):
        # Fetch through the artifact store: worker processes across
        # shards (and across resumed campaign runs) share compiled
        # macros instead of rebuilding identical geometry per node.
        from repro.service import ArtifactStore, compile_cached

        store = ArtifactStore(params["cache_dir"])
        bundle, cache_hit, _ = compile_cached(
            config, signoff="degrade", store=store)
        report = SignoffReport.from_dict(
            json.loads(bundle["signoff.json"].decode("utf-8")))
    else:
        from repro.core.compiler import compile_ram

        report = compile_ram(config, signoff="degrade").signoff
    return {
        "process": node,
        "clean": report.clean,
        "failure_class": report.failure_class,
        "findings": len(report.findings()),
        "cache_hit": cache_hit,
        "report": report.to_dict(),
    }


def signoff_reduce(results: Sequence[Optional[dict]]) -> dict:
    done = [r for r in results if r is not None]
    dirty = [r for r in done if not r["clean"]]
    aggregates = {
        "nodes": len(done),
        "clean_nodes": len(done) - len(dirty),
        "findings": sum(r["findings"] for r in done),
        "cache_hits": sum(1 for r in done if r.get("cache_hit")),
        "dirty": {r["process"]: r["failure_class"] for r in dirty},
    }
    return aggregates


def signoff_campaign(
    words: int, bpw: int, bpc: int, spares: int,
    processes: Sequence[str] = ("cda05", "mos06", "cda07", "mos08"),
    seed: int = 0, gate_size: int = 1, strap_every: int = 32,
    cache_dir: Optional[str] = None,
) -> CampaignSpec:
    """Full signoff of one geometry across tech nodes, one shard each.

    With ``cache_dir``, shards compile through the content-addressed
    artifact store — a resumed or repeated campaign serves untouched
    nodes from cache instead of recompiling them.
    """
    processes = list(processes)
    if not processes:
        raise ConfigError("signoff campaign needs at least one process")
    return CampaignSpec(
        name="signoff-sweep",
        task=signoff_shard,
        n_shards=len(processes),
        seed=seed,
        params={
            "words": words, "bpw": bpw, "bpc": bpc, "spares": spares,
            "processes": processes, "gate_size": gate_size,
            "strap_every": strap_every,
            "cache_dir": str(cache_dir) if cache_dir else None,
        },
        reduce=signoff_reduce,
    )


# ---------------------------------------------------------------------------
# tech matrix: rule deck x port count (repro.techreg over repro.core)
# ---------------------------------------------------------------------------


def techmatrix_shard(params: dict, shard: ShardSpec) -> dict:
    import hashlib
    import json

    from repro.core.config import RamConfig
    from repro.verify.report import SignoffReport

    for directory in params.get("tech_dirs") or ():
        # Shard tasks run in worker processes with a fresh registry;
        # any --tech-dir decks must be re-registered before resolving.
        from repro.techreg import default_registry

        default_registry().add_search_dir(directory)
    processes = params["processes"]
    ports_list = params["ports"]
    node = processes[shard.index // len(ports_list)]
    ports = ports_list[shard.index % len(ports_list)]
    config = RamConfig(
        words=params["words"], bpw=params["bpw"], bpc=params["bpc"],
        spares=params["spares"], process=node, ports=ports,
        gate_size=params.get("gate_size", 1),
        strap_every=params.get("strap_every", 32),
    )
    cache_hit = False
    if params.get("cache_dir"):
        from repro.service import ArtifactStore, compile_cached

        store = ArtifactStore(params["cache_dir"])
        bundle, cache_hit, _ = compile_cached(
            config, signoff="degrade", store=store)
        cif = bundle["macro.cif"]
        report = SignoffReport.from_dict(
            json.loads(bundle["signoff.json"].decode("utf-8")))
    else:
        from repro.core.compiler import compile_ram

        compiled = compile_ram(config, signoff="degrade")
        cif = compiled.cif_text().encode("utf-8")
        report = compiled.signoff
    return {
        "process": node,
        "ports": ports,
        "clean": report.clean,
        "failure_class": report.failure_class,
        "findings": len(report.findings()),
        "cif_sha256": hashlib.sha256(cif).hexdigest(),
        "cache_hit": cache_hit,
    }


def techmatrix_reduce(results: Sequence[Optional[dict]]) -> dict:
    done = [r for r in results if r is not None]
    dirty = [r for r in done if not r["clean"]]
    return {
        "points": len(done),
        "clean_points": len(done) - len(dirty),
        "findings": sum(r["findings"] for r in done),
        "cache_hits": sum(1 for r in done if r.get("cache_hit")),
        "dirty": {f"{r['process']}/p{r['ports']}": r["failure_class"]
                  for r in dirty},
        "cif_sha256": {f"{r['process']}/p{r['ports']}": r["cif_sha256"]
                       for r in done},
    }


def techmatrix_campaign(
    words: int, bpw: int, bpc: int, spares: int,
    processes: Sequence[str] = ("cda05", "mos06", "cda07", "mos08"),
    ports: Sequence[int] = (1, 2),
    seed: int = 0, gate_size: int = 1, strap_every: int = 32,
    cache_dir: Optional[str] = None,
    tech_dirs: Sequence[str] = (),
) -> CampaignSpec:
    """Compile one geometry on every (deck, port count) grid point.

    Deck names resolve through the technology registry, so decks from
    ``tech_dirs`` sweep alongside the packaged ones.  Each deck's
    content fingerprint is baked into the campaign params: editing a
    deck file changes the journal fingerprint, forcing a clean rerun
    instead of a silently stale ``--resume``.
    """
    from repro.tech.process import get_process
    from repro.techreg import default_registry

    tech_dirs = [str(d) for d in tech_dirs]
    for directory in tech_dirs:
        default_registry().add_search_dir(directory)
    processes = list(processes)
    ports = [int(p) for p in ports]
    if not processes:
        raise ConfigError("techmatrix campaign needs at least one deck")
    if not ports or any(p not in (1, 2) for p in ports):
        raise ConfigError(
            f"techmatrix port counts must be drawn from (1, 2), "
            f"got {ports!r}")
    fingerprints = {name: get_process(name).fingerprint()
                    for name in processes}
    return CampaignSpec(
        name="tech-matrix",
        task=techmatrix_shard,
        n_shards=len(processes) * len(ports),
        seed=seed,
        params={
            "words": words, "bpw": bpw, "bpc": bpc, "spares": spares,
            "processes": processes, "ports": ports,
            "gate_size": gate_size, "strap_every": strap_every,
            "deck_fingerprints": fingerprints,
            "tech_dirs": tech_dirs,
            "cache_dir": str(cache_dir) if cache_dir else None,
        },
        reduce=techmatrix_reduce,
    )
