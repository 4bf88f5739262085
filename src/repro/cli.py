"""Command-line interface: ``python -m repro`` / ``bisramgen``.

The original BISRAMGEN was an interactively invoked generator ("when
invoked, BISRAMGEN allows the user to input the values of the circuit
parameters").  This CLI exposes the same workflow non-interactively:

```
bisramgen compile  --words 2048 --bpw 32 --bpc 8 [--cif m.cif] \
                   [--cache-dir .bisram-cache] [--no-cache] ...
bisramgen serve    --port 8080 --workers 4 --cache-dir .bisram-cache
bisramgen selftest --words 256 --bpw 8 --bpc 4 --defects 3 --seed 1
bisramgen yield    --words 4096 --bpw 4 --bpc 4 --defects 0,5,10,20
bisramgen reliability --words 4096 --bpw 4 --bpc 4 --years 1,5,10
bisramgen cost     [--processor "TI SuperSPARC"]
bisramgen coverage --march IFA-9 --samples 20
bisramgen optimize --words 1024 --bpw 16 --bpc 4 --defects 3.0
bisramgen repair-plan --words 256 --bpw 8 --bpc 4 --spare-cols 2 \
                   --defects 4 --seed 1
bisramgen spare-mix --rows 128 --bpw 8 --bpc 4 --mixes 4x0,2x2,0x4
bisramgen campaign --driver montecarlo --trials 200000 --shards 16 \
                   --workers 4 --checkpoint run.jsonl [--resume]
bisramgen verify   --words 256 --bpw 8 --bpc 4 [--cif m.cif] [--json]
```
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro import RamConfig, compile_ram
from repro.analysis import optimize_spares, spare_tradeoff_table
from repro.bist import ALL_TESTS, IFA_9, parse_march
from repro.bisr import EscalationPolicy, RepairSupervisor
from repro.core.errors import ConfigError, ReproError, SignoffError
from repro.cost import table2_rows, table3_rows
from repro.memsim import DefectInjector, coverage_campaign
from repro.reliability import reliability_words
from repro.yieldmodel import bisr_yield

_MARCHES = {t.name: t for t in ALL_TESTS}


def _add_config_arguments(parser: argparse.ArgumentParser,
                          spares_default: int = 4) -> None:
    parser.add_argument("--words", type=int, required=True,
                        help="addressable words")
    parser.add_argument("--bpw", type=int, required=True,
                        help="bits per word (power of two)")
    parser.add_argument("--bpc", type=int, required=True,
                        help="bits per column / mux factor (power of two)")
    parser.add_argument("--spares", type=int, default=spares_default,
                        choices=(4, 8, 16), help="spare rows")
    parser.add_argument("--spare-cols", type=int, default=0,
                        help="spare columns (0..16; 0 = row-only repair)")
    parser.add_argument("--process", default="cda07",
                        help="rule deck name: a packaged deck or any "
                             "deck registered via --tech-dir, "
                             "REPRO_TECH_DIR or entry points "
                             "(see `repro tech list`)")
    parser.add_argument("--ports", type=int, default=1,
                        choices=(1, 2),
                        help="access ports (2 = dual-port 8T array)")
    parser.add_argument("--tech-dir", action="append", default=None,
                        metavar="DIR",
                        help="extra directory of technology descriptor "
                             "files (repeatable; highest precedence)")
    parser.add_argument("--gate-size", type=int, default=1,
                        help="critical-gate drive multiplier")
    parser.add_argument("--strap-every", type=int, default=32,
                        help="bit-cell columns between straps (0=none)")


def _config_from(args: argparse.Namespace) -> RamConfig:
    return RamConfig(
        words=args.words, bpw=args.bpw, bpc=args.bpc,
        spares=args.spares, spare_cols=getattr(args, "spare_cols", 0),
        process=args.process, ports=getattr(args, "ports", 1),
        gate_size=args.gate_size, strap_every=args.strap_every,
    )


def _apply_tech_dirs(args: argparse.Namespace) -> None:
    """Register ``--tech-dir`` directories before any deck lookup."""
    for directory in getattr(args, "tech_dir", None) or ():
        from repro.techreg import default_registry

        default_registry().add_search_dir(directory)


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _confirm_spec(text: str) -> tuple:
    """Parse an N/M confirmation spec like ``2/5``."""
    try:
        n_text, m_text = text.split("/")
        n, m = int(n_text), int(m_text)
    except ValueError:
        raise ConfigError(
            f"--confirm wants N/M (e.g. 2/5), got {text!r}"
        ) from None
    if not 1 <= n <= m:
        raise ConfigError(
            f"--confirm needs 1 <= N <= M, got {n}/{m}"
        )
    return n, m


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_compile(args: argparse.Namespace) -> int:
    config = _config_from(args)
    use_cache = args.cache_dir is not None and not args.no_cache
    if use_cache and not (args.ascii or args.svg):
        # The service path: artifacts come as stored bytes, and a hit
        # never touches the compiler at all.  --ascii/--svg need the
        # live compiled object, so they take the direct path below.
        return _compile_via_store(args, config)
    ram = compile_ram(config, signoff=args.policy)
    if use_cache:
        # Direct build (render flags) but keep the store warm so the
        # next cached invocation of this geometry hits.
        from repro.service import ArtifactStore, bundle_key, render_bundle

        store = ArtifactStore(args.cache_dir)
        store.put(bundle_key(config, IFA_9, args.policy),
                  render_bundle(ram))
    if ram.signoff is not None:
        print(ram.signoff.summary())
        print()
    print(ram.datasheet.summary())
    ar = ram.area_report
    print(f"\narea: {ar.total_mm2:.3f} mm^2 "
          f"(plain {ar.baseline_mm2:.3f}, overhead "
          f"{ar.overhead_percent:.2f}%, BIST/BISR alone "
          f"{ar.bist_bisr_only_percent:.2f}%)")
    if args.ascii:
        print()
        print(ram.render_ascii())
    if args.svg:
        with open(args.svg, "w") as handle:
            handle.write(ram.render_svg())
        print(f"wrote {args.svg}")
    if args.cif:
        ram.write_cif(args.cif)
        print(f"wrote {args.cif}")
    if args.control_dir:
        paths = ram.write_control_code(args.control_dir)
        print(f"wrote {paths['and']} and {paths['or']}")
    return 0


def _compile_via_store(args: argparse.Namespace,
                       config: RamConfig) -> int:
    """``compile --cache-dir``: serve/publish through the artifact
    store; cached and fresh runs write byte-identical artifacts."""
    import json
    from pathlib import Path

    from repro.service import ArtifactStore, compile_cached
    from repro.verify.report import SignoffReport

    store = ArtifactStore(args.cache_dir)
    bundle, hit, key = compile_cached(config, IFA_9,
                                      signoff=args.policy, store=store)
    print(f"cache {'HIT' if hit else 'MISS'} {key[:16]} "
          f"({args.cache_dir})")
    if args.policy and "signoff.json" in bundle:
        report = SignoffReport.from_dict(
            json.loads(bundle["signoff.json"].decode("utf-8")))
        print(report.summary())
        print()
    print(bundle["datasheet.txt"].decode("utf-8"), end="")
    area = json.loads(bundle["area.json"].decode("utf-8"))
    print(f"\narea: {area['total_mm2']:.3f} mm^2 "
          f"(plain {area['baseline_mm2']:.3f}, overhead "
          f"{area['overhead_percent']:.2f}%, BIST/BISR alone "
          f"{area['bist_bisr_only_percent']:.2f}%)")
    if args.cif:
        Path(args.cif).write_bytes(bundle["macro.cif"])
        print(f"wrote {args.cif}")
    if args.control_dir:
        directory = Path(args.control_dir)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for plane in ("and", "or"):
            paths[plane] = directory / f"trpla_{plane}.plane"
            paths[plane].write_bytes(bundle[f"trpla_{plane}.plane"])
        print(f"wrote {paths['and']} and {paths['or']}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the concurrent macro server (``repro serve``)."""
    from repro.service import ArtifactStore, MacroServer
    from repro.service.http import make_http_server

    store = None
    if args.cache_dir:
        budget = (int(args.cache_budget_mb * 1_000_000)
                  if args.cache_budget_mb else None)
        store = ArtifactStore(args.cache_dir, byte_budget=budget)
    backend = None
    if args.backend == "process":
        from repro.service.backend import ProcessPoolBackend

        if store is None:
            raise ConfigError(
                "--backend process needs --cache-dir: workers "
                "publish their results through the artifact store")
        backend = ProcessPoolBackend(store, workers=args.workers,
                                     deadline_s=args.deadline_s)
    wal = None
    if args.wal:
        from repro.service.wal import RequestLog

        wal = RequestLog(args.wal)
    server = MacroServer(store=store, workers=args.workers,
                         queue_limit=args.queue_limit,
                         backend=backend, wal=wal,
                         batch_limit=args.batch_limit)
    httpd = make_http_server(server, host=args.host, port=args.port,
                             verbose=args.verbose,
                             max_requests=args.max_requests)
    host, port = httpd.server_address[:2]
    print(f"macro server on http://{host}:{port} "
          f"(backend={args.backend} "
          f"workers={args.workers} queue={args.queue_limit} "
          f"cache={args.cache_dir or 'off'} "
          f"wal={args.wal or 'off'})",
          flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        server.shutdown(drain=True)
    stats = server.stats()
    print(f"served {stats['requests']} request(s): "
          f"{stats['builds']} built, {stats['store_hits']} from "
          f"store, {stats['coalesced']} coalesced, "
          f"{stats['rejected']} rejected")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos scenarios (``repro chaos --scenarios all``)."""
    import json as json_module
    import shutil
    import tempfile

    from repro.service.chaos import run_scenarios

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        reports = run_scenarios(args.scenarios, workdir)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.json:
        print(json_module.dumps(
            {"passed": all(r.passed for r in reports),
             "scenarios": [r.to_dict() for r in reports]},
            indent=1, sort_keys=True))
    else:
        for report in reports:
            print(report.summary())
        failed = [r.name for r in reports if not r.passed]
        verdict = (f"FAILED: {', '.join(failed)}" if failed
                   else f"all {len(reports)} scenario(s) passed")
        print(verdict)
    return 0 if all(r.passed for r in reports) else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    config = _config_from(args)
    ram = compile_ram(config)
    device = ram.simulation_model()
    if args.defects:
        injector = DefectInjector(rng=random.Random(args.seed))
        faults = injector.inject(device.array, args.defects)
        print(f"injected {len(faults)} defects: "
              f"{[f.describe() for f in faults]}")
    if args.retries:
        return _supervised_selftest(args, config, device)
    controller = ram.self_test_controller(device)
    result = controller.run()
    print(f"pass 1+2: {result.op_count} ops, "
          f"{result.fail_count} comparator hits, "
          f"TLB map {device.tlb.mapped_rows()}")
    cycles = 1
    while result.repair_unsuccessful and cycles < args.max_cycles:
        cycles += 1
        result = ram.self_test_controller(device, fresh=False).run()
        print(f"cycle {cycles}: TLB map {device.tlb.mapped_rows()}")
    if result.repaired:
        print(f"REPAIRED after {cycles} two-pass cycle(s); functional "
              f"sweep mismatches: {device.check_pattern(0)}")
        return 0
    print("REPAIR UNSUCCESSFUL (too many faults or dead spares)")
    return 1


def _supervised_selftest(args: argparse.Namespace, config: RamConfig,
                         device) -> int:
    """The escalation-ladder path of ``selftest`` (--retries > 0)."""
    threshold, reads = _confirm_spec(args.confirm)
    policy = EscalationPolicy(
        confirm_reads=reads,
        confirm_threshold=threshold,
        max_attempts=args.retries,
    )
    supervisor = RepairSupervisor(IFA_9, bpw=config.bpw, policy=policy)
    outcome = supervisor.run(device)
    print(f"supervisor: {outcome.attempts} attempt(s), "
          f"{threshold}-of-{reads} confirmation, "
          f"{outcome.probe_reads} probe reads, "
          f"{outcome.backoff_cycles} backoff cycles")
    if outcome.rejected_addresses:
        print(f"rejected as transient (no spare consumed): addresses "
              f"{sorted(set(outcome.rejected_addresses))}")
    if outcome.repaired:
        print(f"REPAIRED rows {list(outcome.confirmed_rows)} using "
              f"{outcome.spares_used} spare(s); functional sweep "
              f"mismatches: {device.check_pattern(0)}")
        return 0
    print(f"DEGRADED: {outcome.reason}")
    if outcome.unrepaired_rows:
        print(f"unrepaired rows: {list(outcome.unrepaired_rows)}")
    return 1


def cmd_yield(args: argparse.Namespace) -> int:
    config = _config_from(args)
    print(f"{'defects':>8}  {'0 spares':>9}  {config.spares:>2} spares")
    for n in _float_list(args.defects):
        y0 = bisr_yield(config.rows, 0, config.bpw, config.bpc, n)
        ys = bisr_yield(config.rows, config.spares, config.bpw,
                        config.bpc, n,
                        growth_factor=1 + config.spares / config.rows)
        print(f"{n:>8.1f}  {y0:>9.4f}  {ys:>9.4f}")
    return 0


def cmd_reliability(args: argparse.Namespace) -> int:
    config = _config_from(args)
    lam = args.rate / 1000.0
    print(f"lambda = {args.rate:g} per kilohour per cell")
    print(f"{'years':>6}  {'0 spares':>9}  {config.spares:>2} spares")
    for years in _float_list(args.years):
        t = years * 8766
        r0 = reliability_words(t, config.rows, 0, config.bpw,
                               config.bpc, lam)
        rs = reliability_words(t, config.rows, config.spares,
                               config.bpw, config.bpc, lam)
        print(f"{years:>6.1f}  {r0:>9.4f}  {rs:>9.4f}")
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    t2 = {r["name"]: r for r in table2_rows()}
    names = [args.processor] if args.processor else sorted(t2)
    print(f"{'processor':<16}{'die w/o':>10}{'die w/':>10}"
          f"{'total w/o':>11}{'total w/':>10}{'saving':>8}")
    for row3 in table3_rows():
        name = row3["name"]
        if name not in names:
            continue
        row2 = t2[name]
        w2 = row2["die_cost_with"]
        w3 = row3["total_with"]
        print(
            f"{name:<16}"
            f"{row2['die_cost_without']:>10.2f}"
            f"{(f'{w2:.2f}' if w2 else '-'):>10}"
            f"{row3['total_without']:>11.2f}"
            f"{(f'{w3:.2f}' if w3 else '-'):>10}"
            + (f"{row3['reduction_percent']:>7.1f}%"
               if row3["reduction_percent"] is not None else
               f"{'-':>8}")
        )
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    if args.march in _MARCHES:
        march = _MARCHES[args.march]
    else:
        march = parse_march("custom", args.march)
    report = coverage_campaign(
        march,
        kinds=("stuck_at", "transition", "stuck_open",
               "state_coupling", "data_retention"),
        samples_per_kind=args.samples,
    )
    print(f"march: {march}")
    for kind, detected, total, cov in report.summary_rows():
        print(f"  {kind:<16} {detected:>3}/{total:<3}  {cov:.0%}")
    print(f"  {'OVERALL':<16} {'':>7}  {report.coverage():.0%}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Full signoff sweep: hierarchical DRC, LVS-lite connectivity, and
    control-logic validation, with one exit code per failure class
    (0 clean, 2 configuration, 3 DRC, 4 LVS, 5 control)."""
    import json as json_module

    from repro.tech import get_process
    from repro.verify import drc_report, run_signoff

    config = _config_from(args)
    process = get_process(config.process)

    if args.cif:
        # Geometry read back from disk: CIF carries no ports, so only
        # the DRC stages are meaningful.
        from repro.layout.cif import read_cif

        with open(args.cif) as handle:
            cell = read_cif(handle, process.layers)
        report = drc_report(cell, process, label=args.cif,
                            max_findings=args.max_findings)
    else:
        trpla = None
        if args.control_dir:
            # Verify the plane-file artifact, not the in-memory
            # assembly: a corrupted microword on disk must be caught.
            from pathlib import Path

            from repro.bist.trpla import Trpla, read_plane_files

            directory = Path(args.control_dir)
            and_plane, or_plane = read_plane_files(
                directory / "trpla_and.plane",
                directory / "trpla_or.plane",
            )
            trpla = Trpla(and_plane, or_plane)
        ram = compile_ram(config)
        report = run_signoff(ram, trpla=trpla,
                             max_findings=args.max_findings)

    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return report.exit_code


def cmd_diagnose(args: argparse.Namespace) -> int:
    """Inject defects, run a diagnostic pass, classify the damage."""
    from repro.bist import IFA_9
    from repro.memsim import collect_fail_records, diagnose

    config = _config_from(args)
    ram = compile_ram(config)
    device = ram.simulation_model()
    injector = DefectInjector(rng=random.Random(args.seed))
    faults = injector.inject(device.array, args.defects)
    print(f"injected: {[f.describe() for f in faults]}")
    records = collect_fail_records(IFA_9, device, bpw=config.bpw)
    result = diagnose(
        records, config.rows, config.bpw, config.bpc, config.spares
    )
    print(f"{len(records)} comparator hits")
    print(f"diagnosis: {result.summary()}")
    if result.repairable_with_rows:
        print(f"verdict: repairable with {result.spares_needed} of "
              f"{config.spares} spare rows")
        return 0
    print("verdict: NOT repairable with row redundancy"
          + (" (column defect present)" if result.column_faults else ""))
    return 1


def cmd_repair_plan(args: argparse.Namespace) -> int:
    """Inject, diagnose, allocate, then replay the repair in hardware.

    The static leg runs the diagnosis pass over the BIST failure log
    and feeds the fault bitmap to the must-repair + branch-and-bound
    allocator; the dynamic leg hands the same device to the 2-D repair
    controller and lets it discover, allocate and program the spares
    itself.  Exit 0 when the device ends up repaired, 1 when the
    controller degrades.
    """
    from repro.bisr import allocate
    from repro.bist import IFA_9, TwoDRepairController
    from repro.memsim import (
        FaultMix, collect_fail_records, fault_bitmap,
    )

    config = _config_from(args)
    ram = compile_ram(config)
    device = ram.simulation_model()
    mix = FaultMix(column_defect=args.column_weight)
    injector = DefectInjector(rng=random.Random(args.seed), mix=mix,
                              clustering=args.clustering)
    faults = injector.inject(device.array, args.defects)
    print(f"injected: {[f.describe() for f in faults]}")

    records = collect_fail_records(IFA_9, device, bpw=config.bpw)
    cells = fault_bitmap(records, config.bpw, config.bpc)
    print(f"{len(records)} comparator hits -> "
          f"{len(cells)} distinct faulty cells")
    plan = allocate(cells, config.rows, config.columns,
                    config.spares, config.spare_cols,
                    node_budget=args.node_budget)
    print(f"static plan: {plan.summary()}")

    device.reset_for_test()
    controller = TwoDRepairController(IFA_9, bpw=config.bpw,
                                      node_budget=args.node_budget)
    result = controller.run(device)
    print(f"dynamic repair: {result.summary()}")
    if result.repaired:
        print(f"REPAIRED: {result.spare_rows_used} spare row(s) + "
              f"{result.spare_cols_used} spare column(s) in "
              f"{result.cycles} cycle(s)")
        return 0
    print(f"DEGRADED: {result.reason}")
    return 1


def cmd_spare_mix(args: argparse.Namespace) -> int:
    """Sweep row/column spare mixes for cost per good bit."""
    from repro.cost import best_mix, spare_mix_sweep

    mixes = []
    for part in args.mixes.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            sr_text, sc_text = part.split("x")
            mixes.append((int(sr_text), int(sc_text)))
        except ValueError:
            raise ConfigError(
                f"--mixes wants SRxSC pairs like 4x0,2x2, got {part!r}"
            ) from None
    defect_counts = _float_list(args.defects)
    points = spare_mix_sweep(
        args.rows, args.bpw, args.bpc, mixes, defect_counts,
        trials=args.trials, seed=args.seed,
        row_defect_frac=args.row_defect_frac,
        col_defect_frac=args.col_defect_frac,
    )
    print(f"{'mix':>7}  {'defects':>8}  {'area':>7}  "
          f"{'yield':>7}  {'cost/bit':>9}")
    for p in points:
        print(f"{p.spares_r:>3}x{p.spares_c:<3}  {p.n_defects:>8g}  "
              f"{p.area_factor:>7.4f}  {p.yield_estimate:>7.4f}  "
              f"{p.cost_per_good_bit:>9.4f}")
    for n in defect_counts:
        b = best_mix(points, n)
        print(f"best @ {n:g} defects: {b.spares_r} spare row(s) + "
              f"{b.spares_c} spare column(s) "
              f"(cost/bit {b.cost_per_good_bit:.4f})")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Supervised parallel campaign with checkpoint/resume."""
    from repro.runtime import CampaignRunner, RetryPolicy
    from repro.runtime.drivers import (
        montecarlo2d_campaign,
        montecarlo_campaign,
        repair_campaign,
        signoff_campaign,
        sizing_campaign,
        techmatrix_campaign,
    )

    if args.driver == "sizing":
        widths = _float_list(args.widths)
        if not widths:
            raise ConfigError("--widths must name at least one width")
        spec = sizing_campaign(process=args.process, widths=widths,
                               seed=args.seed)
    elif args.driver == "techmatrix":
        config = _config_from(args)
        spec = techmatrix_campaign(
            words=config.words, bpw=config.bpw, bpc=config.bpc,
            spares=config.spares,
            processes=[p.strip() for p in args.processes.split(",")
                       if p.strip()],
            ports=_int_list(args.port_counts),
            seed=args.seed, gate_size=config.gate_size,
            strap_every=config.strap_every,
            cache_dir=args.cache_dir,
            tech_dirs=args.tech_dir or (),
        )
    elif args.driver == "signoff":
        config = _config_from(args)
        spec = signoff_campaign(
            words=config.words, bpw=config.bpw, bpc=config.bpc,
            spares=config.spares,
            processes=[p.strip() for p in args.processes.split(",")
                       if p.strip()],
            seed=args.seed, gate_size=config.gate_size,
            strap_every=config.strap_every,
            cache_dir=args.cache_dir,
        )
    else:
        config = _config_from(args)
        if args.driver == "montecarlo2d":
            from repro.cost import area_growth_factor

            spec = montecarlo2d_campaign(
                rows=config.rows, bpw=config.bpw, bpc=config.bpc,
                spares_r=config.spares, spares_c=config.spare_cols,
                defects=args.defects, trials=args.trials,
                n_shards=args.shards, seed=args.seed,
                growth_factor=area_growth_factor(
                    config.rows, config.columns,
                    config.spares, config.spare_cols),
                row_defect_frac=args.row_defect_frac,
                col_defect_frac=args.col_defect_frac,
                node_budget=args.node_budget,
            )
        elif args.driver == "montecarlo":
            spec = montecarlo_campaign(
                rows=config.rows, spares=config.spares,
                bpw=config.bpw, bpc=config.bpc,
                defects=args.defects, trials=args.trials,
                n_shards=args.shards, seed=args.seed,
                growth_factor=1 + config.spares / config.rows,
            )
        else:
            spec = repair_campaign(
                rows=config.rows, bpw=config.bpw, bpc=config.bpc,
                spares=config.spares, defects=args.defects,
                trials=args.trials, n_shards=args.shards,
                seed=args.seed,
            )
    runner = CampaignRunner(
        workers=args.workers,
        timeout_s=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries,
                          backoff_base=args.backoff),
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    result = runner.run(spec)
    print(result.summary())
    return 0 if not result.degraded else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    config = _config_from(args)
    table = spare_tradeoff_table(config, args.defects)
    for choice in table:
        print(choice.summary())
    best = optimize_spares(config, args.defects)
    if best is None:
        print("no feasible spare count under the constraints")
        return 1
    print(f"\nrecommended: {best.spares} spares")
    return 0


def cmd_tech(args: argparse.Namespace) -> int:
    """Technology-registry tooling: list, show, validate decks."""
    from repro.techreg import (
        default_registry,
        load_descriptor,
        validate_descriptor,
    )

    registry = default_registry()
    if args.tech_cmd == "list":
        rows = registry.entries()
        width = max((len(r["name"]) for r in rows), default=4)
        for row in rows:
            if "error" in row:
                print(f"{row['name']:<{width}}  {row['origin']:<8}  "
                      f"INVALID: {row['error']}")
            else:
                print(f"{row['name']:<{width}}  {row['origin']:<8}  "
                      f"{row['feature_um']:>5} um  {row['vdd']:>4} V  "
                      f"{row['metals']}M  {row['fingerprint']}")
        for problem in registry.scan_errors:
            print(f"warning: {problem}", file=sys.stderr)
        return 0
    if args.tech_cmd == "show":
        process = registry.resolve(args.name)
        desc = registry.descriptor(args.name)
        print(f"name         : {process.name}")
        print(f"description  : {process.description}")
        print(f"feature size : {process.feature_um:g} um "
              f"(lambda = {process.rules.lambda_cu} cu)")
        print(f"metal layers : {process.metal_layers}")
        print(f"vdd          : {process.vdd:g} V")
        print(f"fingerprint  : {process.fingerprint()}")
        print(f"source       : {desc.source}")
        print(f"rules        : {len(process.rules.rules)} entries")
        for rule in sorted(process.rules.rules):
            print(f"  {rule:<24} {process.rules.rules[rule]} cu")
        return 0
    # validate: per-field errors for a descriptor file, exit 2 on any.
    desc = load_descriptor(args.path)
    problems = validate_descriptor(desc)
    if not problems:
        print(f"{args.path}: OK ({desc.name}, "
              f"{desc.deck_type} deck, {len(desc.rules)} rules)")
        return 0
    print(f"{args.path}: {len(problems)} problem(s)", file=sys.stderr)
    for problem in problems:
        print(f"  {problem.field}: {problem.message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisramgen",
        description="A physical design tool for built-in "
                    "self-repairable static RAMs (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a BISR-RAM macro")
    _add_config_arguments(p)
    p.add_argument("--policy", choices=("strict", "degrade"), default=None,
                   help="signoff stage gate: strict fails the build on "
                        "any finding, degrade attaches the report and "
                        "continues (default: skip signoff)")
    p.add_argument("--ascii", action="store_true",
                   help="print the layout sketch")
    p.add_argument("--svg", help="write an SVG layout plot")
    p.add_argument("--cif", help="write the CIF layout")
    p.add_argument("--control-dir",
                   help="write the TRPLA plane files here")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed artifact store: serve this "
                        "configuration from cache when present, "
                        "publish it on a miss")
    p.add_argument("--no-cache", action="store_true",
                   help="build from scratch even with --cache-dir")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "serve",
        help="run the concurrent macro server (HTTP compile-as-a-"
             "service with single-flight dedup and backpressure)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--workers", type=int, default=4,
                   help="build threads (or worker processes with "
                        "--backend process)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="max queued-or-running requests before 503 "
                        "backpressure")
    p.add_argument("--backend", choices=("thread", "process"),
                   default="thread",
                   help="'process' builds on supervised worker "
                        "processes (deadlines, crash quarantine, "
                        "claim-based cross-process single-flight); "
                        "requires --cache-dir")
    p.add_argument("--deadline-s", type=float, default=300.0,
                   help="per-build wall-clock budget before a hung "
                        "worker is killed (process backend)")
    p.add_argument("--wal", default=None, metavar="FILE",
                   help="journal every admitted request to this "
                        "write-ahead log and replay unfinished ones "
                        "on restart")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="back the server with this artifact store")
    p.add_argument("--cache-budget-mb", type=float, default=None,
                   help="LRU-evict the store beyond this many MB")
    p.add_argument("--max-requests", type=int, default=None,
                   help="exit after serving this many compile "
                        "requests (CI smoke runs)")
    p.add_argument("--batch-limit", type=int, default=64,
                   help="max items in one POST /compile_batch "
                        "(larger batches get 413)")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="run the deterministic chaos scenarios against the "
             "service tier (worker kills, hangs, torn publishes, "
             "eviction races, ENOSPC, WAL replay, and batch worker "
             "kills)",
    )
    p.add_argument("--scenarios", nargs="+", default=["all"],
                   metavar="NAME",
                   help="scenario names, or 'all' (the default)")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="scratch directory (default: a fresh "
                        "temporary directory, removed afterwards)")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON report instead of text")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("selftest",
                       help="inject defects and run BIST/BISR")
    _add_config_arguments(p)
    p.add_argument("--defects", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-cycles", type=int, default=4,
                   help="2-pass repair cycles before giving up")
    p.add_argument("--retries", type=int, default=0,
                   help="run under the RepairSupervisor with this many "
                        "bounded escalation attempts (0 = legacy flow)")
    p.add_argument("--confirm", default="2/5", metavar="N/M",
                   help="N-of-M re-read confirmation before a row "
                        "consumes a spare (with --retries; default 2/5)")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("yield", help="repairable yield vs defects")
    _add_config_arguments(p)
    p.add_argument("--defects", default="0,1,2,5,10,20",
                   help="comma-separated defect counts")
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser("reliability", help="reliability vs age")
    _add_config_arguments(p)
    p.add_argument("--years", default="1,2,5,10")
    p.add_argument("--rate", type=float, default=1e-6,
                   help="cell failure rate per kilohour")
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("cost",
                       help="Tables II/III manufacturing-cost study")
    p.add_argument("--processor", help="restrict to one processor")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("coverage", help="march-test fault coverage")
    p.add_argument("--march", default="IFA-9",
                   help="a known name (IFA-9, IFA-13, MATS+, March C-) "
                        "or march notation like 'm(w0); u(r0,w1)'")
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("verify",
                       help="signoff sweep: hierarchical DRC, LVS-lite "
                            "connectivity, control validation; exit "
                            "codes 0=clean 2=config 3=DRC 4=LVS "
                            "5=control")
    _add_config_arguments(p)
    p.add_argument("--cif", metavar="FILE",
                   help="verify this CIF file's geometry instead of "
                        "recompiling (DRC stages only: CIF has no "
                        "port annotations)")
    p.add_argument("--control-dir", metavar="DIR",
                   help="read the TRPLA plane files from here and "
                        "verify the on-disk personality")
    p.add_argument("--json", action="store_true",
                   help="print the structured report as JSON")
    p.add_argument("--max-findings", type=int, default=200,
                   help="per-checker finding budget")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diagnose",
                       help="classify injected damage from the BIST "
                            "failure log")
    _add_config_arguments(p)
    p.add_argument("--defects", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("repair-plan",
                       help="inject defects, diagnose, run the 2-D "
                            "must-repair + branch-and-bound allocator, "
                            "then replay the repair dynamically")
    _add_config_arguments(p)
    p.add_argument("--defects", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--column-weight", type=float, default=0.005,
                   help="column-defect weight in the fault mix")
    p.add_argument("--clustering", type=float, default=0.0,
                   help="defect clustering strength (0 = uniform)")
    p.add_argument("--node-budget", type=int, default=20_000,
                   help="branch-and-bound nodes before the allocator "
                        "falls back to the greedy cover")
    p.set_defaults(func=cmd_repair_plan)

    p = sub.add_parser("spare-mix",
                       help="sweep row/column spare mixes for cost "
                            "per good bit")
    p.add_argument("--rows", type=int, default=128)
    p.add_argument("--bpw", type=int, default=8)
    p.add_argument("--bpc", type=int, default=4)
    p.add_argument("--mixes", default="4x0,2x2,0x4",
                   help="comma-separated SRxSC pairs")
    p.add_argument("--defects", default="1,2,5",
                   help="comma-separated mean defect counts")
    p.add_argument("--trials", type=int, default=2_000)
    p.add_argument("--row-defect-frac", type=float, default=0.02,
                   help="fraction of defects that kill a whole row")
    p.add_argument("--col-defect-frac", type=float, default=0.05,
                   help="fraction of defects that kill a whole column")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_spare_mix)

    p = sub.add_parser(
        "campaign",
        help="supervised parallel campaign: sharded, checkpointed, "
             "resumable",
    )
    p.add_argument("--driver",
                   choices=("montecarlo", "montecarlo2d", "repair",
                            "sizing", "signoff", "techmatrix"),
                   default="montecarlo",
                   help="workload: Monte-Carlo yield (row-only or 2-D "
                        "with the allocator in the loop), "
                        "fault-injection repair, SPICE sizing sweep, "
                        "cross-node signoff, or the deck x port-count "
                        "tech matrix")
    # Geometry defaults so a smoke campaign needs no required flags.
    p.add_argument("--words", type=int, default=4096)
    p.add_argument("--bpw", type=int, default=4)
    p.add_argument("--bpc", type=int, default=4)
    p.add_argument("--spares", type=int, default=4, choices=(4, 8, 16))
    p.add_argument("--spare-cols", type=int, default=0,
                   help="spare columns for the montecarlo2d driver")
    p.add_argument("--row-defect-frac", type=float, default=0.0,
                   help="whole-row defect fraction (montecarlo2d)")
    p.add_argument("--col-defect-frac", type=float, default=0.0,
                   help="whole-column defect fraction (montecarlo2d)")
    p.add_argument("--node-budget", type=int, default=4_000,
                   help="allocator search budget (montecarlo2d)")
    p.add_argument("--process", default="cda07",
                   help="rule deck name (any registered deck)")
    p.add_argument("--ports", type=int, default=1, choices=(1, 2),
                   help="access ports for single-config drivers")
    p.add_argument("--port-counts", default="1,2",
                   help="port counts swept by the techmatrix driver")
    p.add_argument("--tech-dir", action="append", default=None,
                   metavar="DIR",
                   help="extra technology descriptor directory "
                        "(repeatable)")
    p.add_argument("--gate-size", type=int, default=1)
    p.add_argument("--strap-every", type=int, default=32)
    p.add_argument("--defects", type=float, default=5.0,
                   help="defects for the montecarlo/repair drivers")
    p.add_argument("--trials", type=int, default=100_000,
                   help="total trials, split evenly over shards")
    p.add_argument("--shards", type=int, default=8,
                   help="independently seeded task units")
    p.add_argument("--widths", default="0.6,0.9,1.2,1.8",
                   help="NMOS widths (um) for the sizing driver")
    p.add_argument("--processes", default="cda05,mos06,cda07,mos08",
                   help="tech nodes for the signoff driver")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-shard wall-clock budget in seconds")
    p.add_argument("--retries", type=int, default=3,
                   help="dispatch attempts per shard before it is "
                        "finalised as failed")
    p.add_argument("--backoff", type=float, default=0.05,
                   help="base retry backoff in seconds (doubles per "
                        "attempt)")
    p.add_argument("--checkpoint",
                   help="JSONL journal path; finished shards are "
                        "appended as they complete")
    p.add_argument("--resume", action="store_true",
                   help="adopt finished shards from --checkpoint "
                        "instead of starting over")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="artifact store for the signoff driver: "
                        "shards fetch compiled macros through it")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "tech",
        help="technology-registry tooling: list, show, validate decks",
    )
    p.add_argument("--tech-dir", action="append", default=None,
                   metavar="DIR",
                   help="extra descriptor directory (repeatable)")
    tech_sub = p.add_subparsers(dest="tech_cmd", required=True)
    tp = tech_sub.add_parser("list",
                             help="all registered decks with origin "
                                  "and fingerprint")
    tp.set_defaults(func=cmd_tech)
    tp = tech_sub.add_parser("show",
                             help="one deck's parameters and full "
                                  "rule table")
    tp.add_argument("name", help="registered deck name")
    tp.set_defaults(func=cmd_tech)
    tp = tech_sub.add_parser("validate",
                             help="check a descriptor file; prints "
                                  "per-field problems")
    tp.add_argument("path", help="descriptor file (.toml/.json)")
    tp.set_defaults(func=cmd_tech)

    p = sub.add_parser("optimize", help="choose the spare-row count")
    _add_config_arguments(p)
    p.add_argument("--defects", type=float, default=3.0,
                   help="expected defects in the array")
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_tech_dirs(args)
        return args.func(args)
    except SignoffError as error:
        # A strict stage gate tripped: exit with the failing class's
        # own code (3=DRC, 4=LVS, 5=control), same codes as `verify`.
        from repro.verify.report import EXIT_CODES

        print(f"error: {error}", file=sys.stderr)
        return EXIT_CODES.get(error.failure_class, 1)
    except ReproError as error:
        # Anticipated failures (bad configuration, exhausted spares,
        # non-converging transients) exit with one line, no traceback.
        print(f"error: {error}", file=sys.stderr)
        for problem in getattr(error, "field_errors", ()) or ():
            # Descriptor rejections carry per-field diagnostics.
            print(f"  {problem.field}: {problem.message}",
                  file=sys.stderr)
        return 2
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
