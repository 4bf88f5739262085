"""BISRAMGen: the top-level physical design tool.

One call compiles a :class:`~repro.core.config.RamConfig` into:

* the hierarchical layout (DRC-checkable, CIF/SVG-exportable),
* the behavioural simulation model (a fault-injectable
  :class:`~repro.memsim.device.BisrRam` plus the TRPLA-driven test
  controller),
* the TRPLA control-code plane files,
* the datasheet of extrapolated guarantees,
* the Table I area accounting (BIST/BISR overhead vs. the plain RAM).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bist.controller import TrplaController
from repro.bist.march import IFA_9, MarchTest
from repro.bist.trpla import render_plane_text
from repro.core.canonical import stable_digest
from repro.core.config import RamConfig
from repro.core.datasheet import Datasheet, build_datasheet
from repro.core.errors import ConfigError, SignoffError
from repro.core.floorplan import Floorplan, build_floorplan
from repro.core.stages import StageCache, StageRunner, StageTiming
from repro.layout.cif import write_cif
from repro.layout.render import render_ascii, render_svg
from repro.memsim.device import BisrRam
from repro.tech.process import get_process

if TYPE_CHECKING:
    from repro.verify.report import SignoffReport

#: Valid values of the ``signoff`` policy knob.
SIGNOFF_POLICIES = (None, "strict", "degrade")


def march_digest(march: MarchTest) -> str:
    """Content identity of a march test: its name *and* its notation.

    Two user-parsed marches that happen to share a name but differ in
    operations must not share stage-cache or artifact-store entries.
    """
    return stable_digest(
        {"name": march.name, "notation": str(march)}, 16)


@dataclass
class AreaReport:
    """Table I accounting for one configuration.

    ``total_mm2``/``baseline_mm2`` sum the macrocell areas (silicon
    spent); ``bbox_mm2`` is the assembled module's bounding box, which
    additionally contains floorplan dead space.
    """

    total_mm2: float
    baseline_mm2: float
    array_mm2: float
    bist_bisr_mm2: float
    spare_rows_mm2: float
    bbox_mm2: float = 0.0
    spare_cols_mm2: float = 0.0

    @property
    def overhead_percent(self) -> float:
        """BIST+BISR+spares overhead over the plain RAM module.

        Table I's metric: the redundant module's area over the area of
        the same RAM without BIST, BISR, or spare rows.
        """
        return 100.0 * (self.total_mm2 / self.baseline_mm2 - 1.0)

    @property
    def bist_bisr_only_percent(self) -> float:
        """Overhead excluding the spare rows/columns, which the paper
        does not count ("redundancy is used in a vast majority of large
        RAMs even if there is no self-repair")."""
        return 100.0 * (
            (self.total_mm2 - self.spare_rows_mm2 - self.spare_cols_mm2)
            / self.baseline_mm2
            - 1.0
        )


@dataclass
class CompiledRam:
    """Everything BISRAMGen produces for one configuration."""

    config: RamConfig
    floorplan: Floorplan
    datasheet: Datasheet
    area_report: AreaReport
    #: Attached when the build ran with a signoff policy; under
    #: ``degrade`` this is where a dirty report lands instead of an
    #: exception.
    signoff: Optional["SignoffReport"] = None
    #: The rendered TRPLA plane-file texts (AND, OR) the control-planes
    #: stage produced; ``write_control_code`` dumps exactly these bytes
    #: so cached and uncached builds emit identical artifacts.
    plane_texts: Optional[Tuple[str, str]] = None
    #: Per-stage cache verdicts and wall time for this build, in
    #: pipeline order (empty for hand-constructed instances).
    stages: List[StageTiming] = field(default_factory=list)

    def simulation_model(self) -> BisrRam:
        """A fresh behavioural device for this configuration."""
        return BisrRam.from_config(self.config)

    def self_test_controller(self, device: Optional[BisrRam] = None,
                             march: MarchTest = IFA_9,
                             fresh: bool = True) -> TrplaController:
        """The TRPLA-driven BIST/BISR controller bound to a device."""
        return TrplaController(
            march, bpw=self.config.bpw,
            target=device or self.simulation_model(),
            fresh=fresh,
        )

    def control_plane_texts(self) -> Tuple[str, str]:
        """The (AND, OR) plane-file texts, rendering on demand when the
        control-planes stage did not run (hand-built instances)."""
        if self.plane_texts is not None:
            return self.plane_texts
        pla = self.floorplan.assembled_pla
        return (render_plane_text(pla.and_plane),
                render_plane_text(pla.or_plane))

    def write_control_code(self, directory) -> Dict[str, Path]:
        """Emit the two TRPLA plane files the tool reads at runtime."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        and_path = directory / "trpla_and.plane"
        or_path = directory / "trpla_or.plane"
        and_text, or_text = self.control_plane_texts()
        and_path.write_text(and_text)
        or_path.write_text(or_text)
        return {"and": and_path, "or": or_path}

    def cif_text(self) -> str:
        """The full CIF export as a string (what :meth:`write_cif`
        writes and the artifact store persists)."""
        process = get_process(self.config.process)
        buffer = io.StringIO()
        write_cif(self.floorplan.top, buffer, process.layers)
        return buffer.getvalue()

    def write_cif(self, path) -> None:
        """Export the full layout hierarchy as CIF."""
        with open(path, "w") as stream:
            stream.write(self.cif_text())

    def render_svg(self, flatten_depth: int = 2, width_px: int = 900
                   ) -> str:
        """A layout plot (the view of the paper's Figs. 6-7)."""
        process = get_process(self.config.process)
        return render_svg(
            self.floorplan.top, process.layers,
            width_px=width_px, flatten_depth=flatten_depth,
        )

    def render_ascii(self, columns: int = 78, rows: int = 24) -> str:
        """A terminal floorplan sketch."""
        return render_ascii(self.floorplan.top, columns, rows)

    def flow_report(self, stage_line: bool = True) -> str:
        """The Fig. 1 pipeline, summarised for this compilation run:
        what each phase produced, from leaf cells to guarantees.

        ``stage_line=False`` omits the per-build cache-verdict/timing
        line — the form the artifact store persists, since those
        verdicts describe one build, not the macro (and would break
        byte-identity between cached and fresh runs).
        """
        config = self.config
        plan = self.floorplan
        pla = plan.assembled_pla
        ds = self.datasheet
        ar = self.area_report
        leaf_kinds = sorted(
            {c.name for macro in plan.macrocells.values()
             for c in macro.subcells().values()
             if not c.instances()}
        )
        lines = [
            f"BISRAMGEN flow report — {config.describe()}",
            f"1. leaf-cell library      : {len(leaf_kinds)} kinds "
            f"({', '.join(leaf_kinds[:6])}"
            f"{', ...' if len(leaf_kinds) > 6 else ''})",
            f"2. macrocell generation   : {len(plan.macrocells)} macros "
            f"({', '.join(sorted(plan.macrocells))})",
            f"3. control microprogram   : {pla.term_count} PLA terms, "
            f"{pla.state_bits} state flip-flops",
            f"4. assembly               : "
            f"{len(plan.top.instances())} placed blocks, "
            f"bbox {ar.bbox_mm2:.2f} mm^2",
            f"5. area accounting        : {ar.total_mm2:.2f} mm^2 spent "
            f"(overhead {ar.overhead_percent:.2f}% over the plain RAM)",
            f"6. guarantees             : access "
            f"{ds.read_access_s * 1e9:.2f} ns, TLB "
            f"{ds.tlb_penalty_s * 1e9:.2f} ns "
            f"({'masked' if ds.tlb_masked else 'NOT masked'}), "
            f"self-test {ds.selftest_total_s:.1f} s",
            f"7. rule deck              : {config.process} "
            f"(fingerprint {ds.deck_fingerprint or get_process(config.process).fingerprint()})",
        ]
        if stage_line and self.stages:
            lines.append(
                "8. stage cache            : "
                + " | ".join(
                    f"{t.name} {'HIT' if t.hit else 'MISS'} "
                    f"{t.elapsed_s:.3f}s"
                    for t in self.stages)
            )
        return "\n".join(lines)


class BISRAMGen:
    """The physical design tool for built-in self-repairable RAMs."""

    def __init__(self, config: RamConfig, march: MarchTest = IFA_9) -> None:
        self.config = config
        self.march = march

    def stage_key(self) -> str:
        """Content key every stage of this build derives from:
        configuration digest + march identity + deck fingerprint.

        The fingerprint covers the *whole* resolved deck (rules, layer
        map, devices, supply, parasitics), not just the rule table, so
        a registry deck edit of any kind invalidates cached stages."""
        deck = get_process(self.config.process).fingerprint()
        return (f"{self.config.digest(32)}:{march_digest(self.march)}"
                f":{deck}")

    def _checked_floorplan(self, with_bisr: bool) -> Floorplan:
        """One floorplan build with the generator-rejection wrap."""
        try:
            return build_floorplan(self.config, self.march,
                                   with_bisr=with_bisr)
        except ConfigError:
            raise
        except ValueError as error:
            raise ConfigError(
                f"cannot build {self.config.describe()}: {error}"
            ) from error

    def build(self, signoff: Optional[str] = None,
              stage_cache: Optional[StageCache] = None) -> CompiledRam:
        """Compile the configuration into layout + models + datasheet.

        The build is a pipeline of explicitly keyed stages —
        floorplan -> layout -> control-planes -> datasheet -> signoff —
        each memoizable against ``stage_cache``, so a rebuild of an
        unchanged configuration reuses every stage and a build that
        only changes the signoff policy reuses the cached layout.

        Raises :class:`~repro.core.errors.ConfigError` when the
        configuration is structurally valid but physically unbuildable
        (a generator rejects it), so callers see one error type for
        every "your parameters are wrong" outcome.

        Args:
            signoff: stage-gate policy.  ``None`` skips verification
                (the fast path for area/yield sweeps that never export
                layout).  ``"strict"`` runs the full signoff sweep and
                raises :class:`~repro.core.errors.SignoffError` —
                carrying the structured report — on any finding.
                ``"degrade"`` runs the same sweep but always returns,
                attaching the report as ``CompiledRam.signoff`` for the
                caller to inspect.
            stage_cache: optional shared :class:`StageCache`.  Cached
                products are live objects, not copies — callers that
                mutate a compiled macro's geometry must not share a
                cache (see :mod:`repro.core.stages`).
        """
        if signoff not in SIGNOFF_POLICIES:
            raise ConfigError(
                f"unknown signoff policy {signoff!r}; "
                f"expected one of {SIGNOFF_POLICIES}"
            )
        runner = StageRunner(stage_cache)
        base_key = self.stage_key()

        floorplan = runner.run(
            "floorplan", base_key,
            lambda: self._checked_floorplan(with_bisr=True))

        def layout_stage() -> AreaReport:
            baseline = self._checked_floorplan(with_bisr=False)
            cu2_to_mm2 = 1e-10
            return AreaReport(
                total_mm2=floorplan.component_area_mm2(),
                baseline_mm2=baseline.component_area_mm2(),
                array_mm2=floorplan.area_mm2("array"),
                bist_bisr_mm2=floorplan.bist_bisr_area_cu2()
                * cu2_to_mm2,
                spare_rows_mm2=floorplan.spare_rows_area_cu2(self.config)
                * cu2_to_mm2,
                bbox_mm2=floorplan.area_mm2(),
                spare_cols_mm2=floorplan.spare_cols_area_cu2(self.config)
                * cu2_to_mm2,
            )

        report = runner.run("layout", base_key, layout_stage)

        def planes_stage() -> Tuple[str, str]:
            pla = floorplan.assembled_pla
            return (render_plane_text(pla.and_plane),
                    render_plane_text(pla.or_plane))

        plane_texts = runner.run("control-planes", base_key, planes_stage)
        datasheet = runner.run(
            "datasheet", base_key,
            lambda: build_datasheet(self.config, report.total_mm2))

        compiled = CompiledRam(
            config=self.config,
            floorplan=floorplan,
            datasheet=datasheet,
            area_report=report,
            plane_texts=plane_texts,
        )
        if signoff is not None:
            def signoff_stage():
                # Imported here: the verify subsystem sits above the
                # compiler in the layering.
                from repro.verify.signoff import run_signoff

                return run_signoff(compiled, march=self.march)

            # The report does not depend on the policy (strict vs
            # degrade only changes what the caller sees), so both
            # policies share one cached sweep.
            compiled.signoff = runner.run(
                "signoff", base_key, signoff_stage)
            if not compiled.signoff.clean and signoff == "strict":
                failed = [f"{r.checker}/{r.stage}"
                          for r in compiled.signoff.results if not r.passed]
                compiled.stages = runner.timings
                raise SignoffError(
                    f"signoff failed for {self.config.describe()}: "
                    f"{', '.join(failed)} "
                    f"({len(compiled.signoff.findings())} finding(s))",
                    report=compiled.signoff.to_dict(),
                    failure_class=compiled.signoff.failure_class or "",
                )
        compiled.stages = runner.timings
        return compiled


def compile_ram(config: RamConfig, march: MarchTest = IFA_9,
                signoff: Optional[str] = None,
                stage_cache: Optional[StageCache] = None) -> CompiledRam:
    """One-call compilation (the examples' entry point)."""
    return BISRAMGen(config, march).build(signoff=signoff,
                                          stage_cache=stage_cache)
