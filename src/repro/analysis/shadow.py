"""Runtime shadow checker: validates KernelSpecs against reality.

Attached to a :class:`~repro.runtime.dispatcher.RankRuntime`, the checker
watches every dispatch and produces the ``RT3xx`` findings:

* **residency** (``RT301``/``RT302``): every declared read/write must name
  a registered array, and in MANUAL data mode must be device-resident at
  launch (the ``default(present)`` failure the paper keeps to catch);
* **races** (``RT310``): kernels in flight on *different* async queues
  whose declared footprints carry a RAW/WAR/WAW hazard with no intervening
  wait -- the bug class async(1)/async(2) splitting introduces;
* **footprint drift** (``RT320``/``RT321``): when a spec carries a numpy
  body, the checker fingerprints every materialized array before and after
  the body runs; mutations outside ``writes`` are undeclared writes, and
  declared writes that never change are drift that inflates dependence
  edges (fusion barriers, race edges) downstream.

The checker is *opt-in*: the dispatcher holds ``None`` by default and the
hot path costs a single attribute test (same discipline as the telemetry
no-op; the disabled overhead is asserted <1% by
``tests/analysis/test_shadow.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.dependence import base_name, hazards_between
from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.data_env import DataEnvironment
    from repro.runtime.kernel import KernelSpec


def _fingerprint(data: Any) -> bytes:
    """Cheap content hash of one numpy array."""
    h = hashlib.blake2b(digest_size=16)
    h.update(data.tobytes())
    return h.digest()


@dataclass(slots=True)
class _InFlight:
    """One launched-but-not-synced kernel on an async queue."""

    name: str
    queue: int
    reads: tuple[str, ...]
    writes: tuple[str, ...]


@dataclass(slots=True)
class ShadowChecker:
    """Dispatcher-attached validator producing RT3xx findings."""

    check_residency: bool = True
    check_races: bool = True
    check_footprint: bool = True
    #: In-flight window; real queues are bounded, and an unbounded window
    #: would accumulate stale race edges across waits the model layer
    #: performs implicitly (CPU fallbacks, region flushes).
    max_in_flight: int = 64
    findings: list[Finding] = field(default_factory=list)
    _in_flight: list[_InFlight] = field(default_factory=list)
    _seen: set[tuple] = field(default_factory=set)
    #: (kernel, array) -> was the declared write ever observed to change
    #: the array? Aggregated so idempotent writes (ghost refills with
    #: identical values) don't read as drift; RT321 fires at report().
    _write_obs: dict = field(default_factory=dict)

    # -- findings plumbing ---------------------------------------------------

    def _emit(
        self, rule_id: str, message: str, *, site: str, context: str = ""
    ) -> None:
        key = (rule_id, site, message)
        if key in self._seen:
            return  # same kernel/pattern every step: report once
        self._seen.add(key)
        self.findings.append(Finding(rule_id, site, 0, message, context=context))

    # -- dispatcher hooks ----------------------------------------------------

    def on_launch(
        self,
        spec: "KernelSpec",
        env: "DataEnvironment",
        *,
        async_launch: bool,
        queue: int | None = None,
    ) -> None:
        """Validate one kernel at its dispatch point."""
        from repro.runtime.data_env import DataMode

        if self.check_residency:
            for name in spec.arrays:
                if name not in env:
                    self._emit(
                        "RT301",
                        f"kernel declares {name!r}, which is not registered "
                        "in the data environment",
                        site=spec.name,
                        context=name,
                    )
                elif env.mode is DataMode.MANUAL and not env.is_present(name):
                    self._emit(
                        "RT302",
                        f"kernel launched while {name!r} is not device-"
                        "resident (manual data mode)",
                        site=spec.name,
                        context=name,
                    )
        if self.check_races:
            q = queue if queue is not None else _queue_of(spec)
            if async_launch:
                for other in self._in_flight:
                    if other.queue == q:
                        continue  # same queue serializes
                    hz = hazards_between(
                        other.reads, other.writes, spec.reads, spec.writes
                    )
                    if hz:
                        kinds = "/".join(sorted(h.name for h in hz))
                        self._emit(
                            "RT310",
                            f"{kinds} hazard with {other.name!r} in flight on "
                            f"queue {other.queue} (this kernel is on queue "
                            f"{q}) with no intervening wait",
                            site=spec.name,
                            context=f"async:{q}",
                        )
                self._in_flight.append(
                    _InFlight(spec.name, q, spec.reads, spec.writes)
                )
                if len(self._in_flight) > self.max_in_flight:
                    del self._in_flight[0]

    def run_body(self, spec: "KernelSpec", env: "DataEnvironment") -> Any:
        """Run the spec's body, fingerprinting materialized arrays around it."""
        if not self.check_footprint or spec.body is None:
            return spec.run_body()
        tracked: dict[str, bytes] = {}
        for name in env.names():
            data = env.array(name).data
            if data is not None:
                tracked[name] = _fingerprint(data)
        result = spec.run_body()
        # Footprints are per logical array; region-qualified write tokens
        # ("rho@g2m") declare a write to their base array.
        declared_writes = {base_name(w) for w in spec.writes}
        changed: set[str] = set()
        for name, before in tracked.items():
            data = env.array(name).data
            if data is not None and _fingerprint(data) != before:
                changed.add(name)
        # Undeclared mutations are only attributable when every declared
        # write is backed by tracked storage. A spec writing an *untracked*
        # logical array (data=None) may legitimately reach it through
        # aliased storage -- e.g. the PCG iterate "pcg_p" IS the velocity
        # array at test scale, exactly as MAS solves in place -- so a
        # tracked array changing there is not evidence of a bad spec.
        aliasing_possible = any(
            name in env and env.array(name).data is None
            for name in declared_writes
        )
        if not aliasing_possible:
            for name in sorted(changed - declared_writes):
                self._emit(
                    "RT320",
                    f"body mutated {name!r}, which the spec does not declare "
                    "in writes",
                    site=spec.name,
                    context=name,
                )
        for name in declared_writes & set(tracked):
            key = (spec.name, name)
            self._write_obs[key] = self._write_obs.get(key, False) or (
                name in changed
            )
        return result

    def sync(self, queue: int | None = None) -> None:
        """A wait: retire in-flight kernels (all queues, or one)."""
        if queue is None:
            self._in_flight.clear()
        else:
            self._in_flight = [f for f in self._in_flight if f.queue != queue]

    # -- reporting -----------------------------------------------------------

    def report(self, *, source: str = "runtime") -> list[Finding]:
        """Severity-ranked findings; bumps lint_findings_total.

        Folds in the aggregated footprint-drift notes: a declared write
        that *no* launch of a kernel ever performed is drift (RT321);
        one that changed the array at least once is live.
        """
        from repro.analysis.findings import record_findings, sort_findings

        for (kernel, name), ever_changed in sorted(self._write_obs.items()):
            if not ever_changed:
                self._emit(
                    "RT321",
                    f"spec declares a write to {name!r} no launch ever "
                    "performed",
                    site=kernel,
                    context=name,
                )
        out = sort_findings(self.findings)
        record_findings(out, source=source)
        return out


def _queue_of(spec: "KernelSpec") -> int:
    """Async queue id from an ``async:N`` tag (0 = the default queue)."""
    for tag in spec.tags:
        if tag.startswith("async:"):
            try:
                return int(tag.split(":", 1)[1])
            except ValueError:
                return 0
    return 0


def shadow_smoke(version: str = "A", steps: int = 2) -> list[Finding]:
    """Run a tiny model with the shadow checker attached; return findings.

    The ``repro lint --runtime`` entry point: a clean model produces
    nothing above a note, which is exactly what makes the checker useful as
    a CI gate for future KernelSpec edits. Its notes are RT321 drift: every
    version prints the same 14, for ``apply_floors`` on rho and temp and
    for the velocity unpacks of axes 0 and 2, whose declared writes no
    launch of the two steps changed (``tests/analysis/test_shadow.py``).
    """
    from repro.codes import CodeVersion, runtime_config_for
    from repro.mas.model import MasModel, ModelConfig

    cfg = ModelConfig(
        shape=(8, 6, 8), num_ranks=2, pcg_iters=2, sts_stages=2,
        extra_model_arrays=0,
    )
    model = MasModel(cfg, runtime_config_for(CodeVersion[version]))
    checkers = []
    for rt in model.ranks:
        checker = ShadowChecker()
        rt.attach_shadow(checker)
        checkers.append(checker)
    model.run(steps)
    # A rank group's numpy work runs in the body of its first rank and
    # writes every rank's row, as a halo sweep's copy runs in its first
    # unpack's body (docs/PHYSICS.md S3b), so a declared write is live when
    # any rank's launch of the kernel performed it.
    performed: dict = {}
    for checker in checkers:
        for key, seen in checker._write_obs.items():
            performed[key] = performed.get(key, False) or seen
    findings: list[Finding] = []
    for checker in checkers:
        checker._write_obs.update(performed)
        findings.extend(checker.report(source=f"shadow:{version}"))
    # Ranks run the same kernels; identical findings collapse to one.
    return list(dict.fromkeys(findings))
