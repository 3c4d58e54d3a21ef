"""A step recorded once, priced many times.

The six code versions run identical physics (their state digests are equal
at every rank count) and differ in what each emission *costs*.  A
:class:`StepPlan` is what a model emitted, in order, at the boundaries it
already goes through -- the rank runtimes' loop entry points, the halo
exchanger, the collectives, the span tracer -- as plain values, split into
the set-up stream and one stream per step.  :class:`PlanRecorder` stands
between a live model and its :class:`~repro.mas.runtime_side.RuntimeSide`
while one is recorded; :func:`replay` drives a fresh side of any code
version with the same events and no grid, state, kernel body or PCG.  The
pricing is the side's own either way, so a replay's clocks equal a live
run's to the last bit (DESIGN.md, "A step is recorded once and priced many
times").

Events are tuples, first the kind:

* ``(launch, rank, spec)`` for the six ``RankRuntime`` loop entry points,
  ``spec`` an index into :attr:`StepPlan.specs` (body-less, carrying the
  entry point's category, interned by ``cost_key``);
  ``("region_open" | "region_close", rank)``;
* ``("wrapper_inits",)``: the kernels only some code versions add to a step,
  which the side issues (:meth:`RuntimeSide.wrapper_inits`);
* ``("ensure_buffers", names)``, ``("exchange_many", exchange)``,
  ``("exchange_begin", exchange, overlap, slot)``, ``("exchange_finish",
  slot)``, ``exchange`` an index into :attr:`StepPlan.exchanges`;
* ``("allreduce", function, values, slot)`` (``slot`` None when blocking)
  and ``("allreduce_finish", slot)``;
* ``("span_open", name, attrs)`` and ``("span_close",)``.

Only what a model calls is recorded: a model that starts calling a rank's
``sync`` or a data directive needs a wrapper for it here.
"""

from __future__ import annotations

import enum
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.analysis.dependence import base_name
from repro.mas.groups import rank_view
from repro.mas.runtime_side import RuntimeSide, StepTiming
from repro.mpi import collectives
from repro.mpi.halo import FieldItem, ShapeOnly
from repro.runtime.kernel import LAUNCHES, KernelSpec

if TYPE_CHECKING:
    from repro.mas.model import ModelConfig

#: Event kind -> its length as a tuple.
_ARITY = {
    **dict.fromkeys(LAUNCHES, 3), "region_open": 2, "region_close": 2, "wrapper_inits": 1,
    "ensure_buffers": 2, "exchange_many": 2, "exchange_begin": 4, "exchange_finish": 2,
    "allreduce": 4, "allreduce_finish": 2, "span_open": 3, "span_close": 1,
}
#: What ``RuntimeSide.allreduce`` is handed, by name.
_COLLECTIVES = frozenset({
    "allreduce_sum", "allreduce_min", "allreduce_max", "allreduce_many", "allreduce_many_begin",
})

Event = tuple
Stream = tuple[Event, ...]


def plan_key(side: RuntimeSide) -> tuple:
    """What decides the stream a model emits: its whole configuration and
    the two facts of the code version that change emission."""
    return (side.config, side.halo_overlap, side.pipelined_reductions)


def _text(value: Any) -> str:
    """Canonical text of a plan value; floats as hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_text(v) for v in value) + ")"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(value)) + "}"
    if is_dataclass(value):
        return "(" + ",".join(
            f"{f.name}={_text(getattr(value, f.name))}"
            for f in fields(value) if f.name != "body"
        ) + ")"
    return "-" if value is None else str(value)


@dataclass(frozen=True, slots=True)
class StepPlan:
    """The kernel stream of one (model configuration, rank count), at rest:
    numbers, names and body-less specs -- no array, closure, runtime or
    model."""

    key: tuple  # see plan_key
    specs: tuple[KernelSpec, ...]
    #: Per exchange, ``((field, stagger axis, per-rank array shapes), ...)``
    exchanges: tuple[tuple, ...]
    setup: Stream
    #: Distinct step streams, a step equal to the previous one stored once.
    streams: tuple[Stream, ...]
    #: Per step: (index into ``streams``, dt, simulated time reached,
    #: active ensemble members or None).
    steps: tuple[tuple[int, float, float, "int | None"], ...]
    #: The halo schedules of the plan's exchanges
    #: (:class:`~repro.mpi.halo.HaloSchedule`, by fields and stagger axes):
    #: the book the recorded side derived them into, which every replay
    #: reuses while their inputs stand. Derived, so not part of the plan's
    #: text or equality.
    schedules: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        for stream in (self.setup, *self.streams):
            _check_stream(self, stream)
        if any(not 0 <= s[0] < len(self.streams) for s in self.steps):
            raise ValueError("damaged plan: a step names a stream that is not there")

    @property
    def config(self) -> "ModelConfig":
        return self.key[0]

    def counts(self) -> dict[str, int]:
        """Stored events by kind."""
        return dict(sorted(Counter(
            ev[0] for stream in (self.setup, *self.streams) for ev in stream
        ).items()))

    def lines(self) -> list[str]:
        """The plan as canonical text, one value or event a line."""
        out = ["key " + _text(self.key)]
        out += [f"spec {i} {_text(s)}" for i, s in enumerate(self.specs)]
        out += [f"exchange {i} {_text(x)}" for i, x in enumerate(self.exchanges)]
        for title, stream in (
            ("setup", self.setup),
            *((f"stream {i}", s) for i, s in enumerate(self.streams)),
        ):
            out.append(title)
            for ev in stream:
                words = [_text(v) for v in ev]
                if ev[0] in LAUNCHES:
                    words[2] += ":" + self.specs[ev[2]].name
                out.append("  " + " ".join(words))
        out += [f"step {i} {_text(s)}" for i, s in enumerate(self.steps)]
        return out

    def dumps(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _check_stream(plan: StepPlan, stream: Stream) -> None:
    """Refuse a stream no model could have emitted: an unknown or truncated
    event, an index out of range, a finish with no begin, a region, span,
    exchange or reduction left open."""
    n = plan.config.num_ranks
    regions = [0] * n
    spans = 0
    open_slots: set = set()

    def bad(why: str) -> ValueError:
        return ValueError(f"damaged plan: {why}")

    for ev in stream:
        kind = ev[0] if ev else None
        if _ARITY.get(kind) != len(ev):
            raise bad(f"malformed event {ev!r}")
        if kind in LAUNCHES or kind in ("region_open", "region_close"):
            if not 0 <= ev[1] < n:
                raise bad(f"{kind} on rank {ev[1]} of {n}")
        if kind in LAUNCHES:
            if not 0 <= ev[2] < len(plan.specs):
                raise bad(f"{kind} of unknown spec {ev[2]}")
        elif kind == "region_open":
            regions[ev[1]] += 1
        elif kind == "region_close":
            regions[ev[1]] -= 1
            if regions[ev[1]] < 0:
                raise bad(f"region_close on rank {ev[1]} with no region open")
        elif kind in ("exchange_many", "exchange_begin"):
            if not 0 <= ev[1] < len(plan.exchanges):
                raise bad(f"{kind} of unknown exchange {ev[1]}")
        elif kind == "allreduce" and ev[1] not in _COLLECTIVES:
            raise bad(f"allreduce of unknown collective {ev[1]!r}")
        elif kind == "span_open":
            spans += 1
        elif kind == "span_close":
            spans -= 1
            if spans < 0:
                raise bad("span_close with no span open")
        if kind == "exchange_begin" or (kind == "allreduce" and ev[3] is not None):
            open_slots.add((kind[0], ev[3]))
        elif kind in ("exchange_finish", "allreduce_finish"):
            slot = (kind[0], ev[1])
            if slot not in open_slots:
                raise bad(f"{kind} {ev[1]} with no begin")
            open_slots.remove(slot)
    if any(regions) or spans or open_slots:
        raise bad("a region, span, exchange or reduction is left open")


# -- recording ---------------------------------------------------------------------


class _Tape:
    """What the recording wrappers write to.  They hold the tape and the
    tape holds none of them, so a dropped recorder is freed by reference
    counting alone."""

    def __init__(self) -> None:
        self.specs: dict[tuple, int] = {}
        self.exchanges: dict[tuple, int] = {}
        self.stream: list[Event] = []
        #: Exchanges and reductions begun and not finished, by slot; slots
        #: number the begins of one stream.
        self.open: list[tuple[int, Any]] = []
        self.begun = 0

    def launch(self, kind: str, rank: int, spec: KernelSpec) -> None:
        key = (kind, *spec.cost_key)
        index = self.specs.get(key)
        if index is None:
            index = self.specs[key] = len(self.specs)
        self.stream.append((kind, rank, index))

    def exchange(self, fields: tuple) -> int:
        return self.exchanges.setdefault(fields, len(self.exchanges))

    def opened(self, pending: Any) -> int:
        self.open.append((self.begun, pending))
        self.begun += 1
        return self.begun - 1

    def closed(self, pending: Any) -> int:
        for i, (slot, held) in enumerate(self.open):
            if held is pending:
                del self.open[i]
                return slot
        raise ValueError("finish of an exchange or reduction not begun in this stream")

    def cut(self) -> Stream:
        """End the current stream and start the next."""
        if self.open:
            raise ValueError(f"{len(self.open)} exchanges or reductions left open")
        stream, self.stream, self.begun = tuple(self.stream), [], 0
        return stream


class _RecordingRank:
    """One rank runtime as the model sees it while a plan is recorded."""

    def __init__(self, rt: Any, rank: int, tape: _Tape) -> None:
        self._rt, self._rank, self._tape = rt, rank, tape

    def __getattr__(self, name: str) -> Any:
        if name in LAUNCHES:  # the six loop entry points
            return partial(self._launch, name)
        return getattr(self._rt, name)

    def _launch(self, kind: str, spec: KernelSpec) -> Any:
        self._tape.launch(kind, self._rank, spec)
        return getattr(self._rt, kind)(spec)

    @contextmanager
    def region(self) -> Iterator[None]:
        self._tape.stream.append(("region_open", self._rank))
        with self._rt.region():
            yield
        self._tape.stream.append(("region_close", self._rank))


class _RecordingHalo:
    """The halo exchanger as the model sees it while a plan is recorded."""

    def __init__(self, halo: Any, tape: _Tape) -> None:
        self._halo, self._tape = halo, tape

    def __getattr__(self, name: str) -> Any:
        return getattr(self._halo, name)

    def _fields(self, items: list[FieldItem]) -> tuple:
        """Each field with its stagger axis and the shape of each rank's
        array: its own, or its row of its group's block as the rank sees
        it (``rank_view``)."""
        slots = self._halo.slots(len(items[0][1]))
        return tuple(
            (f, stagger, tuple(
                (arrays[i] if row is None else rank_view(arrays[i], row)).shape
                for i, row in slots
            ))
            for f, arrays, stagger in items
        )

    def ensure_buffers(self, field_names: tuple[str, ...]) -> None:
        self._tape.stream.append(("ensure_buffers", tuple(field_names)))
        self._halo.ensure_buffers(field_names)

    def exchange_many(self, items: list[FieldItem]) -> None:
        self._tape.stream.append(("exchange_many", self._tape.exchange(self._fields(items))))
        self._halo.exchange_many(items)

    def exchange_begin_many(self, items, *, overlap=True):
        pending = self._halo.exchange_begin_many(items, overlap=overlap)
        tape = self._tape
        tape.stream.append(
            ("exchange_begin", tape.exchange(self._fields(items)), overlap, tape.opened(pending))
        )
        return pending

    def exchange_finish(self, pending) -> None:
        self._tape.stream.append(("exchange_finish", self._tape.closed(pending)))
        self._halo.exchange_finish(pending)


class PlanRecorder:
    """A :class:`RuntimeSide` as a model sees it, noting what passes.

    Hand it to ``MasModel(..., runtime=PlanRecorder(side))``, run the steps,
    take :meth:`finish`.  The wrappers exist for that model only: the side's
    own objects gain no branch.
    """

    def __init__(self, side: RuntimeSide) -> None:
        self._side = side
        self._tape = tape = _Tape()
        self.ranks = [_RecordingRank(rt, r, tape) for r, rt in enumerate(side.ranks)]
        self.halo = _RecordingHalo(side.halo, tape)
        self._setup: Stream | None = None
        self._streams: list[Stream] = []
        self._steps: list[tuple] = []
        self._in_step = False

    def __getattr__(self, name: str) -> Any:
        return getattr(self._side, name)

    def wrapper_inits(self) -> None:
        self._tape.stream.append(("wrapper_inits",))
        self._side.wrapper_inits()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        self._tape.stream.append(("span_open", name, tuple(attrs.items())))
        with self._side.span(name, **attrs):
            yield
        self._tape.stream.append(("span_close",))

    def allreduce(self, collective: Callable, locals_: list) -> Any:
        result = self._side.allreduce(collective, locals_)
        name = getattr(collective, "__wrapped__", collective).__name__
        posted = isinstance(result, collectives.PendingReduction)
        self._tape.stream.append((
            "allreduce", name, int(np.size(locals_[0])),
            self._tape.opened(result) if posted else None,
        ))
        return result

    def allreduce_finish(self, pending: Any) -> np.ndarray:
        self._tape.stream.append(("allreduce_finish", self._tape.closed(pending)))
        return self._side.allreduce_finish(pending)

    def begin_step(self) -> None:
        if self._setup is None:
            self._setup = self._tape.cut()
        self._in_step = True
        self._side.begin_step()

    def end_step(self, step: int, dt: float, sim_time: float,
                 active_members: int | None = None) -> StepTiming:
        stream = self._tape.cut()
        cfg = self._side.config
        if self._streams and cfg.pcg_tol == 0 and stream != self._streams[0]:
            # fixed iteration and stage counts: nothing a step emits
            # depends on the state it advances
            raise RuntimeError(
                f"step {len(self._steps)} emitted a different stream from step 0: "
                + _first_difference(self._streams[0], stream)
            )
        if not self._streams or stream != self._streams[-1]:
            self._streams.append(stream)
        self._steps.append((len(self._streams) - 1, dt, sim_time, active_members))
        self._in_step = False
        return self._side.end_step(step, dt, sim_time, active_members)

    def finish(self) -> StepPlan:
        """The plan of what was recorded; the model may be dropped."""
        if self._in_step:
            raise ValueError("a step is still open")
        specs = [
            KernelSpec(key[1], LAUNCHES[key[0]], *key[3:8], None, key[8])
            for key in self._tape.specs
        ]
        return StepPlan(
            key=plan_key(self._side),
            specs=tuple(specs),
            exchanges=tuple(self._tape.exchanges),
            setup=self._tape.cut() if self._setup is None else self._setup,
            streams=tuple(self._streams),
            steps=tuple(self._steps),
            schedules=self._side.halo.schedules,
        )


def _first_difference(a: Stream, b: Stream) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"event {i}: {x!r} became {y!r}"
    return f"{len(a)} events became {len(b)}"


# -- replay ------------------------------------------------------------------------


def _check_side(plan: StepPlan, side: RuntimeSide, n_steps: int) -> None:
    """One-line refusal of a side the plan was not recorded for."""
    cfg, want = side.config, plan.config
    for what in ("num_ranks", "shape", "nominal_shape", "ensemble_size"):
        if getattr(cfg, what) != getattr(want, what):
            raise ValueError(
                f"plan recorded for {what} {getattr(want, what)}, "
                f"runtime side has {getattr(cfg, what)}"
            )
    if plan_key(side)[1:] != plan.key[1:]:
        raise ValueError(
            "plan recorded with (halo overlap, pipelined reductions) "
            f"{plan.key[1:]}, runtime side has {plan_key(side)[1:]}"
        )
    if cfg != want:
        raise ValueError("plan recorded for another model configuration")
    if not 1 <= n_steps <= len(plan.steps):
        raise ValueError(f"plan holds {len(plan.steps)} steps, asked for {n_steps}")
    if side.ranks[0].env.names():
        raise ValueError("replay needs a fresh runtime side")
    known = set(side.model_arrays())
    for spec in plan.specs:
        for name in spec.arrays:
            if base_name(name) not in known:
                raise ValueError(
                    f"damaged plan: kernel {spec.name!r} names unregistered array {name!r}"
                )


class _Player:
    """One replay's tables: shape-only exchange items, placeholder reduction
    values. A launch is priced from its engine's memo, as a live one is."""

    def __init__(self, plan: StepPlan, side: RuntimeSide) -> None:
        self.side, self.specs = side, plan.specs
        self.items = [
            [(f, [ShapeOnly(s) for s in shapes], stagger) for f, stagger, shapes in flds]
            for flds in plan.exchanges
        ]
        self.values: dict[int, list] = {}
        self.regions: list[list] = [[] for _ in side.ranks]
        self.spans: list = []
        self.pending: dict[tuple, Any] = {}

    def play(self, stream: Stream) -> None:
        specs, handlers, ranks = self.specs, _HANDLERS, self.side.ranks
        for ev in stream:
            category = LAUNCHES.get(ev[0])
            if category is None:
                handlers[ev[0]](self, ev)
            else:
                ranks[ev[1]]._dispatch(specs[ev[2]], category)

    def _region_open(self, ev: Event) -> None:
        region = self.side.ranks[ev[1]].region()
        region.__enter__()
        self.regions[ev[1]].append(region)

    def _region_close(self, ev: Event) -> None:
        self.regions[ev[1]].pop().__exit__(None, None, None)

    def _wrapper_inits(self, ev: Event) -> None:
        self.side.wrapper_inits()

    def _ensure_buffers(self, ev: Event) -> None:
        self.side.halo.ensure_buffers(ev[1])

    def _exchange_many(self, ev: Event) -> None:
        self.side.halo.exchange_many(self.items[ev[1]])

    def _exchange_begin(self, ev: Event) -> None:
        self.pending["e", ev[3]] = self.side.halo.exchange_begin_many(
            self.items[ev[1]], overlap=ev[2]
        )

    def _exchange_finish(self, ev: Event) -> None:
        self.side.halo.exchange_finish(self.pending.pop(("e", ev[1])))

    def _allreduce(self, ev: Event) -> None:
        _, name, count, slot = ev
        values = self.values.get(count)
        if values is None:
            # what is reduced is physics; what it costs is how many values
            value = 0.0 if count == 1 else np.zeros(count)
            values = self.values[count] = [value] * len(self.side.ranks)
        # looked up per call, as the model's callers do (bench tracer)
        result = self.side.allreduce(getattr(collectives, name), values)
        if slot is not None:
            self.pending["a", slot] = result

    def _allreduce_finish(self, ev: Event) -> None:
        self.side.allreduce_finish(self.pending.pop(("a", ev[1])))

    def _span_open(self, ev: Event) -> None:
        span = self.side.span(ev[1], **dict(ev[2]))
        span.__enter__()
        self.spans.append(span)

    def _span_close(self, ev: Event) -> None:
        self.spans.pop().__exit__(None, None, None)


#: Unbound, so a player does not refer to itself.
_HANDLERS = {
    kind: getattr(_Player, "_" + kind) for kind in _ARITY if kind not in LAUNCHES
}


def replay(plan: StepPlan, side: RuntimeSide, n_steps: int | None = None) -> list[StepTiming]:
    """Drive a fresh runtime side through the first ``n_steps`` (default:
    all) recorded steps; returns what the live model's ``run`` would have.

    Refuses, before any clock moves, a side the plan was not recorded for.
    """
    n = len(plan.steps) if n_steps is None else n_steps
    _check_side(plan, side, n)
    side.halo.schedules = plan.schedules
    player = _Player(plan, side)
    side.register_arrays()
    with side.phase("setup/initial_exchange"):
        player.play(plan.setup)
    timings = []
    for step, (stream, dt, sim_time, active_members) in enumerate(plan.steps[:n]):
        side.begin_step()
        with side.phase("step", index=step):
            player.play(plan.streams[stream])
        timings.append(side.end_step(step, dt, sim_time, active_members))
    return timings


def run_planned(
    plans: dict, n_steps: int, config: "ModelConfig", runtime_config: Any, **hardware: Any
) -> list[StepTiming]:
    """``MasModel(config, runtime_config, **hardware).run(n_steps)`` through
    a plan book the caller owns: the first run of a key is live and recorded
    into ``plans``, every later one a replay."""
    from repro.mas.model import MasModel

    side = RuntimeSide(config, runtime_config, **hardware)
    key = plan_key(side)
    plan = plans.get(key)
    if plan is not None and len(plan.steps) >= n_steps:
        return replay(plan, side, n_steps)
    recorder = PlanRecorder(side)
    timings = MasModel(config, runtime_config, runtime=recorder).run(n_steps)
    plans[key] = recorder.finish()
    return timings
