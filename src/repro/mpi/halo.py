"""Halo (ghost-cell) exchange engine.

One exchange per field per axis: pack the interior face into a send buffer
(a GPU kernel, tagged ``mpi_pack`` so it lands in Fig. 3's MPI bar), move
the message via the configured transport, unpack into the neighbour's ghost
layer (another ``mpi_pack`` kernel). Every exchange fills the one ghost
layer the model's grids have, on all three axes; axes exchange sequentially
so corner ghosts become consistent without diagonal messages (standard
practice).

Real numpy payloads move between the ranks' arrays, so multi-rank physics
is bit-checkable against a single-rank run. Two cost modes exist:

* **bulk-synchronous** (:meth:`HaloExchanger.exchange` /
  :meth:`HaloExchanger.exchange_many`): ranks synchronize at the start of
  each phase and the laggard charges its peers MPI wait time;
* **overlapped** (:meth:`HaloExchanger.exchange_begin` /
  :meth:`HaloExchanger.exchange_finish`): pack kernels, sends and unpack
  kernels run on a detached communication timeline while the main clock
  keeps advancing under interior compute; ``finish`` charges only the part
  of the exchange that compute failed to hide. Payloads still move eagerly
  at ``begin``, so overlapped runs are bit-identical to synchronous ones by
  construction.

Multiple fields can share one exchange (:meth:`exchange_many`): every phase
loops over all fields, so the batch pays each axis' barriers once.

An exchange takes each field as one array per rank or, after
:meth:`HaloExchanger.set_groups`, one block per rank group. A sweep -- the
messages of one (field, axis, direction, source group, destination group) --
moves its payload as one copy in the body of its first unpack kernel; its
packs and other unpacks issue and are charged with no body.

An exchange's schedule does not change between steps, so it is derived once,
in two halves. A :class:`HaloSchedule` is what every side of one model
configuration shares: the messages' names, the body-less pack, unpack and
buffer kernels, nominal bytes and same-node flags. It records what it was
derived from, and an exchanger reuses one from its book
(:attr:`HaloExchanger.schedules`, which a recorded
:class:`~repro.mas.plan.StepPlan` hands to its replays) while those inputs
stand. A :class:`_Plan` per set of fields with their stagger axes is the
priced half every ``exchange*`` walks, rebuilt when an ``env.epoch`` or an
array shape moves: the transport's residency checks and wire times
(``Transport.wire_time``), and the sweep bodies. Every kernel a walk issues
goes through ``RankRuntime.loop``, which prices it on its rank. Between two
barriers of a walk a rank's clock and pages are moved by that rank's own
events alone, so what a walk adds to the ranks depends only on where their
clocks stand and on the residency of the managed arrays each touches: the
first walk from each residency of all ranks records every rank's adds as
one :class:`_Recording`, and later walks from the same residencies play it
on every rank as float adds, and as rows to a profiler.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field, replace
from functools import partial, reduce
from itertools import count
from typing import NamedTuple

import numpy as np

from repro.machine.unified_memory import PageMigrationStats
from repro.mpi.decomp import Decomposition3D
from repro.mpi.transport import Transport
from repro.obs.events import ProfilerLane
from repro.obs.telemetry import current as _telemetry
from repro.runtime.pricing import kernel_counters
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.kernel import KernelSpec, LoopCategory


class ShapeOnly(NamedTuple):
    """Stands in for a rank's array in a cost-only exchange: deriving a plan
    reads an array's shape and nothing else, and the plan derived from these
    has body-less pack and unpack kernels, so its walk prices every message
    and moves no payload (a :class:`~repro.mas.plan.StepPlan` replay)."""

    shape: tuple[int, ...]


#: One field participating in an exchange: (name, its arrays -- one per rank,
#: or one block per rank group -- and its stagger axis or None).
FieldItem = tuple[str, "list[np.ndarray] | list[ShapeOnly]", "int | None"]


def _cost_only(items: list[FieldItem]) -> bool:
    return isinstance(items[0][1][0], ShapeOnly)

_PACK_TAGS = frozenset({"mpi_pack"})
#: Every planned kernel is a plain loop (``RankRuntime.loop``). Enum
#: members the walk uses are read once: looked up on their class, each
#: access costs a Python-level hook (Python 3.11).
_PLAIN = LoopCategory.PLAIN
_TRANSFER, _WAIT = TimeCategory.MPI_TRANSFER, TimeCategory.MPI_WAIT


class _FaceNames(NamedTuple):
    """Every name one (field, axis, direction) face uses."""

    send: str    # staging buffer the face is packed into
    recv: str    # staging buffer this face's ghosts are unpacked from
    pack: str    # pack kernel
    unpack: str  # unpack kernel
    #: The unpack's write token, qualified to this direction's ghost shell
    #: ("rho@g2m"): the two directions' unpacks touch disjoint storage, so
    #: cross-region fusion may run them as one launch while readers of the
    #: bare field still order correctly.
    ghost: str


def _face_names(field_name: str, axis: int, direction: int) -> _FaceNames:
    side = "m" if direction < 0 else "p"
    return _FaceNames(
        send=f"_halo_send_{field_name}_{axis}_{side}",
        recv=f"_halo_recv_{field_name}_{axis}_{side}",
        pack=f"halo_pack_{field_name}_{axis}{side}",
        unpack=f"halo_unpack_{field_name}_{axis}{side}",
        ghost=f"{field_name}@g{axis}{side}",
    )


#: Monotonic exchange ids shared by an overlapped exchange's begin/finish
#: spans and log records (the dependency edge trace analysis pairs up).
_xids = count(1)


@dataclass(slots=True)
class PendingExchange:
    """An in-flight overlapped exchange returned by ``exchange_begin``.

    ``comm_clocks`` is None when the exchange already completed
    synchronously at begin (overlap unsupported or disabled); ``finish``
    is then a no-op. ``xid`` links the begin and finish ends of one
    overlapped exchange across spans and log records.
    """

    fields: tuple[str, ...]
    messages: int = 0
    comm_clocks: list[SimClock] | None = None
    t_begin: list[float] = dc_field(default_factory=list)
    done: bool = False
    xid: int = 0


def _along(axis: int, sl: slice) -> tuple:
    out: list = [Ellipsis, slice(None), slice(None), slice(None)]
    out[1 + axis] = sl  # spatial axes are the trailing three
    return tuple(out)


def _interior_face(a: np.ndarray, axis: int, direction: int, *, staggered: bool = False) -> tuple:
    """Slice of the interior layer adjacent to one face (what gets sent).

    ``staggered`` marks face-centered arrays along the exchange axis: the
    boundary face is shared (computed identically by both ranks), so the
    sent layer shifts inward by one to land in the neighbour's strictly
    beyond-boundary ghost face.
    """
    n = a.shape[axis - 3] - 2
    if direction == -1:
        return _along(axis, slice(2, 3) if staggered else slice(1, 2))
    return _along(axis, slice(n - 1, n) if staggered else slice(n, n + 1))


def _ghost_face(a: np.ndarray, axis: int, direction: int) -> tuple:
    """Slice of the ghost layer on one face (what gets received into)."""
    n = a.shape[axis - 3] - 2
    return _along(axis, slice(0, 1) if direction == -1 else slice(n + 1, n + 2))


def row_index(rows: list[int]) -> slice | np.ndarray:
    """Rows of a block as one index: a slice when they are evenly spaced
    and ascending (one row, or a consecutive run), else an index array."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step > 0 and rows == list(range(rows[0], rows[-1] + 1, step)):
        return slice(rows[0], rows[-1] + 1, step)
    return np.array(rows, dtype=np.intp)


def _rows(rows: tuple[int | None, ...]) -> tuple:
    """The index prefix of one end of a sweep: its rows, or none in a
    rank's own array."""
    return () if rows[0] is None else (row_index(list(rows)),)


def _copy(blocks: list, item: int, src: int, dst: int, face: tuple, ghost: tuple) -> None:
    """One sweep's payload: the faces of field ``item``'s array ``src`` into
    the ghosts of its array ``dst`` (``blocks`` holds the walk's arrays)."""
    arrays = blocks[item]
    arrays[dst][ghost] = arrays[src][face]


@dataclass(frozen=True, slots=True)
class _Recording:
    """What one walk of a plan adds to every rank, starting from one residency
    of the arrays each rank touches: floats, categories, labels, counts and
    residency values, never a rank, model or array."""

    #: Per segment (the stretch between two of the walk's barriers), per
    #: rank, the clock's adds in order as ``(category, seconds, label)``; a
    #: category of None is the wait for a wire of that many seconds.
    segments: tuple[tuple[tuple[tuple[TimeCategory | None, float, str], ...], ...], ...]
    #: Per segment, the order the real calls made those adds in: an
    #: ``operator.itemgetter`` of their positions in the ranks' adds laid
    #: end to end, or None when that is the order.
    orders: tuple[operator.itemgetter | None, ...]
    #: Per rank, what the walk did besides the clock: the launches charged
    #: (each one kernel) and, under UM, the touched arrays' residency at the
    #: end and the page migrations counted on the way.
    exits: tuple[tuple[int, tuple, PageMigrationStats | None], ...]

    def settle(self, ranks: list[RankRuntime], touched: tuple) -> None:
        """Leave the ranks as the recorded walk left them besides their clocks."""
        for rt, names, (launches, residency, faults) in zip(ranks, touched, self.exits):
            if launches:
                stats = rt._engine_for[_PLAIN].stats
                stats.kernels += launches
                stats.launches += launches
            if faults is not None:
                rt.env.um.replay(names, residency, faults)


def _residency(rt: RankRuntime, names: tuple[str, ...]) -> tuple:
    um = rt.env.um
    return () if um is None else um.residencies(names)


class _Recorder:
    """Observes every rank clock while a walk charges the ranks through the
    real calls, and keeps what they add, and in which order."""

    __slots__ = ("ops", "made", "segments", "orders", "launches", "faults", "observers")

    def __init__(self, ranks: list[RankRuntime]) -> None:
        # the open segment's adds per rank, and the rank of each in order
        self.ops, self.made = [[] for _ in ranks], []
        self.segments: list[tuple] = []
        self.orders: list[operator.itemgetter | None] = []
        self.launches = [rt.stats.launches for rt in ranks]
        self.faults = [None if rt.env.um is None else replace(rt.env.um.stats) for rt in ranks]
        self.observers = [partial(self.add, rank) for rank in range(len(ranks))]
        for rt, observer in zip(ranks, self.observers):
            rt.clock.subscribe(observer)

    def add(self, rank: int, start: float, dt: float, category: TimeCategory | None,
            label: str) -> None:
        self.ops[rank].append((category, dt, label))
        self.made.append(rank)

    def wire(self, rank: int, clock: SimClock, seconds: float, label: str) -> None:
        """The sender's wait for its wire, kept as the wire: what
        ``wait_until`` adds depends on where the clock stands."""
        ops = self.ops[rank]
        n = len(ops)
        clock.wait_until(clock.now + seconds, _TRANSFER, label)
        if len(ops) == n:  # the wait added nothing; the wire is kept
            self.add(rank, clock.now, seconds, None, label)
        ops[n] = (None, seconds, label)

    def cut(self) -> None:
        """End a segment."""
        # each add's position among the ranks' adds laid end to end
        by_rank = sorted(range(len(self.made)), key=self.made.__getitem__)  # stable
        order = sorted(range(len(by_rank)), key=by_rank.__getitem__)
        self.orders.append(None if order == sorted(order) else operator.itemgetter(*order))
        self.segments.append(tuple(map(tuple, self.ops)))
        self.ops, self.made = [[] for _ in self.ops], []

    def detach(self, ranks: list[RankRuntime]) -> None:
        for rt, observer in zip(ranks, self.observers):
            rt.clock.unsubscribe(observer)

    def recording(self, ranks: list[RankRuntime], touched: tuple) -> _Recording:
        starts = zip(ranks, touched, self.launches, self.faults)
        return _Recording(tuple(self.segments), tuple(self.orders), tuple(
            (rt.stats.launches - launches, _residency(rt, names),
             None if faults is None else rt.env.um.stats.since(faults))
            for rt, names, launches, faults in starts
        ))


def _observed_by(clocks: list[SimClock]):
    """The profiler and each clock's lane when every clock's one observer is
    a lane of that profiler; None when no clock has an observer; else False."""
    observers = [clock._observers for clock in clocks]
    lanes = [getattr(obs[0], "__self__", None) if len(obs) == 1 else None for obs in observers]
    profilers = {lane.profiler() if type(lane) is ProfilerLane else None for lane in lanes}
    if len(profilers) == 1 and None not in profilers:
        return profilers.pop(), [lane.lane for lane in lanes]
    return False if any(observers) else None


def _play(clock: SimClock, ops: tuple[tuple[TimeCategory | None, float, str], ...],
          rows: list | None = None, lane: str | None = None) -> None:
    """One rank's segment of a recording on ``clock``: ``advance``'s two adds
    per op, in order, a wire as ``wait_until(now + seconds)``, and onto
    ``rows``, if given, each op's profiler row (zero seconds for a wire that
    adds nothing)."""
    now, totals = clock.now, clock.by_category
    get = totals.get
    for category, dt, label in ops:
        if category is None:
            t = now + dt
            if not t > now:
                if rows is not None:
                    rows.append((lane, now, 0.0, _TRANSFER, label))
                continue
            category, dt = _TRANSFER, t - now
        if rows is not None:
            rows.append((lane, now, dt, category, label))
        now += dt
        totals[category] = get(category, 0.0) + dt
    clock.now = now


class _Route(NamedTuple):
    """One message of a schedule, the same on every side that shares it."""

    src: int
    dst: int
    #: Index of the field among the exchange's, and the face it leaves by.
    item: int
    direction: int
    pack: KernelSpec    # body-less
    unpack: KernelSpec  # body-less
    send: str  # staging-buffer names
    recv: str
    nbytes: int
    same_node: bool


@dataclass(frozen=True, slots=True)
class HaloSchedule:
    """The side-independent half of one exchange's plan: names, numbers and
    body-less kernels -- no array, body, runtime or model.

    It records every input it was derived from (:attr:`inputs`, and the
    nominal size of each array it read), so a side whose inputs differ
    derives its own (:meth:`HaloExchanger._schedule`)."""

    #: The decompositions, element bytes, pack inefficiency, buffer-init
    #: fraction and rank nodes.
    inputs: tuple
    #: The arrays whose nominal sizes the schedule read, and per rank their
    #: sizes (None for an array the rank has not registered).
    sized: tuple[str, ...]
    sizes: tuple[tuple[int | None, ...], ...]
    #: Buffer maintenance kernels, each with its rank.
    init: tuple[tuple[int, KernelSpec], ...]
    #: Per axis that is walked: the axis, and its messages in the one order
    #: packs, sends and unpacks all run in.
    axes: tuple[tuple[int, tuple[_Route, ...]], ...]
    #: Messages and nominal bytes one walk sends.
    sent: tuple[int, int]
    #: Per rank, the arrays its pack and unpack kernels touch.
    touched: tuple[tuple[str, ...], ...]


@dataclass(frozen=True, slots=True)
class _Plan:
    """One exchange's priced half on one side, as plain pieces: the shared
    schedule, numbers, kernels whose bodies read :attr:`blocks` -- never a
    model, a runtime or an array."""

    fields: tuple[str, ...]
    guard: tuple  # (env epochs, array shapes) the plan was derived from
    schedule: HaloSchedule
    #: Per axis of the schedule, the unpack kernel of each route: a sweep's
    #: first carries the sweep's payload copy.
    unpacks: tuple[tuple[KernelSpec, ...], ...]
    #: Per axis, each route's seconds on the wire (``Transport.wire_time``):
    #: the sender waits for it.
    wires: tuple[tuple[float, ...], ...]
    #: Per axis, each sweep's first unpack kernel, in message order: the
    #: unpacks that have a body.
    sweeps: tuple[tuple[KernelSpec, ...], ...]
    #: What the sweep bodies read while a walk runs: each field's arrays.
    #: Emptied when the walk ends, so a plan at rest references no array.
    blocks: list
    #: Walks recorded so far, by every rank's residency of its touched arrays.
    recordings: dict[tuple, _Recording] = dc_field(default_factory=dict)
    serial: int = dc_field(default_factory=partial(next, count()))  # a registry key


class HaloExchanger:
    """Exchanges ghost layers of per-rank arrays with cost accounting.

    ``decomp`` describes the *actual* (test-scale) grid; ``nominal_decomp``
    the paper-scale grid used for byte costing. Both must have the same
    rank layout.
    """

    def __init__(
        self,
        decomp: Decomposition3D,
        transport: Transport,
        ranks: list[RankRuntime],
        *,
        nominal_decomp: Decomposition3D | None = None,
        element_bytes: int = 8,
        pack_inefficiency: float = 1.0,
        buffer_init_fraction: float = 0.0,
        rank_nodes: list[int] | None = None,
    ) -> None:
        if len(ranks) != decomp.nranks:
            raise ValueError("one RankRuntime per rank required")
        if pack_inefficiency < 1.0:
            raise ValueError("pack_inefficiency is a traffic multiplier >= 1")
        if buffer_init_fraction < 0.0:
            raise ValueError("buffer_init_fraction cannot be negative")
        self.decomp = decomp
        self.nominal = nominal_decomp or decomp
        if self.nominal.nranks != decomp.nranks or self.nominal.dims != decomp.dims:
            raise ValueError("nominal decomposition must have the same rank layout")
        self.transport = transport
        self.ranks = ranks
        self.element_bytes = element_bytes
        #: Effective traffic multiplier of the pack/unpack kernels: boundary
        #: faces are strided slices, so each gathered element drags a whole
        #: cache line (and MAS loads per-variable boundary buffer structures
        #: on top). Calibrated in repro.perf.calibration against Fig. 3's
        #: 1-GPU MPI bar.
        self.pack_inefficiency = pack_inefficiency
        #: Fraction of the exchanged field's full array traffic charged per
        #: exchange as boundary-buffer maintenance. Fig. 3 counts "buffer
        #: initialization/loading/unloading" as MPI time, and at 1 GPU that
        #: term dominates the 29-of-201-minute MPI bar -- it scales with
        #: local volume, which is exactly how the paper's manual-data MPI
        #: share falls from 14% (1 GPU) toward 9% (8 GPUs). Calibrated in
        #: repro.perf.calibration.
        self.buffer_init_fraction = buffer_init_fraction
        #: Node index per rank for multi-node runs (None = all one node);
        #: off-node messages cross the fabric instead of NVLink.
        if rank_nodes is not None and len(rank_nodes) != decomp.nranks:
            raise ValueError("rank_nodes must list one node per rank")
        self.rank_nodes = rank_nodes
        self._registered_fields: set[str] = set()
        #: Side-independent schedules by fields and their stagger axes; a
        #: book that sides of one model configuration may share.
        self.schedules: dict[tuple, HaloSchedule] = {}
        #: This side's priced plans by fields and their stagger axes.
        self._plans: dict[tuple, _Plan] = {}
        #: By how many arrays an exchange takes per field, each rank's (array
        #: index, row): one array per rank, or a block per rank group.
        self._slots = {decomp.nranks: [(r, None) for r in range(decomp.nranks)]}
        #: Plans derived so far (a rebuild counts again): bounded by the
        #: exchange vocabulary, not by how long the model runs.
        self.plans_built = 0
        #: Walks recorded so far: bounded by the plans and the residencies
        #: their ranks meet.
        self.walks_recorded = 0
        #: Message counters for tests/benches.
        self.messages = 0
        self.bytes_sent = 0
        #: Messages posted by overlapped begins and not yet finished.
        self.inflight = 0

    def set_groups(self, groups: list[tuple[int, ...]]) -> None:
        """Name the rank groups: from now on an exchange may take one array
        per group, whose rows are ``groups[g]``'s arrays in that order."""
        if sorted(r for ranks in groups for r in ranks) != list(range(self.decomp.nranks)):
            raise ValueError("rank groups must hold every rank once")
        slots: list = [None] * self.decomp.nranks
        for g, ranks in enumerate(groups):
            for row, r in enumerate(ranks):
                slots[r] = (g, row)
        self._slots[len(groups)] = slots

    def slots(self, count: int) -> list[tuple[int, int | None]]:
        """Per rank, the index of its array among an exchange's ``count``
        and its row there (None: the array is the rank's own)."""
        if count not in self._slots:
            raise ValueError("one local array per rank (or per rank group) required")
        return self._slots[count]

    # -- buffer management -----------------------------------------------------

    def ensure_buffers(self, field_names: tuple[str, ...]) -> None:
        """Register per-field send/recv staging buffers in every rank's
        environment (first exchange of each field)."""
        missing = list(dict.fromkeys(f for f in field_names if f not in self._registered_fields))
        if not missing:
            return
        buffers = [(axis, name) for f in missing for axis in range(3) for d in (-1, 1)
                   for name in _face_names(f, axis, d)[:2]]  # send, then receive
        for rank, rt in enumerate(self.ranks):
            face = [self.nominal.face_cells(rank, axis) * self.element_bytes for axis in range(3)]
            rt.register_arrays([(name, face[axis]) for axis, name in buffers
                                if name not in rt.env])
        self._registered_fields.update(missing)

    # -- exchange ---------------------------------------------------------------

    def exchange(self, field_name: str, locals_: list[np.ndarray], *,
                 stagger_axis: int | None = None) -> None:
        """Fill ghost layers of ``locals_`` (one ghosted array per rank, or
        one block per rank group: :meth:`set_groups`).

        ``stagger_axis`` marks face-centered arrays (one entry longer along
        that axis); along it, the shared boundary face is skipped and ghost
        faces receive the neighbour's strictly-interior faces.
        """
        self.exchange_many([(field_name, locals_, stagger_axis)])

    def exchange_many(self, items: list[FieldItem]) -> None:
        """Synchronously exchange several fields as one batched operation.

        Every phase (pack, message, unpack) loops over all fields, so the
        batch pays the per-axis barriers once instead of once per field.
        Per-field payloads are identical to back-to-back single-field
        exchanges (fields do not interact; axes stay sequential).
        """
        plan = self._plan(items)
        tel = self._observe_exchanges(plan.fields)
        for rt in self.ranks:
            rt.sync()
        t0 = [rt.clock.now for rt in self.ranks]
        with tel.tracer.span("halo_exchange", field=",".join(plan.fields)):
            self._walk(plan, items, tel)
        if tel.enabled:
            elapsed = sum(rt.clock.now - t for rt, t in zip(self.ranks, t0)) / len(self.ranks)
            self._exchange_seconds_counter(tel).inc(elapsed)

    # -- overlapped exchange ----------------------------------------------------

    def exchange_begin(self, field_name: str, locals_: list[np.ndarray], *,
                       stagger_axis: int | None = None, overlap: bool = True) -> PendingExchange:
        """Start one overlapped exchange; see :meth:`exchange_begin_many`."""
        return self.exchange_begin_many([(field_name, locals_, stagger_axis)], overlap=overlap)

    def exchange_begin_many(self, items: list[FieldItem], *,
                            overlap: bool = True) -> PendingExchange:
        """Post an exchange without blocking the main timelines.

        Ghost payloads move eagerly (numerics are complete when this
        returns); all simulated cost -- pack kernels, wire time, unpack
        kernels, intra-exchange barriers -- lands on detached per-rank
        communication clocks. The main clocks are charged only the
        host-side posting overhead (one async-queue submit per kernel the
        exchange launched, the ``AsyncQueue`` tie-in). Call
        :meth:`exchange_finish` before any kernel that reads the ghosts'
        *cost* dependence region -- in MAS terms, before the boundary-shell
        pass.

        With ``overlap=False`` (how models degrade when
        ``RuntimeConfig.supports_halo_overlap`` is off) this is exactly
        :meth:`exchange_many` plus a completed :class:`PendingExchange`.
        """
        if not overlap:
            self.exchange_many(items)
            return PendingExchange(fields=tuple(f for f, _, _ in items))
        plan = self._plan(items)
        fields = plan.fields
        tel = self._observe_exchanges(fields)
        for rt in self.ranks:
            rt.sync()
        xid = next(_xids)
        t_begin = [rt.clock.now for rt in self.ranks]
        comm_clocks = [SimClock(now=t) for t in t_begin]
        launches0 = [rt.stats.launches for rt in self.ranks]
        saved = [rt.clock for rt in self.ranks]
        try:
            for rt, main, comm in zip(self.ranks, saved, comm_clocks):
                # Comm clocks profile under "<lane>:comm": hidden traffic
                # gets its own trace track and critical-path lane.
                tel.attach_comm_clock(main, comm)
                rt.set_clock(comm)
            with tel.tracer.span("halo_exchange", field=",".join(fields), overlap=True, xid=xid):
                self._walk(plan, items, tel)
        except BaseException:
            for comm in comm_clocks:  # no PendingExchange will finish them
                tel.detach_comm_clock(comm)
            raise
        finally:
            for rt, main in zip(self.ranks, saved):
                rt.set_clock(main)
        if tel.enabled:
            tel.logger.log("halo_begin", xid=xid, fields=list(fields),
                           t_begin=[float(t) for t in t_begin],
                           comm_end=[float(c.now) for c in comm_clocks])
        for rt, l0 in zip(self.ranks, launches0):
            posts = rt.stats.launches - l0
            if posts:
                rt.clock.advance(posts * rt.queue.submit_overhead, TimeCategory.LAUNCH, "halo_post")
        posted = plan.schedule.sent[0]
        self._set_inflight(tel, self.inflight + posted)
        return PendingExchange(fields, posted, comm_clocks, t_begin, xid=xid)

    def exchange_finish(self, pending: PendingExchange) -> None:
        """Wait for an overlapped exchange; charge only the unhidden part.

        Per rank: whatever of the communication timeline the main clock has
        already advanced past was hidden under compute; the remainder is
        charged to the main clock pro-rata over the communication clock's
        category split (so pack time stays MPI_PACK, wire time stays
        MPI_TRANSFER in Fig. 3's accounting), plus one queue completion
        latency for the final synchronization.
        """
        if pending.done:
            raise ValueError("exchange_finish() called twice on one exchange")
        pending.done = True
        if pending.comm_clocks is None:
            return
        tel = _telemetry()
        hidden_mean = unhidden_mean = 0.0
        main_now, hidden_by_rank, unhidden_by_rank = [], [], []
        with tel.tracer.span("halo_finish", field=",".join(pending.fields), xid=pending.xid):
            for rt, comm, t0 in zip(self.ranks, pending.comm_clocks, pending.t_begin):
                rt.sync()
                main_now.append(rt.clock.now)
                elapsed = comm.now - t0
                unhidden = max(0.0, comm.now - rt.clock.now)
                hidden = max(0.0, elapsed - unhidden)
                if unhidden > 0.0 and elapsed > 0.0:
                    for cat, t in comm.by_category.items():
                        if t > 0.0:
                            rt.clock.advance(
                                unhidden * (t / elapsed), cat, f"halo_wait_{cat.value}"
                            )
                    rt.clock.wait_until(comm.now, TimeCategory.MPI_WAIT, "halo_wait_residual")
                rt.clock.advance(rt.queue.completion_latency, TimeCategory.LAUNCH, "halo_finish")
                tel.detach_comm_clock(comm)
                hidden_by_rank.append(hidden)
                unhidden_by_rank.append(unhidden)
                hidden_mean += hidden / len(self.ranks)
                unhidden_mean += unhidden / len(self.ranks)
        self._set_inflight(tel, self.inflight - pending.messages)
        if tel.enabled:
            tel.logger.log("halo_finish", xid=pending.xid, fields=list(pending.fields),
                           t_begin=[float(t) for t in pending.t_begin],
                           comm_end=[float(c.now) for c in pending.comm_clocks],
                           main_now=[float(t) for t in main_now],
                           hidden=[float(h) for h in hidden_by_rank],
                           unhidden=[float(u) for u in unhidden_by_rank])
            self._exchange_seconds_counter(tel).inc(unhidden_mean)
            tel.metrics.counter(
                "halo_overlap_seconds",
                "mean per-rank halo exchange seconds hidden under interior compute",
            ).inc(hidden_mean)

    # -- internals ---------------------------------------------------------------

    def _plan(self, items: list[FieldItem]) -> _Plan:
        """The priced plan for exchanging ``items``: derived on first use,
        and again whenever something it was derived from has moved."""
        if not items:
            raise ValueError("exchange needs at least one field")
        for _, locals_, _ in items:
            self.slots(len(locals_))  # one array per rank, or per group
        key = tuple((f, stagger) for f, _, stagger in items)
        plan = self._plans.get(key)
        if plan is None or plan.guard != self._guard(items):
            for _, locals_, stagger_axis in items:
                for a in locals_:
                    for axis in range(3):
                        extent = a.shape[axis - 3]
                        if extent < 3 + (axis == stagger_axis):
                            raise ValueError(
                                f"array extent {extent} too small for a one-layer halo"
                            )
            self.ensure_buffers(tuple(f for f, _ in key))
            plan = self._plans[key] = self._price(self._schedule(key), items)
        return plan

    def _guard(self, items: list[FieldItem]) -> tuple:
        """What a plan reads that can move under it: registrations, nominal
        sizes and device presence (``env.epoch``), the arrays' shapes, and
        whether there are arrays at all."""
        return (
            tuple(rt.env.epoch for rt in self.ranks),
            tuple(a.shape for _, locals_, _ in items for a in locals_),
            _cost_only(items),
        )

    def _inputs(self) -> tuple:
        """What a schedule is derived from besides the arrays' sizes."""
        return (self.decomp, self.nominal, self.element_bytes, self.pack_inefficiency,
                self.buffer_init_fraction,
                None if self.rank_nodes is None else tuple(self.rank_nodes))

    def _schedule(self, key: tuple) -> HaloSchedule:
        """The book's schedule for ``key`` if it was derived from what this
        side has, else one derived here (and entered in the book)."""
        schedule = self.schedules.get(key)
        if (
            schedule is None
            or schedule.inputs != self._inputs()
            or schedule.sizes != tuple(rt.env.sizes(schedule.sized) for rt in self.ranks)
        ):
            schedule = self.schedules[key] = self._derive_schedule(key)
        return schedule

    def _derive_schedule(self, key: tuple) -> HaloSchedule:
        """Messages run axis by axis, then field by field, sender by sender,
        low face then high. After the first axis' barrier every clock
        stands at the same time, so an axis that sends nothing would add
        nothing and is left out. Ranks that move the same bytes share one
        buffer-init, pack or unpack kernel."""
        ranks = self.ranks
        fields = tuple(f for f, _ in key)
        kernels: dict[tuple, KernelSpec] = {}

        def kernel(name: str, reads: tuple, writes: tuple, nbytes: float) -> KernelSpec:
            spec = kernels.get((name, reads, writes, nbytes))
            if spec is None:
                spec = kernels[name, reads, writes, nbytes] = KernelSpec(
                    name, reads=reads, writes=writes, bytes_override=nbytes, tags=_PACK_TAGS
                )
            return spec

        init = []
        if self.buffer_init_fraction > 0.0:
            for field_name in fields:
                for rank, rt in enumerate(ranks):
                    nb = (rt.env.nominal_bytes(field_name) if field_name in rt.env
                          else self.nominal.local_cells(0) * self.element_bytes)
                    init.append((rank, kernel(f"halo_buffer_init_{field_name}", (), (),
                                              self.buffer_init_fraction * nb)))
        faces = {(f, axis, d): _face_names(f, axis, d)
                 for f in fields for axis in range(3) for d in (-1, 1)}
        axes = []
        for axis in range(3):
            routes = []
            for item, field_name in enumerate(fields):
                for src, rt in enumerate(ranks):
                    for direction in (-1, 1):
                        dst = self.decomp.neighbor(src, axis, direction)
                        if dst is None:
                            continue
                        dst_rt = ranks[dst]
                        # The message my low face sends arrives at the
                        # neighbour's high ghost (and vice versa):
                        # neighbour-relative direction is -direction.
                        out = faces[field_name, axis, direction]
                        into = faces[field_name, axis, -direction]
                        nbytes = rt.env.nominal_bytes(out.send)
                        pack = kernel(out.pack, (field_name,) if field_name in rt.env else (),
                                      (out.send,), 2 * nbytes * self.pack_inefficiency)
                        unpack = kernel(
                            into.unpack, (into.recv,),
                            (into.ghost,) if field_name in dst_rt.env else (),
                            2 * dst_rt.env.nominal_bytes(into.recv) * self.pack_inefficiency,
                        )
                        same_node = (self.rank_nodes is None
                                     or self.rank_nodes[src] == self.rank_nodes[dst])
                        routes.append(_Route(src, dst, item, direction, pack, unpack,
                                             out.send, into.recv, nbytes, same_node))
            if routes or not axes:
                axes.append((axis, tuple(routes)))
        touched: list[dict[str, None]] = [{} for _ in ranks]
        every = [route for _, routes in axes for route in routes]
        for route in every:  # the staging buffers are among the kernels' arrays
            touched[route.src].update(dict.fromkeys(route.pack.arrays))
            touched[route.dst].update(dict.fromkeys(route.unpack.arrays))
        sized = fields + tuple(name for names in faces.values() for name in names[:2])
        sizes: dict[tuple, tuple] = {}  # ranks of one shape keep one copy
        return HaloSchedule(
            self._inputs(), sized,
            tuple(sizes.setdefault(t, t) for t in (rt.env.sizes(sized) for rt in ranks)),
            tuple(init), tuple(axes), (len(every), sum(route.nbytes for route in every)),
            tuple(map(tuple, touched)),
        )

    def _price(self, schedule: HaloSchedule, items: list[FieldItem]) -> _Plan:
        """``schedule`` on this side: the transport's residency checks and
        wire times, and (with arrays) the sweep bodies -- each sweep's first
        unpack carries the copy."""
        ranks, tr = self.ranks, self.transport
        self.plans_built += 1
        blocks: list = []
        unpacks, wires, sweeps = [], [], []
        for axis, routes in schedule.axes:
            bodies = {} if _cost_only(items) else self._bodies(items, axis, routes, blocks)
            for route in routes:
                # the transport's residency checks first, as at launch; a
                # self-message (periodic wrap on an undivided axis) is
                # delivered by a local copy, so only its send side stages
                tr.check_buffer(ranks[route.src].env, route.send)
                if route.dst != route.src:
                    tr.check_buffer(ranks[route.dst].env, route.recv)
            specs = tuple(replace(route.unpack, body=bodies[i]) if i in bodies else route.unpack
                          for i, route in enumerate(routes))
            unpacks.append(specs)
            wires.append(tuple(tr.wire_time(route.nbytes, same_device=route.dst == route.src,
                                            same_node=route.same_node) for route in routes))
            sweeps.append(tuple(specs[i] for i in sorted(bodies)))
        return _Plan(tuple(f for f, _, _ in items), self._guard(items), schedule,
                     tuple(unpacks), tuple(wires), tuple(sweeps), blocks)

    def _bodies(self, items: list[FieldItem], axis: int, routes: tuple[_Route, ...],
                blocks: list) -> dict:
        """By message index, the payload copy of each sweep -- the messages
        of one (field, direction, source array, destination array) -- for
        its first message's unpack to run."""
        slots = self.slots(len(items[0][1]))
        sweeps: dict[tuple, list[tuple]] = {}
        for i, route in enumerate(routes):
            (gs, rs), (gd, rd) = slots[route.src], slots[route.dst]
            sweeps.setdefault((route.item, route.direction, gs, gd), []).append((i, rs, rd))
        bodies = {}
        for (item, direction, src, dst), sweep in sweeps.items():
            _, arrays, stagger_axis = items[item]
            index, src_rows, dst_rows = zip(*sweep)
            face = _interior_face(arrays[src], axis, direction, staggered=axis == stagger_axis)
            ghost = _ghost_face(arrays[dst], axis, -direction)
            bodies[index[0]] = partial(_copy, blocks, item, src, dst,
                                       _rows(src_rows) + face, _rows(dst_rows) + ghost)
        return bodies

    def _observe_exchanges(self, fields: tuple[str, ...]):
        tel = _telemetry()
        if tel.enabled:
            key = ("halo_exchanges_total", fields)
            children = tel.metrics.bound.get(key)
            if children is None:
                counter = tel.metrics.counter("halo_exchanges_total", "ghost-layer exchanges, "
                                              "by field", labelnames=("field",))
                children = tel.metrics.bound[key] = [counter.labels(field=f) for f in fields]
            for child in children:
                child.inc()
        return tel

    def _set_inflight(self, tel, inflight: int) -> None:
        self.inflight = inflight
        if tel.enabled:
            tel.metrics.gauge(
                "halo_messages_inflight",
                "halo messages posted by overlapped begins and not yet waited on",
            ).set(inflight)

    @staticmethod
    def _exchange_seconds_counter(tel):
        return tel.metrics.counter("halo_exchange_seconds",
                                   "mean per-rank wall seconds charged to halo exchanges "
                                   "(overlapped runs count only the unhidden remainder)")

    def _counter_tape(self, tel, plan: _Plan) -> tuple[tuple, tuple]:
        """Once per (session, plan): each counter child a walk of ``plan``
        ticks and its amounts in walk order, its messages' own, then what the
        real calls tick (roofline and launch counters, transport staging)."""
        key = ("halo_counter_tape", plan.serial)
        if key not in tel.metrics.bound:
            m, tr, ranks, sent, calls = tel.metrics, self.transport, self.ranks, {}, {}

            def tick(ticks: dict, *pairs) -> None:
                for child, amount in pairs:
                    ticks.setdefault(child, []).append(amount)

            def launch(rank: int, spec: KernelSpec) -> None:
                engine, priced, category = ranks[rank]._lower(spec, _PLAIN)
                tick(calls, *zip((*kernel_counters(m, priced), engine.launch_counter(m, category)),
                                 (priced.body_seconds, priced.nbytes, priced.flops, 1.0, 1.0)))

            messages = m.counter("halo_messages_total", "halo messages sent, by transport",
                                 labelnames=("transport",)).labels(transport=tr.kind.value)
            by_rank = m.counter("halo_bytes_total", "nominal halo payload bytes sent, by rank",
                                labelnames=("rank",))
            for rank, spec in plan.schedule.init:
                launch(rank, spec)
            for _, routes in plan.schedule.axes:
                for route in routes:
                    launch(route.src, route.pack)
                for route in routes:
                    tick(calls, *tr.staging_ticks(m, route.nbytes, "send"))
                    if route.dst != route.src:
                        tick(calls, *tr.staging_ticks(m, route.nbytes, "recv"))
                    tick(sent, (messages, 1.0), (by_rank.labels(rank=str(route.src)), route.nbytes))
                for route in routes:
                    launch(route.dst, route.unpack)
            m.bound[key] = tuple(tuple((child, tuple(amounts)) for child, amounts in ticks.items())
                                 for ticks in (sent, calls))
        return tel.metrics.bound[key]

    def _walk(self, plan: _Plan, items: list[FieldItem], tel) -> None:
        """Run one planned exchange on ``items``' arrays.

        The walk runs segment by segment, a barrier after each: buffer
        maintenance and an axis' packs, then its messages and unpacks, then
        the next axis. When the plan holds a recording for the residency
        every rank starts from, every rank plays it -- counters tick in bulk,
        a profiler gets each segment's rows in the order the real calls made
        them -- and the sweep bodies run alone, in message order. Otherwise
        every rank is charged through the real calls, in message order, and
        recorded. Nothing is recorded or played while another observer
        watches a clock, or while a rank would not charge a plain launch at
        once (``RankRuntime._direct``): that walk is the recording walk
        without the recorder.
        """
        ranks, tr, schedule = self.ranks, self.transport, plan.schedule
        clocks = [rt.clock for rt in ranks]
        plan.blocks[:] = [locals_ for _, locals_, _ in items]
        observed = _observed_by(clocks)
        profiler, lanes = observed or (None, [None] * len(ranks))
        reuse = observed is not False and all(rt._direct(_PLAIN) for rt in ranks)
        recording = recorder = None
        try:
            if reuse:
                key = tuple(map(_residency, ranks, schedule.touched))
                recording = plan.recordings.get(key)
                if recording is None:
                    recorder = _Recorder(ranks)
            for segment in range(2 * len(schedule.axes)):
                axis_index, unpacking = divmod(segment, 2)
                axis, routes = schedule.axes[axis_index]
                rows: list[tuple] = []
                if recording is not None:
                    for spec in plan.sweeps[axis_index] if unpacking else ():
                        spec.run_body()
                    sink = None if profiler is None else rows
                    for clock, ops, lane in zip(clocks, recording.segments[segment], lanes):
                        _play(clock, ops, sink, lane)
                    order = recording.orders[segment]
                    if rows:
                        rows = [row for row in (rows if order is None else order(rows))
                                if row[2] > 0]
                elif not unpacking:  # every rank packs its faces, all fields
                    for rank, spec in schedule.init if segment == 0 else ():
                        ranks[rank].loop(spec)
                    for route in routes:
                        ranks[route.src].loop(route.pack)
                else:  # messages and unpacks into ghosts
                    label = f"msg_{axis}"
                    for route, wire in zip(routes, plan.wires[axis_index]):
                        rt = ranks[route.src]
                        clock = rt.clock
                        for c in tr.send_charges(rt.env, route.send, route.nbytes):
                            clock.advance(c.seconds, c.category, c.label)
                        # Blocking semantics inside the phase: the sender
                        # waits for its own wire (overlapped begins run this
                        # on the detached communication clock).
                        if recorder is not None:
                            recorder.wire(route.src, clock, wire, label)
                        else:
                            clock.wait_until(clock.now + wire, _TRANSFER, label)
                        if route.dst != route.src:
                            rt = ranks[route.dst]
                            for c in tr.recv_charges(rt.env, route.recv, route.nbytes):
                                rt.clock.advance(c.seconds, c.category, c.label)
                    for route, spec in zip(routes, plan.unpacks[axis_index]):
                        ranks[route.dst].loop(spec)
                if recorder is not None:
                    recorder.cut()
                # Every rank clock advances to the latest (BSP synchronization:
                # imbalance shows up as MPI wait); outside the real calls a
                # profiler gets the barrier's rows after the segment's.
                if not reuse:
                    for rt in ranks:
                        rt.sync()
                t_max = max([clock.now for clock in clocks])
                for rank, clock in enumerate(clocks):
                    if not reuse:
                        clock.wait_until(t_max, _WAIT, "halo_barrier")
                    elif t_max > clock.now:
                        # ``wait_until``'s adds inline: nothing is pending,
                        # and the recorder must not see them
                        dt = t_max - clock.now
                        if profiler is not None:
                            rows.append((lanes[rank], clock.now, dt, _WAIT, "halo_barrier"))
                        clock.now += dt
                        clock.by_category[_WAIT] = clock.by_category.get(_WAIT, 0.0) + dt
                if rows:
                    profiler.extend(*zip(*rows))
            self.messages += schedule.sent[0]
            self.bytes_sent += schedule.sent[1]
            if recording is not None:
                recording.settle(ranks, schedule.touched)
            if tel.enabled:
                sent, calls = self._counter_tape(tel, plan)
                for child, amounts in sent if recording is None else sent + calls:
                    child.value = reduce(operator.add, amounts, child.value)
            if recorder is not None:
                plan.recordings[key] = recorder.recording(ranks, schedule.touched)
                self.walks_recorded += 1
        finally:
            plan.blocks.clear()
            if recorder is not None:
                recorder.detach(ranks)
