"""The halo exchange engine as it stood before exchanges were planned.

Oracle for ``test_halo_plan.py``: everything below this docstring is the
parent commit's ``repro/mpi/halo.py``, moved here verbatim. Its
``_exchange_axis`` re-derives every neighbour, face slice, buffer name,
byte count, ``KernelSpec`` and closure per message per exchange; the
planned walk in ``repro.mpi.halo`` must reproduce its clock advances,
launches, messages, bytes and ghost values to the bit. (It also prices a
deeper exchange at the first depth seen, so compare depths on fresh
exchangers.) Do not "tidy" it. The one edit: ``Transport.post`` is gone
from the package, so its two lines stand inline where it was called.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from repro.mpi.decomp import Decomposition3D
from repro.mpi.transport import Transport
from repro.obs.telemetry import current as _telemetry
from repro.runtime.clock import SimClock, TimeCategory
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.kernel import KernelSpec


@dataclass(frozen=True, slots=True)
class HaloSpec:
    """Exchange geometry: ghost depth and which axes participate."""

    depth: int = 1
    axes: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("halo depth must be >= 1")
        if not self.axes or any(a not in (0, 1, 2) for a in self.axes):
            raise ValueError("axes must be a nonempty subset of (0, 1, 2)")


#: One field participating in an exchange: (name, per-rank arrays,
#: stagger axis or None).
FieldItem = tuple[str, list[np.ndarray], "int | None"]

_PACK_TAGS = frozenset({"mpi_pack"})


class _FaceNames(NamedTuple):
    """Every name one (field, axis, direction) face uses, built once."""

    send: str    # staging buffer the face is packed into
    recv: str    # staging buffer this face's ghosts are unpacked from
    pack: str    # pack kernel
    unpack: str  # unpack kernel
    #: The unpack's write token, qualified to this direction's ghost shell
    #: ("rho@g2m"): the two directions' unpacks touch disjoint storage, so
    #: the fusion window may run them as one launch while readers of the
    #: bare field still order correctly.
    ghost: str


#: Monotonic exchange id shared by an overlapped exchange's begin/finish
#: spans and log records (the dependency edge trace analysis pairs up).
_next_xid = 0


def _new_xid() -> int:
    global _next_xid
    _next_xid += 1
    return _next_xid


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

    @property
    def sync(self) -> bool:
        """True if the exchange completed synchronously at begin."""
        return self.comm_clocks is None


def _interior_face(
    a: np.ndarray, axis: int, direction: int, g: int, *, staggered: bool = False
) -> tuple[slice, ...]:
    """Slice of the interior cells adjacent to one face (what gets sent).

    ``staggered`` marks face-centered arrays along the exchange axis: the
    boundary face is shared (computed identically by both ranks), so the
    sent layers shift inward by one to land in the neighbour's strictly
    beyond-boundary ghost faces.
    """
    ax = a.ndim - 3 + axis  # spatial axes are the trailing three
    n = a.shape[ax] - 2 * g
    if direction == -1:
        sl = slice(g + 1, 2 * g + 1) if staggered else slice(g, 2 * g)
    else:
        sl = slice(n - 1, n - 1 + g) if staggered else slice(n, n + g)
    out = [slice(None)] * a.ndim
    out[ax] = sl
    return tuple(out)


def _ghost_face(a: np.ndarray, axis: int, direction: int, g: int) -> tuple[slice, ...]:
    """Slice of the ghost cells on one face (what gets received into)."""
    ax = a.ndim - 3 + axis
    n = a.shape[ax] - 2 * g
    if direction == -1:
        sl = slice(0, g)
    else:
        sl = slice(n + g, n + 2 * g)
    out = [slice(None)] * a.ndim
    out[ax] = sl
    return tuple(out)


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
        self._names: dict[tuple[str, int, int], _FaceNames] = {}
        #: Message counters for tests/benches.
        self.messages = 0
        self.bytes_sent = 0
        #: Messages posted by overlapped begins and not yet finished.
        self.inflight = 0

    # -- buffer management -----------------------------------------------------

    def _face_names(self, field_name: str, axis: int, direction: int) -> _FaceNames:
        key = (field_name, axis, direction)
        names = self._names.get(key)
        if names is None:
            side = "m" if direction < 0 else "p"
            names = self._names[key] = _FaceNames(
                send=f"_halo_send_{field_name}_{axis}_{side}",
                recv=f"_halo_recv_{field_name}_{axis}_{side}",
                pack=f"halo_pack_{field_name}_{axis}{side}",
                unpack=f"halo_unpack_{field_name}_{axis}{side}",
                ghost=f"{field_name}@g{axis}{side}",
            )
        return names

    def ensure_buffers(self, field_names: tuple[str, ...], depth: int = 1) -> None:
        """Register per-field send/recv staging buffers in every rank's
        environment (first exchange of each field)."""
        missing = [f for f in field_names if f not in self._registered_fields]
        if not missing:
            return
        for rank, rt in enumerate(self.ranks):
            for field_name in missing:
                for axis in range(3):
                    nominal_face = (
                        self.nominal.face_cells(rank, axis) * depth * self.element_bytes
                    )
                    for direction in (-1, 1):
                        names = self._face_names(field_name, axis, direction)
                        for name in (names.send, names.recv):
                            if name not in rt.env:
                                rt.register_array(name, nominal_face)
        self._registered_fields.update(missing)

    # -- exchange ---------------------------------------------------------------

    def exchange(
        self,
        field_name: str,
        locals_: list[np.ndarray],
        spec: HaloSpec = HaloSpec(),
        *,
        stagger_axis: int | None = None,
    ) -> None:
        """Fill ghost layers of ``locals_`` (one ghosted array per rank).

        ``stagger_axis`` marks face-centered arrays (one entry longer along
        that axis); along it, the shared boundary face is skipped and ghost
        faces receive the neighbour's strictly-interior faces.
        """
        self.exchange_many([(field_name, locals_, stagger_axis)], spec)

    def exchange_many(
        self, items: list[FieldItem], spec: HaloSpec = HaloSpec()
    ) -> None:
        """Synchronously exchange several fields as one batched operation.

        Every phase (pack, message, unpack) loops over all fields, so the
        batch pays the per-axis barriers once instead of once per field.
        Per-field payloads are identical to back-to-back single-field
        exchanges (fields do not interact; axes stay sequential).
        """
        self._validate(items, spec)
        g = spec.depth
        self.ensure_buffers(tuple(f for f, _, _ in items), g)
        tel = self._observe_exchanges(items)
        for rt in self.ranks:
            rt.sync()
        t0 = [rt.clock.now for rt in self.ranks]
        with tel.tracer.span(
            "halo_exchange", field=",".join(f for f, _, _ in items)
        ):
            self._exchange_spec(items, spec, g)
        if tel.enabled:
            elapsed = sum(
                rt.clock.now - t for rt, t in zip(self.ranks, t0)
            ) / len(self.ranks)
            self._exchange_seconds_counter(tel).inc(elapsed)

    # -- overlapped exchange ----------------------------------------------------

    def exchange_begin(
        self,
        field_name: str,
        locals_: list[np.ndarray],
        spec: HaloSpec = HaloSpec(),
        *,
        stagger_axis: int | None = None,
        overlap: bool = True,
    ) -> PendingExchange:
        """Start one overlapped exchange; see :meth:`exchange_begin_many`."""
        return self.exchange_begin_many(
            [(field_name, locals_, stagger_axis)], spec, overlap=overlap
        )

    def exchange_begin_many(
        self,
        items: list[FieldItem],
        spec: HaloSpec = HaloSpec(),
        *,
        overlap: bool = True,
    ) -> PendingExchange:
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
        fields = tuple(f for f, _, _ in items)
        if not overlap:
            self.exchange_many(items, spec)
            return PendingExchange(fields=fields, done=False)
        self._validate(items, spec)
        g = spec.depth
        self.ensure_buffers(fields, g)
        tel = self._observe_exchanges(items)
        for rt in self.ranks:
            rt.sync()
        xid = _new_xid()
        t_begin = [rt.clock.now for rt in self.ranks]
        comm_clocks = [SimClock(now=t) for t in t_begin]
        launches0 = [rt.stats.launches for rt in self.ranks]
        messages0 = self.messages
        saved = [rt.clock for rt in self.ranks]
        try:
            for rt, main, comm in zip(self.ranks, saved, comm_clocks):
                # Comm clocks profile under "<lane>:comm": hidden traffic
                # gets its own trace track and critical-path lane.
                tel.attach_comm_clock(main, comm)
                rt.set_clock(comm)
            with tel.tracer.span(
                "halo_exchange", field=",".join(fields), overlap=True, xid=xid
            ):
                self._exchange_spec(items, spec, g)
        finally:
            for rt, main in zip(self.ranks, saved):
                rt.set_clock(main)
        if tel.enabled:
            tel.logger.log(
                "halo_begin",
                xid=xid,
                fields=list(fields),
                t_begin=[float(t) for t in t_begin],
                comm_end=[float(c.now) for c in comm_clocks],
            )
        for rt, l0 in zip(self.ranks, launches0):
            posts = rt.stats.launches - l0
            if posts:
                rt.clock.advance(
                    posts * rt.queue.submit_overhead,
                    TimeCategory.LAUNCH,
                    "halo_post",
                )
        posted = self.messages - messages0
        self.inflight += posted
        if tel.enabled:
            tel.metrics.gauge(
                "halo_messages_inflight",
                "halo messages posted by overlapped begins and not yet waited on",
            ).set(self.inflight)
        return PendingExchange(
            fields=fields,
            messages=posted,
            comm_clocks=comm_clocks,
            t_begin=t_begin,
            xid=xid,
        )

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
        main_now: list[float] = []
        hidden_by_rank: list[float] = []
        unhidden_by_rank: list[float] = []
        with tel.tracer.span(
            "halo_finish", field=",".join(pending.fields), xid=pending.xid
        ):
            for rt, comm, t0 in zip(
                self.ranks, pending.comm_clocks, pending.t_begin
            ):
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
                    rt.clock.wait_until(
                        comm.now, TimeCategory.MPI_WAIT, "halo_wait_residual"
                    )
                rt.clock.advance(
                    rt.queue.completion_latency, TimeCategory.LAUNCH, "halo_finish"
                )
                tel.detach_comm_clock(comm)
                hidden_by_rank.append(hidden)
                unhidden_by_rank.append(unhidden)
                hidden_mean += hidden / len(self.ranks)
                unhidden_mean += unhidden / len(self.ranks)
        self.inflight -= pending.messages
        if tel.enabled:
            tel.logger.log(
                "halo_finish",
                xid=pending.xid,
                fields=list(pending.fields),
                t_begin=[float(t) for t in pending.t_begin],
                comm_end=[float(c.now) for c in pending.comm_clocks],
                main_now=[float(t) for t in main_now],
                hidden=[float(h) for h in hidden_by_rank],
                unhidden=[float(u) for u in unhidden_by_rank],
            )
            self._exchange_seconds_counter(tel).inc(unhidden_mean)
            tel.metrics.counter(
                "halo_overlap_seconds",
                "mean per-rank halo exchange seconds hidden under interior compute",
            ).inc(hidden_mean)
            tel.metrics.gauge(
                "halo_messages_inflight",
                "halo messages posted by overlapped begins and not yet waited on",
            ).set(self.inflight)

    # -- internals ---------------------------------------------------------------

    def _validate(self, items: list[FieldItem], spec: HaloSpec) -> None:
        if not items:
            raise ValueError("exchange needs at least one field")
        g = spec.depth
        for _, locals_, stagger_axis in items:
            if len(locals_) != self.decomp.nranks:
                raise ValueError("one local array per rank required")
            for a in locals_:
                for axis in spec.axes:
                    ax = a.ndim - 3 + axis
                    if a.shape[ax] < 3 * g + (1 if axis == stagger_axis else 0):
                        raise ValueError(
                            f"array extent {a.shape[ax]} too small for halo depth {g}"
                        )

    def _observe_exchanges(self, items: list[FieldItem]):
        tel = _telemetry()
        if tel.enabled:
            counter = tel.metrics.counter(
                "halo_exchanges_total", "ghost-layer exchanges, by field",
                labelnames=("field",),
            )
            for field_name, _, _ in items:
                counter.labels(field=field_name).inc()
        return tel

    @staticmethod
    def _exchange_seconds_counter(tel):
        return tel.metrics.counter(
            "halo_exchange_seconds",
            "mean per-rank wall seconds charged to halo exchanges "
            "(overlapped runs count only the unhidden remainder)",
        )

    def _exchange_spec(
        self, items: list[FieldItem], spec: HaloSpec, g: int
    ) -> None:
        if self.buffer_init_fraction > 0.0:
            for field_name, _, _ in items:
                for rt in self.ranks:
                    nb = (
                        rt.env.nominal_bytes(field_name)
                        if field_name in rt.env
                        else self.nominal.local_cells(0) * self.element_bytes
                    )
                    rt.loop(
                        KernelSpec(
                            name=f"halo_buffer_init_{field_name}",
                            bytes_override=self.buffer_init_fraction * nb,
                            tags=_PACK_TAGS,
                        )
                    )
        for axis in spec.axes:
            self._exchange_axis(items, axis, g)

    def _exchange_axis(self, items: list[FieldItem], axis: int, g: int) -> None:
        dec = self.decomp
        # -- phase A: every rank packs its faces, all fields ------------------
        packed: dict[tuple[str, int, int], np.ndarray] = {}
        for field_name, locals_, stagger_axis in items:
            staggered = axis == stagger_axis
            for rank, rt in enumerate(self.ranks):
                for direction in (-1, 1):
                    if dec.neighbor(rank, axis, direction) is None:
                        continue
                    a = locals_[rank]
                    face = a[
                        _interior_face(a, axis, direction, g, staggered=staggered)
                    ]
                    names = self._face_names(field_name, axis, direction)
                    nominal_bytes = rt.env.nominal_bytes(names.send)

                    def pack(face=face) -> np.ndarray:
                        return np.ascontiguousarray(face)

                    result = rt.loop(
                        KernelSpec(
                            name=names.pack,
                            reads=(field_name,) if field_name in rt.env else (),
                            writes=(names.send,),
                            bytes_override=2 * nominal_bytes * self.pack_inefficiency,
                            body=pack,
                            tags=_PACK_TAGS,
                        )
                    )
                    packed[(field_name, rank, direction)] = result

        # -- phase B: synchronize (imbalance shows up as MPI wait) ------------
        self._barrier()

        # -- phase C: messages -------------------------------------------------
        tel = _telemetry()
        msg_counter = bytes_counter = None
        if tel.enabled:
            msg_counter = tel.metrics.counter(
                "halo_messages_total", "halo messages sent, by transport",
                labelnames=("transport",),
            ).labels(transport=self.transport.kind.value)
            bytes_counter = tel.metrics.counter(
                "halo_bytes_total", "nominal halo payload bytes sent, by rank",
                labelnames=("rank",),
            )
        received: dict[tuple[str, int, int], np.ndarray] = {}
        for field_name, _, _ in items:
            for rank, rt in enumerate(self.ranks):
                for direction in (-1, 1):
                    nb = dec.neighbor(rank, axis, direction)
                    if nb is None:
                        continue
                    buf = packed[(field_name, rank, direction)]
                    send_name = self._face_names(field_name, axis, direction).send
                    recv_name = self._face_names(field_name, axis, -direction).recv
                    nbytes = rt.env.nominal_bytes(send_name)
                    nb_rt = self.ranks[nb]
                    for c in self.transport.send_charges(rt.env, send_name, nbytes):
                        rt.clock.advance(c.seconds, c.category, c.label)
                    same_node = (
                        self.rank_nodes is None
                        or self.rank_nodes[rank] == self.rank_nodes[nb]
                    )
                    # ``Transport.post`` as it stood, inline: the payload
                    # moves as it is, ready after its wire time.
                    wire = self.transport.wire_time(
                        nbytes, same_device=(nb == rank), same_node=same_node
                    )
                    t_ready = rt.clock.now + wire
                    # Blocking semantics inside the phase: the sender waits
                    # for its own wire (identical cost to the old in-place
                    # advance; overlapped begins run this on the detached
                    # communication clock instead).
                    rt.clock.wait_until(
                        t_ready, TimeCategory.MPI_TRANSFER, f"msg_{axis}"
                    )
                    if nb != rank:
                        # self-messages (periodic wrap on an undivided axis)
                        # are delivered by a local copy; only the send side
                        # stages.
                        for c in self.transport.recv_charges(
                            nb_rt.env, recv_name, nbytes
                        ):
                            nb_rt.clock.advance(c.seconds, c.category, c.label)
                    # The message my low face sends arrives at the
                    # neighbour's high ghost (and vice versa):
                    # neighbour-relative direction is -direction.
                    received[(field_name, nb, -direction)] = buf
                    self.messages += 1
                    self.bytes_sent += nbytes
                    if msg_counter is not None:
                        msg_counter.inc()
                        bytes_counter.labels(rank=str(rank)).inc(nbytes)

        # -- phase D: unpack into ghosts ---------------------------------------
        locals_by_field = {f: locs for f, locs, _ in items}
        for (field_name, rank, direction), buf in received.items():
            rt = self.ranks[rank]
            a = locals_by_field[field_name][rank]
            ghost = _ghost_face(a, axis, direction, g)
            names = self._face_names(field_name, axis, direction)
            nominal_bytes = rt.env.nominal_bytes(names.recv)

            def unpack(a=a, ghost=ghost, buf=buf) -> None:
                a[ghost] = buf

            rt.loop(
                KernelSpec(
                    name=names.unpack,
                    reads=(names.recv,),
                    writes=(names.ghost,) if field_name in rt.env else (),
                    bytes_override=2 * nominal_bytes * self.pack_inefficiency,
                    body=unpack,
                    tags=_PACK_TAGS,
                )
            )
        self._barrier()

    def _barrier(self) -> None:
        """Advance every rank clock to the maximum (BSP synchronization)."""
        for rt in self.ranks:
            rt.sync()
        t_max = max(rt.clock.now for rt in self.ranks)
        for rt in self.ranks:
            rt.clock.wait_until(t_max, TimeCategory.MPI_WAIT, "halo_barrier")
