"""Checkpoint / restart: save and restore a run's physical state.

MAS production runs write HDF5 restarts (the synthetic codebase's
``write_restart`` with its ``update host`` directives); here we persist
the per-rank state arrays plus enough metadata to refuse mismatched
restores. The simulated-performance state (clocks, counters) is *not*
checkpointed -- a restarted run measures fresh, exactly like a restarted
MAS run does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.mas.model import MasModel
from repro.mas.state import ALL_FIELDS, stagger_axis

#: Format version for forward-compat checks.
CHECKPOINT_FORMAT = 1


class CheckpointError(RuntimeError):
    """Raised when a restart file cannot be applied to a model."""


def _jsonable(v):
    """float / (B,) array / None -> a JSON-serializable value."""
    if v is None:
        return None
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    return float(v)


def _from_jsonable(v):
    """Inverse of :func:`_jsonable` (lists come back as (B,) arrays)."""
    if v is None:
        return None
    if isinstance(v, list):
        return np.asarray(v, dtype=float)
    return float(v)


@dataclass(frozen=True, slots=True)
class CheckpointInfo:
    """Metadata stored alongside the arrays."""

    format: int
    shape: tuple[int, int, int]
    num_ranks: int
    #: Simulated time; a length-B list for ensemble runs (members advance
    #: under their own CFL steps).
    time: float | list
    steps_taken: int
    #: Timestep controller state (the dt growth limiter's memory); None in
    #: a never-stepped model, a length-B list for ensemble runs.
    last_dt: float | list | None = None
    #: Ensemble batch size the run was checkpointed at (1 = scalar).
    ensemble_size: int = 1
    #: Array dtype name; restores refuse a silent cast.
    dtype: str = "float64"
    #: Stagger axis per field name (None = cell-centered), so a restore
    #: can verify the staggering convention instead of trusting shapes.
    stagger: dict | None = None

    def to_json(self) -> str:
        """Serialize for embedding in the npz."""
        return json.dumps(
            {
                "format": self.format,
                "shape": list(self.shape),
                "num_ranks": self.num_ranks,
                "time": self.time,
                "steps_taken": self.steps_taken,
                "last_dt": self.last_dt,
                "ensemble_size": self.ensemble_size,
                "dtype": self.dtype,
                "stagger": self.stagger,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckpointInfo":
        """Inverse of :meth:`to_json`."""
        d = json.loads(text)
        return cls(
            format=d["format"],
            shape=tuple(d["shape"]),
            num_ranks=d["num_ranks"],
            time=d["time"],
            steps_taken=d["steps_taken"],
            last_dt=d.get("last_dt"),
            ensemble_size=d.get("ensemble_size", 1),
            dtype=d.get("dtype", "float64"),
            stagger=d.get("stagger"),
        )


def save_checkpoint(model: MasModel, path: str | Path) -> CheckpointInfo:
    """Write the model's physical state to an ``.npz`` file.

    Under manual data management this is where MAS pays ``update host``
    transfers for every array; the simulated cost is charged to the rank
    clocks (category D2H) so checkpoint cadence shows up in timings.
    """
    info = CheckpointInfo(
        format=CHECKPOINT_FORMAT,
        shape=model.config.shape,
        num_ranks=model.config.num_ranks,
        time=_jsonable(model.time),
        steps_taken=model.steps_taken,
        last_dt=_jsonable(model.last_dt),
        ensemble_size=model.config.ensemble_size,
        dtype=str(model.states[0].rho.dtype.name),
        stagger={name: stagger_axis(name) for name in ALL_FIELDS},
    )
    arrays: dict[str, np.ndarray] = {"_meta": np.frombuffer(info.to_json().encode(), dtype=np.uint8)}
    for r, state in enumerate(model.states):
        for name in ALL_FIELDS:
            arrays[f"rank{r}_{name}"] = state.get(name)
        # the I/O path copies every field to the host first
        for name in ALL_FIELDS:
            model.ranks[r].update_host(name)
    np.savez_compressed(Path(path), **arrays)
    return info


def read_info(path: str | Path) -> CheckpointInfo:
    """Read only the metadata of a checkpoint."""
    with np.load(Path(path)) as data:
        if "_meta" not in data:
            raise CheckpointError(f"{path}: not a repro checkpoint")
        info = CheckpointInfo.from_json(bytes(data["_meta"]).decode())
    if info.format != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: format {info.format}, this build reads {CHECKPOINT_FORMAT}"
        )
    return info


def load_checkpoint(model: MasModel, path: str | Path) -> CheckpointInfo:
    """Restore a model's physical state in place.

    The model must have been built with the same grid shape and rank
    count; restores into a mismatched configuration are refused.
    """
    info = read_info(path)
    if info.shape != model.config.shape:
        raise CheckpointError(
            f"checkpoint grid {info.shape} != model grid {model.config.shape}"
        )
    if info.num_ranks != model.config.num_ranks:
        raise CheckpointError(
            f"checkpoint has {info.num_ranks} ranks, model has {model.config.num_ranks}"
        )
    if info.ensemble_size != model.config.ensemble_size:
        raise CheckpointError(
            f"checkpoint has {info.ensemble_size} ensemble member(s), "
            f"model has {model.config.ensemble_size}"
        )
    if info.stagger is not None:
        for name in ALL_FIELDS:
            if info.stagger.get(name) != stagger_axis(name):
                raise CheckpointError(
                    f"{name}: checkpoint stagger axis {info.stagger.get(name)} "
                    f"!= this build's {stagger_axis(name)}"
                )
    with np.load(Path(path)) as data:
        for r, state in enumerate(model.states):
            for name in ALL_FIELDS:
                key = f"rank{r}_{name}"
                if key not in data:
                    raise CheckpointError(f"{path}: missing array {key}")
                arr = data[key]
                target = state.get(name)
                if arr.shape != target.shape:
                    raise CheckpointError(
                        f"{key}: shape {arr.shape} != expected {target.shape}"
                    )
                if arr.dtype != target.dtype:
                    raise CheckpointError(
                        f"{key}: dtype {arr.dtype} != expected {target.dtype}"
                    )
                target[:] = arr
            # restart pushes everything back to the device
            for name in ALL_FIELDS:
                model.ranks[r].update_device(name)
    model.time = _from_jsonable(info.time)
    model.steps_taken = info.steps_taken
    model.last_dt = _from_jsonable(info.last_dt)
    return info
