"""Output checks. They run outside every timed region and feed ``failed``."""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Any

from bench import expected


@dataclass(frozen=True)
class Check:
    """One verdict on the program's output."""

    name: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        return asdict(self)


def state_digest(model: Any, member: int | None = None) -> str:
    """SHA-256 over every state array of every rank, in field order;
    ``member`` selects one member of an ensemble state."""
    import numpy as np
    from repro.mas.state import ALL_FIELDS

    h = hashlib.sha256()
    for state in model.states:
        if member is not None:
            state = state.member_view(member)
        for name in ALL_FIELDS:
            h.update(np.ascontiguousarray(state.get(name)).tobytes())
    return h.hexdigest()


def model_health(model: Any, mass0: float, steps: int) -> list[Check]:
    """Finite state, solenoidal B and bounded mass drift after a round."""
    try:
        for state in model.states:
            state.assert_finite()
        finite = Check("finite_state", True)
    except FloatingPointError as exc:
        finite = Check("finite_state", False, str(exc))
    diag = model.diagnostics()
    drift = abs(diag["mass"] - mass0) / mass0
    bound = expected.MAX_MASS_DRIFT_PER_STEP * steps
    return [
        finite,
        Check(
            "divb",
            diag["max_divb"] < expected.MAX_DIVB,
            f"max|divB| {diag['max_divb']:.3e} (bound {expected.MAX_DIVB:.0e})",
        ),
        Check(
            "mass_drift",
            drift < bound,
            f"relative drift {drift:.3e} over {steps} steps (bound {bound:.0e})",
        ),
    ]


def equal(name: str, got: Any, want: Any) -> Check:
    """An exact-equality check that says what differed."""
    return Check(name, got == want, f"got {got!r}, want {want!r}" if got != want else "")
