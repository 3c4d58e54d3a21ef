#!/usr/bin/env python
"""Map open and closed magnetic field: coronal holes and streamers.

The CORHEL workflow the paper's introduction motivates uses MAS solutions
to map coronal structure: field lines traced from the surface either
close back (streamers) or reach the heliosphere (coronal holes -- the
solar-wind source). This example relaxes the corona briefly, traces field
lines, and draws the open-flux map; the open/closed boundary is compared
with the analytic dipole value.

Run:  python examples/coronal_holes.py
"""

import numpy as np

from repro.codes import CodeVersion, runtime_config_for
from repro.mas import MasModel, ModelConfig
from fieldlines import (
    FieldLineFate,
    FieldLineTracer,
    dipole_open_boundary_colatitude,
)


def main() -> None:
    model = MasModel(
        ModelConfig(shape=(20, 20, 16), num_ranks=1, pcg_iters=4, sts_stages=4),
        runtime_config_for(CodeVersion.A),
    )
    print("relaxing the corona for a few steps...")
    model.run(5)

    tracer = FieldLineTracer(model.local_grids[0], model.states[0])

    print("\ntracing representative field lines:")
    for theta0 in (0.25, 0.7, 1.1, np.pi / 2):
        fate = tracer.classify_footpoint(theta0, 0.3)
        line = tracer.trace(tracer.r_lo + 1e-3, theta0, 0.3,
                            direction=+1 if theta0 < np.pi / 2 else -1)
        print(
            f"  footpoint colatitude {theta0:5.2f} rad -> {fate.value:7s} "
            f"(apex r = {line.max_r:.2f}, length = {line.length:.2f} Rs)"
        )

    print("\nopen-flux map (O = open / coronal hole, . = closed):")
    flux_map = tracer.open_flux_map(n_theta=18, n_phi=12)
    for row in flux_map:
        print("   " + "".join("O" if open_ else "." for open_ in row))

    analytic = dipole_open_boundary_colatitude(2.5)
    open_fraction = flux_map.mean()
    print(
        f"\nopen fraction of the surface: {open_fraction * 100:.0f}% "
        f"(dipole analytic boundary at colatitude {analytic:.2f} rad "
        f"predicts ~{(1 - np.cos(analytic)) * 100:.0f}% per cap)"
    )


if __name__ == "__main__":
    main()
