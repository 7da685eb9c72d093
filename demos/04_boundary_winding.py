"""The index pipeline over the discretized interval algebra.

Endpoint representations lift to matrix paths; exponentiating the clamped
block path and collapsing its corners gives a loop of unitaries whose det
phase accumulates to an integer.  That integer is the obstruction to lifting
through the spectral threshold.
"""

import numpy as np

from qcwb import (
    IntervalModel,
    NoSpectralGap,
    boundary_unitary,
    builtin_scenario,
    exact_projection_lift,
    lift_T,
)

model = IntervalModel(grid_size=64)
for name in ("zero", "eval-at-one", "matched-endpoints", "doubled"):
    rep = builtin_scenario(name)
    lift = lift_T(rep, model)
    result = boundary_unitary(lift)
    print(
        f"{name:18s} winding = {result.winding:+d}   "
        f"unitarity defect {result.unitarity_defect:.1e}   "
        f"endpoint defect {result.endpoint_defect:.1e}"
    )

# winding does not depend on the grid or on the interior of the lift
rep = builtin_scenario("eval-at-one")
for m in (64, 128, 256):
    lift = lift_T(rep, IntervalModel(grid_size=m))
    print(f"grid {m:4d}: winding {boundary_unitary(lift).winding:+d}")
for scheme in ("linear", "cosine"):
    lift = lift_T(rep, model, scheme=scheme)
    print(f"{scheme:6s} lift: winding {boundary_unitary(lift).winding:+d}")

# nonzero winding blocks the exact projection lift; zero winding allows it
try:
    exact_projection_lift(rep, model)
except NoSpectralGap as exc:
    print("\neval-at-one cannot lift exactly:", exc)

matched = builtin_scenario("matched-endpoints")
grid_rep = exact_projection_lift(matched, model)
print(
    "matched-endpoints lifts exactly: worst residual over the grid =",
    f"{grid_rep.max_residual:.2e}",
)
