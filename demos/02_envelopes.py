"""Convex and concave envelopes of grid functions.

The convex envelope of a tabulated function is the lower convex hull of its
graph; the concave envelope is the upper hull.
"""

import numpy as np

from motbounds import (
    GridFunction,
    concave_envelope,
    convex_envelope,
    envelope_weights,
    eval_envelope,
)

# A zigzag with one deep notch: the hull skips the interior peak.
f = GridFunction([0.0, 1.0, 2.0, 3.0], [0.0, -1.0, 3.0, 0.0])
lower = convex_envelope(f)
upper = concave_envelope(f)

print("grid:          ", f.grid)
print("values:        ", f.values)
print("lower hull:    ", list(zip(lower.hull_grid.tolist(), lower.hull_values.tolist())))
print("upper hull:    ", list(zip(upper.hull_grid.tolist(), upper.hull_values.tolist())))

# Evaluation interpolates the hull (exact at knots); the interior point 2
# sits on the chord from (1, -1) to (3, 0).
t = 2.0
print(f"\nconvex envelope at {t}:", eval_envelope(lower, t))
print(f"concave envelope at 1.0:", eval_envelope(upper, 1.0))

# The two-point representation behind the envelope value: t as a convex
# combination of the supporting knots. The dual cascade finds the same kind
# of pair for every section at once (cascade._envelope) and pushes
# expectation weights backwards through it.
left, right, lam = envelope_weights(lower, t)
print(f"\nsupporting knots for t={t}: x_L={lower.hull_grid[left]}, "
      f"x_R={lower.hull_grid[right]}, lambda={lam}")

# On a convex function both envelopes are trivial: the lower hull keeps every
# point and the upper hull is the single chord over the whole interval.
xs = np.linspace(-2, 2, 9)
g = GridFunction(xs, xs**2)
print("\nparabola lower hull size:", convex_envelope(g).hull_grid.size)
print("parabola upper hull size:", concave_envelope(g).hull_grid.size)
print("chord value at 0:", eval_envelope(concave_envelope(g), 0.0))
