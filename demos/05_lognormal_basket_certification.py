"""Full certification of a quantized three-period lognormal basket option.

Three unit-mean lognormal marginals with volatilities 0.1, 0.2, 0.3 are
quantized to 15 conditional-mean atoms each; the payoff is a basket call on
the average. The certification run solves both transport LPs, evaluates each
of the three dual cascades once at its LP's marginal multipliers, checks the
conditional hedge, and writes the report next to this script. A variant whose
gap is not below the target gap is listed as missed; here none is.
"""

import json
import os

from motbounds import (
    CostSpec,
    MarginalSequence,
    certify,
    quantize_lognormal,
    validate_sequence,
)

scales = (0.1, 0.2, 0.3)
ms = MarginalSequence([quantize_lognormal(-s**2 / 2, s, 15) for s in scales])
print("marginal sizes:", ms.sizes, "| means:", [round(m.mean, 12) for m in ms])
print("sequence valid:", validate_sequence(ms).ok)

cost = CostSpec(3, "basket", strike=1.0)
report = certify(cost, ms)

print(f"\nfeasible: {report.feasible}  passed: {report.passed}  "
      f"elapsed: {report.elapsed_s:.1f}s")
print(f"price interval: [{report.primal_lower.value:.8f}, "
      f"{report.primal_upper.value:.8f}]")
for variant, cert in report.certificates.items():
    print(f"  {variant:12s} dual {cert.dual_value:.8f}  gap {report.gaps[variant]:.2e}")
print(f"missed (gap not below {report.target_gap:.0e}): {report.missed}")
print("hedge slack (u = 0):     ", f"{report.subhedge_zero.min_slack:.2e}")
print("hedge slack (optimized): ", f"{report.subhedge_best.min_slack:.2e}")
print("phase seconds:", {k: round(v, 3) for k, v in report.timings.items()})

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)
path = os.path.join(out_dir, "lognormal_report.json")
with open(path, "w") as fh:
    json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
print(f"\nreport written to {path}")
