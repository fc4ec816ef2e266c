"""Shared instance generators and the acceptance summary hook."""

import os
from pathlib import Path

import numpy as np
import pytest

from motbounds import (
    CostSpec,
    DiscreteMeasure,
    DualVariables,
    GridFunction,
    MarginalSequence,
    quantize_lognormal,
    split_atom,
    validate_sequence,
)

# collected by tests/test_acceptance.py, printed at the end of the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def checkout_env() -> dict:
    """Environment for a child interpreter that imports motbounds from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def spread_measure(rng, base: DiscreteMeasure, splits: int, h_scale: float = 0.6) -> DiscreteMeasure:
    """Apply random mean-preserving spreads; dominates base in convex order."""
    mu = base
    for _ in range(splits):
        i = int(rng.integers(len(mu)))
        h = h_scale * (0.25 + rng.random())
        mu = split_atom(mu, i, h)
    return mu


def random_marginals(rng, n: int, max_size: int = 15, start_atoms: int = 1) -> MarginalSequence:
    """Feasible marginal sequence built by chained mean-preserving spreads."""
    start = 10.0 * (rng.random() - 0.5)
    if start_atoms == 1:
        mu = DiscreteMeasure.point(start)
    else:
        mu = DiscreteMeasure.point(start)
        mu = spread_measure(rng, mu, start_atoms - 1)
    marginals = [mu]
    for _ in range(n - 1):
        budget = max_size - len(marginals[-1])
        splits = int(rng.integers(1, max(2, budget + 1)))
        marginals.append(spread_measure(rng, marginals[-1], splits))
    ms = MarginalSequence(marginals)
    assert validate_sequence(ms).ok
    return ms


def random_cost(rng, ms: MarginalSequence) -> CostSpec:
    """One of the named payoffs with an instance-scaled strike."""
    mean = ms[0].mean
    span = ms.span
    form = ("squared_increment", "abs_increment", "terminal_call", "basket")[
        int(rng.integers(4))
    ]
    if form in ("terminal_call", "basket"):
        strike = mean + span * 0.4 * (rng.random() - 0.5)
        return CostSpec(ms.n, form, strike=strike)
    return CostSpec(ms.n, form)


def random_instance(rng, n: int, max_size: int = 15, start_atoms: int = 1):
    ms = random_marginals(rng, n, max_size=max_size, start_atoms=start_atoms)
    return random_cost(rng, ms), ms


def criterion1_instance(index: int, scale: float = 1.0):
    """Instance index of criterion 1's suite (test_acceptance's suite50), drawn the same way.

    Every atom and the strike are times scale.
    """
    rng = np.random.default_rng(20260808)
    drawn = []
    while len(drawn) <= index:
        n = 2 if len(drawn) % 2 == 0 else 3
        ms = random_marginals(rng, n, max_size=15, start_atoms=3)
        if 3 <= min(ms.sizes) and max(ms.sizes) <= 15:
            drawn.append((random_cost(rng, ms), ms))
    cost, ms = drawn[index]
    strike = None if cost.strike is None else scale * cost.strike
    return (CostSpec(cost.n, cost.form, strike=strike),
            MarginalSequence([DiscreteMeasure(scale * mu.atoms, mu.weights) for mu in ms.marginals]))


def instance_payload(cost: CostSpec, ms: MarginalSequence) -> dict:
    """The instance JSON object of a named-form cost on ms, as cli.parse_instance reads it."""
    form = {"form": cost.form} if cost.strike is None else {"form": cost.form, "strike": cost.strike}
    return {"marginals": [{"atoms": mu.atoms.tolist(), "weights": mu.weights.tolist()}
                          for mu in ms.marginals], "cost": form}


def lognormal_basket(n: int, m: int, scale: float = 1.0):
    """An at-the-money basket call on n mean-one lognormal marginals of m atoms.

    Period i has volatility 0.1 * i; every atom and the strike are times scale.
    """
    marginals = []
    for s in (0.1, 0.2, 0.3, 0.4)[:n]:
        mu = quantize_lognormal(-s**2 / 2, s, m)
        marginals.append(DiscreteMeasure(scale * mu.atoms, mu.weights))
    return CostSpec(n, "basket", strike=scale), MarginalSequence(marginals)


def lognormal_showcase(scale: float = 1.0):
    """Criterion 10's basket instance with every atom and the strike times scale."""
    return lognormal_basket(3, 15, scale)


def random_duals(rng, ms: MarginalSequence, scale: float = 1.0) -> DualVariables:
    return DualVariables.from_tables(
        ms, [scale * rng.standard_normal(len(m)) for m in ms.marginals[1:]]
    )


def random_grid_function(rng, max_len: int = 200, min_len: int = 1) -> GridFunction:
    m = int(rng.integers(min_len, max_len + 1))
    grid = np.sort(rng.choice(np.linspace(-10, 10, 4001), size=m, replace=False))
    values = 3.0 * rng.standard_normal(m)
    if rng.random() < 0.3:  # mix in curvature so hulls are not always trivial
        values += rng.uniform(-1, 1) * grid**2
    return GridFunction(grid, values)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
