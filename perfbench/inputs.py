"""Seeded inputs of the three workloads.

Everything here is plain Python (``random.Random`` seeded by strings, which
does not depend on hash randomization), so the same seed gives the same
inputs in every process.  One *round* is a fixed mix of timed units; a run
always executes whole rounds, so every run has the same mix of operations
and the same share of failing ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DELTA = 0.4


@dataclass(frozen=True)
class Segment:
    """One g-segment of acceptance gates 5-7."""

    gamma: float
    g_min: float
    g_max: float
    steps: int
    levels: int
    n_terms: int
    gap_threshold: float

    def g_at(self, j: int) -> float:
        return self.g_min + j * (self.g_max - self.g_min) / (self.steps - 1)


#: gates 5, 6 and 7 (Delta = 0.4); gap thresholds as in those gates
SEGMENTS = (
    Segment(0.0, 0.0, 1.6, 400, 14, 24, 1e-8),
    Segment(0.5, 0.0, 1.6, 400, 14, 24, 1e-8),
    Segment(0.95, 0.0, 0.75, 150, 4, 48, 4e-5),
)

#: A sweep round takes every SWEEP_STRIDE-th column of each gate grid; the
#: reference's parity swaps per level pair are the same at this stride as on
#: the full grid.  Round r of seed s uses residue (s + r) mod SWEEP_STRIDE,
#: so successive rounds cover different gate columns.
SWEEP_STRIDE = 16

#: Upper bound on the columns of one timed spectrum_sweep call.
SWEEP_CHUNK = 10

#: Box workload: seeded points per round, plus one fixed operation.
BOX_SEEDED_PER_ROUND = 11

#: Seeded box points are drawn from the corner of the covered box where the
#: defaults give correct columns today: no resolved level off by more than
#: 1e-6 and no level missing, on 1500 + 3000 sampled points.  Outside it the
#: truncation fault makes a seed-dependent share of columns wrong, and for
#: |gamma| >~ 0.15 same-parity pairs closer than the scan spacing lose a
#: level; the README says why the rest of the box is represented only by
#: BOX_FIXED_FAULT.
BOX_GAMMA_MAX = 0.1
BOX_G_MIN = 0.005
BOX_G_MAX = 0.4

#: Levels `starkspec spectrum` reports at its default flags.
BOX_LEVELS = 14

#: Width of the two-column g window of one box invocation.
BOX_G_STEP = 0.01

#: The truncation fault at default flags: a spurious PLUS ground state
#: (-4.8414 instead of -3.8666) marked resolved.  Seed-independent, fails
#: every time until the truncation is chosen by accuracy.
BOX_FIXED_FAULT = (0.9, 1.6)

#: Oracle workload: the cutoffs of one round, each at its own seeded point
#: of the covered box.
ORACLE_CUTOFFS = (200, 200, 800)
ORACLE_LEVELS = 26
ORACLE_GAMMA_MAX = 0.95
ORACLE_G_MIN = 0.001
ORACLE_G_MAX = 1.6


def sweep_round(seed: int, round_index: int, segments=SEGMENTS):
    """[(segment index, [chunk of gate column indices, ...]), ...]."""
    residue = (seed + round_index) % SWEEP_STRIDE
    plan = []
    for s, seg in enumerate(segments):
        cols = list(range(residue, seg.steps, SWEEP_STRIDE))
        n_chunks = -(-len(cols) // SWEEP_CHUNK)
        bounds = [round(i * len(cols) / n_chunks) for i in range(n_chunks + 1)]
        plan.append((s, [cols[a:b] for a, b in zip(bounds, bounds[1:])]))
    return plan


def box_argv(gamma: float, g: float, out: str) -> list[str]:
    """`starkspec spectrum` at default flags over [g, g + BOX_G_STEP].

    Fixed-point numbers: the CLI reads "-1e-05" as an option, not a value.
    """
    return ["spectrum", "--delta", f"{DELTA:.6f}", "--gamma", f"{gamma:.6f}",
            "--gmin", f"{g:.6f}", "--gmax", f"{g + BOX_G_STEP:.6f}",
            "--gsteps", "2", "--out", out]


def box_round(seed: int, round_index: int) -> list[tuple[float, float]]:
    """Seeded (gamma, g) points of one round, then the fixed fault."""
    rng = random.Random(f"box-{seed}-{round_index}")
    points = [
        (round(rng.uniform(-BOX_GAMMA_MAX, BOX_GAMMA_MAX), 6),
         round(rng.uniform(BOX_G_MIN, BOX_G_MAX), 6))
        for _ in range(BOX_SEEDED_PER_ROUND)
    ]
    return points + [BOX_FIXED_FAULT]


def oracle_round(seed: int, round_index: int) -> list[tuple[float, float, int]]:
    """(gamma, g, cutoff) of each call of one round, at seeded box points."""
    rng = random.Random(f"oracle-{seed}-{round_index}")
    return [
        (round(rng.uniform(-ORACLE_GAMMA_MAX, ORACLE_GAMMA_MAX), 6),
         round(rng.uniform(ORACLE_G_MIN, ORACLE_G_MAX), 6),
         cutoff)
        for cutoff in ORACLE_CUTOFFS
    ]
