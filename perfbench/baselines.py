"""Reference figures for the README: the ROADMAP baselines, re-measured.

    python3 perfbench/baselines.py

Run from the root of a checkout.  Prints, raw and yardstick-scaled (median
of five runs, each bracketed by yardstick runs): a 40-column spectrum_sweep
(gamma = 0.5, 14 levels, N = 24) with its _g_table call count;
diagonalize(build_hamiltonian(p, 200), 26) with and without the convergence
re-run, and at cutoff 800; the fixed cost per _g_table call and its cost per
point at N = 12, 24 and 48; and the line count of src/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path("src").resolve()))

import numpy as np  # noqa: E402

from starkspec import fock, model, series, solver  # noqa: E402
from tracer import Tracer, kernel_fit, layer_totals  # noqa: E402
from yardstick import NOMINAL_S, yardstick_s  # noqa: E402


def timed(fn, repeats: int = 5) -> tuple[float, float]:
    """(median raw s, median scaled s) of ``fn()``."""
    raw, scaled = [], []
    y = yardstick_s()
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        y2 = yardstick_s()
        raw.append(dt)
        scaled.append(dt * NOMINAL_S / (0.5 * (y + y2)))
        y = y2
    return statistics.median(raw), statistics.median(scaled)


def main() -> int:
    if not (Path("src") / "starkspec").is_dir():
        print("baselines.py: run from the root of a checkout", file=sys.stderr)
        return 2

    def sweep40():
        return solver.spectrum_sweep(0.4, 0.5, 0.0, 1.6, 40, 14, n_terms=24)

    tracer = Tracer()
    tracer.run(0, sweep40)
    calls = layer_totals(tracer.spans, [1.0])[0]["series.kernel"]["calls"]
    raw, scaled = timed(sweep40, 3)
    print(f"sweep 40 columns: {raw:.3f} s raw, {scaled:.3f} s scaled, "
          f"{calls} _g_table calls")

    p = model.validate_params(0.4, 0.5, 0.4)
    for cutoff, check in ((200, True), (200, False), (800, False)):
        raw, scaled = timed(lambda: fock.diagonalize(
            fock.build_hamiltonian(p, cutoff), 26, check_convergence=check))
        print(f"diagonalize({cutoff}, 26) convergence re-run={check}: "
              f"{raw * 1e3:.0f} ms raw, {scaled * 1e3:.0f} ms scaled")

    samples = []
    rng = np.random.default_rng(0)
    for n_terms in (12, 24, 48):
        for points in (1, 1000, 2000, 4000, 8000):
            energies = np.sort(rng.uniform(-1.0, 5.0, points))
            raw, scaled = timed(lambda: series._g_table(
                p, model.ParitySector.PLUS, energies, n_terms))
            if points > 1:
                samples.append((n_terms, points, scaled))
            else:
                print(f"_g_table N={n_terms}, 1 point: {raw * 1e6:.0f} us raw, "
                      f"{scaled * 1e6:.0f} us scaled")
        fixed, per_point = kernel_fit(samples, n_terms)
        print(f"_g_table N={n_terms} (1k-8k points, scaled): {fixed:.0f} us per call "
              f"+ {per_point:.0f} ns per point")

    lines = sum(len(f.read_text().splitlines()) for f in Path("src").rglob("*.py"))
    print(f"src/ lines: {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
