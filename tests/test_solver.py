import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkspec.fock import build_hamiltonian, diagonalize
from starkspec.model import (
    DomainError,
    ParitySector,
    constants,
    g0_levels,
    normalization_pole_energy,
    pole_energies,
    pole_index,
    sector_couplings,
    validate_params,
)
from starkspec.series import _exceptional_kernel, _g_table, _start
from starkspec.solver import (
    TOL_E,
    CrossingKind,
    ExceptionalKind,
    LevelEntry,
    SpectrumTable,
    TrackingAmbiguity,
    _column_window,
    _find_zeros_batch,
    _search,
    classify_exceptional,
    detect_crossings,
    find_degenerate_g,
    find_regular_zeros,
    spectrum_sweep,
)

PLUS = ParitySector.PLUS
MINUS = ParitySector.MINUS

# Lift point of the n=1 ladder singularity for delta=0.4, gamma=0.5,
# cross-validated against the Fock oracle below.
G_LIFT_N1 = 0.21387555435198


def oracle_levels(delta, gamma, g, want, cutoff=200):
    p = validate_params(delta, gamma, g)
    return diagonalize(build_hamiltonian(p, cutoff), want, check_convergence=False)


def oracle_crossing(delta, gamma, pair, lo, hi, steps=40):
    """Bisected sign change in g of the oracle's pair-th opposite-parity gap."""
    def gap(g):
        spectrum = oracle_levels(delta, gamma, g, 2 * pair + 4, cutoff=120)
        plus = [e for e, pr in zip(spectrum.energies, spectrum.parities) if pr == 1]
        minus = [e for e, pr in zip(spectrum.energies, spectrum.parities) if pr == -1]
        return plus[pair] - minus[pair]

    flo = gap(lo)
    assert flo * gap(hi) < 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.sign(gap(mid)) == np.sign(flo):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect(f, lo, hi, steps=100):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.sign(f(mid)) == np.sign(flo):
            lo = mid
        else:
            hi = mid
    return lo


def singular_rung(n):
    """(params, MINUS, n) with the normalization pole on rung n: k0 = c0 = 0 there."""
    def offset(g):
        p = validate_params(1.1, 0.95, g)
        return pole_energies(p, MINUS, n)[n - 1][1] - normalization_pole_energy(p, MINUS)
    return validate_params(1.1, 0.95, bisect(offset, 0.1, 0.4)), MINUS, n


#: Ladder points where the normalization degenerates.
SINGULAR_RUNGS = [singular_rung(1), singular_rung(2)]


@st.composite
def ladder_points(draw):
    """(params, sector, n) with n up to 12, including exact lifts."""
    params = draw(st.one_of(
        st.builds(validate_params, st.sampled_from([0.0, 0.4, 1.1]),
                  st.one_of(st.just(0.0), st.floats(-0.95, 0.95)), st.floats(1e-3, 1.6)),
        st.just(validate_params(0.4, 0.5, G_LIFT_N1)),
    ))
    return params, draw(st.sampled_from([PLUS, MINUS])), draw(st.integers(1, 12))


class TestFindRegularZeros:
    def test_rabi_limit_matches_oracle(self):
        p = validate_params(0.4, 0.0, 0.4)
        spectrum = oracle_levels(0.4, 0.0, 0.4, 16)
        for sector in (PLUS, MINUS):
            zeros = find_regular_zeros(p, sector, -1.0, 5.0, 1200, n_terms=48)
            resolved = [e for e, ok in zeros if ok]
            expected = [e for e, pr in zip(spectrum.energies, spectrum.parities)
                        if pr == sector.sign and -1.0 < e < 5.0]
            assert len(resolved) == len(expected)
            assert resolved == pytest.approx(expected, abs=1e-6)

    def test_empty_gap_window(self):
        p = validate_params(0.4, 0.5, 0.4)
        zeros = find_regular_zeros(p, PLUS, 0.9, 1.2, 400, n_terms=32)
        assert zeros == []

    def test_zero_sides_around_first_singularity(self):
        # closest zeros to x_s = 0.55: the PLUS one to the right, the MINUS
        # one to the left
        p = validate_params(0.4, 0.5, 0.4)
        e_pole = pole_energies(p, PLUS, 1)[0][1]
        zp = [e for e, ok in find_regular_zeros(p, PLUS, -0.8, 1.1, 800, n_terms=32) if ok]
        zm = [e for e, ok in find_regular_zeros(p, MINUS, -0.8, 1.1, 800, n_terms=32) if ok]
        nearest_plus = min(zp, key=lambda e: abs(e - e_pole))
        nearest_minus = min(zm, key=lambda e: abs(e - e_pole))
        assert nearest_plus > e_pole
        assert nearest_minus < e_pole

    def test_rebracketing_resolves_zero_inside_pole_window(self):
        # just off the lift point the two zeros hug the singularity at a
        # distance far below the exclusion half-width
        g = G_LIFT_N1 + 2e-5
        p = validate_params(0.4, 0.5, g)
        e_pole = pole_energies(p, PLUS, 1)[0][1]
        zp = [e for e, ok in find_regular_zeros(p, PLUS, e_pole - 0.05, e_pole + 0.05,
                                                200, n_terms=32) if ok]
        zm = [e for e, ok in find_regular_zeros(p, MINUS, e_pole - 0.05, e_pole + 0.05,
                                                200, n_terms=32) if ok]
        assert len(zp) == 1 and len(zm) == 1
        assert abs(zp[0] - e_pole) < 1e-4
        assert abs(zm[0] - e_pole) < 1e-4
        assert zp[0] != pytest.approx(zm[0], abs=1e-9)

    def test_normalization_pole_not_reported_as_zero(self):
        # G flips sign across the k0 = c0 = 0 energy in both sectors; that
        # flip is a pole, not an eigenvalue
        p = validate_params(0.4, 0.95, 0.6)
        e_star = normalization_pole_energy(p, PLUS)
        for sector in (PLUS, MINUS):
            zeros = find_regular_zeros(p, sector, -1.6, -0.7, 1800, n_terms=64)
            for e, _ in zeros:
                assert abs(e - e_star) > 1e-3
        zp = [e for e, ok in find_regular_zeros(p, PLUS, -1.6, -0.7, 1800, n_terms=64) if ok]
        assert zp == pytest.approx([-0.909070947243, -0.734308033665], abs=1e-8)

    def test_compressed_regime_matches_oracle(self):
        p = validate_params(0.4, 0.95, 0.6)
        spectrum = oracle_levels(0.4, 0.95, 0.6, 6, cutoff=300)
        for sector in (PLUS, MINUS):
            zeros = find_regular_zeros(p, sector, -1.0, -0.5, 1200, n_terms=64)
            resolved = [e for e, ok in zeros if ok]
            expected = [e for e, pr in zip(spectrum.energies, spectrum.parities)
                        if pr == sector.sign and -1.0 < e < -0.5]
            assert resolved == pytest.approx(expected, abs=1e-6)

    def test_window_validation(self):
        p = validate_params(0.4, 0.5, 0.4)
        with pytest.raises(ValueError):
            find_regular_zeros(p, PLUS, 1.0, 0.0, 100)
        with pytest.raises(ValueError):
            find_regular_zeros(p, PLUS, 0.0, 1.0, 8)


class TestZeroBatch:
    def test_batch_equals_searches_run_alone(self):
        hug = validate_params(0.4, 0.5, G_LIFT_N1 + 2e-5)
        e_pole = pole_energies(hug, PLUS, 1)[0][1]
        jobs = [
            (hug, PLUS, e_pole - 0.05, e_pole + 0.05, 200),  # pole-adjacent brackets
            (hug, MINUS, e_pole - 0.05, e_pole + 0.05, 200),
            (validate_params(0.4, 0.5, 0.4), MINUS, -0.8, 1.1, 16),  # sample floor
            (validate_params(0.4, 0.0, 1.2), PLUS, -2.5, 4.0, 4000),
            (validate_params(0.4, 0.5, 0.4), PLUS, 0.9, 1.2, 400),  # no zero
            (validate_params(0.4, 0.463085, 0.089441), PLUS, 3.2, 3.5, 150),  # close pair
        ]
        brackets = _search(jobs, 32)[1]
        widths = brackets.start[:, 1] - brackets.start[:, 0]
        assert widths.max() / widths.min() > 1e3
        batch = _find_zeros_batch(jobs, n_terms=32)
        assert batch == [find_regular_zeros(*job, n_terms=32) for job in jobs]
        assert not batch[4]
        assert [ok for _, ok in batch[5]] == [True, True]

    def test_each_root_within_tol_of_tight_bisection(self):
        # every bracket stops on its own width; each root must sit within
        # TOL_E of its bracket's zero, bisected far below TOL_E
        hug = validate_params(0.4, 0.5, G_LIFT_N1 + 2e-5)
        e_pole = pole_energies(hug, PLUS, 1)[0][1]
        job = (hug, MINUS, e_pole - 1.0, e_pole + 2.5, 3000)
        _, brackets, found, _ = _search([job], 32)
        roots = brackets.roots()
        lo, hi = brackets.start[found & (roots >= job[2]) & (roots <= job[3])].T.copy()
        assert (hi - lo).max() / (hi - lo).min() > 4
        flo = _g_table(hug, MINUS, lo, 32)[0]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = _g_table(hug, MINUS, mid, 32)[0]
            same = np.sign(fm) == np.sign(flo)
            lo, flo, hi = np.where(same, mid, lo), np.where(same, fm, flo), np.where(same, hi, mid)
        zeros = find_regular_zeros(*job, n_terms=32)
        assert all(ok for _, ok in zeros)
        assert np.abs(np.array([e for e, _ in zeros]) - np.sort(0.5 * (lo + hi))).max() <= TOL_E

    def test_close_pair_resolved(self):
        # two PLUS levels 8.4e-4 apart, closer than the old 2e-3 scan grid
        table = spectrum_sweep(0.4, 0.463085, 0.089441, 0.099441, 2, 14)
        pair = [entry for entry in table.columns[0] if entry.parity == 1 and 3.3 < entry.energy < 3.4]
        spectrum = oracle_levels(0.4, 0.463085, 0.089441, 20)
        want = [e for e, pr in zip(spectrum.energies, spectrum.parities) if pr == 1 and 3.3 < e < 3.4]
        assert want == pytest.approx([3.341526, 3.342367], abs=1e-6)
        assert all(entry.resolved for entry in pair)
        assert [entry.energy for entry in pair] == pytest.approx(want, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(params=st.builds(validate_params, st.floats(0.0, 2.0), st.floats(-0.95, 0.95),
                            st.floats(1e-3, 1.6)),
           sector=st.sampled_from([PLUS, MINUS]), n_terms=st.sampled_from([12, 24]))
    def test_matches_dense_reference_scan(self, params, sector, n_terms):
        # reference: G on a 1e-4 grid, 1e-6 windows around singular energies
        # cut out, with the same truncation on both sides
        _, e_lo, e_hi, _ = _column_window(params.delta, params.gamma, params.g, 8)
        xs = np.arange(e_lo, e_hi, 1e-4)
        rungs = int(pole_index(params, sector, e_hi)) + 1
        sing = np.sort([e for _, e in pole_energies(params, sector, rungs)]
                       + [normalization_pole_energy(params, sector)])
        for e in sing:
            xs = xs[np.abs(xs - e) > 1e-6]
        values = _g_table(params, sector, xs, n_terms)[0]
        pole_between = np.searchsorted(sing, xs[1:]) != np.searchsorted(sing, xs[:-1])
        flips = np.flatnonzero((values[1:] * values[:-1] < 0.0) & ~pole_between)
        zeros = find_regular_zeros(params, sector, e_lo, xs[-1], 16, n_terms)
        resolved = np.array([e for e, ok in zeros if ok])
        for i in flips:
            assert np.any(np.abs(resolved - 0.5 * (xs[i] + xs[i + 1])) <= 0.5e-4 + TOL_E), xs[i]
        if resolved.size:
            left, right = (_g_table(params, sector, resolved + d, n_terms)[0] for d in (-1e-9, 1e-9))
            assert np.all(left * right < 0.0)


class TestClassifyExceptional:
    def test_degenerate_at_lift(self):
        p = validate_params(0.4, 0.5, G_LIFT_N1)
        point = classify_exceptional(p, PLUS, 1)
        assert point.classification is ExceptionalKind.DEGENERATE
        assert point.residual <= 1e-8
        assert point.x == pytest.approx(0.55, abs=1e-12)

    def test_not_degenerate_away_from_lift(self):
        p = validate_params(0.4, 0.5, 0.4)
        point = classify_exceptional(p, PLUS, 1)
        assert point.classification is ExceptionalKind.NONDEGENERATE_CANDIDATE

    def test_free_field_limit_degenerate(self):
        for g in (0.2, 0.5, 1.1):
            p = validate_params(0.0, 0.0, g)
            for n in (1, 2, 3):
                point = classify_exceptional(p, PLUS, n)
                assert point.classification is ExceptionalKind.DEGENERATE

    def test_sector_invariance(self):
        p = validate_params(0.4, 0.5, 0.37)
        rp = classify_exceptional(p, PLUS, 1).residual
        rm = classify_exceptional(p, MINUS, 1).residual
        assert rp == pytest.approx(rm, rel=1e-9)

    def test_n_validation(self):
        p = validate_params(0.4, 0.5, 0.4)
        with pytest.raises(ValueError):
            classify_exceptional(p, PLUS, 0)

    def test_singular_rungs_unresolved(self):
        for params, sector, n in SINGULAR_RUNGS:
            point = classify_exceptional(params, sector, n)
            assert point.classification is ExceptionalKind.UNRESOLVED
            assert math.isnan(point.residual)
            assert point.energy == pole_energies(params, sector, n)[n - 1][1]

    def test_n1_vector_by_hand(self):
        # at rung 1 only the leading pair enters: t0 = alpha_0, tb0 = 1
        p = validate_params(0.4, 0.5, 0.4)
        e_pole = pole_energies(p, PLUS, 1)[0][1]
        cs = constants(p, PLUS, e_pole)
        w, beta = p.w, 1.0 - p.gamma**2
        t0 = -cs.kbar0 / cs.k0
        k0n = cs.k0 + 2.0 * w * beta
        cb0n = cs.cbar0 + 2.0 * w * beta
        b1 = w * (-cs.k1 * t0 - cs.kbar1)
        b2 = w * (-cs.c1 * t0 - cs.cbar1)
        mono_b1 = max(abs(w * cs.k1 * t0), abs(w * cs.kbar1))
        mono_b2 = max(abs(w * cs.c1 * t0), abs(w * cs.cbar1))
        v1, v2, s1, s2, energy = _exceptional_kernel(p.delta, p.gamma, p.g, p.w, 1)
        assert energy == e_pole
        assert v1 == pytest.approx(cb0n * b1 - cs.kbar0 * b2, rel=1e-12)
        assert v2 == pytest.approx(k0n * b2 - cs.c0 * b1, rel=1e-12)
        assert s1 == pytest.approx(max(mono_b1 * abs(cb0n), mono_b2 * abs(cs.kbar0)), rel=1e-12)
        assert s2 == pytest.approx(max(mono_b2 * abs(k0n), mono_b1 * abs(cs.c0)), rel=1e-12)
        # on the pole the adjugate has rank one: the components are proportional
        assert v1 * k0n == pytest.approx(-cs.kbar0 * v2, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(ladder_points(), min_size=1, max_size=30))
    def test_batch_equals_per_point_calls(self, points):
        points = points + SINGULAR_RUNGS
        want = []
        for params, sector, n in points:
            point = classify_exceptional(params, sector, n)
            want.append("singular" if math.isnan(point.residual) else (point.energy, point.residual))
        columns = np.array([(*sector_couplings(params, sector), params.g, params.w)
                            for params, sector, _ in points]).T
        v1, v2, s1, s2, energy = _exceptional_kernel(*columns, np.array([n for *_, n in points]))
        got = []
        for i in range(len(points)):
            if np.isnan(v1[i]):
                got.append("singular")
            else:
                r1 = abs(v1[i]) / s1[i] if s1[i] > 0.0 else 0.0
                r2 = abs(v2[i]) / s2[i] if s2[i] > 0.0 else 0.0
                got.append((float(energy[i]), float(max(r1, r2))))
        assert got == want

    @settings(max_examples=50, deadline=None)
    @given(points=st.lists(st.tuples(
        st.builds(validate_params, st.floats(0.0, 2.0), st.floats(-0.95, 0.95),
                  st.floats(1e-3, 1.6)),
        st.sampled_from([PLUS, MINUS]), st.integers(1, 40)), min_size=1, max_size=40))
    def test_step_vector_finite_off_singular_normalization(self, points):
        # why the kernel steps without a pole check: at E_pole(n) step m < n
        # has relative determinant |m - n| >= 1 for every validated point
        points = points + SINGULAR_RUNGS
        columns = np.array([(*sector_couplings(params, sector), params.g, params.w)
                            for params, sector, _ in points]).T
        v1, v2, _, _, energy = _exceptional_kernel(*columns, np.array([n for *_, n in points]))
        singular = _start(*columns, energy)[1]
        assert np.array_equal(np.isfinite(v1) & np.isfinite(v2), ~singular)
        assert singular[-len(SINGULAR_RUNGS):].all()


class TestFindDegenerateG:
    def test_lift_agrees_with_oracle_crossing(self):
        # independent check: bisect the sign change of the oracle's pair-1
        # opposite-parity gap and compare with the recursion-vector root
        gs = find_degenerate_g(0.4, 0.5, PLUS, 1, 0.1, 0.4, tol_g=1e-10)
        assert gs is not None
        assert gs == pytest.approx(oracle_crossing(0.4, 0.5, 1, 0.18, 0.25), abs=1e-6)
        assert gs == pytest.approx(G_LIFT_N1, abs=1e-9)

    def test_lift_at_gamma_zero_agrees_with_oracle(self):
        # at gamma = 0 the second vector component vanishes identically, so
        # the lift is a sign change of the first one alone
        gs = find_degenerate_g(0.4, 0.0, PLUS, 1, 0.40, 0.50, tol_g=1e-10)
        assert gs is not None
        assert abs(gs - oracle_crossing(0.4, 0.0, 1, 0.44, 0.47)) < 1e-8

    def test_no_lift_in_subwindow(self):
        assert find_degenerate_g(0.4, 0.5, PLUS, 1, 0.3, 0.4) is None

    def test_empty_window(self):
        assert find_degenerate_g(0.4, 0.5, PLUS, 1, 0.3, 0.3) is None

    def test_flat_degenerate_case_returns_none(self):
        # delta = 0: the vector vanishes identically, no sign structure
        assert find_degenerate_g(0.0, 0.0, PLUS, 1, 0.2, 0.6) is None


class TestSpectrumSweep:
    def test_free_column_is_exact(self):
        table = spectrum_sweep(0.4, 0.5, 0.0, 0.2, 3, 6, n_terms=24)
        expected = g0_levels(validate_params(0.4, 0.5, 0.0), 6)
        got = table.columns[0]
        assert [e.energy for e in got] == pytest.approx(
            [lv.energy for lv in expected], abs=0)
        assert [e.parity for e in got] == [lv.parity for lv in expected]

    def test_negative_g_rejected(self):
        with pytest.raises(DomainError):
            spectrum_sweep(0.4, 0.5, -0.5, 0.5, 2, 2)

    def test_two_column_table(self):
        table = spectrum_sweep(0.4, 0.5, 0.1, 0.2, 2, 4, n_terms=24)
        assert len(table.columns) == 2
        assert table.g_grid == pytest.approx([0.1, 0.2])

    def test_columns_sorted_and_sized(self):
        table = spectrum_sweep(0.4, 0.5, 0.05, 0.45, 5, 8, n_terms=24)
        for column in table.columns:
            assert len(column) == 8
            energies = [entry.energy for entry in column]
            assert energies == sorted(energies)

    def test_halved_step_consistency(self):
        coarse = spectrum_sweep(0.4, 0.5, 0.1, 0.3, 5, 6, n_terms=32)
        fine = spectrum_sweep(0.4, 0.5, 0.1, 0.3, 9, 6, n_terms=32)
        for j_coarse, j_fine in ((0, 0), (1, 2), (2, 4), (3, 6), (4, 8)):
            a = [e.energy for e in coarse.columns[j_coarse] if e.resolved]
            b = [e.energy for e in fine.columns[j_fine] if e.resolved]
            assert a == pytest.approx(b, abs=1e-9)

    def test_columns_independent_of_chunking(self):
        # at N = 12 the g = 0.05 column loses a level to truncation, so its
        # first window comes up short and has to be extended
        full = spectrum_sweep(2.5, 0.9, 0.05, 1.6, 6, 14, n_terms=12)
        e_hi = _column_window(2.5, 0.9, float(full.g_grid[0]), 14)[2]
        assert max(entry.energy for entry in full.columns[0]) > e_hi
        for j in range(0, 6, 2):
            pair = spectrum_sweep(2.5, 0.9, full.g_grid[j], full.g_grid[j + 1], 2, 14, n_terms=12)
            assert list(pair.g_grid) == list(full.g_grid[j:j + 2])
            assert pair.columns == full.columns[j:j + 2]

    @pytest.mark.parametrize("g", [0.05, 0.4, 1.2])
    def test_decoupled_limit_matches_oracle(self, g):
        # at delta = gamma = 0 every level n - g^2 is a degenerate pair, the
        # ground pair at the normalization pole included
        column = spectrum_sweep(0.0, 0.0, 0.0, g, 2, 10).columns[1]
        spectrum = oracle_levels(0.0, 0.0, g, 10)
        for parity in (1, -1):
            got = [e.energy for e in column if e.parity == parity and e.resolved]
            want = [e for e, pr in zip(spectrum.energies, spectrum.parities) if pr == parity]
            assert got == pytest.approx(want, abs=1e-9)

    def test_oracle_agreement_row(self):
        table = spectrum_sweep(0.4, 0.5, 0.78, 0.82, 3, 10, n_terms=48)
        spectrum = oracle_levels(0.4, 0.5, 0.8, 10, cutoff=200)
        got = [e.energy for e in table.columns[1] if e.resolved]
        assert got == pytest.approx(list(spectrum.energies[:len(got)]), abs=1e-6)


def synthetic_table():
    """Hand-built table with one parity crossing at g = 0.5.

    delta = 0 keeps the crossing refinement on its interpolation fallback
    (the lift condition is identically satisfied there).
    """
    gs = np.linspace(0.0, 1.0, 11)
    columns = []
    for g in gs:
        column = [
            LevelEntry(0.5 - g, 1, True),      # crosses the lowest minus level
            LevelEntry(g - 0.5, -1, True),
            LevelEntry(2.0 + 0.1 * g, 1, True),
            LevelEntry(2.5 + 0.1 * g, -1, True),
        ]
        column.sort(key=lambda entry: entry.energy)
        columns.append(column)
    return SpectrumTable(delta=0.0, gamma=0.0, g_grid=gs, columns=columns,
                         requested_count=4, energy_resolution=1e-6)


class TestDetectCrossings:
    def test_synthetic_parity_crossing(self):
        table = synthetic_table()
        events = detect_crossings(table, gap_threshold=1e-6)
        crossings = [e for e in events if e.kind is CrossingKind.PARITY_CROSSING]
        assert any(abs(e.g_at - 0.5) < 0.06 and e.gap == 0.0 for e in crossings)
        for e in crossings:
            (pa, _), (pb, _) = e.level_indices
            assert pa != pb

    def test_real_crossing_refined_to_lift(self):
        table = spectrum_sweep(0.4, 0.5, 0.15, 0.3, 7, 6, n_terms=32)
        events = detect_crossings(table, gap_threshold=1e-8)
        crossings = [e for e in events if e.kind is CrossingKind.PARITY_CROSSING]
        assert len(crossings) == 1
        assert crossings[0].g_at == pytest.approx(G_LIFT_N1, abs=1e-7)
        assert crossings[0].gap == 0.0
        p_at = validate_params(0.4, 0.5, crossings[0].g_at)
        assert crossings[0].energy_at == pytest.approx(
            pole_energies(p_at, PLUS, 1)[0][1], abs=1e-9)

    def test_avoided_crossing_and_onset(self):
        gs = np.linspace(0.0, 1.0, 21)
        columns = []
        for g in gs:
            lower = 1.0 - 0.3 * g
            upper = lower + 0.02 + 0.6 * (g - 0.6) ** 2  # gap minimum at g = 0.6
            columns.append(sorted([
                LevelEntry(-2.0 - g, 1, True),
                LevelEntry(-2.0 - g - np.exp(-12.0 * g), -1, True),
                LevelEntry(lower, 1, True),
                LevelEntry(upper, 1, True),
                LevelEntry(3.0 - 2.0 * g, -1, True),
            ], key=lambda entry: entry.energy))
        table = SpectrumTable(delta=0.0, gamma=0.0, g_grid=gs, columns=columns,
                              requested_count=5, energy_resolution=1e-6)
        events = detect_crossings(table, gap_threshold=1e-3)
        avoided = [e for e in events if e.kind is CrossingKind.AVOIDED_CROSSING]
        onsets = [e for e in events if e.kind is CrossingKind.NEAR_DEGENERACY_ONSET]
        assert len(avoided) == 1
        assert avoided[0].gap == pytest.approx(0.02, abs=1e-12)
        assert avoided[0].g_at == pytest.approx(0.6, abs=1e-6)
        (pa, ka), (pb, kb) = avoided[0].level_indices
        assert pa == pb and abs(ka - kb) == 1
        assert onsets
        assert onsets[0].g_at == pytest.approx(np.log(1e3) / 12.0, abs=0.1)

    def test_single_parity_table_has_no_parity_crossings(self):
        gs = np.linspace(0.0, 0.4, 5)
        columns = [
            [LevelEntry(0.1 * j, 1, True), LevelEntry(1.0 + 0.1 * j, 1, True)]
            for j in range(5)
        ]
        table = SpectrumTable(delta=0.4, gamma=0.0, g_grid=gs, columns=columns,
                              requested_count=2, energy_resolution=1e-3)
        events = detect_crossings(table, 1e-6)
        assert not any(e.kind is CrossingKind.PARITY_CROSSING for e in events)
        assert not any(e.kind is CrossingKind.NEAR_DEGENERACY_ONSET for e in events)

    def test_tracking_ambiguity(self):
        # two same-parity levels pinch below half the scan resolution
        gs = np.linspace(0.0, 0.4, 5)
        columns = []
        for j, g in enumerate(gs):
            pinch = 1e-5 if j == 3 else 0.2
            columns.append([
                LevelEntry(0.0 + 0.01 * j, 1, True),
                LevelEntry(0.0 + 0.01 * j + pinch, 1, True),
                LevelEntry(0.5 + 0.01 * j, -1, True),
                LevelEntry(1.5 + 0.01 * j, -1, True),
            ])
        table = SpectrumTable(delta=0.4, gamma=0.0, g_grid=gs, columns=columns,
                              requested_count=4, energy_resolution=1e-3)
        with pytest.raises(TrackingAmbiguity) as err:
            detect_crossings(table, 1e-6)
        assert err.value.g_column == pytest.approx(gs[3])
