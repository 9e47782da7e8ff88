import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkspec.model import (
    DomainError,
    ModelParams,
    ParitySector,
    constants,
    normalization_pole_energy,
    pole_energies,
    validate_params,
)
from starkspec.series import (
    SERIES_MIN_G,
    _KERNEL_BLOCK,
    OutsideDisk,
    PoleEncountered,
    SeriesCoefficients,
    SingularInitialization,
    _g_kernel,
    _g_table,
    eval_rho_pair,
    g_function,
    g_profile,
    initial_coefficients,
    recurse,
)

PLUS = ParitySector.PLUS
MINUS = ParitySector.MINUS


def bisect_zero(params, sector, lo, hi, n_terms, iters=70):
    flo = g_function(params, sector, lo, n_terms).value
    fhi = g_function(params, sector, hi, n_terms).value
    assert flo * fhi < 0, "zero not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = g_function(params, sector, mid, n_terms).value
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInitialCoefficients:
    def test_alpha_bar_is_one(self):
        p = validate_params(0.4, 0.5, 0.4)
        _, ab0 = initial_coefficients(constants(p, PLUS, 0.2))
        assert ab0 == 1.0

    def test_vanishing_numerator(self):
        # kbar0(E) = 0 at E = g*w - delta*(w+g)/(gamma*w)
        p = validate_params(0.4, 0.5, 0.4)
        e0 = p.g * p.w - p.delta * (p.w + p.g) / (p.gamma * p.w)
        a0, _ = initial_coefficients(constants(p, PLUS, e0))
        assert abs(a0) < 1e-14

    def test_two_expressions_agree(self):
        p = validate_params(0.4, 0.5, 0.4)
        cs = constants(p, PLUS, 0.2)
        a0, _ = initial_coefficients(cs)
        assert abs(a0 + cs.kbar0 / cs.k0) <= 1e-10 * (1.0 + abs(a0))
        assert abs(a0 + cs.cbar0 / cs.c0) <= 1e-10 * (1.0 + abs(a0))

    def test_singular_initialization(self):
        p = validate_params(0.4, 0.95, 0.6)
        e_star = normalization_pole_energy(p, PLUS)
        with pytest.raises(SingularInitialization):
            initial_coefficients(constants(p, PLUS, e_star))


class TestRecurse:
    def test_first_step_matches_direct_relations(self):
        # n = 1 with the negative-index convention equals the direct system:
        #   (k0 + 2w b) t1 + kbar0 tb1 = w (-k1 t0 - kbar1 tb0)
        #   c0 t1 + (cbar0 + 2w b) tb1 = w (-c1 t0 - cbar1 tb0)
        p = validate_params(0.4, 0.5, 0.4)
        cs = constants(p, PLUS, 0.2)
        coeffs = recurse(cs, p, 2)
        w, beta = p.w, 1.0 - p.gamma**2
        t0, tb0 = coeffs.alpha[0], coeffs.alpha_bar[0]
        k0n = cs.k0 + 2.0 * w * beta
        cb0n = cs.cbar0 + 2.0 * w * beta
        b1 = w * (-cs.k1 * t0 - cs.kbar1 * tb0)
        b2 = w * (-cs.c1 * t0 - cs.cbar1 * tb0)
        det = k0n * cb0n - cs.kbar0 * cs.c0
        assert coeffs.alpha[1] == pytest.approx((cb0n * b1 - cs.kbar0 * b2) / det, rel=1e-14)
        assert coeffs.alpha_bar[1] == pytest.approx((k0n * b2 - cs.c0 * b1) / det, rel=1e-14)

    def test_pole_raises(self):
        p = validate_params(0.4, 0.5, 0.4)
        e_pole = pole_energies(p, PLUS, 1)[0][1]
        with pytest.raises(PoleEncountered) as err:
            recurse(constants(p, PLUS, e_pole), p, 12)
        assert err.value.n == 1

    def test_near_pole_flagged_not_raised(self):
        p = validate_params(0.4, 0.5, 0.4)
        e_pole = pole_energies(p, PLUS, 1)[0][1]
        coeffs = recurse(constants(p, PLUS, e_pole + 1e-7), p, 12)
        assert coeffs.near_pole == 1

    def test_tail_shrinks_with_truncation(self):
        p = validate_params(0.4, 0.5, 0.4)
        cs = constants(p, PLUS, 0.2)
        tails = [recurse(cs, p, n).tail_estimate for n in (8, 16, 32)]
        assert tails[0] > tails[1] > tails[2]
        assert tails[2] < 1e-9


class TestEvalRhoPair:
    def test_origin_returns_leading_coefficients(self):
        p = validate_params(0.4, 0.5, 0.4)
        coeffs = recurse(constants(p, PLUS, 0.2), p, 12)
        rho, rho_bar = eval_rho_pair(coeffs, 0.0)
        assert rho == coeffs.alpha[0]
        assert rho_bar == coeffs.alpha_bar[0]

    def test_single_term_series(self):
        coeffs = SeriesCoefficients(
            alpha=np.zeros(5), alpha_bar=np.array([1.0, 0, 0, 0, 0]),
            n_terms=4, tail_estimate=0.0, near_pole=None, w=0.5,
        )
        assert eval_rho_pair(coeffs, 0.5) == (0.0, 1.0)

    def test_outside_disk(self):
        p = validate_params(0.4, 0.5, 0.4)
        coeffs = recurse(constants(p, PLUS, 0.2), p, 12)
        with pytest.raises(OutsideDisk):
            eval_rho_pair(coeffs, 2.0 * p.w)

    def test_terms_decay_at_evaluation_point(self):
        p = validate_params(0.4, 0.5, 0.4)
        coeffs = recurse(constants(p, PLUS, 0.2), p, 32)
        mags = np.abs(coeffs.alpha) + np.abs(coeffs.alpha_bar)
        assert mags[32] < mags[16] < mags[8]


class TestGFunction:
    def test_x_convention(self):
        p = validate_params(0.4, 0.5, 0.4)
        s = g_function(p, PLUS, 0.2, 24)
        assert s.x == pytest.approx(0.2 + 0.16, abs=1e-15)

    def test_value_matches_series_difference(self):
        p = validate_params(0.4, 0.5, 0.4)
        coeffs = recurse(constants(p, PLUS, 0.2), p, 24)
        rho, rho_bar = eval_rho_pair(coeffs, p.w)
        assert g_function(p, PLUS, 0.2, 24).value == pytest.approx(rho_bar - rho, abs=0)

    def test_pole_sample_is_flagged(self):
        p = validate_params(0.4, 0.5, 0.4)
        e_pole = pole_energies(p, PLUS, 1)[0][1]
        s = g_function(p, PLUS, e_pole, 24)
        assert math.isnan(s.value)
        assert not s.reliable

    def test_sector_duality(self):
        p = validate_params(0.4, 0.5, 0.4)
        flipped = ModelParams(delta=-0.4, gamma=-0.5, g=0.4, w=p.w)
        for energy in (-0.3, 0.21, 1.07):
            minus = g_function(p, MINUS, energy, 16).value
            plus_flipped = g_function(flipped, PLUS, energy, 16).value
            assert minus == plus_flipped

    def test_zero_locations_stable_under_truncation(self):
        # Doubling the truncation moves a zero by far less than the value
        # of G moves: the spectrum is the stable object.
        p = validate_params(0.4, 0.5, 0.4)
        z12 = bisect_zero(p, PLUS, 0.5, 0.75, 12)
        z24 = bisect_zero(p, PLUS, 0.5, 0.75, 24)
        z48 = bisect_zero(p, PLUS, 0.5, 0.75, 48)
        assert abs(z12 - z24) < 1e-4
        assert abs(z24 - z48) < 1e-8

    def test_small_g_floor(self):
        p = validate_params(0.4, 0.5, 1e-7)
        with pytest.raises(DomainError):
            g_function(p, PLUS, 0.1, 12)
        p_edge = validate_params(0.4, 0.5, SERIES_MIN_G)
        assert math.isfinite(g_function(p_edge, PLUS, 0.17, 24).value)


class TestGProfile:
    def test_endpoint_semantics(self):
        p = validate_params(0.4, 0.5, 0.4)
        prof = g_profile(p, PLUS, -1.0, 2.0, 2, 12)
        assert len(prof) == 2
        assert prof[0].x == -1.0
        assert prof[1].x == 2.0

    def test_pole_hit_flagged_not_skipped(self):
        # grid chosen so one sample lands on the n=1 singularity at x = 0.55
        p = validate_params(0.4, 0.5, 0.4)
        prof = g_profile(p, PLUS, -1.0, 2.0, 601, 12)
        hit = [s for s in prof if abs(s.x - 0.55) < 1e-12]
        assert len(hit) == 1
        assert math.isnan(hit[0].value)
        assert not hit[0].reliable
        assert len(prof) == 601

    def test_profile_sees_sign_changes(self):
        p = validate_params(0.4, 0.5, 0.4)
        prof = g_profile(p, PLUS, -1.0, 2.0, 600, 24)
        values = np.array([s.value for s in prof])
        finite = values[np.isfinite(values)]
        flips = np.sum(np.sign(finite[1:]) != np.sign(finite[:-1]))
        assert flips >= 3


@st.composite
def kernel_points(draw):
    """(params, sector, energy) with energies anywhere, on the pole ladder,
    just beside it (near-pole flags) and at the normalization pole."""
    params = validate_params(draw(st.sampled_from([0.0, 0.4, 1.1])),
                             draw(st.floats(-0.95, 0.95)), draw(st.floats(1e-3, 1.6)))
    sector = draw(st.sampled_from([PLUS, MINUS]))
    n = draw(st.integers(1, 8))
    pole = pole_energies(params, sector, n)[n - 1][1]
    energy = draw(st.one_of(
        st.floats(-4.0, 8.0),
        st.just(pole),
        st.sampled_from([-3e-7, 1e-7, 2e-6]).map(lambda d: pole + d),
        st.just(normalization_pole_energy(params, sector)),
    ))
    return params, sector, energy


class TestKernel:
    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(kernel_points(), min_size=1, max_size=10),
           extra=st.integers(1, 3000), n_terms=st.sampled_from([2, 12, 24]),
           seed=st.integers(0, 2**32 - 1))
    def test_broadcast_equals_per_point_calls(self, points, extra, n_terms, seed):
        # one point on the ladder, so every batch holds a pole-dead sample
        lift = validate_params(0.4, 0.5, 0.3)
        points = points + [(lift, MINUS, pole_energies(lift, MINUS, 2)[1][1])]
        ref = [_g_table(p, sector, np.array([e]), n_terms) for p, sector, e in points]
        assert ref[-1][3][0]
        # a mixed-sector, mixed-g batch spanning more than one kernel block
        pick = np.random.default_rng(seed).integers(len(points), size=_KERNEL_BLOCK + extra)
        columns = np.array([(sector.sign * p.delta, sector.sign * p.gamma, p.g, p.w, e)
                            for p, sector, e in points])[pick].T
        got = _g_kernel(*columns, n_terms)
        for k in range(4):
            want = np.concatenate([r[k] for r in ref])[pick]
            assert got[k].dtype == want.dtype
            assert np.array_equal(got[k], want, equal_nan=True)
