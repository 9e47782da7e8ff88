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
    sector_couplings,
    validate_params,
)
from starkspec.series import (
    SERIES_MIN_G,
    _KERNEL_BLOCK,
    _g_kernel,
    _g_table,
    _start,
    _step,
    g_function,
    g_profile,
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


def leading_pair(params, sector, energy):
    """(alpha_0, alpha_bar_0, singular) as both recursion loops start from them."""
    _, singular, t0, tb0 = _start(*sector_couplings(params, sector), params.g, params.w,
                                  np.array([energy]))
    return t0[0], tb0[0], singular[0]


def kernel_at(params, sector, energy, n_terms):
    """(value, tail, near, dead) of one point."""
    return tuple(a[0] for a in _g_table(params, sector, np.array([energy]), n_terms))


class TestInitialCoefficients:
    def test_alpha_bar_is_one(self):
        p = validate_params(0.4, 0.5, 0.4)
        _, ab0, _ = leading_pair(p, PLUS, 0.2)
        assert ab0 == 1.0

    def test_vanishing_numerator(self):
        # kbar0(E) = 0 at E = g*w - delta*(w+g)/(gamma*w)
        p = validate_params(0.4, 0.5, 0.4)
        e0 = p.g * p.w - p.delta * (p.w + p.g) / (p.gamma * p.w)
        a0, _, _ = leading_pair(p, PLUS, e0)
        assert abs(a0) < 1e-14

    def test_two_expressions_agree(self):
        p = validate_params(0.4, 0.5, 0.4)
        cs = constants(p, PLUS, 0.2)
        a0, _, _ = leading_pair(p, PLUS, 0.2)
        assert abs(a0 + cs.kbar0 / cs.k0) <= 1e-10 * (1.0 + abs(a0))
        assert abs(a0 + cs.cbar0 / cs.c0) <= 1e-10 * (1.0 + abs(a0))

    def test_singular_initialization(self):
        p = validate_params(0.4, 0.95, 0.6)
        e_star = normalization_pole_energy(p, PLUS)
        assert leading_pair(p, PLUS, e_star)[2]
        value, _, _, dead = kernel_at(p, PLUS, e_star, 12)
        assert dead and math.isnan(value)


class TestRecurse:
    def test_first_step_matches_direct_relations(self):
        # n = 1 with the negative-index convention equals the direct system:
        #   (k0 + 2w b) t1 + kbar0 tb1 = w (-k1 t0 - kbar1 tb0)
        #   c0 t1 + (cbar0 + 2w b) tb1 = w (-c1 t0 - cbar1 tb0)
        p = validate_params(0.4, 0.5, 0.4)
        cs = constants(p, PLUS, 0.2)
        w, beta = p.w, 1.0 - p.gamma**2
        t0, tb0 = -cs.kbar0 / cs.k0, 1.0
        k0n = cs.k0 + 2.0 * w * beta
        cb0n = cs.cbar0 + 2.0 * w * beta
        b1 = w * (-cs.k1 * t0 - cs.kbar1 * tb0)
        b2 = w * (-cs.c1 * t0 - cs.cbar1 * tb0)
        det = k0n * cb0n - cs.kbar0 * cs.c0
        t1 = (cb0n * b1 - cs.kbar0 * b2) / det
        tb1 = (k0n * b2 - cs.c0 * b1) / det
        frame, _, a0, ab0 = _start(PLUS.sign * p.delta, PLUS.sign * p.gamma, p.g, p.w, 0.2)
        v1, v2, d, *_ = _step(frame, 1, a0, ab0, 0.0, 0.0)
        assert v1 / d == pytest.approx(t1, rel=1e-14)
        assert v2 / d == pytest.approx(tb1, rel=1e-14)
        # the one-step kernel sums exactly these terms
        value, tail, near, dead = kernel_at(p, PLUS, 0.2, 1)
        assert value == pytest.approx((tb0 + tb1) - (t0 + t1), rel=1e-13)
        assert tail == pytest.approx(abs(t1) + abs(tb1), rel=1e-14)
        assert near == -1 and not dead

    def test_pole_marks_point_dead(self):
        p = validate_params(0.4, 0.5, 0.4)
        e_pole = pole_energies(p, PLUS, 1)[0][1]
        value, _, near, dead = kernel_at(p, PLUS, e_pole, 12)
        assert dead and math.isnan(value)
        assert near == 1

    def test_near_pole_flagged_not_raised(self):
        p = validate_params(0.4, 0.5, 0.4)
        e_pole = pole_energies(p, PLUS, 1)[0][1]
        value, _, near, dead = kernel_at(p, PLUS, e_pole + 1e-7, 12)
        assert near == 1
        assert not dead and math.isfinite(value)

    def test_tail_shrinks_with_truncation(self):
        p = validate_params(0.4, 0.5, 0.4)
        tails = [kernel_at(p, PLUS, 0.2, n)[1] for n in (8, 16, 32)]
        assert tails[0] > tails[1] > tails[2]
        assert tails[2] < 1e-9


class TestEvalRhoPair:
    def test_terms_decay_at_evaluation_point(self):
        # radius 2w, evaluated at w: the last term shrinks at least like 2^-N
        p = validate_params(0.4, 0.5, 0.4)
        tails = {n: kernel_at(p, PLUS, 0.2, n)[1] for n in (8, 16, 32)}
        assert tails[16] < tails[8] * 2.0**-8
        assert tails[32] < tails[16] * 2.0**-16


class TestGFunction:
    def test_x_convention(self):
        p = validate_params(0.4, 0.5, 0.4)
        s = g_function(p, PLUS, 0.2, 24)
        assert s.x == pytest.approx(0.2 + 0.16, abs=1e-15)

    def test_value_matches_series_difference(self):
        # rho_bar(w) - rho(w): the recursion's terms summed at u = y/w = 1,
        # highest order first
        p = validate_params(0.4, 0.5, 0.4)
        frame, _, t1, tb1 = _start(PLUS.sign * p.delta, PLUS.sign * p.gamma, p.g, p.w, 0.2)
        t2 = tb2 = 0.0
        terms = [(t1, tb1)]
        for n in range(1, 25):
            v1, v2, det, *_ = _step(frame, n, t1, tb1, t2, tb2)
            t2, tb2, t1, tb1 = t1, tb1, v1 / det, v2 / det
            terms.append((t1, tb1))
        rho = rho_bar = 0.0
        for t, tb in reversed(terms):
            rho, rho_bar = rho + t, rho_bar + tb
        assert g_function(p, PLUS, 0.2, 24).value == rho_bar - rho

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
