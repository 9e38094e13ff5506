"""Tranche payoffs, European pricing via the bond decomposition, STCDO
values, and par spreads, checked against closed forms where they exist."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import poisson

import levycdo.hjm
import levycdo.pricing
from levycdo.errors import (
    ConfigError,
    DegenerateAnnuityError,
    DomainError,
    GridError,
    QuadratureError,
    StateError,
)
from levycdo.families import ladder_initial_spread
from levycdo.hjm import ForwardSurface, bond_price
from levycdo.pricing import (
    StcdoQuote,
    TranchePayoff,
    _piecewise_quad,
    par_spread,
    price_european,
    stcdo_value,
)

from conftest import make_ladder_surface


def flat_surface(rate: float, horizon: float = 3.0,
                 barriers=(0.3, 0.55, 1.0)) -> ForwardSurface:
    mats = np.linspace(0.0, horizon, 49)
    vals = np.full((len(mats), len(barriers)), rate)
    return ForwardSurface(maturities=mats, barriers=np.asarray(barriers),
                          values=vals, t=0.0)


def poisson_ladder_surface(rate: float = 0.5, mark: float = 0.17,
                           n_nodes: int = 161) -> ForwardSurface:
    """Deterministic risk-free 2% plus the hazard-ladder credit spread.

    With zero forward volatility the time-0 bond prices have the closed
    form exp(-0.02 T) * P(Poisson(rate*T) <= floor(x/mark)), up to the
    trapezoid discretization of the spread curve on the maturity grid.
    """
    spread = ladder_initial_spread(rate, mark)

    def f0(T, x):
        return 0.02 + spread(T, x)

    xgrid = np.array([0.17, 0.2, 0.34, 0.51, 0.6, 0.68, 0.85, 1.0])
    return ForwardSurface.from_function(
        f0, np.linspace(0.0, 2.5, n_nodes), xgrid, x_interp="left"
    )


STANDARD_TRANCHE = TranchePayoff(x1=0.2, x2=0.6,
                                 coupon_dates=(0.5, 1.0, 1.5, 2.0))


class TestTranchePayoff:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TranchePayoff(x1=0.6, x2=0.2, coupon_dates=(1.0,))
        with pytest.raises(ConfigError):
            TranchePayoff(x1=0.2, x2=1.2, coupon_dates=(1.0,))
        with pytest.raises(ConfigError):
            TranchePayoff(x1=0.2, x2=0.6, coupon_dates=())
        with pytest.raises(ConfigError):
            TranchePayoff(x1=0.2, x2=0.6, coupon_dates=(1.0, 1.0))
        with pytest.raises(ConfigError):
            TranchePayoff(x1=0.2, x2=0.6, coupon_dates=(0.5, 1.0),
                          effective_date=0.5)

    def test_notional_endpoints(self):
        tr = STANDARD_TRANCHE
        assert tr.H(0.0) == pytest.approx(tr.width)
        assert tr.H(1.0) == 0.0
        assert tr.width == pytest.approx(0.4)
        assert tr.kinks == (0.2, 0.6)

    @given(st.floats(0.0, 1.0))
    def test_notional_is_survival_integral(self, x):
        # H(x) equals the measure of barriers y in (x1, x2] with x <= y.
        tr = STANDARD_TRANCHE
        val, _ = quad(lambda y: 1.0 if x <= y else 0.0, tr.x1, tr.x2,
                      points=[x] if tr.x1 < x < tr.x2 else None, limit=100)
        assert tr.H(x) == pytest.approx(val, abs=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_notional_non_increasing(self, a, b):
        lo, hi = sorted((a, b))
        tr = STANDARD_TRANCHE
        # up to one rounding ulp from the clipped subtractions
        assert tr.H(lo) >= tr.H(hi) - 1e-15


class TestPriceEuropean:
    def test_constant_payoff_prices_riskfree_bond(self, ladder_surface):
        for surf in (flat_surface(0.02), ladder_surface):
            want = bond_price(surf, 0.0, 0.0, 1.5, 1.0).price
            got = price_european(surf, 0.0, 0.0, 1.5,
                                 h=lambda y: 1.0, h_prime=lambda y: 0.0)
            assert got == pytest.approx(want, rel=1e-12)

    def test_linear_payoff_flat_surface(self):
        # On a flat default-free surface every (T, x)-bond equals the
        # risk-free bond, so the linear payoff prices to zero.
        surf = flat_surface(0.02)
        got = price_european(surf, 0.0, 0.0, 1.0,
                             h=lambda y: y, h_prime=lambda y: 1.0)
        assert got == pytest.approx(0.0, abs=1e-13)

    def test_linear_payoff_after_losses(self):
        # With loss level ell on a flat surface, barriers below ell are
        # dead, so the decomposition gives ell * P(t, T).
        surf = flat_surface(0.02)
        ell = 0.4
        got = price_european(surf, ell, 0.0, 1.0,
                             h=lambda y: y, h_prime=lambda y: 1.0)
        assert got == pytest.approx(ell * math.exp(-0.02), rel=1e-12)

    def test_tranche_payoff_equals_barrier_integral(self, ladder_surface):
        # H(1) = 0 and H' = -1 inside (x1, x2): the decomposition reduces
        # to the integral of bond prices across the tranche.
        tr = STANDARD_TRANCHE
        got = price_european(ladder_surface, 0.0, 0.0, 2.0,
                             h=tr.H, h_prime=tr.H_prime, kinks=tr.kinks)
        pieces = [tr.x1, 0.3, 0.55, tr.x2]
        want = sum(
            quad(lambda y: bond_price(ladder_surface, 0.0, 0.0, 2.0, y).price,
                 lo, hi, epsabs=1e-12, limit=200)[0]
            for lo, hi in zip(pieces, pieces[1:])
        )
        assert got == pytest.approx(want, abs=1e-9)

    def test_undeclared_oscillation_raises(self):
        surf = flat_surface(0.02)
        with pytest.raises(QuadratureError):
            price_european(
                surf, 0.0, 0.0, 1.0, h=lambda y: 1.0,
                h_prime=lambda y: math.sin(1.0 / (abs(y - 0.47) + 1e-12)),
            )


class TestStcdoValue:
    def test_zero_spread_zero_rates(self):
        # Flat f = 0 with no defaults: the terminal bond, the initial bond,
        # and the accrual cancel exactly.
        quote = stcdo_value(flat_surface(0.0), 0.0, 0.0, STANDARD_TRANCHE,
                            spread=0.0)
        assert quote.value == pytest.approx(0.0, abs=1e-14)
        assert quote.annuity == pytest.approx(
            len(STANDARD_TRANCHE.coupon_dates) * STANDARD_TRANCHE.width,
            rel=1e-12,
        )

    def test_zero_spread_deterministic_rates(self):
        # Any default-free deterministic curve telescopes to zero value:
        # d/du P(t, u) = -f(t, u) P(t, u) makes the accrual rebuild the
        # initial-minus-terminal difference.
        quote = stcdo_value(flat_surface(0.02), 0.0, 0.0, STANDARD_TRANCHE,
                            spread=0.0)
        assert quote.value == pytest.approx(0.0, abs=1e-12)

    def test_affine_in_spread(self, ladder_surface):
        spreads = np.array([-0.01, 0.0, 0.01, 0.02, 0.05])
        quotes = [stcdo_value(ladder_surface, 0.0, 0.0, STANDARD_TRANCHE, S)
                  for S in spreads]
        values = np.array([q.value for q in quotes])
        coeffs = np.polyfit(spreads, values, 1)
        residual = np.max(np.abs(np.polyval(coeffs, spreads) - values))
        assert residual < 1e-12
        # the slope is the annuity and the intercept the protection value
        assert coeffs[0] == pytest.approx(quotes[0].annuity, rel=1e-10)
        assert coeffs[1] == pytest.approx(quotes[0].protection_value,
                                          abs=1e-12)
        for q, S in zip(quotes, spreads):
            assert q.payment_leg == pytest.approx(S * q.annuity, rel=1e-12)
            assert q.value == pytest.approx(q.payment_leg + q.protection_value,
                                            rel=1e-12)

    def test_dates_beyond_horizon_rejected(self):
        surf = flat_surface(0.02, horizon=1.0)
        with pytest.raises(ConfigError):
            stcdo_value(surf, 0.0, 0.0, STANDARD_TRANCHE, spread=0.01)

    def test_effective_date_before_valuation_rejected(self):
        tr = TranchePayoff(x1=0.2, x2=0.6, coupon_dates=(1.0, 1.5),
                           effective_date=0.25)
        with pytest.raises(ConfigError):
            stcdo_value(flat_surface(0.02), 0.0, 0.5, tr, spread=0.0)

    def test_model_consistency_flag_passthrough(self):
        quote = stcdo_value(flat_surface(0.02), 0.0, 0.0, STANDARD_TRANCHE,
                            spread=0.0, model_consistent=False)
        assert isinstance(quote, StcdoQuote)
        assert not quote.model_consistent
        assert stcdo_value(flat_surface(0.02), 0.0, 0.0, STANDARD_TRANCHE,
                           spread=0.0).model_consistent


class TestParSpread:
    def test_default_free_zero_rates(self):
        assert par_spread(flat_surface(0.0), 0.0, 0.0,
                          STANDARD_TRANCHE) == pytest.approx(0.0, abs=1e-14)

    def test_replug_gives_zero_value(self, ladder_surface):
        star = par_spread(ladder_surface, 0.0, 0.0, STANDARD_TRANCHE)
        quote = stcdo_value(ladder_surface, 0.0, 0.0, STANDARD_TRANCHE, star)
        assert abs(quote.value) < 1e-10

    def test_wiped_out_tranche_raises(self, ladder_surface):
        # every barrier in (x1, x2] sits below the loss level: annuity 0
        with pytest.raises(DegenerateAnnuityError):
            par_spread(ladder_surface, 0.7, 0.0, STANDARD_TRANCHE)

    def test_monotone_in_attachment_points(self):
        surf = poisson_ladder_surface()
        dates = (0.5, 1.0, 1.5, 2.0)
        lows = [par_spread(surf, 0.0, 0.0,
                           TranchePayoff(x1=x1, x2=0.6, coupon_dates=dates))
                for x1 in (0.2, 0.34, 0.51)]
        assert lows[0] > lows[1] > lows[2]
        highs = [par_spread(surf, 0.0, 0.0,
                            TranchePayoff(x1=0.2, x2=x2, coupon_dates=dates))
                 for x2 in (0.4, 0.6, 0.8)]
        assert highs[0] > highs[1] > highs[2]

    def test_monotone_in_loss_rate(self):
        # stochastically larger losses raise the cost of protection
        stars = [par_spread(poisson_ladder_surface(rate=r), 0.0, 0.0,
                            STANDARD_TRANCHE) for r in (0.3, 0.5, 0.8)]
        assert stars[0] < stars[1] < stars[2]


class TestPoissonLadderOracle:
    """Zero-volatility hazard-ladder scenario against an independently
    coded Poisson-sum closed form.

    The surface tabulates the spread curve on a step-1/64 maturity grid,
    so the comparison tolerance carries the O(h^2) trapezoid error of
    that input data (measured 5e-7 at this density, shrinking at 4x per
    grid refinement); the quadrature layer itself reports ~1e-15.
    """

    RF, RATE, MARK = 0.02, 0.5, 0.17

    def oracle_legs(self):
        tr = STANDARD_TRANCHE
        edges = [tr.x1, 0.34, 0.51, tr.x2]
        segs = [(hi - lo, int(np.floor(lo / self.MARK + 1e-9)))
                for lo, hi in zip(edges, edges[1:])]

        def disc(T):
            return math.exp(-self.RF * T)

        def q(T, k):
            return float(poisson.cdf(k, self.RATE * T))

        def seg_sum(f):
            return sum(w * f(k) for w, k in segs)

        Tn = tr.coupon_dates[-1]
        annuity = seg_sum(
            lambda k: sum(disc(Ti) * q(Ti, k) for Ti in tr.coupon_dates))
        terminal = seg_sum(lambda k: disc(Tn) * q(Tn, k))
        initial = tr.width
        accrual = seg_sum(
            lambda k: quad(lambda u: self.RF * disc(u) * q(u, k), 0.0, Tn,
                           epsabs=1e-13, limit=200)[0])
        return annuity, terminal - initial + accrual, accrual

    def test_against_closed_form(self):
        annuity, protection, accrual = self.oracle_legs()
        # frozen from the generating script; guards the oracle code itself
        assert annuity == pytest.approx(1.4604409473521409, rel=1e-12)
        assert protection == pytest.approx(-0.051033877062587205, rel=1e-12)

        surf = poisson_ladder_surface()
        quote = stcdo_value(surf, 0.0, 0.0, STANDARD_TRANCHE, spread=0.01)
        assert quote.annuity == pytest.approx(annuity, abs=2e-6)
        assert quote.protection_value == pytest.approx(protection, abs=1e-6)
        assert quote.accrual_integral == pytest.approx(accrual, abs=1e-6)
        assert quote.value == pytest.approx(0.01 * annuity + protection,
                                            abs=2e-6)
        star = par_spread(surf, 0.0, 0.0, STANDARD_TRANCHE)
        assert star == pytest.approx(-protection / annuity, abs=1e-6)
        assert star == pytest.approx(0.034944156526913607, abs=1e-6)


class TestQuadratureLayer:
    def test_error_estimate_bounds_refinement(self):
        # halving the tolerance moves the result by less than the estimate
        def f(y):
            return math.exp(math.sin(3.0 * y))

        v1, e1 = _piecewise_quad(f, 0.0, 1.0, [0.3, 0.55], epsabs=1e-8)
        v2, _ = _piecewise_quad(f, 0.0, 1.0, [0.3, 0.55], epsabs=5e-9)
        assert abs(v1 - v2) < max(e1, 1e-15)

    def test_splits_skip_knots_outside_range(self):
        v, _ = _piecewise_quad(lambda y: 1.0, 0.2, 0.8, [0.1, 0.5, 0.9])
        assert v == pytest.approx(0.6, rel=1e-12)


# ----- the table pricers against the former scalar-bond pricers -------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def _former_accrual_inner(surface, ell, t, T0, Tn, y):
    """Reference: the former accrual integrand, int_{T0}^{Tn} f(t,u,1)
    P(t,u,y) du by six Gauss-Legendre nodes per grid cell, rebuilt from
    ``_live_curve`` at every barrier query."""
    if Tn - T0 <= 1e-14 or ell > y:
        return 0.0
    knots, fy = surface._live_curve(surface.barrier_weights(y))
    _, f1 = surface._live_curve(surface.barrier_weights(1.0))
    gpts = np.unique(np.concatenate([knots[knots < Tn - 1e-14], [T0, Tn]]))
    fyv = np.interp(gpts, knots, fy)
    f1v = np.interp(gpts, knots, f1)
    h = np.diff(gpts)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (fyv[1:] + fyv[:-1]) * h)])
    live = gpts[:-1] >= T0 - 1e-14
    ha = h[live]
    safe = np.where(ha > 0.0, ha, 1.0)
    fa = fyv[:-1][live]
    slope_y = (fyv[1:][live] - fa) / safe
    f1a = f1v[:-1][live]
    slope_1 = (f1v[1:][live] - f1a) / safe
    offs = np.outer(ha, 0.5 * (_GL_NODES + 1.0))
    expo = cum[:-1][live][:, None] + fa[:, None] * offs \
        + 0.5 * slope_y[:, None] * offs ** 2
    vals = (f1a[:, None] + slope_1[:, None] * offs) * np.exp(-expo)
    return float(np.sum((vals @ _GL_WEIGHTS) * 0.5 * ha))


def _former_stcdo_legs(surface, ell, t, tranche):
    """Reference: (annuity, protection, accrual) with one ``bond_price``
    call per coupon date and barrier query, as the pricer did before it
    tabulated the maturity integrals."""
    T0 = t if tranche.effective_date is None else float(tranche.effective_date)
    dates = tranche.coupon_dates
    knots = list(surface.barriers) + [ell]

    def annuity_fn(y):
        return sum(bond_price(surface, ell, t, Ti, y).price for Ti in dates)

    def static_fn(y):
        return (bond_price(surface, ell, t, dates[-1], y).price
                - bond_price(surface, ell, t, T0, y).price)

    def accrual_fn(y):
        return _former_accrual_inner(surface, ell, t, T0, dates[-1], y)

    annuity, _ = _piecewise_quad(annuity_fn, tranche.x1, tranche.x2, knots)
    static, _ = _piecewise_quad(static_fn, tranche.x1, tranche.x2, knots)
    accrual, _ = _piecewise_quad(accrual_fn, tranche.x1, tranche.x2, knots)
    return annuity, static + accrual, accrual


def _former_price_european(surface, ell, t, T, h, h_prime, kinks):
    riskfree = bond_price(surface, ell, t, T, 1.0).price
    knots = list(surface.barriers) + list(kinks) + [ell]

    def integrand(y):
        return float(h_prime(y)) * bond_price(surface, ell, t, T, y).price

    integral, _ = _piecewise_quad(integrand, 0.0, 1.0, knots)
    return float(h(1.0)) * riskfree - integral


TABLE_TOL = 1e-13
QUARTERLY_2Y = (0.5, 1.0, 1.5, 2.0)


def _table_cases():
    """(surface, loss level, valuation time, tranche) per case."""
    linear = make_ladder_surface()
    return {
        "linear": (linear, 0.0, 0.0, STANDARD_TRANCHE),
        "left": (make_ladder_surface(x_interp="left"), 0.0, 0.0,
                 STANDARD_TRANCHE),
        "below_lowest_barrier": (
            linear, 0.0, 0.0, TranchePayoff(0.03, 0.07, QUARTERLY_2Y)),
        "loss_inside_tranche": (linear, 0.4, 0.0, STANDARD_TRANCHE),
        # off-knot effective and coupon dates
        "effective_after_t": (
            linear, 0.0, 0.0,
            TranchePayoff(0.2, 0.6, (0.55, 1.1, 1.65, 2.2),
                          effective_date=0.3)),
        # 0.37 lies between the nodes 0.3125 and 0.375
        "off_grid_anchor": (dataclasses.replace(linear, t=0.37), 0.17, 0.37,
                            STANDARD_TRANCHE),
    }


@pytest.mark.parametrize("case", sorted(_table_cases()))
def test_table_pricers_match_scalar_bond_pricers(case):
    surface, ell, t, tranche = _table_cases()[case]
    annuity, protection, accrual = _former_stcdo_legs(surface, ell, t,
                                                      tranche)
    quote = stcdo_value(surface, ell, t, tranche, spread=0.01)
    assert abs(quote.annuity - annuity) <= TABLE_TOL
    assert abs(quote.protection_value - protection) <= TABLE_TOL
    assert abs(quote.accrual_integral - accrual) <= TABLE_TOL
    assert abs(quote.value - (0.01 * annuity + protection)) <= TABLE_TOL
    T = tranche.coupon_dates[-1]
    want = _former_price_european(surface, ell, t, T, tranche.H,
                                  tranche.H_prime, tranche.kinks)
    got = price_european(surface, ell, t, T, h=tranche.H,
                         h_prime=tranche.H_prime, kinks=tranche.kinks)
    assert abs(got - want) <= TABLE_TOL


def test_column_integrals_mix_to_maturity_integral():
    surface = dataclasses.replace(make_ladder_surface(), t=0.37)
    dates = np.array([0.37, 0.375, 0.4, 1.0, 1.23, 3.0])
    F, I = surface.column_integrals(dates)
    assert I.shape == F.shape == (len(dates), len(surface.barriers))
    assert np.all(I[0] == 0.0)
    for y in (0.1, 0.3, 0.42, 1.0):
        idx, wts = surface.barrier_weights(y)
        for k, T in enumerate(dates):
            mixed = sum(w * I[k, j] for j, w in zip(idx, wts))
            assert mixed == pytest.approx(
                surface.maturity_integral(0.37, T, y), rel=1e-14, abs=1e-16)
    with pytest.raises(DomainError):
        surface.column_integrals([0.3])
    with pytest.raises(GridError):
        surface.column_integrals([3.5])


class TestArgumentChecks:
    """Errors that came from ``bond_price`` inside the first quadrature
    call are raised before any quadrature starts."""

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("quadrature started before the check")

        monkeypatch.setattr(levycdo.pricing, "_piecewise_quad", fail)

    @staticmethod
    def _calls(surface, ell, t, tranche, T):
        """The three entry points, each as a thunk."""
        return (
            lambda: stcdo_value(surface, ell, t, tranche, 0.01),
            lambda: par_spread(surface, ell, t, tranche),
            lambda: price_european(surface, ell, t, T, h=tranche.H,
                                   h_prime=tranche.H_prime,
                                   kinks=tranche.kinks),
        )

    def test_surface_not_observed_at_valuation_time(self):
        tranche = TranchePayoff(0.2, 0.6, (1.0, 1.5))
        for call in self._calls(flat_surface(0.02), 0.0, 0.5, tranche, 1.5):
            with pytest.raises(StateError):
                call()

    @pytest.mark.parametrize("ell", [-0.1, 1.2])
    def test_loss_level_outside_unit_interval(self, ell):
        for call in self._calls(flat_surface(0.02), ell, 0.0,
                                STANDARD_TRANCHE, 2.0):
            with pytest.raises(DomainError):
                call()

    def test_dates_before_valuation_time(self):
        later = dataclasses.replace(flat_surface(0.02), t=0.5)
        tranche = TranchePayoff(0.2, 0.6, (0.25, 1.0))
        for call in self._calls(later, 0.0, 0.5, tranche, 0.25):
            with pytest.raises(DomainError):
                call()

    def test_maturity_beyond_grid_span(self):
        with pytest.raises(GridError):
            self._calls(flat_surface(0.02), 0.0, 0.0, STANDARD_TRANCHE,
                        3.5)[2]()


def test_quote_builds_one_table_and_prices_no_scalar_bond(monkeypatch,
                                                          ladder_surface):
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(ForwardSurface, "column_integrals")
    count(ForwardSurface, "maturity_integral")
    count(levycdo.hjm, "bond_price")
    count(levycdo.pricing, "bond_price")
    stcdo_value(ladder_surface, 0.0, 0.0, STANDARD_TRANCHE, 0.01)
    assert calls == {"column_integrals": 1}
    price_european(ladder_surface, 0.0, 0.0, 2.0, h=STANDARD_TRANCHE.H,
                   h_prime=STANDARD_TRANCHE.H_prime,
                   kinks=STANDARD_TRANCHE.kinks)
    assert calls == {"column_integrals": 2}
