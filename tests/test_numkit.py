import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from heatflat.numkit import (
    MAX_LOST_DIGITS,
    _GUARD_BITS,
    _imag_beyond_reach,
    _imag_digits_lost,
    _imag_series_terms,
    _imag_top,
    _log_abs_E_beta_imag,
    _theta_digits,
    _walk,
    fit_line,
    gauss_sum,
    log_gamma,
    mittag_type_imaginary,
    series_converged,
    series_tail,
    theta_dps,
    theta_gauss_sum,
    write_csv,
)
from heatflat.holo import CoeffSeq
from oracles import polylog


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
        assert abs(log_gamma(11.0) - math.log(3628800)) < 1e-12 * math.log(3628800)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)
        with pytest.raises(ValueError):
            log_gamma(np.array([1.0, x, 2.0]))

    def test_against_scipy_gammaln(self):
        x = np.concatenate([np.geomspace(1e-3, 1e6, 20001), np.arange(1.0, 2001.0)])
        v = log_gamma(x)
        assert v.dtype == float and v.shape == x.shape
        ref = gammaln(x)
        assert np.all(np.abs(v - ref) <= 4e-15 * np.maximum(1.0, np.abs(ref)))
        assert [log_gamma(xi) for xi in x[::1000]] == v[::1000].tolist()


class TestMittagTypeImaginary:
    def test_beta2_cos_pi_4(self):
        y = np.exp(np.linspace(2 * math.log(15.0), 2 * math.log(25.0), 12))
        fit = mittag_type_imaginary(2.0, y)
        assert abs(fit.type_fitted - math.cos(math.pi / 4.0)) < 0.01

    def test_beta3_highprec_oracle(self):
        # independent oracle: |E_3(iy)| at 200 digits on 10 sample points
        beta = 3.0
        y = np.exp(np.linspace(beta * math.log(16.0), beta * math.log(24.0), 10))
        with mp.workdps(200):
            oracle = [float(mp.log(abs(mp.mpf(1) * sum(
                mp.mpc(0, yi) ** k / mp.gamma(beta * k + 1) for k in range(400)
            )))) for yi in y]
        slope_oracle = np.polyfit(y ** (1.0 / beta), oracle, 1)[0]
        fit = mittag_type_imaginary(beta, y)
        assert abs(fit.type_fitted - slope_oracle) < 1e-6
        assert abs(fit.type_fitted - math.cos(math.pi / 6.0)) < 0.01

    def test_domain_and_range_errors(self):
        with pytest.raises(ValueError):
            mittag_type_imaginary(1.0, np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            mittag_type_imaginary(2.0, np.linspace(1.0, 10.0, 8))  # max^(1/2) < 20
        # y = 1e12 at beta = 2 starts from 2 sqrt(y)/2 + 32 terms, above the cap
        with pytest.raises(ValueError, match="needs 1.00003e.06 series terms at beta = 2"):
            mittag_type_imaginary(2.0, np.geomspace(1e10, 1e12, 5))

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, 7.0])
    def test_reach_rule_agrees_with_the_fit_at_20(self, beta):
        # mittag-type's x_range rule judges the float its grid ends in, as the fit does:
        # within 40 ulps of hi = 20 both refuse the same configs
        for k in range(-40, 41):
            hi = 20.0 + k * math.ulp(20.0)
            rule = _imag_beyond_reach(beta, _imag_top(beta, hi))
            y = np.exp(np.linspace(beta * math.log(15.0), beta * math.log(hi), 4))
            try:
                mittag_type_imaginary(beta, y)
                fit = None
            except ValueError as e:
                fit = str(e)
            assert (rule is None) == (fit is None), hi
            assert fit is None or fit.endswith(rule)

    def test_series_terms_past_the_float_range(self):
        assert _imag_series_terms(2.0, 1e300) == int(1e300) + 32
        assert _imag_series_terms(1.5, sys.float_info.max) == math.inf

    @pytest.mark.parametrize("last", [math.inf, math.nan])
    def test_y_grid_not_finite(self, last):
        # an inf ended in OverflowError, a NaN in "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="y_grid must be finite"):
            mittag_type_imaginary(2.0, np.array([100.0, 200.0, 400.0, 800.0, last]))

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_digit_limit_against_mpmath(self, beta):
        # at the largest x = y^(1/beta) the limit admits, ln|E_beta(iy)| is
        # within 1e-7 relative of a 120-digit sum; just past it the fit refuses
        x = MAX_LOST_DIGITS * math.log(10.0) / (1.0 - math.cos(math.pi / (2.0 * beta)))
        assert _imag_digits_lost(beta, x) == pytest.approx(MAX_LOST_DIGITS, rel=1e-12)
        with mp.workdps(120):
            iy = mp.mpc(0, mp.mpf(x) ** beta)
            ref = float(mp.log(abs(mp.fsum(iy**k / mp.gamma(beta * k + 1)
                                           for k in range(int(4 * x / beta) + 200)))))
        assert abs(_log_abs_E_beta_imag(beta, x**beta) - ref) <= 1e-7 * abs(ref)
        y = np.exp(np.linspace(beta * math.log(0.5 * x), beta * math.log(1.01 * x), 8))
        with pytest.raises(ValueError, match="float64 digits to cancellation"):
            mittag_type_imaginary(beta, y)


def _counterexample_points():
    # holo.interpolation_counterexample's fit of log resid against log n, N = 1000
    n = np.arange(10, 400)
    ratio = np.exp(CoeffSeq.factorial_pair(1000).log_mag[n] - log_gamma(2 * n + 1))
    return np.log(n), np.log(np.abs(ratio - np.sqrt(np.pi / n)))


def _mittag_points(beta):
    # the default mittag-type grid: 12 points of x = y^(1/beta) from 15 to 25
    fit = mittag_type_imaginary(beta, np.exp(np.linspace(beta * math.log(15.0),
                                                         beta * math.log(25.0), 12)))
    return np.array(fit.y_grid) ** (1.0 / beta), np.array(fit.logabs)


def _margin_points():
    # holo._classify's trend over the last three margins, norms growing like 1/eps
    eps = np.array([0.05, 0.025, 0.0125])
    return np.log(1.0 / eps), np.log(2.5 / eps + 0.1)


class TestFitLine:
    @pytest.mark.parametrize("points", [_counterexample_points, lambda: _mittag_points(2.0),
                                        lambda: _mittag_points(3.0), _margin_points],
                             ids=["counterexample", "mittag-type-2", "mittag-type-3", "margins"])
    def test_against_exact_least_squares(self, points):
        # the least-squares line of the same float data in rational arithmetic: the slope
        # within 2 ulp; the intercept and rms within 4 ulp of max|y|, the scale of the
        # residuals y - (slope x + intercept) the two are formed from
        x, y = points()
        X, Y = [Fraction(v) for v in x], [Fraction(v) for v in y]
        xm, ym = sum(X) / len(X), sum(Y) / len(Y)
        slope = (sum((a - xm) * (b - ym) for a, b in zip(X, Y))
                 / sum((a - xm) ** 2 for a in X))
        icpt = ym - slope * xm
        rms = math.sqrt(sum((b - slope * a - icpt) ** 2 for a, b in zip(X, Y)) / len(X))
        got = fit_line(x, y)
        assert all(type(v) is float for v in got)
        scale = np.spacing(np.max(np.abs(y)))
        assert abs(Fraction(got[0]) - slope) <= 2 * Fraction(np.spacing(abs(float(slope))))
        assert abs(Fraction(got[1]) - icpt) <= 4 * Fraction(scale)
        assert abs(got[2] - rms) <= 4 * scale


class TestSeriesTail:
    def test_exact_on_a_geometric_sequence(self):
        # terms 2^-n for n <= 10: the missing part is 2^-10 exactly
        mags = [2.0**-n for n in range(11)]
        assert series_tail(mags) == 2.0**-10
        assert series_converged(math.fsum(mags), series_tail(mags))

    def test_largest_of_the_last_five_ratios(self):
        # ratios 7/8 (one term too far back), then 3/4, 1/2, 1/2, 1/2, 1/2: r = 3/4
        mags = [1.0, 0.875, 0.65625, 0.328125, 0.1640625, 0.08203125, 0.041015625]
        assert series_tail(mags) == 3.0 * 0.041015625

    def test_constant_terms_are_infinite(self):
        assert series_tail([1.0] * 8) == math.inf
        assert not series_converged(8.0, math.inf)

    def test_trailing_zeros_are_zero(self):
        assert series_tail([3.0, 1.0, 0.0, 0.0]) == 0.0
        assert series_tail([0.0]) == 0.0

    def test_a_term_not_finite_is_infinite(self):
        assert series_tail([1.0, 0.5, math.inf, 0.1]) == math.inf
        assert series_tail([1.0, 0.5, math.nan]) == math.inf

    def test_a_single_term_is_infinite(self):
        assert series_tail([0.5]) == math.inf

    def test_non_finite_sum_is_not_converged(self):
        assert not series_converged(math.inf, math.inf)
        assert not series_converged(math.nan, 0.0)


class TestPolylog:
    def test_trivial(self):
        assert polylog(3.7, 0.0) == 0.0
        assert abs(polylog(1.0, 0.5) - math.log(2.0)) < 1e-13

    @pytest.mark.parametrize("zeta", [0.3, -0.5, 0.9, 0.6 + 0.5j, -0.2 - 0.85j])
    def test_s0_geometric(self, zeta):
        got = polylog(0.0, zeta)
        assert abs(got - zeta / (1 - zeta)) < 1e-12 * abs(zeta / (1 - zeta))

    @pytest.mark.parametrize(
        "s,zeta",
        [(0.5, 0.8), (-0.5, 0.95), (2.0, -0.9), (1.5, 0.5 + 0.4j), (-1.5, 0.9995)],
    )
    def test_against_mpmath(self, s, zeta):
        got = polylog(s, zeta)
        want = complex(mp.polylog(s, zeta))
        rtol = 1e-8 if abs(zeta) > 0.999 else 5e-13
        assert abs(got - want) <= rtol * abs(want)

    def test_boundary_blowup_constant(self):
        # Li_{-1/2}(z^2) (1-z)^{3/2} -> Gamma(3/2) 2^{-3/2} as z -> 1 along reals
        target = math.gamma(1.5) * 2.0 ** (-1.5)
        vals = []
        for epsilon in [1e-2, 1e-3, 1e-4]:
            z = 1.0 - epsilon
            vals.append((polylog(-0.5, z * z) * epsilon**1.5).real / target)
        # ratio convergence: gaps to 1 shrink and the last is tight
        gaps = [abs(v - 1.0) for v in vals]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            polylog(1.0, 1.0)
        with pytest.raises(ValueError):
            polylog(1.0, 1.2j)


class TestThetaGaussSum:
    def test_precision_cap_for_library_callers(self):
        # the CLI declares this budget for theta-identity; a library caller meets it here
        with pytest.raises(ValueError, match="n = 1, a = 1e-05 needs 857302 digits of working "
                                             "precision, above the cap of 10000"):
            theta_dps(1, 1e-5)
        assert _theta_digits(10**300, 1e-300) == math.inf  # the exponent passes the float range

    def test_uniform_constant_bound(self):
        r = theta_gauss_sum(100, 2.0, 0.5)
        assert r.c_uniform < 10.0
        assert r.log10_gap <= r.log10_bound + math.log10(10.0)

    def test_direct_summation_oracle(self):
        # n=1, a=1, b=0: direct bilateral sum over |k| <= 40
        r = theta_gauss_sum(1, 1.0, 0.0)
        k = np.arange(-40, 41)
        direct = np.exp(-0.5 * k.astype(float) ** 2).sum()
        assert abs(r.sum - direct) < 1e-14 * direct

    @pytest.mark.parametrize("n,a,b", [(100, 2.0, 0.5), (50, 1.0, 0.25), (200, 3.0, 0.7)])
    def test_poisson_dual_oracle(self, n, a, b):
        # S = sqrt(2 n pi/a) (1 + 2 sum_{m>=1} e^{-2 pi^2 m^2 n/a} cos(2 pi m n b));
        # m <= 3 leaves a relative remainder far below 30 digits
        r = theta_gauss_sum(n, a, b)
        with mp.workdps(30):
            gap = 2 * mp.fsum(mp.exp(-2 * mp.pi**2 * m * m * n / mp.mpf(a))
                              * mp.cos(2 * mp.pi * m * n * mp.mpf(b)) for m in range(1, 4))
            total = float(mp.sqrt(2 * n * mp.pi / mp.mpf(a)) * (1 + gap))
            log10_gap = float(mp.log10(abs(gap)))
        assert abs(r.sum - total) <= 1e-14 * total
        assert abs(r.log10_gap - log10_gap) <= 1e-6

    @pytest.mark.parametrize("n,a,b", [(7, 1.3, 0.21), (25, 0.7, -0.4), (50, 3.1, 1.7)])
    def test_shift_invariance(self, n, a, b):
        r1 = theta_gauss_sum(n, a, b)
        r2 = theta_gauss_sum(n, a, b + 1.0 / n)
        assert abs(r1.sum - r2.sum) < 1e-13 * abs(r1.sum)

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_gauss_sum(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            theta_gauss_sum(5, -1.0, 0.0)


def test_gauss_sum_matches_termwise_exp():
    # the fixed-point walks against one mp.exp per term: a non-integer centre
    # inside the range, a negative centre, a single term; a range wholly in
    # the tail (terms ~ 1e-695) and one wholly below the centre; integer and
    # half-integer centres on asymmetric ranges (the down sum taken from the
    # up walk, which runs past k_hi when the down side is longer); a centre
    # with 2 kc not exact (the theta case n = 200, b = 0.7); a large c that
    # leaves all but a few terms below 2^-P; k_lo = k_hi at the centre; c < 0
    with mp.workdps(50):
        for c, kc, lo, hi in [(0.013, 3.7, -40, 60), (2.5, -0.3, -3, 4), (0.1, 0.0, 5, 5),
                              (1.0, 0.0, 40, 50), (0.05, 10.3, -30, 2),
                              (0.02, 7.0, -20, 60), (0.02, 7.0, -60, 20),
                              (0.02, 7.5, -3, 60), (0.02, -7.5, -60, 3),
                              (3.0 / 400, 200 * mp.mpf(0.7), 100, 180),
                              (300.0, 0.2, -10, 10), (0.2, 2.0, 2, 2), (-0.01, 2.5, -30, 10)]:
            c, kc = mp.mpf(c), mp.mpf(kc)
            want = mp.fsum(mp.exp(-c * (k - kc) ** 2) for k in range(lo, hi + 1))
            assert abs(gauss_sum(c, kc, lo, hi) / want - 1) < mp.mpf(10) ** -45
        assert gauss_sum(0.3, 4.0, 8, 7) == 0  # empty range


@pytest.mark.parametrize("c, jmax, dps", [(0.5, 10, 30), (2.0, 3, 30), (1e-3, 120, 40),
                                          (math.pi**2 * 0.01, 27, 37),
                                          (math.pi**2 * 3.51e-4, 467, 337)])
def test_alternating_walk_against_mpmath(c, jmax, dps):
    # the running sums of (-1)^m e^{-c m^2} at three stops, in fixed point below
    # the first term, within jmax^2/2 + 1 units of 2^-p of a direct sum at
    # twice the digits; the last two are the small-t eigen kernel's walks at
    # t = 0.01 and at the edge of the normal range, where k(t) is 1e-308
    stops = (1, jmax // 2, jmax + 1)
    with mp.workdps(dps):
        c = mp.mpf(c)
        p = mp.mp.prec + _GUARD_BITS
        with mp.workprec(p):
            sums = _walk(c, 0, stops, p, alternating=True)
        with mp.workdps(2 * dps):
            for n, s in zip(stops, sums):
                want = mp.fsum((-1) ** m * mp.exp(-c * m**2) for m in range(n))
                assert abs(mp.ldexp(s, -p) - want) <= mp.ldexp(jmax**2 / 2 + 1, -p)


@pytest.mark.parametrize("kind, n, a, b", [
    ("laplace", 5000, 2.0, 0.5), ("theta", 100, 2.0, 0.5), ("theta", 50, 1.0, 0.25),
    ("theta", 200, 3.0, 0.7)])
def test_gauss_sum_loses_at_most_two_digits(kind, n, a, b):
    # the workloads' sums, c = a/(2n) and kc = n b, at their working precision
    # against the same sums at 2 dps + 50 digits: discrete Laplace for
    # u = (x - 1/2)^2 over [0, n], theta over k0 +- halfw as in theta_gauss_sum
    if kind == "laplace":
        dps, lo, hi = int(0.25 * n / math.log(10)) + 40, 0, n
    else:
        dps = theta_dps(n, a)
        halfw = int(math.sqrt(2 * n * (dps + 20) * math.log(10) / a)) + 2
        lo, hi = round(n * b) - halfw, round(n * b) + halfw
    sums = []
    for prec in (dps, 2 * dps + 50):
        with mp.workdps(prec):
            sums.append(gauss_sum(mp.mpf(a) / (2 * n), n * mp.mpf(b), lo, hi))
    with mp.workdps(2 * dps + 50):
        assert abs(sums[0] / sums[1] - 1) <= mp.mpf(10) ** (2 - dps)


def test_write_csv_matches_per_value_formatting(tmp_path):
    # the block %-format gives the bytes of formatting each value on its own
    def per_value(header, rows):
        return ",".join(header) + "\n" + "".join(
            ",".join(f"{float(v):.17g}" if isinstance(v, (int, float, np.floating)) else str(v)
                     for v in row) + "\n" for row in rows)

    vals = [-0.0, math.nan, math.inf, -math.inf, 1e-320, True, False, 7, -(2**60),
            np.int64(-3), np.float64(1.0 / 3.0), np.float32(0.1), np.bool_(True), "a;b", "",
            None]
    rows = [tuple(vals[i:i + 4]) for i in range(0, len(vals), 4)]
    rows += [(v,) for v in vals] + [(1.5, "x"), ("x", 1.5), ()]
    rows *= 20  # several blocks
    header = ["c0", "c1", "c2", "c3"]
    write_csv(tmp_path / "block.csv", header, iter(rows))
    assert (tmp_path / "block.csv").read_text() == per_value(header, rows)
    write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_text() == "c0,c1,c2,c3\n"


def test_write_csv_array_matches_per_value_formatting(tmp_path):
    # a 2-D array is written as the rows of its numpy scalars would be, although
    # tolist hands the format Python int and bool, which %.17g would write as numbers
    def per_value(header, rows):
        return ",".join(header) + "\n" + "".join(
            ",".join(f"{float(v):.17g}" if isinstance(v, (int, float, np.floating)) else str(v)
                     for v in row) + "\n" for row in rows)

    floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1.0 / 3.0, 1e300, 0.1]
    ints = [0, -3, 2**53 + 1, -(2**63), 2**63 - 1]
    header = ["c0", "c1", "c2", "c3"]
    for n in (1, 257):
        pick = lambda vals, k: [vals[(i + k) % len(vals)] for i in range(n)]
        columns = {"float": np.array([pick(floats, k) for k in range(4)]).T}
        with np.errstate(over="ignore"):  # 1e300 becomes inf
            columns["float32"] = columns["float"].astype(np.float32)
        columns |= {
            "int64": np.array([pick(ints, k) for k in range(4)], dtype=np.int64).T,
            "bool": np.array([pick([True, False, False], k) for k in range(4)]).T,
        }
        # an object table: float, int64 and bool columns, and one of floats and ""
        mixed = np.empty((n, 4), dtype=object)
        mixed[:, 0] = list(columns["float"][:, 0])
        mixed[:, 1] = list(columns["int64"][:, 0])
        mixed[:, 2] = list(columns["bool"][:, 0])
        mixed[:, 3] = pick([1.5, "", -0.0, ""], 0)
        columns["object"] = mixed
        for name, table in columns.items():
            path = tmp_path / f"{name}_{n}.csv"
            write_csv(path, header, table)
            assert path.read_text() == per_value(header, list(table)), (name, n)
    write_csv(tmp_path / "empty.csv", header, np.empty((0, 4)))
    assert (tmp_path / "empty.csv").read_text() == "c0,c1,c2,c3\n"
