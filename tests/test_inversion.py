import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import retrialsi as rs
from retrialsi import inversion, laplace
from retrialsi.errors import AccuracyError, DomainError, NumericalError

# Closed-form transform pairs used as oracles.  The tolerances are the
# measured double-precision accuracy of the K = 14 evaluation (truncation
# dominated), not wishes: the worst case over t in {0.1, 1, 10} is ~5e-5 on
# the exponential pairs and ~4e-6 on the ramp.
PAIRS = {
    "constant": (lambda s: 1.0 / s, lambda t: 1.0),
    "ramp": (lambda s: 1.0 / s ** 2, lambda t: t),
    "exp_decay": (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
    "exp_approach": (lambda s: 1.0 / (s * (s + 1.0)), lambda t: 1.0 - math.exp(-t)),
}


class TestCoefficients:
    def test_order_two_by_hand(self):
        w = rs.stehfest_coefficients(2)
        np.testing.assert_array_equal(w.values, [2.0, -2.0])

    @pytest.mark.parametrize("order", [2, 8, 14, 20])
    def test_weights_sum_to_zero(self, order):
        w = rs.stehfest_coefficients(order)
        scale = np.abs(w.values).max()
        assert abs(w.values.sum()) <= 1e-6 * scale
        # exact identity holds at extended precision too
        assert abs(float(w.values_extended.sum())) <= 1e-12 * scale

    def test_alternating_growth(self):
        w = rs.stehfest_coefficients(14)
        assert np.abs(w.values).max() > 1e8  # cancellation is why precision matters

    @pytest.mark.parametrize("order", [1, 3, 0, 22, -2])
    def test_invalid_order(self, order):
        with pytest.raises(DomainError):
            rs.stehfest_coefficients(order)


class TestInvertAt:
    def test_constant_is_exact(self):
        w = rs.stehfest_coefficients(14)
        for t in (0.1, 1.0, 10.0):
            assert abs(rs.invert_at(PAIRS["constant"][0], t, w) - 1.0) <= 1e-8

    def test_ramp(self):
        w = rs.stehfest_coefficients(14)
        assert abs(rs.invert_at(PAIRS["ramp"][0], 2.5, w) - 2.5) <= 2e-6

    def test_exponential(self):
        w = rs.stehfest_coefficients(14)
        got = rs.invert_at(PAIRS["exp_decay"][0], 1.0, w)
        assert abs(got - math.exp(-1.0)) <= 2e-6

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_known_pairs_at_measured_accuracy(self, name):
        transform, exact = PAIRS[name]
        w = rs.stehfest_coefficients(14)
        for t in (0.1, 1.0, 10.0):
            assert abs(rs.invert_at(transform, t, w) - exact(t)) <= 5e-5

    def test_accuracy_improves_with_order(self):
        # suite-level: the K = 14 worst error beats the K = 8 worst error
        def suite_error(order):
            w = rs.stehfest_coefficients(order)
            return max(
                abs(rs.invert_at(tr, t, w) - exact(t))
                for tr, exact in PAIRS.values()
                for t in (0.1, 1.0, 10.0)
            )
        assert suite_error(14) <= suite_error(8)

    def test_bad_time(self):
        w = rs.stehfest_coefficients(14)
        with pytest.raises(DomainError):
            rs.invert_at(PAIRS["constant"][0], 0.0, w)
        with pytest.raises(DomainError):
            rs.invert_at(PAIRS["constant"][0], -1.0, w)


class TestTransientViaIlt:
    def test_short_time_recovers_initial_state(self, wellmixed_generator, wellmixed_p0):
        # exact distance from p0 is 1 - exp(-alpha t), so t must be < 2e-4
        # for a 1e-3 entrywise bound to be possible at all
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [1e-4])
        assert np.abs(sol.vectors[0].values - wellmixed_p0.values).max() <= 1e-3

    def test_matches_uniformization(self, wellmixed_generator, wellmixed_p0):
        times = [0.5, 2.0, 5.0, 10.0]
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, times)
        for t, vec in zip(sol.times, sol.vectors):
            oracle = rs.uniformize(wellmixed_generator, wellmixed_p0, float(t))
            assert np.abs(vec.values - oracle.values).max() <= 1e-4

    def test_mass_conserved_before_renormalization(self, wellmixed_generator, wellmixed_p0):
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [0.5, 5.0, 20.0])
        assert max(abs(d) for d in sol.metadata["raw_sum_deviation"]) <= 1e-6
        for vec in sol.vectors:
            assert abs(vec.total - 1.0) <= 1e-12

    def test_negative_excursions_stay_in_band(self, wellmixed_generator, wellmixed_p0):
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [0.5, 2.0, 20.0])
        for vec, exc in zip(sol.vectors, sol.metadata["band_excursion"]):
            assert vec.values.min() >= -1e-4
            assert exc <= 1e-4

    def test_low_order_violates_band(self, wellmixed_generator, wellmixed_p0):
        with pytest.raises(AccuracyError) as err:
            rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [0.5], order=4)
        assert err.value.t == 0.5
        assert err.value.state is not None

    def test_low_order_names_first_failing_time_of_a_grid(self, wellmixed_generator, wellmixed_p0):
        # at K = 4, t = 2 and 3 stay in the band and 5, 6 and 8 stray, 6 the furthest
        times = [2.0, 3.0, 5.0, 6.0, 8.0]
        single = []
        for t in times:
            try:
                rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [t], order=4)
            except AccuracyError as exc:
                single.append(exc)
        assert [exc.t for exc in single] == [5.0, 6.0, 8.0]
        with pytest.raises(AccuracyError) as err:
            rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, times, order=4)
        first = single[0]
        assert (err.value.t, err.value.state, str(err.value)) == (first.t, first.state, str(first))

    def test_grid_metadata_has_one_float_per_time(self, wellmixed_generator, wellmixed_p0):
        # the bench tracer takes max() of these lists
        times = [0.5, 2.0, 5.0, 10.0]
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, times)
        assert type(sol.metadata["abscissae"]) is int
        for key in ("band_excursion", "raw_sum_deviation"):
            values = sol.metadata[key]
            assert type(values) is list and len(values) == len(times), key
            assert all(type(v) is float for v in values), key

    def test_grid_abscissae_ascend_at_each_ratios_first_pair(self, wellmixed_generator, wellmixed_p0,
                                                            monkeypatch):
        # equal ratios k / t can give abscissae k ln2 / t an ulp apart on this grid: each must
        # be computed from the first of its pairs (k, t) in grid order
        solved = []

        def capture(gen, shifts, rhs):
            solved.append(shifts)
            return laplace.solve_resolvents(gen, shifts, rhs)

        monkeypatch.setattr(inversion, "solve_resolvents", capture)
        times = np.arange(1, 19) * 0.5
        rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, times)
        (shifts,) = solved
        assert shifts.dtype == np.longdouble and np.all(np.diff(shifts) > 0)
        ln2 = np.log(np.longdouble(2.0))
        first = {}
        for t in times.tolist():
            for k in range(1, 21):
                first.setdefault(Fraction(k) / Fraction(t), np.longdouble(k) * ln2 / np.longdouble(t))
        np.testing.assert_array_equal(shifts, [first[ratio] for ratio in sorted(first)])

    def test_metadata(self, wellmixed_generator, wellmixed_p0):
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [1.0], order=16)
        assert sol.metadata["order"] == 16
        assert sol.metadata["method"] == "ilt"

    def test_extended_operator_built_once(self, wellmixed_config, wellmixed_p0, monkeypatch):
        # the K = 20 resolvent systems of one time point share one longdouble Q
        built = []
        build = rs.GeneratorMatrix.matrix_extended.func
        counted = functools.cached_property(lambda gen: built.append(gen) or build(gen))
        counted.__set_name__(rs.GeneratorMatrix, "matrix_extended")
        monkeypatch.setattr(rs.GeneratorMatrix, "matrix_extended", counted)
        gen = rs.build_generator(wellmixed_config, rs.rate_function(wellmixed_config))
        rs.transient_via_ilt(gen, wellmixed_p0, [2.0], order=20)
        assert len(built) == 1

    def test_grid_abscissae_deduplicated_by_exact_ratio(self, wellmixed_generator, wellmixed_p0):
        # k ln2 / t repeats across the 0.5..9 grid: 228 of its 360 pairs (k, t) are distinct
        times = np.arange(1, 19) * 0.5
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, times)
        assert sol.metadata["abscissae"] == 228
        one_by_one = [rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [t]).vectors[0]
                      for t in times[[0, 7, 17]]]
        # equal ratios may round to abscissae an ulp apart, which the ~1e12 weights
        # turn into ~1e-9 differences
        for vec, single in zip([sol.vectors[k] for k in (0, 7, 17)], one_by_one):
            assert np.abs(vec.values - single.values).max() <= 1e-8

    def test_chunked_sweep_matches_one_batch(self, wellmixed_generator, wellmixed_p0, monkeypatch):
        times = [0.5, 1.0, 1.5, 4.0]
        whole = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, times)
        monkeypatch.setattr(laplace, "SWEEP_ENTRIES", 7 * wellmixed_generator.dim)
        chunked = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, times)
        # the terms of one t arrive in a different order; at ~1e12 weights that
        # moves the result by ~1e-9
        for a, b in zip(whole.vectors, chunked.vectors):
            assert np.abs(a.values - b.values).max() <= 1e-8

    def test_output_independent_of_sweep_chunking(self, wellmixed_generator, wellmixed_p0, monkeypatch):
        # abscissae solved in ascending order reach every row's accumulator in k order, whatever the chunks
        times = np.arange(1, 19) * 0.5

        def solved(entries):
            monkeypatch.setattr(laplace, "SWEEP_ENTRIES", entries)
            return [v.values for v in rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, times).vectors]

        one_chunk = solved(2 ** 22)
        for entries in (3 * wellmixed_generator.dim, 7 * wellmixed_generator.dim, 2 ** 12):
            np.testing.assert_array_equal(solved(entries), one_chunk)

    def test_unmet_residual_bound_raises(self, wellmixed_generator, wellmixed_p0, monkeypatch):
        monkeypatch.setattr(laplace, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError, match="residual"):
            rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [2.0])

    def test_grid_validation(self, wellmixed_generator, wellmixed_p0):
        for bad in ([], [-1.0], [2.0, 1.0]):
            with pytest.raises(DomainError):
                rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, bad)

    def test_leading_zero_is_the_initial_distribution(self, wellmixed_generator, wellmixed_p0):
        # t = 0 is p0 itself, neither inverted nor renormalized; the positive times are solved as without it
        positive = [0.5, 2.0, 5.0]
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [0.0, *positive])
        alone = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, positive)
        assert sol.vectors[0].t == 0.0
        np.testing.assert_array_equal(sol.vectors[0].values, wellmixed_p0.values)
        for got, want in zip(sol.vectors[1:], alone.vectors, strict=True):
            assert got.t == want.t
            np.testing.assert_array_equal(got.values, want.values)
        assert sol.metadata["abscissae"] == alone.metadata["abscissae"]
        for key in ("band_excursion", "raw_sum_deviation"):
            assert sol.metadata[key] == [0.0] + alone.metadata[key], key

    def test_time_zero_alone_runs_no_sweep(self, wellmixed_generator, wellmixed_p0, monkeypatch):
        # not even an empty one, which would still build the longdouble Q and its level rates
        calls = []
        monkeypatch.setattr(inversion, "solve_resolvents", lambda *args: calls.append(args) or iter(()))
        sol = rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [0.0])
        assert calls == []
        np.testing.assert_array_equal(sol.vectors[0].values, wellmixed_p0.values)
        assert sol.metadata["abscissae"] == 0
        assert (sol.metadata["band_excursion"], sol.metadata["raw_sum_deviation"]) == ([0.0], [0.0])

    def test_accuracy_error_names_a_positive_time_after_a_leading_zero(self, wellmixed_generator, wellmixed_p0):
        # at K = 4, t = 2 stays in the band and t = 5 strays
        with pytest.raises(AccuracyError) as err:
            rs.transient_via_ilt(wellmixed_generator, wellmixed_p0, [0.0, 2.0, 5.0], order=4)
        assert err.value.t == 5.0
