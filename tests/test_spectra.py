import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdgap import spectra
from rdgap.spectra import Spectrum


class TestSpectrumInvariants:
    def test_valid_construction(self):
        s = Spectrum((1.8, 0.2), (0.5, 0.5))
        assert s.k == 2
        assert s.max_value == 1.8

    @pytest.mark.parametrize(
        "values,weights",
        [
            ((), ()),
            ((1.0, 1.0), (0.5, 0.5)),  # duplicate values
            ((0.2, 1.8), (0.5, 0.5)),  # not decreasing
            ((1.8, -0.2), (0.9, 0.1)),  # negative value
            ((0.0,), (1.0,)),  # no positive value
            ((1.8, 0.2), (0.5, 0.4)),  # weights not summing to 1
            ((1.8, 0.2), (1.5, -0.5)),  # weight out of (0,1]
            ((2.0, 0.5), (0.5, 0.5)),  # weighted mean != 1
            ((1.8, 0.2), (0.5,)),  # length mismatch
            ((math.nan,), (1.0,)),  # nan value
            ((1.8, math.nan), (0.5, 0.5)),  # nan level below a valid one
            ((math.inf, 0.2), (0.5, 0.5)),  # infinite value
            ((1.8, 0.2), (math.nan, 0.5)),  # nan weight
            ((1.0,), (math.inf,)),  # infinite weight
        ],
    )
    def test_invalid_construction(self, values, weights):
        with pytest.raises(ValueError):
            Spectrum(values, weights)

    def test_immutable(self):
        s = spectra.flat()
        with pytest.raises(AttributeError):
            s.values = (2.0,)


class TestFromEigenvalues:
    def test_flat_is_own_normalization(self):
        s = spectra.from_eigenvalues([1, 1, 1, 1])
        assert s.values == (1.0,) and s.weights == (1.0,)

    def test_rank_one(self):
        s = spectra.from_eigenvalues([4, 0, 0, 0])
        assert s.values == (4.0, 0.0) and s.weights == (0.25, 0.75)

    def test_scale_to_unit_mean(self):
        s = spectra.from_eigenvalues([3.6, 0.4])
        assert s.values == (1.8, 0.2) and s.weights == (0.5, 0.5)

    @pytest.mark.parametrize("raw", [[], [0, 0, 0], [1, -2], [math.nan, 1.0], [math.inf, 1.0]])
    def test_errors(self, raw):
        with pytest.raises(ValueError):
            spectra.from_eigenvalues(raw)

    def test_same_canonical_form_as_parse_spectrum(self):
        # Raw eigenvalues are pairs of weight 1, canonicalized like a literal.
        raw = [3.0, 0.7, 3.0, 0.25, 0.7, 0.7]
        literal = ",".join(f"{v!r}:1" for v in raw)
        assert spectra.from_eigenvalues(raw) == spectra.parse_spectrum(literal)

    def test_idempotent_through_expansion(self):
        # Expanding a spectrum to concrete eigenvalues and re-canonicalizing
        # returns the same Spectrum (64ths weights make apportionment exact).
        s = Spectrum((2.0, 0.75, 0.5), (0.25, 0.5, 0.25))
        lams = spectra.expand_to_n(s, 64)
        assert spectra.from_eigenvalues(lams.tolist()) == s


class TestSemiFlat:
    def test_degenerates_to_flat(self):
        assert spectra.semi_flat(1.0) == spectra.flat()

    def test_half(self):
        s = spectra.semi_flat(0.5)
        assert s.values == (2.0, 0.0) and s.weights == (0.5, 0.5)

    def test_quarter(self):
        s = spectra.semi_flat(0.25)
        assert s.values == (4.0, 0.0) and s.weights == (0.25, 0.75)

    @pytest.mark.parametrize("f", [0.0, -0.5, 1.2])
    def test_errors(self, f):
        with pytest.raises(ValueError):
            spectra.semi_flat(f)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_unit_mean_for_every_fraction(self, f):
        s = spectra.semi_flat(f)
        mean = sum(v * w for v, w in zip(s.values, s.weights))
        assert abs(mean - 1.0) <= 1e-12


class TestMergeClose:
    """The gap search's merge rule, _collapse, with no weight floor."""

    def test_two_near_levels_collapse_to_flat(self):
        s = spectra.parse_spectrum("1.0000001:0.5,1:0.5")
        assert spectra._collapse(s.values, s.weights, 0.0, 1e-5) == ([1.0], [1.0])

    def test_weight_averaged_merge(self):
        # Unit-mean normalization of values [2, 1.999, 0.5], weights [.3,.3,.4]
        # (raw mean 1.3997); tol 0.01 merges the top two levels into their
        # weight average and renormalizes.  Expected floats fixed by an
        # independent high-precision decimal computation.
        s = spectra.parse_spectrum("2:0.3,1.999:0.3,0.5:0.4")
        values, weights = spectra._collapse(s.values, s.weights, 0.0, 0.01)
        assert values == [1.4285203972279774, 0.3572194041580339]
        assert weights == [0.6, 0.4]

    def test_tol_is_relative_to_the_group_value(self):
        # A level joins the group above it when within tol times the group's
        # weight-averaged value.  At tol 0.03, 3.33 and 3.25 merge (2.5 %
        # apart) and 0.0167 and 0.0083 (50 %) do not, though only the latter
        # lie within an absolute 0.03.
        s = spectra.parse_spectrum("4:0.2,3.9:0.1,0.02:0.35,0.01:0.35")
        _, weights = spectra._collapse(s.values, s.weights, 0.0, 0.03)
        assert weights == pytest.approx((0.3, 0.35, 0.35), abs=1e-15)
        # 0.98 is 0.02 below 1.0 but 0.03 below the group {1.02, 1.0}.
        s = spectra.parse_spectrum("1.02:1,1:1,0.98:1")
        _, weights = spectra._collapse(s.values, s.weights, 0.0, 0.025)
        assert weights == pytest.approx((2 / 3, 1 / 3), abs=1e-15)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=500),
           st.floats(min_value=0.0, max_value=0.5))
    def test_never_increases_level_count(self, k, seed, tol):
        s = spectra.sample_random(k, seed)
        assert Spectrum(*spectra._collapse(s.values, s.weights, 0.0, tol)).k <= s.k


class TestSampleRandom:
    def test_single_level_is_flat(self):
        for seed in (0, 7, 123):
            assert spectra.sample_random(1, seed) == spectra.flat()

    def test_deterministic(self):
        assert spectra.sample_random(5, 42) == spectra.sample_random(5, 42)

    def test_invariants_for_one_seed(self):
        s = spectra.sample_random(3, 7)
        assert s.k <= 3  # construction itself enforces the invariant suite

    @pytest.mark.parametrize("k", [0, 17, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            spectra.sample_random(k, 0)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: spectra.sample_random(2.7, 0), id="sample-k"),
        pytest.param(lambda: spectra.sample_random(3, 1.5), id="sample-seed"),
        pytest.param(lambda: spectra.expand_to_n(spectra.flat(), 4.5), id="expand-n"),
        pytest.param(lambda: spectra.sample_random(True, 0), id="sample-k-bool"),
        pytest.param(lambda: spectra.sample_random(3, False), id="sample-seed-bool"),
        pytest.param(lambda: spectra.expand_to_n(spectra.flat(), True), id="expand-n-bool"),
    ])
    def test_float_count_or_seed_rejected(self, call):
        # Read by operator.index: a float is not truncated, nor a bool read as 0 or 1.
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_numpy_integers_pass(self):
        assert spectra.sample_random(np.int64(3), np.uint64(1)) == spectra.sample_random(3, 1)

    def test_thousand_seeds_all_valid(self):
        # Spectrum.__post_init__ runs the full invariant suite; constructing
        # is asserting.
        for k in range(1, 17):
            for seed in range(1000):
                spectra.sample_random(k, seed)


class TestExpandToN:
    def test_semi_flat_quarter(self):
        lams = spectra.expand_to_n(spectra.semi_flat(0.25), 8)
        assert lams.tolist() == [4.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_counts_follow_weights(self):
        s = Spectrum((2.0, 0.75, 0.5), (0.25, 0.5, 0.25))
        lams = spectra.expand_to_n(s, 16)
        assert np.count_nonzero(lams == 2.0) == 4
        assert np.count_nonzero(lams == 0.75) == 8
        assert np.count_nonzero(lams == 0.5) == 4

    def test_small_weight_level_dropped(self):
        s = Spectrum((1.98019801980198, 0.019801980198019802), (0.5, 0.5))
        assert len(spectra.expand_to_n(s, 4)) == 4
        # A level that gets no coordinate is refused, not dropped.
        tiny = spectra.parse_spectrum("1.4:0.99,0.05:0.01")
        assert spectra._apportion(tiny, 8) == [8, 0]
        with pytest.raises(ValueError, match=r"levels \[1\] receive zero dimensions at n=8"):
            spectra.expand_to_n(tiny, 8)

    @pytest.mark.parametrize("n", [0, 2**39 + 1, 2**63, 10**400],
                             ids=["0", "2**39+1", "2**63", "10**400"])
    def test_n_outside_its_domain_refused(self, n):
        # Past 2^39 the floored quotas of weights that sum to 1 + 1e-12 can
        # exceed n, np.repeat takes no count past a C long, and a float quota
        # no n past 2^1024: each is refused with a ValueError naming n.
        s = spectra.parse_spectrum("1.8:0.5,0.2:0.5")
        with pytest.raises(ValueError, match=rf"n must lie in \[1, {2**39}\], got {n}$"):
            spectra.expand_to_n(s, n)

    def test_counts_sum_to_n_at_the_domain_top(self):
        # Weights summing to 1 + 9.9e-13, inside WEIGHT_SUM_TOL: their floored
        # quotas overshoot n = 2^40 by one, yet sum to exactly n at 2^39.
        weights = (0.25 + 1.01 / 2**40, 0.75 + 0.078 / 2**40)
        mean = 2.2 * weights[0] + 0.6 * weights[1]
        s = Spectrum((2.2 / mean, 0.6 / mean), weights)
        assert sum(s.weights) - 1.0 == pytest.approx(9.9e-13, rel=1e-3)
        assert sum(int(w * 2**40) for w in s.weights) == 2**40 + 1
        assert sum(spectra._apportion(s, 2**39)) == 2**39

    def test_sorted_decreasing(self):
        s = spectra.sample_random(5, 3)
        lams = spectra.expand_to_n(s, 37)
        assert all(a >= b for a, b in zip(lams, lams[1:]))


class TestParseSpectrum:
    def test_flat_literal(self):
        assert spectra.parse_spectrum("flat") == spectra.flat()

    def test_semiflat_literal(self):
        assert spectra.parse_spectrum("semiflat:0.5") == spectra.semi_flat(0.5)

    def test_pairs_literal_normalizes(self):
        s = spectra.parse_spectrum("3.6:1,0.4:1")
        assert s.values == (1.8, 0.2) and s.weights == (0.5, 0.5)

    def test_file_form(self, tmp_path):
        p = tmp_path / "levels.csv"
        p.write_text("value,weight\n3.6,0.5\n0.4,0.5\n")
        s = spectra.parse_spectrum(f"@{p}")
        assert s == spectra.parse_spectrum("1.8:0.5,0.2:0.5")

    @pytest.mark.parametrize("text", ["", "1.8;0.5", "semiflat:2", "a:b", "1:0.5,1:0.5,",
                                      "nan:1", "inf:1", "1:0.5,nan:0.5", "1:nan", "1:inf"])
    def test_bad_literals(self, text):
        with pytest.raises(ValueError):
            spectra.parse_spectrum(text)

    def test_literal_round_trip(self):
        # as_literal writes each float by repr, and a spectrum that passes
        # its own checks parses back unchanged, not renormalized.
        for k in range(1, 17):
            for seed in range(100):
                s = spectra.sample_random(k, seed)
                assert spectra.parse_spectrum(s.as_literal()) == s, (k, seed)
