import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socrm import fft_engines as fe

CONTROLLER_SIZES = (8, 1024, 2048, 4096)
NUMPY_2 = int(np.__version__.split(".")[0]) >= 2
ALL_SIZES = [1 << bits for bits in range(1, 13)]


def dft_direct(x):
    """Independent O(N^2) oracle: the DFT summation written out directly."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    out = np.zeros(n, dtype=np.complex128)
    for k in range(n):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * np.arange(n) / n))
    return out


def random_block(rng, n, lo=-0.5, hi=0.5):
    return rng.uniform(lo, hi, n) + 1j * rng.uniform(lo, hi, n)


class TestFftFloat:
    def test_impulse(self):
        out = fe.fft_float([1, 0, 0, 0, 0, 0, 0, 0])
        assert np.allclose(out, np.ones(8), atol=1e-12)

    def test_constant_concentrates_at_dc(self):
        out = fe.fft_float(np.ones(8))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 8
        assert np.allclose(out, expected, atol=1e-12)

    def test_complex_exponential_hits_bin_one(self):
        x = np.exp(2j * np.pi * np.arange(8) / 8)
        out = fe.fft_float(x)
        expected = dft_direct(x)
        assert np.max(np.abs(out - expected)) < 1e-12
        assert abs(out[1] - 8) < 1e-12
        assert np.max(np.abs(np.delete(out, 1))) < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_matches_direct_dft(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            x = random_block(rng, n)
            assert np.max(np.abs(fe.fft_float(x) - dft_direct(x))) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for n in CONTROLLER_SIZES:
            x, y = random_block(rng, n), random_block(rng, n)
            a, b = 0.7 - 0.2j, -1.3 + 0.5j
            lhs = fe.fft_float(a * x + b * y)
            rhs = a * fe.fft_float(x) + b * fe.fft_float(y)
            assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-9

    @pytest.mark.parametrize("n", CONTROLLER_SIZES)
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 1)
        x = random_block(rng, n)
        time_e = np.sum(np.abs(x) ** 2)
        freq_e = np.sum(np.abs(fe.fft_float(x)) ** 2) / n
        assert abs(time_e - freq_e) / time_e < 1e-9

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            fe.fft_float(np.zeros(12))

    def test_rejects_nan(self):
        x = np.zeros(8, dtype=complex)
        x[3] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            fe.fft_float(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("transform", [fe.fft_float, fe.ifft_float])
    def test_rejects_non_finite_imaginary_part_alone(self, transform, bad):
        x = np.zeros(16, dtype=complex)
        x.imag[4] = bad  # kept by the strided view below too
        with pytest.raises(ValueError, match="NaN or Inf"):
            transform(x)
        with pytest.raises(ValueError, match="NaN or Inf"):
            transform(x[::2])

    def test_strided_input(self):
        x = random_block(np.random.default_rng(17), 16)
        view = x[::2]
        assert not view.flags.c_contiguous
        assert np.array_equal(fe.fft_float(view), np.fft.fft(np.ascontiguousarray(view)))
        assert np.array_equal(fe.ifft_float(view), np.fft.ifft(np.ascontiguousarray(view)))


def as_bits(a):
    return np.asarray(a, dtype=np.complex128).view(np.uint64)


class TestFftFloatEntry:
    """`fft_float` and `transform` are bit-identical to `np.fft.fft` on both
    dispatch paths."""

    @pytest.fixture(params=["pocketfft gufunc", "numpy.fft.fft"])
    def entry(self, request, monkeypatch):
        if request.param == "pocketfft gufunc" and not NUMPY_2:
            pytest.skip("NumPy 1.x has no pocketfft gufunc")
        if request.param == "numpy.fft.fft":
            monkeypatch.setattr(fe, "_pocketfft_fft", None)
        assert fe.float_entry() == request.param
        return request.param

    def test_gufunc_is_resolved_on_numpy_2(self):
        # a lost import must not pass quietly on the fallback
        assert (fe._pocketfft_fft is not None) == NUMPY_2
        assert fe.float_entry() == ("pocketfft gufunc" if NUMPY_2 else "numpy.fft.fft")

    @pytest.mark.parametrize("n", ALL_SIZES)
    def test_bit_identical_to_numpy(self, entry, n):
        rng = np.random.default_rng(n + 3)
        x = random_block(rng, n)
        assert np.array_equal(as_bits(fe.fft_float(x)), as_bits(np.fft.fft(x)))
        strided = random_block(rng, 3 * n)[::3]
        assert np.array_equal(as_bits(fe.fft_float(strided)),
                              as_bits(np.fft.fft(np.ascontiguousarray(strided))))

    @pytest.mark.parametrize("n", ALL_SIZES)
    def test_transform_matches_fft_float(self, entry, n):
        x = random_block(np.random.default_rng(n + 7), n)
        out = fe.transform(x)
        assert np.array_equal(as_bits(out), as_bits(fe.fft_float(x)))
        assert np.array_equal(as_bits(out), as_bits(np.fft.fft(x)))

    @pytest.mark.parametrize("call", ["fft_float", "transform"])
    def test_returns_a_fresh_array(self, entry, call):
        for n in CONTROLLER_SIZES:
            x = random_block(np.random.default_rng(18 + n), n)
            before = x.copy()
            out = getattr(fe, call)(x)
            assert out is not x and not np.shares_memory(out, x)
            assert np.array_equal(x, before)
            assert out.dtype == np.complex128 and out.shape == (n,)


class TestIfftFloat:
    @pytest.mark.parametrize("n", CONTROLLER_SIZES)
    def test_round_trip(self, n):
        rng = np.random.default_rng(n + 2)
        x = random_block(rng, n)
        back = fe.ifft_float(fe.fft_float(x))
        assert np.max(np.abs(back - x)) < 1e-9

    def test_inverse_of_dc(self):
        out = fe.ifft_float([8, 0, 0, 0, 0, 0, 0, 0])
        assert np.allclose(out, np.ones(8), atol=1e-12)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(3)
        X = random_block(rng, 8)
        n = 8
        direct = np.array([
            np.sum(X * np.exp(2j * np.pi * k * np.arange(n) / n)) / n
            for k in range(n)])
        assert np.max(np.abs(fe.ifft_float(X) - direct)) < 1e-12


class TestQuantize:
    def test_exact_half(self):
        block = fe.quantize([0.5 + 0j])
        assert block.re[0] == 16384 and block.im[0] == 0

    def test_saturation_at_one(self):
        block = fe.quantize([1.0 + 0j])
        assert block.re[0] == 32767

    def test_one_lsb(self):
        block = fe.quantize([2.0 ** -15 + 0j])
        assert block.re[0] == 1

    def test_negative_full_scale_representable(self):
        block = fe.quantize([-1.0 + 0j])
        assert block.re[0] == -32768

    def test_ties_away_from_zero(self):
        half_lsb = 2.0 ** -16
        assert fe.quantize([half_lsb + 0j]).re[0] == 1
        assert fe.quantize([-half_lsb + 0j]).re[0] == -1

    def test_matches_two_sided_rounding_reference(self):
        # the formula quantize used before its single-pass form: it is the
        # reference on ties, signed zeros, saturating and random inputs
        def reference(x):
            a = np.asarray(x, dtype=np.complex128)

            def round_half_away(v):
                s = v * 32768
                return np.where(s >= 0, np.floor(s + 0.5), np.ceil(s - 0.5)).astype(np.int64)
            re, im = round_half_away(a.real), round_half_away(a.imag)
            return np.clip(re, -32768, 32767), np.clip(im, -32768, 32767)

        k = np.arange(-33000, 33000)
        rng = np.random.default_rng(13)
        inputs = [
            (k + 0.5) / 2 ** 15 + 1j * (k - 0.5) / 2 ** 15,
            np.nextafter((k + 0.5) / 2 ** 15, np.inf) + 0j,
            np.nextafter((k + 0.5) / 2 ** 15, -np.inf) + 0j,
            np.array([0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]),
            np.array([1.0, -1.0, 1 - 2 ** -17, -1 - 2 ** -16, 2.0, -2.0, 1e9, -1e9]) * (1 + 1j),
        ] + [random_block(rng, 4096, -1.5, 1.5) for _ in range(5)]
        for x in inputs:
            block = fe.quantize(x)
            re, im = reference(x)
            assert np.array_equal(block.re, re) and np.array_equal(block.im, im)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nan_and_inf(self, bad):
        for value in (complex(bad, 0.0), complex(0.0, bad)):
            x = np.zeros(8, dtype=complex)
            x[5] = value
            with pytest.raises(ValueError, match="NaN or Inf"):
                fe.quantize(x)

    @given(st.lists(st.tuples(
        st.floats(min_value=-0.999, max_value=0.999),
        st.floats(min_value=-0.999, max_value=0.999)), min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_round_trip_within_half_lsb(self, pairs):
        x = np.array([complex(a, b) for a, b in pairs])
        back = fe.dequantize(fe.quantize(x))
        assert np.max(np.abs(back.real - x.real)) <= 2.0 ** -16
        assert np.max(np.abs(back.imag - x.imag)) <= 2.0 ** -16


class TestFftFixed:
    def test_quantized_impulse(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 0.5
        out = fe.fft_fixed(fe.quantize(x))
        assert np.all(np.abs(out.re - 2048) <= 1)
        assert np.all(np.abs(out.im) <= 1)

    @pytest.mark.parametrize("n", CONTROLLER_SIZES)
    def test_all_zero(self, n):
        out = fe.fft_fixed(fe.FixedBlock(np.zeros(n, dtype=np.int64),
                                         np.zeros(n, dtype=np.int64)))
        assert not np.any(out.re) and not np.any(out.im)

    def test_deviation_within_calibrated_bound(self):
        rng = np.random.default_rng(42)
        for n in CONTROLLER_SIZES:
            bound = fe.fixed_point_error_bound(n)
            for _ in range(10):
                x = random_block(rng, n)
                ref = fe.fft_float(x)
                scaled = fe.dequantize(fe.fft_fixed(fe.quantize(x))) * n
                assert np.max(np.abs(ref - scaled)) <= bound

    def test_bit_reproducible(self):
        rng = np.random.default_rng(9)
        x = random_block(rng, 1024)
        a = fe.fft_fixed(fe.quantize(x))
        b = fe.fft_fixed(fe.quantize(x))
        assert np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)

    def test_output_range(self):
        rng = np.random.default_rng(10)
        x = random_block(rng, 256, -0.999, 0.999)
        out = fe.fft_fixed(fe.quantize(x))
        assert out.re.min() >= -32768 and out.re.max() <= 32767
        assert out.im.min() >= -32768 and out.im.max() <= 32767

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 8 samples"):
            fe.fft_fixed(fe.FixedBlock(np.zeros(8), np.zeros(16)))


    def test_rejects_non_1d_halves(self):
        with pytest.raises(ValueError, match="expected 8 samples"):
            fe.fft_fixed(fe.FixedBlock(np.zeros((8, 0)), np.zeros((8, 0))))
        with pytest.raises(ValueError, match="expected 8 samples"):
            fe.fft_fixed(fe.FixedBlock(np.zeros(8), np.zeros(4)))


def numpy_loop(block):
    """fft_fixed through the NumPy stage loop, the definition of the core."""
    plan = fe.get_plan(len(block))
    re = np.asarray(block.re, dtype=np.int64)[plan.bitrev]
    im = np.asarray(block.im, dtype=np.int64)[plan.bitrev]
    return fe._stages_numpy(re, im, plan)


def assert_matches_numpy_loop(block):
    out = fe.fft_fixed(block)
    re, im = numpy_loop(block)
    assert np.array_equal(out.re, re) and np.array_equal(out.im, im)


class TestQ15Kernel:
    def test_compiled_kernel_is_active_when_a_compiler_exists(self):
        # a broken build must not pass quietly on the NumPy fallback
        expected = "c" if shutil.which("cc") else "numpy"
        assert fe.active_kernel() == expected

    @pytest.mark.parametrize("n", ALL_SIZES)
    def test_bit_identical_to_numpy_loop(self, n):
        rng = np.random.default_rng(n)
        alternating = np.where(np.arange(n) % 2 == 0, fe.Q15_MAX, fe.Q15_MIN)
        blocks = [
            fe.FixedBlock(np.full(n, fe.Q15_MAX), np.full(n, fe.Q15_MAX)),
            fe.FixedBlock(np.full(n, fe.Q15_MIN), np.full(n, fe.Q15_MIN)),
            fe.FixedBlock(np.full(n, fe.Q15_MAX), np.full(n, fe.Q15_MIN)),
            fe.FixedBlock(alternating, alternating[::-1]),
            fe.FixedBlock(alternating, alternating),
        ]
        blocks += [fe.quantize(random_block(rng, n, -1.0, 1.0)) for _ in range(5)]
        # wrapping int64 arithmetic must agree too, far outside Q1.15
        blocks += [fe.FixedBlock(rng.integers(-(1 << 62), 1 << 62, n),
                                 rng.integers(-(1 << 62), 1 << 62, n)) for _ in range(3)]
        for block in blocks:
            assert_matches_numpy_loop(block)

    @given(st.sampled_from(ALL_SIZES[:8]).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=n, max_size=n)] * 2)))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_on_any_int64_block(self, halves):
        re, im = (np.array(half, dtype=np.int64) for half in halves)
        assert_matches_numpy_loop(fe.FixedBlock(re, im))

    def test_leaves_the_callers_block_unchanged(self):
        rng = np.random.default_rng(14)
        block = fe.quantize(random_block(rng, 4096))
        re, im = block.re.copy(), block.im.copy()
        fe.fft_fixed(block)
        assert np.array_equal(block.re, re) and np.array_equal(block.im, im)
        contiguous = fe.FixedBlock(re.copy(), im.copy())
        fe.fft_fixed(contiguous)
        assert np.array_equal(contiguous.re, re) and np.array_equal(contiguous.im, im)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_builds_in_a_temporary_directory_if_the_cache_is_not_writable(
            self, tmp_path, monkeypatch):
        source = tmp_path / "_q15.c"
        shutil.copy(fe._KERNEL_SOURCE, source)
        (tmp_path / "__pycache__").write_text("a file where the cache directory would be")
        monkeypatch.setattr(fe, "_KERNEL_SOURCE", source)
        kernel = fe._load_kernel.__wrapped__()
        assert kernel is not None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["__pycache__", "_q15.c"]
        monkeypatch.setattr(fe, "_load_kernel", lambda: kernel)
        assert_matches_numpy_loop(fe.quantize(random_block(np.random.default_rng(16), 64)))

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_failed_build_falls_back_and_leaves_no_files(self, tmp_path, monkeypatch):
        source = tmp_path / "_q15.c"
        source.write_text("not C\n")
        monkeypatch.setattr(fe, "_KERNEL_SOURCE", source)
        assert fe._load_kernel.__wrapped__() is None
        assert list((tmp_path / "__pycache__").iterdir()) == []

    def test_fallback_gives_identical_output(self, monkeypatch):
        rng = np.random.default_rng(15)
        blocks = [fe.quantize(random_block(rng, n)) for n in CONTROLLER_SIZES]
        active = [fe.fft_fixed(block) for block in blocks]
        monkeypatch.setattr(fe, "_load_kernel", lambda: None)
        assert fe.active_kernel() == "numpy"
        for block, out in zip(blocks, active):
            fallback = fe.fft_fixed(block)
            assert np.array_equal(fallback.re, out.re) and np.array_equal(fallback.im, out.im)


class TestMse:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(11)
        x = random_block(rng, 64)
        assert fe.mse(x, x) == 0.0

    def test_unit_difference(self):
        assert fe.mse([1 + 0j], [0 + 0j]) == 1.0

    def test_pipeline_mse_below_calibrated_bound(self):
        rng = np.random.default_rng(12)
        n = 1024
        x = random_block(rng, n)
        ref = fe.fft_float(x)
        scaled = fe.dequantize(fe.fft_fixed(fe.quantize(x))) * n
        value = fe.mse(ref, scaled)
        assert 0 < value < fe.fixed_point_mse_bound(n)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            fe.mse(np.zeros(4, dtype=complex), np.zeros(8, dtype=complex))


def test_plans_are_cached_and_reused():
    assert fe.get_plan(1024) is fe.get_plan(1024)


def test_invalid_plan_size_raises_and_is_not_cached():
    cached = fe.get_plan.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="power of two"):
            fe.get_plan(12)
    assert fe.get_plan.cache_info().currsize == cached
