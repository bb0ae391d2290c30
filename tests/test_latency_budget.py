import pytest
from hypothesis import given
from hypothesis import strategies as st

from socrm import latency_budget as lb


class TestNumerology:
    def test_reference_configuration(self):
        cfg = lb.derive_numerology(30, 20)
        assert cfg.fft_points == 1024
        assert cfg.slot_us == 500
        assert cfg.symbol_us == 35.7

    def test_symbol_duration_is_slot_over_symbols(self):
        cfg = lb.derive_numerology(30, 20)
        assert cfg.symbol_us == round(500 / 14, 1)
        assert abs(cfg.symbol_us * lb.SYMBOLS_PER_SLOT - cfg.slot_us) < 0.5

    def test_15khz_baseline_slot(self):
        assert lb.derive_numerology(15, 20).slot_us == 1000

    def test_slot_scales_with_scs(self):
        assert lb.derive_numerology(60, 40).slot_us == 250
        assert lb.derive_numerology(120, 100).slot_us == 125

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="no standard FFT size"):
            lb.derive_numerology(30, 7)

    def test_unsupported_scs_rejected(self):
        with pytest.raises(ValueError, match="unsupported subcarrier spacing"):
            lb.derive_numerology(240, 100)


class TestDmaTransfer:
    def test_reference_arithmetic(self):
        assert lb.dma_transfer_latency(8192, 1.6e9) == 5.12

    def test_linear_in_bytes(self):
        assert lb.dma_transfer_latency(4096, 1.6e9) == 2.56

    @given(st.integers(min_value=1, max_value=10 ** 9),
           st.integers(min_value=1, max_value=4),
           st.floats(min_value=1e6, max_value=1e12))
    def test_linearity_property(self, nbytes, k, rate):
        single = lb.dma_transfer_latency(nbytes, rate)
        assert lb.dma_transfer_latency(k * nbytes, rate) == pytest.approx(k * single)
        assert lb.dma_transfer_latency(nbytes, k * rate) == pytest.approx(single / k)

    @pytest.mark.parametrize("nbytes,rate", [(0, 1.0), (-1, 1.0), (1, 0), (1, -2.0)])
    def test_rejects_non_positive(self, nbytes, rate):
        with pytest.raises(ValueError):
            lb.dma_transfer_latency(nbytes, rate)


class TestBudget:
    def test_default_budget_reproduces_targets(self):
        report = lb.default_offload_budget()
        assert [(s.name, s.latency_us) for s in report.steps] == [
            ("PL -> OCM (freq symbols)", 5.0),
            ("APU iFFT (FFTW)", 10.0),
            ("OCM -> PL (time samples)", 5.0),
            ("Interrupts", 1.0),
        ]
        assert report.total_us == 21.0
        assert report.deadline_us == 35.7
        assert report.margin_us == pytest.approx(14.7)
        assert report.feasible is True
        assert report.ideal_feasible is False

    def test_margin_plus_total_is_deadline_exactly(self):
        report = lb.default_offload_budget()
        assert report.margin_us + report.total_us == report.deadline_us

    def test_deadline_violation_detected(self):
        cfg = lb.derive_numerology(120, 100)
        report = lb.default_offload_budget(cfg)
        assert cfg.symbol_us == 8.9
        assert report.total_us > cfg.symbol_us
        assert report.margin_us == pytest.approx(-12.1)
        assert report.feasible is False

    @pytest.mark.parametrize("scs_khz,bandwidth_mhz", sorted(lb.STANDARD_FFT_SIZES))
    def test_feasible_iff_total_within_symbol(self, scs_khz, bandwidth_mhz):
        cfg = lb.derive_numerology(scs_khz, bandwidth_mhz)
        report = lb.default_offload_budget(cfg)
        assert report.deadline_us == cfg.symbol_us
        assert report.feasible is (report.total_us <= cfg.symbol_us)

    def test_render(self):
        report = lb.default_offload_budget()
        text = report.render()
        assert "Total" in text and "14.70" in text
        assert report.total_us == 21.0
        assert report.feasible is True
