"""Tests for the FPGA resource model (Table 1's scale-down rationale)."""

from repro.core.config import FPGA_CONFIG, GPU_CONFIG
from repro.perf.fpga import FpgaModel, FpgaResources, ZYNQ_7020


class TestResourceModel:
    def test_paper_design_point_fits_zynq(self):
        """Table 1's FPGA config (ed=25, chunk=25) must fit the board."""
        model = FpgaModel()
        assert model.fits_device(FPGA_CONFIG)

    def test_cpu_scale_design_does_not_fit(self):
        """§5.1: the CPU/GPU-scale configuration is scaled down for the
        FPGA 'due to the lack of available logic cells' — at the GPU's
        ed=64 the MAC array alone exceeds the Zynq-7020's 220 DSPs."""
        model = FpgaModel()
        assert not model.fits_device(GPU_CONFIG)

    def test_dsp_usage_scales_with_lanes_and_ed(self):
        narrow = FpgaModel(lanes=2).resource_usage(FPGA_CONFIG)
        wide = FpgaModel(lanes=8).resource_usage(FPGA_CONFIG)
        assert wide.dsp_slices > narrow.dsp_slices

    def test_embedding_cache_costs_bram(self):
        model = FpgaModel()
        without = model.resource_usage(FPGA_CONFIG)
        with_cache = model.resource_usage(
            FPGA_CONFIG, embedding_cache_bytes=256 * 1024
        )
        assert with_cache.bram_kbytes >= without.bram_kbytes + 256

    def test_large_embedding_cache_exhausts_bram(self):
        model = FpgaModel()
        assert not model.fits_device(
            FPGA_CONFIG, embedding_cache_bytes=1024 * 1024
        )

    def test_fits_is_componentwise(self):
        device = FpgaResources(dsp_slices=100, bram_kbytes=100, luts=100)
        assert device.fits(FpgaResources(100, 100, 100))
        assert not device.fits(FpgaResources(101, 1, 1))
        assert not device.fits(FpgaResources(1, 101, 1))
        assert not device.fits(FpgaResources(1, 1, 101))

    def test_zynq_constants(self):
        assert ZYNQ_7020.dsp_slices == 220
        assert ZYNQ_7020.bram_kbytes == 630
