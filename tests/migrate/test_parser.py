"""Tests for the mini-CUDA front-end."""

import pytest

from repro.migrate.parser import ParseError, parse_cuda_source

SOURCE = """
#include "hacc_cuda.h"

__global__ void simple_kernel(float* data, int n) {
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n) data[tid] *= 2.0f;
}

__global__ void second_kernel(const float* in, float* out, float scale) {
  out[threadIdx.x] = in[threadIdx.x] * scale;
}

void host_side(float* d, int n) {
  dim3 grid((n + 127) / 128);
  simple_kernel<<<grid, 128>>>(d, n);
  second_kernel<<<grid, dim3(128)>>>(d, d, 2.0f);
}
"""


class TestKernelParsing:
    def test_finds_both_kernels(self):
        parsed = parse_cuda_source(SOURCE)
        assert [k.name for k in parsed.kernels] == ["simple_kernel", "second_kernel"]

    def test_parameters_with_types(self):
        k = parse_cuda_source(SOURCE).kernel("simple_kernel")
        assert [(p.type, p.name) for p in k.params] == [
            ("float*", "data"),
            ("int", "n"),
        ]

    def test_qualified_types(self):
        k = parse_cuda_source(SOURCE).kernel("second_kernel")
        assert k.params[0].type == "const float*"

    def test_body_extraction_brace_matched(self):
        k = parse_cuda_source(SOURCE).kernel("simple_kernel")
        assert "data[tid] *= 2.0f;" in k.body
        assert "second_kernel" not in k.body

    def test_nested_braces_in_body(self):
        src = "__global__ void k(int n) { if (n) { for (;;) { n--; } } }"
        k = parse_cuda_source(src).kernel("k")
        assert k.body.count("{") == 2

    def test_unknown_kernel_lookup(self):
        with pytest.raises(KeyError):
            parse_cuda_source(SOURCE).kernel("missing")

    def test_missing_body_rejected(self):
        with pytest.raises(ParseError):
            parse_cuda_source("__global__ void broken(int a);")


class TestLaunchParsing:
    def test_finds_launch_sites(self):
        parsed = parse_cuda_source(SOURCE)
        assert [l.kernel_name for l in parsed.launches] == [
            "simple_kernel",
            "second_kernel",
        ]

    def test_grid_block_extraction(self):
        launch = parse_cuda_source(SOURCE).launches[0]
        assert launch.grid == "grid"
        assert launch.block == "128"
        assert launch.args == "d, n"

    def test_span_covers_semicolon(self):
        parsed = parse_cuda_source(SOURCE)
        start, end = parsed.launches[0].span
        assert parsed.text[start:end].rstrip().endswith(";")


class TestBundledKernels:
    def test_all_five_hot_kernels_parse(self):
        from repro.migrate.pipeline import bundled_kernel_sources

        sources = bundled_kernel_sources()
        assert set(sources) == {
            "geometry",
            "corrections",
            "extras",
            "acceleration",
            "energy",
        }
        for name, text in sources.items():
            parsed = parse_cuda_source(text)
            assert len(parsed.kernels) == 1, name
            assert len(parsed.launches) == 1, name
