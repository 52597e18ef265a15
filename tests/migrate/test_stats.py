"""Tests for migration code statistics (the Table 2 narrative)."""

import pytest

from repro.migrate.stats import (
    bundled_migration_stats,
    format_stats,
    migration_stats,
    sloc,
)


class TestSloc:
    def test_counts_code_lines_only(self):
        text = "int a;\n\n// comment\nint b; // trailing\n"
        assert sloc(text) == 2

    def test_block_comments_excluded(self):
        text = "/* multi\nline\ncomment */\nint a;\n"
        assert sloc(text) == 1

    def test_code_after_block_close_counts(self):
        assert sloc("/* c */ int a;\n") == 1

    def test_empty(self):
        assert sloc("") == 0
        assert sloc("\n\n// only comments\n") == 0


class TestMigrationStats:
    @pytest.fixture(scope="class")
    def stats(self):
        return bundled_migration_stats()

    def test_all_kernels_measured(self, stats):
        assert {s.kernel for s in stats} == {
            "geometry",
            "corrections",
            "extras",
            "acceleration",
            "energy",
        }

    def test_sycl_inflation_matches_paper_narrative(self, stats):
        # "SYCL also uses almost 1.7x as many lines as CUDA/HIP"
        total_cuda = sum(s.cuda_sloc for s in stats)
        total_sycl = sum(s.sycl_total_sloc for s in stats)
        assert 1.4 < total_sycl / total_cuda < 2.4

    def test_headers_carry_most_of_the_inflation(self, stats):
        # "~6,000 lines of SYCL can be attributed to the kernel
        # function object definitions"
        for s in stats:
            inflation = s.sycl_total_sloc - s.cuda_sloc
            assert 0 < inflation < 2 * s.header_sloc, s.kernel

    def test_kernel_bodies_similar_in_size(self, stats):
        # "The remainder of the SYCL code (the kernels themselves) is
        # more similar in size to the CUDA code."
        for s in stats:
            assert s.sycl_source_sloc <= 1.25 * s.cuda_sloc, s.kernel

    def test_format_renders(self, stats):
        text = format_stats(stats)
        assert "inflation" in text
        assert "(all)" in text
