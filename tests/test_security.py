"""Unit tests for the security model."""

import pytest

from repro.security.diversity import (
    DEFAULT_KERNEL_POOL,
    assign_kernels,
    shared_vulnerabilities,
    vulnerabilities_of,
)
from repro.security.kernels import (
    CVE_2018_18955,
    VULNERABILITY_DB,
    is_vulnerable,
    parse_kernel_version,
)


class TestKernels:
    def test_parse_versions(self):
        assert parse_kernel_version("linux-4.19.1") == (4, 19, 1)
        assert parse_kernel_version("5.10") == (5, 10)
        with pytest.raises(ValueError):
            parse_kernel_version("linux-banana")

    def test_paper_cve_affects_4_19_1(self):
        assert CVE_2018_18955.affects((4, 19, 1))
        assert not CVE_2018_18955.affects((4, 19, 2))  # the fix
        assert not CVE_2018_18955.affects((4, 14, 9))  # predates introduction
        assert is_vulnerable("linux-4.19.1", "CVE-2018-18955")
        assert not is_vulnerable("linux-5.10.0", "CVE-2018-18955")

    def test_unknown_cve_raises(self):
        with pytest.raises(KeyError):
            is_vulnerable("linux-4.19.1", "CVE-9999-0000")

    def test_interval_is_half_open(self):
        v = VULNERABILITY_DB["CVE-2022-0847"]
        assert v.affects((5, 8))
        assert not v.affects((5, 16, 11))


class TestDiversity:
    def test_identical_policy(self):
        mapping = assign_kernels(["a", "b", "c", "d"], "identical")
        assert set(mapping.values()) == {"linux-4.19.1"}

    def test_diverse_policy_all_distinct(self):
        mapping = assign_kernels(["a", "b", "c", "d"], "diverse")
        assert len(set(mapping.values())) == 4
        assert mapping["a"] == DEFAULT_KERNEL_POOL[0]  # exploitable one stays

    def test_diverse_requires_large_enough_pool(self):
        with pytest.raises(ValueError):
            assign_kernels(["a", "b"], "diverse", pool=("linux-4.19.1",))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            assign_kernels(["a"], "surprise")

    def test_shared_vulnerabilities_shrink_with_diversity(self):
        same = shared_vulnerabilities("linux-4.19.1", "linux-4.19.1")
        cross = shared_vulnerabilities("linux-4.19.1", "linux-5.10.0")
        assert len(cross) < len(same)
        assert "CVE-2018-18955" in same
        assert cross == []

    def test_vulnerabilities_of_lists_applicable(self):
        assert "CVE-2018-18955" in vulnerabilities_of("linux-4.19.1")
        assert "CVE-2022-0847" in vulnerabilities_of("linux-5.10.0")
