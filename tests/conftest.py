"""Shared fixtures: the handful of equilibria every module exercises, and
the tracemalloc peak of a call."""

from __future__ import annotations

import tracemalloc

import pytest

from hartree_mix.profiles import (
    build_marginal,
    fermi_zero_t_profile,
    gaussian_profile,
    screened_coulomb,
    smooth_bump_profile,
)


def _peak_bytes(fn):
    """tracemalloc peak of one call fn(), in bytes, traced from its start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def peak_bytes():
    return _peak_bytes


@pytest.fixture(scope="session")
def gauss1():
    return build_marginal(gaussian_profile(1))


@pytest.fixture(scope="session")
def gauss3():
    return build_marginal(gaussian_profile(3))


@pytest.fixture(scope="session")
def fermi1():
    return build_marginal(fermi_zero_t_profile(1))


@pytest.fixture(scope="session")
def fermi2():
    return build_marginal(fermi_zero_t_profile(2))


@pytest.fixture(scope="session")
def fermi3():
    return build_marginal(fermi_zero_t_profile(3))


@pytest.fixture(scope="session")
def fermi4():
    return build_marginal(fermi_zero_t_profile(4))


@pytest.fixture(scope="session")
def fermi5():
    return build_marginal(fermi_zero_t_profile(5))


@pytest.fixture(scope="session")
def bump3():
    return build_marginal(smooth_bump_profile(3))


@pytest.fixture(scope="session")
def coulomb():
    return screened_coulomb(1.0, 1.0)
