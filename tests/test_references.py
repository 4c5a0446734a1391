"""The frozen references of ``tests/oracles.py`` against the pipeline that produced them.

Running ``python tests/oracles.py`` regenerates the constants; this test
re-derives the 1-D ones the same way, so a break in that pipeline shows here.
The 2-D ``dblquad`` part takes seconds and is left to the script. The ring
transfer matrices are checked against the Gaussian closed form and for
convergence in their grid.
"""

import numpy as np
import pytest

import oracles

FROZEN_1D = [
    "Z_QUARTIC_1D",
    "OMEGA_QUARTIC_1D",
    "GREEN_QUARTIC_1D",
    "A_OF_UNIT_G",
    "OMEGA_AT_A_OF_UNIT_G",
    "F_AT_UNIT_G",
    "PHI_AT_UNIT_G",
    "SIGMA_AT_UNIT_G",
    "MEAN_U_AT_UNIT_G",
    "ENTROPY_AT_UNIT_G",
    "A_OF_UNIT_G_EPS001",
    "SIGMA_AT_UNIT_G_EPS001",
]


@pytest.fixture(scope="module")
def recomputed():
    return oracles.frozen_1d()


def test_every_1d_constant_is_recomputed(recomputed):
    assert sorted(recomputed) == sorted(FROZEN_1D)


# measured: at most 6.7e-16 apart (A_OF_UNIT_G_EPS001), the others within 2.3e-16
@pytest.mark.parametrize("name", FROZEN_1D)
def test_frozen_constant_matches_its_pipeline(recomputed, name):
    assert recomputed[name] == pytest.approx(getattr(oracles, name), rel=0.0, abs=1e-15)


# the rings of ROADMAP item 14: A_{i,i+1} = -0.3, v_ii = 1
RINGS = [
    (3, 1.0, 0.3),
    (3, -0.5, 0.2),
    (4, 1.0, 0.3),
    (4, -0.5, 0.2),
]


class TestRingTransferMatrix:
    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_gaussian_ring_is_the_closed_form(self, n):
        a, v = oracles.ring_matrices(n, 1.0, -0.3, 0.0, 0.0)
        # a Gaussian is wider than the quartic rings: lambda_min(A) = 0.4
        omega, green = oracles.ring_moments(a, v, points=201, half_width=14.0)
        sign, logdet = np.linalg.slogdet(a)
        assert sign > 0
        assert omega == pytest.approx(0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi), abs=1e-13)
        assert np.abs(green - np.linalg.inv(a)).max() <= 1e-13

    @pytest.mark.parametrize("n, a_site, v_bond", RINGS)
    def test_converged_in_points_and_width(self, n, a_site, v_bond):
        a, v = oracles.ring_matrices(n, a_site, -0.3, 1.0, v_bond)
        omega, green = oracles.ring_moments(a, v, points=121, half_width=7.0)
        finer = oracles.ring_moments(a, v, points=201, half_width=9.0)
        assert omega == pytest.approx(finer[0], abs=1e-13)
        assert np.abs(green - finer[1]).max() <= 1e-13
        # the agreement is not vacuous: too few points or too narrow a window
        # show (measured 2.8e-7 to 5.1e-6 at 31 points, 1.1e-4 to 9.7e-3 at +-2.5)
        for points, half_width in [(31, 7.0), (121, 2.5)]:
            coarse = oracles.ring_moments(a, v, points=points, half_width=half_width)
            assert np.abs(coarse[1] - green).max() > 1e-8
