"""The frozen references of ``tests/oracles.py`` against the pipeline that produced them.

Running ``python tests/oracles.py`` regenerates the constants; this test
re-derives the 1-D ones the same way, so a break in that pipeline shows here.
The 2-D ``dblquad`` part takes seconds and is left to the script.
"""

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
