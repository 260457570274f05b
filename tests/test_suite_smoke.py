"""Every acceptance battery passes at a small size.

The batteries that take `trials` run with a few; the others run at their
defaults. This adds to the full `mslab suite` gate (seed 42, pinned stdout
bytes) and never replaces it.
"""

import pytest

from mslab import suite

SEED = 1
BUDGET = 5000
TRIALS = {
    "1-extension-batteries": lambda: suite.battery_extensions(SEED, trials=100),
    "2-kuratowski-gromov": lambda: suite.battery_kuratowski(SEED, trials=50),
    "4-hilbert-pairing-gap": lambda: suite.battery_hilbert(SEED, trials=50),
    "6-disjoint-support": lambda: suite.battery_disjoint(SEED, trials=10),
    "9-nonproper-witness": lambda: suite.battery_nonproper(SEED, trials=20),
    "10-injectivity-chain": lambda: suite.battery_chain(SEED, trials=50),
}
BATTERIES = dict(suite.ACCEPTANCE_BATTERIES)


def test_trial_batteries_are_named_in_the_suite():
    assert set(TRIALS) <= set(BATTERIES)


@pytest.mark.parametrize("name", list(BATTERIES))
def test_battery_passes(name):
    run = TRIALS.get(name, lambda: BATTERIES[name](SEED, BUDGET))
    report = run()
    assert report.verdict == "pass", report.witness
