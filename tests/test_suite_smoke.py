"""Every acceptance battery passes at a small size, with pinned bytes.

The batteries that take `trials` run with a few; the others run at their
defaults. Each report's canonical JSON is pinned to a sha256 taken from
the code before the shared-recurrence and single-Rado-check refactor, so a
change of verdict, witness or count shows here and not only in the full
`mslab suite` gate (seed 42, pinned stdout bytes), which this never replaces.
"""

import hashlib

import pytest

from mslab import suite
from mslab.report import canonical_json

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
REPORT_SHA = {
    "1-extension-batteries": "b3a5e6b5da2519faebb0835ba04e07c17ceaf1439ba6cfa61b4612b323924c97",
    "2-kuratowski-gromov": "0b77f137190956a6f22c15b02bae2e6171fe5f8bbdd0aac1060626fd0c96c6ff",
    "3-lp-separation": "51a25842be70f2321a7bf632763716ef2e3dbdb3eb535ed52c5352e47e52b251",
    "4-hilbert-pairing-gap": "3f3629e09e72465dbed4c5d3d9d6f3293e9f16b8629c465e6879aa65f008e077",
    "5-profiles": "08ab111b7f102476ecdf7565f87eab49ee4e3e93187386c9b3cd48735791c87d",
    "6-disjoint-support": "2fa09b43840f8ae2dccf0fae2b147aaf05352c2a6aabdd979a01541681362d86",
    "7-rado-model": "de2005cf58e4ac440d2c5a24cc4b9f63a06d8d38d378b6ee8ea0d480f722bead",
    "8-urysohn-approximant": "9dedca00151f5587f84f1fe7e0c23bf6bded3b07b8b632ecf675dfa77776f3ab",
    "9-nonproper-witness": "5da4a15cf083ebac04e09bd0610e33e8d882e6a4c76b95a56019990635c01385",
    "10-injectivity-chain": "b3daedadc6b85d40bc1c382ea06a4aae36abf9f0233164e475efa8e2ac3b6817",
}


def test_trial_batteries_are_named_in_the_suite():
    assert set(TRIALS) <= set(BATTERIES) == set(REPORT_SHA)


@pytest.mark.parametrize("name", list(BATTERIES))
def test_battery_passes(name):
    run = TRIALS.get(name, lambda: BATTERIES[name](SEED, BUDGET))
    report = run()
    assert report.verdict == "pass", report.witness
    assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == REPORT_SHA[name]
