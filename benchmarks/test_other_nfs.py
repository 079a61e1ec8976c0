"""§6.2 "Other cases": EFD, TSS, HeavyKeeper, VBF throughput."""

import pytest

import repro.analysis as a
from repro.analysis.experiments import OTHER_NFS


@pytest.mark.parametrize("nf", OTHER_NFS)
def test_other_nf(nf, run_once, in_band):
    in_band(nf, run_once(a.other_nf, nf, n_packets=2000))
