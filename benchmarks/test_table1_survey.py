"""Table 1: the 35-work survey + this repo's measured degradations."""

import repro.analysis as a


def test_table1_survey(run_once, in_band):
    measured = run_once(a.measured_degradations, n_packets=800)
    in_band("table1", a.survey_summary())
    # Paper's global degradation envelope: 14.8% .. 49.2%.
    assert max(measured.values()) >= 0.35
    assert min(measured.values()) <= 0.20
