"""The paper's verification checks run end to end (opt in: ``pytest -m slow``).

``verify.run_verification`` compares Terzaghi consolidation against its
analytic series solution. Thermal consolidation has no analytic comparison
yet: it checks qualitative properties only (temperature monotone in x and
bounded, pressure back to 1 % of its peak, a uniform steady temperature
and self-convergence in dt). Each runs for seconds, not milliseconds, so
the default run leaves them out.
"""

import pytest

from thmfrac.verify import format_report, run_verification


@pytest.mark.slow
@pytest.mark.parametrize("check", ["terzaghi", "thermal_consolidation"])
def test_paper_check_passes(check):
    report = run_verification(check)
    assert report["passed"], format_report(report)
