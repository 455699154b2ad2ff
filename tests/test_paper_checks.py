"""The paper's verification checks run end to end (opt in: ``pytest -m slow``).

Terzaghi consolidation and thermal consolidation are compared against their
analytic solutions by ``verify.run_verification``; each runs for seconds,
not milliseconds, so the default run leaves them out.
"""

import pytest

from thmfrac.verify import format_report, run_verification


@pytest.mark.slow
@pytest.mark.parametrize("check", ["terzaghi", "thermal_consolidation"])
def test_paper_check_passes(check):
    report = run_verification(check)
    assert report["passed"], format_report(report)
