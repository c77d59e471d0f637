"""The acceptance surface the ``law-checks`` benchmark workload calls.

``bench/workloads.py`` reads ``acceptance.FULL.shorth_ks_n`` and
``.shorth_ks_replicates``, calls ``check_shorth_r_law`` and
``check_shorth_m_law`` as ``(tier, seed, workers)``, and reads ``passed``,
``detail``, ``measured["ks"]`` and ``measured["emp_sd"]`` of the result.  A
rename there fails the benchmark; this test fails first.  ``run_cells``
returns a small fixed record set, so no shorth fit runs.
"""

import numpy as np
import pytest

from mixedrates import acceptance
from mixedrates.harness import LadderRecord

TIER = acceptance.FULL


@pytest.fixture
def fixed_records(monkeypatch):
    n = TIER.shorth_ks_n
    gen = np.random.default_rng(0)
    recs = [
        LadderRecord("shorth", n, r, c, float(e))
        for r in range(100)
        for c, e in (("m", gen.normal(0.0, n ** (-1 / 3))), ("r", gen.normal(0.0, n**-0.5)))
    ]
    monkeypatch.setattr(acceptance, "run_cells", lambda *args: recs)


@pytest.mark.parametrize("name", ["check_shorth_r_law", "check_shorth_m_law"])
def test_shorth_law_check_has_the_benchmark_surface(fixed_records, name):
    assert isinstance(TIER.shorth_ks_n, int) and isinstance(TIER.shorth_ks_replicates, int)
    res = getattr(acceptance, name)(TIER, 2024, 2)
    assert isinstance(res.passed, bool)
    assert isinstance(res.detail, str) and res.detail
    assert 0.0 <= res.measured["ks"] <= 1.0
    assert res.measured["emp_sd"] > 0.0
