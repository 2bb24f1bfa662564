"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Every tolerance is exact; timed criteria assert their wall-clock budget.
"""

import time

import pytest

from bstwist import intmat, selftest
from bstwist.selftest import ACCEPTANCE_CHECKS

BUDGETS = {  # seconds, where the criterion carries one
    "klein-ball-count": 30.0,
    "oracle-equivalence": 60.0,
}


@pytest.mark.parametrize("name,check", ACCEPTANCE_CHECKS,
                         ids=[name for name, _ in ACCEPTANCE_CHECKS])
def test_acceptance(name, check, capsys):
    start = time.monotonic()
    passed, detail = check()
    elapsed = time.monotonic() - start
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\n[{status}] {name} ({elapsed:.1f}s): {detail}")
    assert passed, detail
    if name in BUDGETS:
        assert elapsed < BUDGETS[name], f"{name} took {elapsed:.1f}s"


def test_a_validation_crash_fails_the_check(monkeypatch):
    # every spec the certificate checks use is valid, so a raise is a fault
    # and must not leave a check with nothing to certify and a PASS
    def refuse(spec):
        raise RuntimeError("validation refused")

    monkeypatch.setattr(selftest, "endo_validate", refuse)
    results = {name: (passed, detail) for name, passed, detail in selftest.run_all()}
    for name in ("coincidence-certificates", "infinitude-certificates"):
        assert results[name] == (False, "raised RuntimeError: validation refused")


def test_snf_oracle_takes_one_snf_per_matrix(monkeypatch):
    # the skip of singular matrices reads the same SNF as the box oracle
    seen, real = [], selftest.snf

    def recording(M):
        seen.append(M)  # kept alive, so no two share an id
        return real(M)

    # both names: the check's own import and the one intmat reads inside
    monkeypatch.setattr(selftest, "snf", recording)
    monkeypatch.setattr(intmat, "snf", recording)
    assert selftest.check_snf_oracle()[0]
    assert len(seen) >= selftest.SNF_SAMPLES
    assert len({id(M) for M in seen}) == len(seen)
