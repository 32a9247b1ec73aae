"""A suite check fails on NaN: each is written as the condition that must
hold, so a solver that returns a NaN bracket cannot pass ``picknorm verify``.
An unknown suite name is an error, not an empty run."""

import math

import pytest

from picknorm import NormResult, verify
from picknorm import finitemodel as fm

NAN_BRACKET = NormResult(math.nan, math.nan, {}, 0)


def test_nan_brackets_fail_remark1(monkeypatch):
    monkeypatch.setattr(verify, "compute_np_norm", lambda problem: NAN_BRACKET)
    res = verify.suite_remark1(seed=1, per_backend=3)
    assert not res.passed
    assert res.failures == res.checks == 21
    assert math.isnan(res.worst_slack)


def test_nan_brackets_fail_oracle_equivalence(monkeypatch):
    monkeypatch.setattr(fm, "np_norm_generic", lambda *args, **kwargs: NAN_BRACKET)
    res = verify.suite_oracle_equivalence(seed=1, per_kind=3)
    assert not res.passed
    assert res.failures == res.checks == 9


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope")
