"""Phase timer bookkeeping."""

import time

import pytest

from rvqcodec.timing import PhaseTimer


def test_all_phases_start_at_zero():
    t = PhaseTimer()
    assert t.as_dict() == {
        "quantize": 0.0,
        "autoregressive": 0.0,
        "pack": 0.0,
        "entropy_code": 0.0,
        "tables": 0.0,
    }


def test_phase_accumulates_across_entries():
    t = PhaseTimer()
    with t.phase("pack"):
        time.sleep(0.01)
    first = t.as_dict()["pack"]
    with t.phase("pack"):
        time.sleep(0.01)
    second = t.as_dict()["pack"]
    assert first > 0.0
    assert second > first
    # other phases untouched
    assert t.as_dict()["entropy_code"] == 0.0


def test_unknown_phase_rejected():
    t = PhaseTimer()
    with pytest.raises(ValueError, match="phase"):
        with t.phase("warmup"):
            pass


def test_phase_records_even_when_the_body_raises():
    t = PhaseTimer()
    with pytest.raises(RuntimeError):
        with t.phase("quantize"):
            time.sleep(0.005)
            raise RuntimeError("boom")
    assert t.as_dict()["quantize"] > 0.0
