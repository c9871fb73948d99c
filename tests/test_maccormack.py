import numpy as np
import pytest

from surfpde.errors import SolverAbortError
from surfpde.maccormack import check_finite, maccormack_step, march


def test_step_matches_second_order_taylor():
    lam, k = -0.7, 0.05
    u = np.array([2.0, -1.0])
    new = maccormack_step(u, k, lambda direction, s: lam * s, lambda s: s)
    expected = u * (1.0 + k * lam + 0.5 * (k * lam) ** 2)
    assert np.abs(new - expected).max() < 1e-15


def test_forward_backward_rhs_see_predicted_state():
    seen = []

    def rhs(direction, s):
        seen.append((direction, s.copy()))
        return (np.zeros_like(s) if direction == "forward"
                else np.ones_like(s))

    u = np.zeros(3)
    new = maccormack_step(u, 0.1, rhs, lambda s: s)
    assert [d for d, _ in seen] == ["forward", "backward"]
    # predictor was u itself here, corrector adds k*1, average halves it
    assert np.abs(new - 0.05).max() < 1e-15


def test_extra_corrector_receives_old_state():
    u = np.array([1.0, 2.0])
    captured = {}

    def extra(full_old):
        captured["state"] = full_old.copy()
        return np.full_like(full_old, 0.25)

    new = maccormack_step(u, 0.1, lambda direction, s: 0 * s, lambda s: s,
                          extra_corrector=extra)
    np.testing.assert_array_equal(captured["state"], u)
    assert np.abs(new - (u + 0.25)).max() < 1e-15


def test_check_finite_passes_and_raises():
    check_finite(np.ones(4), step=1, time=0.1)
    bad = np.array([1.0, np.nan])
    with pytest.raises(SolverAbortError):
        check_finite(bad, step=3, time=0.3)


def test_march_returns_snapshots_sorted():
    k = 0.25
    out = march(np.zeros(2), lambda s: s + 1.0, k, [1.0, 0.25, 0.5])
    assert [t for t, _ in out] == [0.25, 0.5, 1.0]
    for t, s in out:
        np.testing.assert_array_equal(s, round(t / k))


def test_march_time_zero_is_a_copy():
    state = np.arange(3.0)
    (t, snap), = march(state, lambda s: s + 1.0, 0.1, [0.0])
    assert t == 0.0
    np.testing.assert_array_equal(snap, state)
    assert not np.shares_memory(snap, state)


def test_march_counts_steps_across_snapshots():
    # the 3rd step goes bad after the first snapshot at 2k: the abort names
    # the global step 3 and its time 3k
    k = 0.1
    calls = []

    def advance(s):
        calls.append(1)
        return s * np.nan if len(calls) == 3 else s + 1.0

    with pytest.raises(SolverAbortError) as info:
        march(np.zeros(2), advance, k, [2 * k, 5 * k])
    assert info.value.step == 3
    assert info.value.time == 3 * k


@pytest.mark.parametrize("t", [-0.5, 0.15])
def test_march_rejects_negative_or_fractional_times(t):
    with pytest.raises(ValueError, match=f"t = {t}"):
        march(np.zeros(2), lambda s: s + 1.0, 0.1, [0.2, t])
