import numpy as np
import pytest

from surfpde.fields import error_norms


def test_error_norms_scalar():
    exact = np.array([1.0, -2.0, 2.0, 0.5])
    computed = exact + np.array([0.1, 0.0, -0.2, 0.0])
    rmax, rl2 = error_norms(computed, exact)
    assert rmax == pytest.approx(0.2 / 2.0)
    assert rl2 == pytest.approx(np.sqrt((0.01 + 0.04) / 4)
                                / np.sqrt((1 + 4 + 4 + 0.25) / 4))


def test_error_norms_exact_match():
    exact = np.linspace(-1, 1, 7)
    assert error_norms(exact.copy(), exact) == (0.0, 0.0)


def test_error_norms_vector_fields_use_euclidean_magnitude():
    exact = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
    computed = exact.copy()
    computed[0, 0] += 0.5
    rmax, _ = error_norms(computed, exact)
    assert rmax == pytest.approx(0.5 / 5.0)


def test_error_norms_rejects_zero_reference():
    with pytest.raises(ValueError):
        error_norms(np.ones(3), np.zeros(3))

