import pytest

from surfpde import Grid, discretize, make_surface


@pytest.fixture(scope="session")
def sphere40():
    return discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 40))


@pytest.fixture(scope="session")
def sphere80():
    return discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 80))


@pytest.fixture(scope="session")
def ellipsoid40():
    return discretize(make_surface("ellipsoid"), Grid.cube(-1.2, 1.2, 40))
