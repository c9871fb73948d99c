import os

import pytest

from surfpde import Grid, discretize, make_surface

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture
def subprocess_env():
    """os.environ with this checkout's src first on PYTHONPATH, so a child
    interpreter imports the package under test whatever the caller set."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


@pytest.fixture(scope="session")
def sphere40():
    return discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 40))


@pytest.fixture(scope="session")
def sphere80():
    return discretize(make_surface("sphere"), Grid.cube(-1.2, 1.2, 80))


@pytest.fixture(scope="session")
def ellipsoid40():
    return discretize(make_surface("ellipsoid"), Grid.cube(-1.2, 1.2, 40))
