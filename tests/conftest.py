import os
from concurrent.futures import Future

import pytest

from surfpde import Grid, discretize, make_surface

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class InlineExecutor:
    """A ThreadPoolExecutor stand-in that runs each task on the calling
    thread when it is submitted."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def run_inline(monkeypatch):
    """run_inline(module) makes `module` run its worker tasks on the calling
    thread, by replacing its ThreadPoolExecutor with InlineExecutor."""
    def patch(module):
        monkeypatch.setattr(module, "ThreadPoolExecutor", InlineExecutor)
    return patch


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
