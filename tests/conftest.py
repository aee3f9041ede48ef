import shutil

import pytest

from latgas import build_model, macroscopic_flux, native, sim


@pytest.fixture(scope="session")
def pm1():
    return build_model("pm1")


@pytest.fixture(scope="session")
def two_lane():
    return build_model("two-lane", gamma=0.3)


@pytest.fixture(scope="session")
def pm1_flux(pm1):
    return macroscopic_flux(pm1)


@pytest.fixture(scope="session")
def two_lane_flux(two_lane):
    return macroscopic_flux(two_lane)


@pytest.fixture(params=[None, "false"])
def without_compiler(request, monkeypatch, tmp_path):
    """No C compiler, or one that fails, over an empty kernel cache (the
    returned directory)."""
    path = request.param and shutil.which(request.param)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_find_compiler", lambda: path)
    return tmp_path


@pytest.fixture
def c_sites():
    if sim.SITES.backend != "c":
        pytest.skip("no C compiler to build the site kernel")
