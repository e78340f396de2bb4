import os

import pytest

from symf.partitions import _reset_memo


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    # Keep every run away from the user's real cache directory.
    previous = os.environ.get("SYMF_CACHE_DIR")
    os.environ["SYMF_CACHE_DIR"] = str(tmp_path_factory.mktemp("symf-cache"))
    yield
    if previous is None:
        os.environ.pop("SYMF_CACHE_DIR", None)
    else:
        os.environ["SYMF_CACHE_DIR"] = previous


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private cache directory with the in-process memo cleared."""
    path = tmp_path / "cache"
    monkeypatch.setenv("SYMF_CACHE_DIR", str(path))
    _reset_memo()
    yield path
    _reset_memo()
