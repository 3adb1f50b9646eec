"""Helpers shared by the tests of the per-domain cache files: reading a
cache directory, naming a domain's file, and watching what the capacity
sources open and grow."""

import json
import os

import symcap.capacities as cap


def domain_files(path) -> dict:
    """{key: payload} of the domain files in path, each named by its key."""
    files = {}
    for p in path.iterdir():
        payload = json.loads(p.read_text())
        assert payload["version"] == cap._FORMAT
        assert p.name == os.path.basename(cap._cache_path("", payload["key"]))
        files[payload["key"]] = payload
    return files


def file_of(path, d):
    return path / os.path.basename(cap._cache_path("", d.key))


def no_growth(monkeypatch):
    """Make every source with a cache file fail if it grows."""
    def no_grow(self, k):
        raise AssertionError(f"{self.domain.key} grew to k={k}")

    for kind in cap._SOURCE_KINDS.values():
        if issubclass(kind, cap._Prefix):
            monkeypatch.setattr(kind, "_grow", no_grow)


def opened_paths(monkeypatch) -> list:
    """Paths opened through capacities' own binding of open."""
    paths = []

    def recording(path, *args, **kwargs):
        paths.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cap, "open", recording, raising=False)
    return paths
