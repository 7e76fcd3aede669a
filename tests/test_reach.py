"""The reachability gate of `reach.py`, on a small planted module: no digest
job runs here."""

import importlib.util

import reach

MODULE = '''\
import functools


def called():
    return helper() + Box().size


def helper():
    def inner():
        return 1
    return inner()


def planted():
    return 0


class Box:
    def __init__(self):
        self.items = []

    def __repr__(self):
        return "Box()"

    @property
    def size(self):
        return len(self.items)

    @functools.cache
    def unused(self):
        return None
'''


def run_planted(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(MODULE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, reach.entered(module.called)


class TestFindings:
    def test_reports_the_functions_never_entered(self, tmp_path):
        path, seen = run_planted(tmp_path)
        assert reach.findings([path], seen, {}) == [
            "never entered: planted.planted (planted.py:14)",
            "never entered: planted.Box.unused (planted.py:29)",
        ]

    def test_allowed_names_are_not_reported(self, tmp_path):
        path, seen = run_planted(tmp_path)
        allowed = {"planted.planted": "kept", "planted.Box.unused": "kept"}
        assert reach.findings([path], seen, allowed) == []

    def test_reports_an_allowed_entry_that_was_entered(self, tmp_path):
        path, seen = run_planted(tmp_path)
        allowed = {"planted.planted": "kept", "planted.Box.unused": "kept", "planted.helper.inner": "kept"}
        assert reach.findings([path], seen, allowed) == ["stale ALLOWED entry: planted.helper.inner was entered"]

    def test_reports_an_allowed_entry_that_no_longer_exists(self, tmp_path):
        path, seen = run_planted(tmp_path)
        allowed = {"planted.planted": "kept", "planted.Box.unused": "kept", "planted.gone": "kept"}
        assert reach.findings([path], seen, allowed) == ["stale ALLOWED entry: planted.gone no longer exists"]

    def test_dunder_methods_are_exempt(self, tmp_path):
        # __repr__ is never called, and no finding names it or __init__
        path, _ = run_planted(tmp_path)
        names = set(reach.definitions(path, "planted").values())
        assert names == {"planted.called", "planted.helper", "planted.helper.inner", "planted.planted",
                         "planted.Box.size", "planted.Box.unused"}
