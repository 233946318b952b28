"""The benchmark's span tracer must find every name it wraps."""

import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    t = tracer.Tracer()
    try:
        t.install()  # raises AttributeError if a wrapped name is gone
        installed = list(t._installed)
        originals = {}
        for owner, attr, orig in installed:
            originals.setdefault((owner, attr), orig)
            assert getattr(owner, attr) is not orig, f"{owner.__name__}.{attr} not wrapped"
    finally:
        t.uninstall()
    assert installed
    for (owner, attr), orig in originals.items():
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"
