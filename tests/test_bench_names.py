"""The names the benchmark tracer binds exist in the package.

``bench/tracer.py`` wraps package functions by module and attribute name;
a removed or renamed function would only show when the benchmark runs.
The tracer is loaded by path and read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


def _resolve(modname, attr):
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("layer", sorted(TRACER.LAYERS))
def test_layer_resolves(layer):
    modname, attr = TRACER.LAYERS[layer]
    assert callable(_resolve(modname, attr)), layer


@pytest.mark.parametrize("layer", sorted(TRACER.SITE_LAYERS))
def test_site_layer_attributes_resolve(layer):
    modname, attrs = TRACER.SITE_LAYERS[layer]
    for attr in attrs:
        assert callable(_resolve(modname, attr)), f"{layer}: {modname}.{attr}"


def test_every_identities_layer_sees_run_verification_traffic(monkeypatch):
    """Each identities.* layer wraps a function verify reaches through a
    module global, so its span is not empty on a traced verify run."""
    import diracharmonic as dh
    from test_verify_rules import DISK_48

    modules = TRACER._package_modules()
    counts = {}
    for layer, (modname, attr) in TRACER.LAYERS.items():
        if not layer.startswith("identities."):
            continue
        original = _resolve(modname, attr)
        counts[layer] = 0

        def counted(*args, _original=original, _layer=layer, **kwargs):
            counts[_layer] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    dh.verify.run_verification(dh.parse_config(DISK_48))
    assert counts and all(counts.values()), counts
