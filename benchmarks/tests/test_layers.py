"""The layer table names every source file of the program, explicitly."""

import os

import pytest

import layers
from conftest import ROOT_DIR

REPRO_ROOT = os.path.join(ROOT_DIR, "src", "repro")


def source_files():
    found = []
    for directory, _subdirs, files in os.walk(REPRO_ROOT):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                found.append(os.path.relpath(path, REPRO_ROOT).replace(os.sep, "/"))
    return sorted(found)


def test_every_source_file_is_named():
    unmapped = [path for path in source_files() if path not in layers.FILE_LAYER]
    assert not unmapped, f"add these files to benchmarks/layers.py FILE_LAYER: {unmapped}"


def test_no_stale_entries():
    stale = sorted(set(layers.FILE_LAYER) - set(source_files()))
    assert not stale, f"FILE_LAYER names files that no longer exist: {stale}"


def test_every_layer_is_known_and_used():
    assert set(layers.FILE_LAYER.values()) == set(layers.LAYERS)
    assert len(layers.LAYERS) == 24


def test_layer_of():
    assert layers.layer_of(os.path.join(REPRO_ROOT, "net", "topology.py"), REPRO_ROOT) == "testbeds"
    assert layers.layer_of(os.path.join(REPRO_ROOT, "lib", "sbfs.py"), REPRO_ROOT) == "other"
    assert layers.layer_of("/usr/lib/python3/random.py", REPRO_ROOT) == "other"
    assert layers.layer_of(layers._IDLE_APP, REPRO_ROOT) == "apps.workload"
    with pytest.raises(KeyError):
        layers.layer_of(os.path.join(REPRO_ROOT, "net", "brand_new.py"), REPRO_ROOT)


def test_generated_dataclass_methods_are_attributed_to_their_module():
    import repro.net.address as address

    owners = layers.generated_code_files()
    assert owners[address.NodeRef.__eq__.__code__] == address.__file__
