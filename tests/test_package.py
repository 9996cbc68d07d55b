"""The package namespace: every exported name resolves, no removed type is listed,
and importing the package leaves numpy.random unloaded."""

import subprocess
import sys

import vortex_uca as v

# Wrappers around a single array or tuple, replaced by the array or tuple itself.
REMOVED = ("ChannelMatrix", "ModeChannelMatrix", "ElementSignalVector", "ModeIndexSet")


def test_every_exported_name_resolves():
    assert len(v.__all__) == len(set(v.__all__))
    for name in v.__all__:
        assert getattr(v, name, None) is not None, name


def test_removed_wrapper_types_are_gone():
    for name in REMOVED:
        assert name not in v.__all__ and not hasattr(v, name), name


def test_import_does_not_load_numpy_random():
    # numpy.random costs about 6 MB of memory; only noise draws load it.
    probe = "import sys, vortex_uca; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
