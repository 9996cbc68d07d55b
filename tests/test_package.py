"""The package namespace: every exported name resolves, and no removed type is listed."""

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
