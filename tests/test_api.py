"""The package's public surface: every exported name exists, once."""

import sloccsim


def test_every_exported_name_resolves():
    missing = [name for name in sloccsim.__all__ if not hasattr(sloccsim, name)]
    assert missing == []


def test_every_exported_name_is_listed_once():
    repeated = sorted({name for name in sloccsim.__all__ if sloccsim.__all__.count(name) > 1})
    assert repeated == []
