"""The package's public surface."""

import stabctab


def test_every_exported_name_resolves():
    missing = [name for name in stabctab.__all__ if not hasattr(stabctab, name)]
    assert missing == []
    assert len(set(stabctab.__all__)) == len(stabctab.__all__)
