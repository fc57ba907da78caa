"""The package's public surface: every exported name resolves, once."""

import qmedian


def test_all_names_resolve_without_duplicates():
    missing = [name for name in qmedian.__all__ if not hasattr(qmedian, name)]
    assert missing == []
    assert len(qmedian.__all__) == len(set(qmedian.__all__))
