"""The names the ``gboost`` package exports."""

import gboost
import gboost.fst


def test_every_exported_name_resolves():
    assert [name for name in gboost.__all__ if not hasattr(gboost, name)] == []
    assert len(set(gboost.__all__)) == len(gboost.__all__)


def test_arc_is_an_acceptor_arc():
    """An arc carries one label, read and written alike."""
    assert gboost.Arc._fields == ("source", "target", "label", "weight")


def test_apply_diff_is_not_exported():
    """``enhance`` is the one way to derive a graph; a caller replays a diff itself."""
    assert "apply_diff" not in gboost.__all__
    assert not hasattr(gboost, "apply_diff") and not hasattr(gboost.fst, "apply_diff")
