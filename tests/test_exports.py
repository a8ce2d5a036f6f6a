import mmwtrack


def test_every_exported_name_exists():
    # a stale entry breaks only `from mmwtrack import *`, which no other test runs
    assert [name for name in mmwtrack.__all__ if not hasattr(mmwtrack, name)] == []
