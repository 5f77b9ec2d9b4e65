import admmkit


def test_every_exported_name_resolves():
    missing = [name for name in admmkit.__all__ if not hasattr(admmkit, name)]
    assert missing == []
    assert len(set(admmkit.__all__)) == len(admmkit.__all__)
