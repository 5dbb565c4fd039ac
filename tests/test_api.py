import nsnet


def test_every_export_resolves():
    assert [name for name in nsnet.__all__ if not hasattr(nsnet, name)] == []
    assert len(set(nsnet.__all__)) == len(nsnet.__all__)
