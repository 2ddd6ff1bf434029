import qakge


def test_every_export_resolves_and_is_listed_once():
    names = qakge.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qakge, name) is not None, name
