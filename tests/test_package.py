import qclattice


def test_every_export_resolves():
    missing = [name for name in qclattice.__all__ if not hasattr(qclattice, name)]
    assert not missing
    assert len(set(qclattice.__all__)) == len(qclattice.__all__)
