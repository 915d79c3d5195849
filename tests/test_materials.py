from twinforge.materials import MATERIALS, material_lookup


def test_builtin_table_rows():
    assert len(MATERIALS) == 9
    for name in MATERIALS:
        assert material_lookup(name) == (name, True)


def test_lookup_known_and_unknown():
    assert material_lookup("ceramic") == ("ceramic", True)
    assert material_lookup("unobtanium") == ("default", False)
    assert material_lookup("  Wood ") == ("wood", True)
