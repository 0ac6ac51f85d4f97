import types

import hurmono


def test_all_lists_every_public_name():
    # ``from hurmono import *`` binds exactly the names the package exports
    public = {
        name
        for name, value in vars(hurmono).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(hurmono.__all__) == public
    assert len(hurmono.__all__) == len(public)
