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


def test_moved_names_keep_their_old_imports():
    # TooLargeError lives in perms, next to the one degree guard; marked re-exports it
    from hurmono import marked, moves, perms

    assert hurmono.TooLargeError is marked.TooLargeError is perms.TooLargeError
    assert hurmono.BOUNDARY_LABELS is moves.BOUNDARY_LABELS
    assert moves.BOUNDARY_LABELS == tuple(moves.COLLIDING) == ("zero", "one", "infty")
