"""The public surface of `dwfnet`: the names its own imports bind."""

import hashlib
import types

import dwfnet


def test_public_names_are_the_package_imports():
    names = dwfnet.__all__
    assert len(names) == len(set(names)) == 48
    assert set(names) == {
        name for name, value in vars(dwfnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    star = {}
    exec("from dwfnet import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    # pins the names themselves, so adding or dropping an import fails here
    digest = hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest()
    assert digest == "14ea33d5fdcf697e4d7d090c64162a110b538242dc51c490c2cb0719a95acfac"
