import pytest

import ptspec
from ptspec import analytic, contour, errors, model, solver


@pytest.mark.parametrize(
    "module", [analytic, contour, errors, model, solver], ids=lambda m: m.__name__
)
def test_every_public_name_is_on_the_package(module):
    # errors has no __all__: its public names are its exception classes
    names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    assert names
    for name in names:
        assert getattr(ptspec, name, None) is getattr(module, name), name
