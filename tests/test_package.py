from types import ModuleType

import cutstack


def test_all_lists_exactly_the_public_names():
    """Every name ``__all__`` lists is bound in the package, so ``from
    cutstack import *`` resolves it, and every public name is listed: a
    deleted name must leave ``__all__`` and a new one must join it."""
    public = {name for name, value in vars(cutstack).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(cutstack.__all__) == sorted(public)
