"""The package's public names: __all__ lists exactly what tacloc binds."""

import types

import tacloc


def test_all_lists_every_public_name_once():
    assert len(tacloc.__all__) == len(set(tacloc.__all__))
    assert [name for name in tacloc.__all__ if not hasattr(tacloc, name)] == []
    bound = {name for name, value in vars(tacloc).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(tacloc.__all__) - {"__version__"}
