"""The public surface: `logbound.__all__`."""

import inspect

import logbound
from logbound import errors


def test_all_resolves_once_and_exports_every_error_class():
    assert len(logbound.__all__) == len(set(logbound.__all__))
    for name in logbound.__all__:
        assert hasattr(logbound, name), name
    # a class deleted from errors but still exported, or the reverse,
    # fails here
    defined = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, Exception) and obj.__module__ == errors.__name__}
    assert defined and defined <= set(logbound.__all__)
