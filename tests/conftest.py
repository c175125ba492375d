import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) records the args of every call to fn until the test ends.

    fn is replaced in every loaded latticejost module that binds it, so calls
    through any import path are counted.
    """

    def patch(fn) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("latticejost") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
        return calls

    return patch
