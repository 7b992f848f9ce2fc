"""Every module's ``__all__`` names only what the module itself defines."""

import importlib
import pkgutil

import pytest

import qutrit_teleport

# ``__main__`` runs the CLI on import.
MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(qutrit_teleport.__path__)
    if name != "__main__"
]
PUBLIC = [
    name
    for name in MODULES
    if hasattr(importlib.import_module(f"qutrit_teleport.{name}"), "__all__")
]


def test_modules_found():
    assert {"algebra", "optics", "tomography"} <= set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_all_entries_exist_and_are_unique(name):
    module = importlib.import_module(f"qutrit_teleport.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing


@pytest.mark.parametrize("name", PUBLIC)
def test_callable_entries_defined_in_module(name):
    module = importlib.import_module(f"qutrit_teleport.{name}")
    foreign = [
        entry
        for entry in module.__all__
        if callable(getattr(module, entry))
        and getattr(getattr(module, entry), "__module__", None) != module.__name__
    ]
    assert not foreign
