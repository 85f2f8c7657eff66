"""The package's public names are its modules' ``__all__`` lists, each name listed once."""

import inspect

import fracdim2d
from fracdim2d import boxdim, constructions, core, fracint, variation, verify

MODULES = (core, fracint, variation, boxdim, verify, constructions)


def test_the_package_exports_its_modules_lists_and_nothing_else():
    listed = [name for mod in MODULES for name in mod.__all__]
    assert fracdim2d.__all__ == [*listed, "__version__"]
    assert len(set(fracdim2d.__all__)) == len(fracdim2d.__all__)


def test_every_listed_function_or_class_belongs_to_the_module_that_lists_it():
    # a name a module imports cannot enter its list, so no name is exported by two modules
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == mod.__name__, (mod.__name__, name)
            assert getattr(fracdim2d, name) is obj, name
