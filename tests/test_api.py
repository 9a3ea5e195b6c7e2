"""The package's public API: each module's ``__all__``, and their union at the top."""

import inspect

import nyquist_otdm
from nyquist_otdm import core, demux, link, modem, mzm, nyquist, scenario

MODULES = (core, demux, link, modem, mzm, nyquist, scenario)


def test_every_public_function_and_class_is_in_its_module_all():
    for module in MODULES:
        own = {name for name, value in vars(module).items()
               if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
        assert own <= set(module.__all__), (module.__name__, sorted(own - set(module.__all__)))


def test_package_exports_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert set(nyquist_otdm.__all__) - {"__version__"} == set(names)
    assert {"write_bundle", "dispersion_phase", "constant", "decide_indices", "log10_mean",
            "Q_CAP_DB", "Q_FLOOR_DB"} <= set(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nyquist_otdm, name) is getattr(module, name), name
