"""The package's public API: each module's ``__all__``, and their union at the top."""

import ast
import inspect
from pathlib import Path

from helpers import load_bench

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
    assert {"write_bundle", "dispersion_phase", "constant", "Q_CAP_DB",
            "Q_FLOOR_DB"} <= set(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nyquist_otdm, name) is getattr(module, name), name


def _names_in_code(path: Path) -> set:
    """The names a module's code uses, read or imported: not its comments or strings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_function_has_a_caller_in_another_module():
    """A public function is one a run calls: another module of the package
    (the CLI among them) uses it, or the traced benchmark times it by name
    (bench/tracing.py's ``TIMED``).  A helper that only its own module and
    the tests call stays private."""
    sources = {p.stem: _names_in_code(p) for p in Path(nyquist_otdm.__file__).parent.glob("*.py")}
    traced = {(module, name) for module, names in load_bench("tracing").TIMED.values()
              for name in names}
    uncalled = []
    for module in MODULES:
        stem = module.__name__.rpartition(".")[2]
        used = set().union(*(names for other, names in sources.items() if other != stem))
        uncalled += [f"{stem}.{name}" for name in module.__all__
                     if inspect.isfunction(getattr(module, name))
                     and name not in used and (stem, name) not in traced]
    assert uncalled == []
