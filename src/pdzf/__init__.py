"""Exact computation for restricted power domination and zero forcing.

A power dominating set observes its closed neighborhood and then runs
the zero forcing color change rule to completion; the restricted variant
requires a given vertex set X inside the solution.  The package provides
the propagation processes, several independent exact solvers, fort
machinery, graph families, decomposition and composition rules, and a
catalogue of verified bounds, all over an immutable bitmask graph type.

Each module's ``__all__`` declares its public names; this package
re-exports every one of them.  The re-export is lazy (PEP 562): ``import
pdzf`` loads no submodule, and a name loads its module on first access
and is then cached, so a command line call pays only for what it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = (
    "errors",
    "graph",
    "propagation",
    "constructions",
    "forts",
    "solver",
    "decomposition",
    "bounds",
)


def __getattr__(name: str):
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    if name == "__all__":
        value = ["__version__"]
        for module in _MODULES:
            value += __getattr__(module).__all__
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
