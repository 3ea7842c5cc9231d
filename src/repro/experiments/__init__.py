"""The declarative experiment layer (DESIGN.md §12).

:mod:`repro.experiments.experiment` holds the :class:`Experiment`
dataclass and :func:`run_fleet`, the one way to run a fleet;
:mod:`repro.experiments.registry` holds the registered instances (the
censuses and the bench arms) and is loaded lazily — it imports
:mod:`repro.core`, which itself builds on this package's experiment
machinery, so eager loading here would cycle during package init.
"""

from .experiment import Experiment, run_fleet

__all__ = [
    "Experiment",
    "build_experiment",
    "run_fleet",
]


def build_experiment(name: str, **kwargs) -> Experiment:
    """Build a registered experiment's :class:`Experiment` by name."""
    from .registry import get_experiment

    return get_experiment(name).build(**kwargs)


def __getattr__(name: str):
    # Lazy registry access (see the module docstring for the cycle).
    if name in (
        "ExperimentDef",
        "experiment_defs",
        "experiment_names",
        "get_experiment",
        "register_experiment",
    ):
        from . import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
