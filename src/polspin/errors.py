"""Domain-specific error types shared across modules."""


class PolspinError(Exception):
    """Base class for all simulator errors."""


class ConfigError(ValueError):
    """Raised for a config, sweep or command-line value that the program
    refuses as input; the CLI exits 2 on it."""


class HeavyHoleTopmost(PolspinError):
    """Raised when a coherent-transfer scheme is requested but the heavy-hole
    band sits on top (compressive strain), which cannot produce the required
    single non-degenerate initial valence state."""


class NoPrecession(PolspinError):
    """Raised when a precession period is requested at zero g-factor or
    zero field."""


class DarkDirection(PolspinError):
    """Raised when an emission direction has zero transverse projection for
    every recombination branch, so no photon can be collected."""
