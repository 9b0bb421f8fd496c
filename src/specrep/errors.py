"""Error types shared across the package."""

from __future__ import annotations


class SpecrepError(Exception):
    """Base class for all package errors."""


class UnsupportedType(SpecrepError):
    """Cartan type string or (family, rank) pair outside the classical range."""


class TypeMismatch(SpecrepError):
    """Operands built from different root systems."""


class BadAlpha(SpecrepError):
    """alpha must lie in Delta - J."""


class NotQuasiParabolic(SpecrepError):
    """Root set is not an intersection of Phi_J(w)'s."""


class NonPrimeCharacteristic(SpecrepError):
    """Mod-p computations need a prime p below 2^31."""


class NotOmegaElement(SpecrepError):
    """Element is not in the Omega subgroup."""


class NoWitness(SpecrepError):
    """Exhaustive witness search came up empty."""


class CapExceeded(SpecrepError):
    """Enumeration would exceed the configured cap; never silently sampled."""


class ChainInvalid(SpecrepError):
    """A chain step failed its invariant."""


class CheckFailed(SpecrepError):
    """A verified identity or invariant did not hold."""


def ensure(ok: bool, what: str) -> None:
    """Raise CheckFailed unless ok; unlike assert, this survives python -O."""
    if not ok:
        raise CheckFailed(what)
