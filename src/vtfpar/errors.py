"""The package's three error classes, one per CLI exit code.

The CLI maps them onto exit codes: UsageError -> 1, DataError -> 2,
VerificationError -> 3. No other module defines an exception class.
"""


class UsageError(Exception):
    """Bad flags, invalid configuration values, misuse of an API."""


class DataError(Exception):
    """Broken or inconsistent on-disk data: schemas, frames, checkpoints."""


class VerificationError(Exception):
    """A numeric verification (gradient check) failed."""
