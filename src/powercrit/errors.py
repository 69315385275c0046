"""Exception types shared across the package."""


class GroupSpecError(ValueError):
    """Raised when a group-spec string does not parse.

    The message always names the offending token and its position in the
    original input.
    """


class SettingError(Exception):
    """An environment variable the package reads holds a malformed value.

    Not a ValueError, so the group-spec parser never mistakes it for a
    bad spec.
    """


class ScaleError(RuntimeError):
    """An operation was asked to run above the scale its mode supports.

    Carries a human-readable description of the limit that was exceeded,
    e.g. the materialization threshold for full-graph analyses.
    """


class ResourceLimitError(RuntimeError):
    """A bounded computation (subgroup closure) exceeded its element cap."""


class InternalConsistencyError(RuntimeError):
    """Two independent derivations of the same quantity disagreed.

    This is never repaired silently: it indicates a bug, not bad input.
    """
