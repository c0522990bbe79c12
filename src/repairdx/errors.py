"""Error taxonomy shared across the toolkit.

Problems with user-supplied data are distinct from problems with the
environment the tool runs in, such as an output path it cannot write;
the CLI maps the former to exit code 1 and the latter to exit code 2.
"""


class InputError(Exception):
    """User-supplied data or arguments are invalid (exit code 1)."""


class UsageError(InputError):
    """Malformed command line (exit code 1)."""


class EnvironmentFailure(Exception):
    """The toolkit cannot operate in this environment (exit code 2)."""
