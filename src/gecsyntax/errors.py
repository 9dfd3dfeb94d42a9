"""Shared exception types."""


class FormatError(ValueError):
    """Malformed input file or line.

    Carries the 1-based line number (and optionally the path) so batch
    tools can report exactly where an input broke.
    """

    def __init__(self, message, lineno=None, path=None):
        self.lineno = lineno
        self.path = path
        prefix = "" if path is None else f"{path}:"
        if lineno is not None:
            prefix += f"line {lineno}: "
        elif prefix:
            prefix += " "
        super().__init__(prefix + message)
