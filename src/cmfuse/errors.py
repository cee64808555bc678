"""Shared exception types."""

from __future__ import annotations

from typing import Sequence


class IntegrationError(Exception):
    """Base class for every error raised by this package."""


class DocumentError(IntegrationError):
    """A document failed to parse or broke a structural invariant.

    Carries one diagnostic per violation so callers can report all of
    them in a single pass.
    """

    def __init__(self, source: str, diagnostics: Sequence[str]):
        self.source = source
        self.diagnostics = list(diagnostics)
        message = "\n".join(f"{source}: {d}" for d in self.diagnostics)
        # a diagnostic may quote a lone surrogate of the input, as in an
        # unknown key; written as its escape, the message prints as UTF-8
        super().__init__(message.encode("utf-8", "backslashreplace").decode("utf-8"))


class MergeError(IntegrationError):
    """An alignment and the concept graphs handed to merge disagree."""
