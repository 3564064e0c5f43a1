"""The link-spoofing variants.

A link-spoofing intruder falsifies its HELLO advertisement in one of three
ways (Expressions 1–3 of the paper). The detector does not evaluate the
expressions: the cooperative investigation asks responders whether the
suspect's advertised links exist.
"""

from __future__ import annotations

import enum


class LinkSpoofingVariant(str, enum.Enum):
    """The three falsification options available to a link-spoofing intruder."""

    NON_EXISTENT_NEIGHBOR = "non_existent_neighbor"      # Expression 1
    FALSE_EXISTING_LINK = "false_existing_link"          # Expression 2
    OMITTED_NEIGHBOR = "omitted_neighbor"                # Expression 3

    def __str__(self) -> str:
        return self.value
