"""Given-name matching in hostnames (Section 5.1).

Hostnames "contain" a given name when the name appears as a substring
(``brians-iphone`` contains *brian*; the city ``jacksonville`` contains
*jackson* — the confound the suffix thresholds must absorb).  Only
names of at least three characters are considered, mirroring the
paper's note that shorter terms "add a lot of noise".

The list is the 50 popular given names of
:data:`~repro.datasets.names.TOP_GIVEN_NAMES`, so a plain ``name in
hostname`` loop over it is all the matching one hostname needs: fifty
substring tests run in C are cheaper per hostname than a multi-pattern
matcher stepped one character at a time in Python.  Many hostnames at
once are matched by :func:`find_all`: one ``str.find`` sweep per
pattern over the hostnames joined into one text.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set

import numpy as np

from repro.datasets.names import TOP_GIVEN_NAMES

#: Names shorter than this are dropped as too noisy.
MIN_NAME_LENGTH = 3

#: The label separator.  No given name (checked by
#: :class:`GivenNameMatcher`) or device term contains it, so a match
#: never spans two labels, nor two texts that :func:`find_all` joins.
LABEL_BREAK = "."


def find_all(texts: Sequence[str], patterns: Sequence[str]) -> np.ndarray:
    """Which pattern occurs in which text: ``found[text, pattern]``.

    One ``str.find`` sweep per pattern over the texts joined by
    :data:`LABEL_BREAK`, which no pattern may contain; the hit offsets
    map back to texts with ``np.searchsorted``.

    >>> find_all(["annabel", "bob", "joanna"], ["ann", "bob"]).tolist()
    [[True, False], [False, True], [True, False]]
    """
    text = LABEL_BREAK.join(texts)
    widths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) + 1
    starts = np.cumsum(widths) - widths
    found = np.zeros((len(texts), len(patterns)), dtype=bool)
    find = text.find
    for index, pattern in enumerate(patterns):
        positions = []
        at = find(pattern)
        while at >= 0:
            positions.append(at)
            at = find(pattern, at + 1)
        found[np.searchsorted(starts, positions, side="right") - 1, index] = True
    return found


class GivenNameMatcher:
    """Finds given names contained in hostnames."""

    def __init__(self, names: Sequence[str] = tuple(TOP_GIVEN_NAMES)):
        cleaned = []
        for name in names:
            name = name.lower().strip()
            if len(name) >= MIN_NAME_LENGTH:
                cleaned.append(name)
        if not cleaned:
            raise ValueError("no usable names after the length filter")
        if any(LABEL_BREAK in name for name in cleaned):
            raise ValueError(f"given names must not contain {LABEL_BREAK!r}")
        # Longest first so 'jackson' wins over 'jack' if both are listed;
        # the alphabetical tiebreak makes equal-length ordering stable
        # across processes (plain ``sorted(set(...), key=len)`` depended
        # on hash-randomised set order).
        self.names: List[str] = sorted(set(cleaned), key=lambda name: (-len(name), name))
        self._name_set: FrozenSet[str] = frozenset(self.names)

    def match(self, hostname: str) -> Set[str]:
        """All names contained in ``hostname`` (lower-cased substring).

        >>> sorted(GivenNameMatcher(["jack", "jackson", "ville"]).match("Jacksonville.example.net"))
        ['jack', 'jackson', 'ville']
        """
        hostname = hostname.lower()
        return {name for name in self.names if name in hostname}

    def matches(self, hostname: str) -> bool:
        hostname = hostname.lower()
        return any(name in hostname for name in self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._name_set

    def __len__(self) -> int:
        return len(self.names)
