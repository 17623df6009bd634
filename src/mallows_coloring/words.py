"""Words: finite color sequences indexed by an integer interval."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np


@dataclasses.dataclass(frozen=True)
class Word:
    """A word over the alphabet {1, ..., alphabet} indexed by [start, start+n-1].

    A word is proper if no two adjacent characters are equal; proper words
    are exactly the q-colorings of their index interval.
    """

    start: int
    chars: tuple[int, ...]
    alphabet: int

    def __post_init__(self):
        object.__setattr__(self, "chars", tuple(int(c) for c in self.chars))
        if self.alphabet < 1:
            raise ValueError("alphabet must be at least 1")
        for c in self.chars:
            if not 1 <= c <= self.alphabet:
                raise ValueError(f"character {c} outside alphabet 1..{self.alphabet}")

    @classmethod
    def from_string(cls, text: str, alphabet: int, start: int = 1) -> Word:
        """Parse single-digit colors, e.g. "121" -> (1, 2, 1)."""
        return cls(start, tuple(int(ch) for ch in text), alphabet)

    def __len__(self) -> int:
        return len(self.chars)

    @property
    def end(self) -> int:
        """Last index; start - 1 for the empty word."""
        return self.start + len(self.chars) - 1

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start, self.end)

    def reverse(self) -> Word:
        return Word(self.start, self.chars[::-1], self.alphabet)

    def append(self, c: int) -> Word:
        return Word(self.start, self.chars + (int(c),), self.alphabet)

    def prepend(self, c: int) -> Word:
        return Word(self.start - 1, (int(c),) + self.chars, self.alphabet)

    def pattern(self) -> tuple[int, ...]:
        """color_pattern of the characters."""
        return color_pattern(self.chars)


def color_pattern(chars: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical color pattern: first-seen colors renamed 1, 2, 3, ...

    Two words have equal patterns iff one is a color relabeling of the
    other; all counting quantities downstream depend only on this.
    """
    seen: dict[int, int] = {}
    out = []
    for c in chars:
        if c not in seen:
            seen[c] = len(seen) + 1
        out.append(seen[c])
    return tuple(out)


def is_proper(chars: tuple[int, ...]) -> bool:
    """True iff no two adjacent characters are equal."""
    return all(a != b for a, b in zip(chars, chars[1:]))


def word_tuples(q: int, n: int):
    """All q^n words of length n over 1..q as tuples of characters, in
    lexicographic order; word_columns lays them out in the same order."""
    return itertools.product(range(1, q + 1), repeat=n)


def word_columns(q: int, n: int, cap: int) -> np.ndarray:
    """All q^n words of length n over 1..q as the columns of an int8 array
    of shape (n, q^n); column r is the r-th tuple of word_tuples(q, n).
    More than `cap` words, or q above 127, is refused before any array is
    built."""
    if q**n > cap:
        raise ValueError(f"{q}^{n} words above the batch cap {cap}")
    if q > 127:
        raise ValueError(f"q={q} does not fit int8 words")
    return np.indices((q,) * n, dtype=np.int8).reshape(n, q**n) + 1
