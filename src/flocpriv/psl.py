"""Registrable-domain (eTLD+1) extraction against a public suffix list.

Implements the standard suffix-matching algorithm: the prevailing rule is
an exception rule if any matches, otherwise the matching rule with the
most labels; wildcard labels (``*``) match exactly one label. A bundled
snapshot of common rules ships with the package; callers can load a full
list from disk instead.

By default a hostname whose TLD appears nowhere in the list is rejected
(treated as not a real registrable domain). Passing ``implicit_star=True``
restores the reference semantics where unlisted TLDs are themselves
suffixes, which is what the upstream conformance vectors assume.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources


def _ascii_label(label: str) -> str:
    """Canonical (punycode) form of one lowercase label, for matching."""
    if label.isascii():
        return label
    try:
        return label.encode("idna").decode("ascii")
    except UnicodeError:
        return label


@dataclass(frozen=True)
class SuffixSet:
    """Parsed suffix rules, keyed by canonical (punycode) form."""

    exact: frozenset[str]
    wildcard: frozenset[str]  # stored without the leading "*."
    exception: frozenset[str]  # stored without the leading "!"
    #: Labels in the longest suffix any rule can match: a wildcard rule
    #: matches one label more than its stored body.
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = [rule.count(".") + 1 for rule in (*self.exact, *self.exception)]
        labels += [rule.count(".") + 2 for rule in self.wildcard]
        object.__setattr__(self, "depth", max(labels, default=0))

    @classmethod
    def from_text(cls, text: str) -> "SuffixSet":
        exact: set[str] = set()
        wildcard: set[str] = set()
        exception: set[str] = set()
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            line = line.split()[0].lower()
            if line.startswith("!"):
                target = exception
                line = line[1:]
            elif line.startswith("*."):
                target = wildcard
                line = line[2:]
            else:
                target = exact
            target.add(".".join(_ascii_label(lb) for lb in line.split(".")))
        return cls(frozenset(exact), frozenset(wildcard), frozenset(exception))

    @classmethod
    def from_file(cls, path: str) -> "SuffixSet":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())


@lru_cache(maxsize=1)
def default_suffixes() -> SuffixSet:
    """Bundled snapshot covering common registries."""
    text = resources.files("flocpriv.data").joinpath("public_suffix_list.dat").read_text("utf-8")
    return SuffixSet.from_text(text)


def _strip_host(host: str) -> str | None:
    host = host.strip().lower()
    if host.endswith("."):
        host = host[:-1]
    if host.startswith("["):  # bracketed IPv6 literal
        return None
    if ":" in host:  # port suffix (ASCII digits) or bare IPv6 literal
        head, _, tail = host.rpartition(":")
        if not (tail.isascii() and tail.isdigit()) or ":" in head:
            return None
        host = head
    return host or None


def _is_ipv4(labels: list[str]) -> bool:
    # Labels are nonempty here, so the join is digits only if each label is.
    return len(labels) == 4 and "".join(labels).isdigit()


# Hostname labels: nonempty, and LDH plus underscore once punycoded.
_LABEL = re.compile(r"[A-Za-z0-9_-]+")
_ASCII_HOST = re.compile(rf"{_LABEL.pattern}(?:\.{_LABEL.pattern})*")


def _suffix_label_count(canon: list[str], suffixes: SuffixSet, implicit_star: bool) -> int | None:
    """Number of labels in the prevailing public suffix, or None.

    ``canon`` holds the host's canonical labels. Only suffixes of at most
    ``suffixes.depth`` labels can match a rule; each of those is built
    once, right to left, and scanning them from the longest, the first
    match is the longest.
    """
    tails = canon[max(len(canon) - suffixes.depth, 0) :]
    n = len(tails)
    for i in range(n - 2, -1, -1):
        tails[i] += "." + tails[i + 1]
    for i, tail in enumerate(tails):
        if tail in suffixes.exception:
            # An exception rule wins outright; its suffix is the rule
            # minus its leftmost label.
            return n - i - 1
    for i, tail in enumerate(tails):
        if tail in suffixes.exact or (i + 1 < n and tails[i + 1] in suffixes.wildcard):
            return n - i
    return 1 if implicit_star else None


def registrable_domain(
    host: str,
    suffixes: SuffixSet | None = None,
    *,
    implicit_star: bool = False,
) -> str | None:
    """The eTLD+1 of ``host``, or None when none exists.

    Rejections (None): empty input, IP literals, empty labels, hosts that
    are themselves public suffixes, and (unless ``implicit_star``)
    hostnames whose TLD is not in the list at all.
    """
    if suffixes is None:
        suffixes = default_suffixes()
    stripped = _strip_host(host)
    if stripped is None:
        return None
    labels = stripped.split(".")
    if stripped.isascii():
        if not _ASCII_HOST.fullmatch(stripped):
            return None
        canon = labels
    else:
        canon = [_ascii_label(lb) for lb in labels]
        if not all(_LABEL.fullmatch(lb) for lb in canon):
            return None
    if _is_ipv4(labels):
        return None
    count = _suffix_label_count(canon, suffixes, implicit_star)
    if count is None or count >= len(labels):
        return None
    return ".".join(labels[len(labels) - count - 1 :])
