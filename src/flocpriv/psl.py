"""Registrable-domain (eTLD+1) extraction against a public suffix list.

Implements the standard suffix-matching algorithm: the prevailing rule is
an exception rule if any matches, otherwise the matching rule with the
most labels; wildcard labels (``*``) match exactly one label. A bundled
snapshot of common rules ships with the package; callers can load a full
list from disk instead.

The rules are held as a label trie, read right to left and built once per
``SuffixSet``. A host is matched by one walk down it: one dict step per
label from the TLD leftwards, stopping at the first label with no child,
so no candidate suffix string is built.

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

from .manifest import read_text


def _ascii_label(label: str) -> str:
    """Canonical (punycode) form of one lowercase label, for matching."""
    if label.isascii():
        return label
    try:
        return label.encode("idna").decode("ascii")
    except UnicodeError:
        return label


#: Bits of a trie node's ``kinds``: the rules that end at that node.
_EXACT, _WILDCARD, _EXCEPTION = _KINDS = (1, 2, 4)


def _check_rule(rule: str, body: str) -> None:
    """``ValueError`` naming ``rule`` unless its ``body`` (the rule less a leading
    ``!`` or ``*.``) could ever match: no empty label, and no ``*`` left in it."""
    if "" in body.split("."):
        raise ValueError(f"suffix rule {rule!r} has an empty label")
    if "*" in body:
        raise ValueError(f"suffix rule {rule!r} has a '*' other than a leading '*.' label")


@dataclass(frozen=True)
class SuffixSet:
    """Parsed suffix rules, keyed by canonical (punycode) form."""

    exact: frozenset[str]
    wildcard: frozenset[str]  # stored without the leading "*."
    exception: frozenset[str]  # stored without the leading "!"
    #: The rules as a label trie read right to left: each label maps to
    #: ``[children, kinds]`` for the suffix that ends with it.
    trie: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Build the trie; a rule that could never match raises ``ValueError``."""
        trie: dict = {}
        rule_sets = (self.exact, self.wildcard, self.exception)
        for rules, kind, prefix in zip(rule_sets, _KINDS, ("", "*.", "!")):
            for rule in rules:
                _check_rule(prefix + rule, rule)
                node = [trie, 0]
                for label in reversed(rule.split(".")):
                    node = node[0].setdefault(label, [{}, 0])
                node[1] |= kind
        object.__setattr__(self, "trie", trie)

    @classmethod
    def from_text(cls, text: str) -> "SuffixSet":
        """One rule per line. A rule with an empty label, or with a ``*`` other than a
        leading ``*.`` label, could never match and raises ``ValueError("line N: ...")``."""
        return cls._parse(text, "line ")

    @classmethod
    def from_file(cls, path: str) -> "SuffixSet":
        """``from_text`` of the UTF-8 file ``path``; a bad rule raises
        ``ValueError("<path>:<line>: ...")``."""
        return cls._parse(read_text(path), f"{path}:")

    @classmethod
    def _parse(cls, text: str, where: str) -> "SuffixSet":
        """The rules of ``text``; a bad one's error starts ``<where><line>: ``."""
        exact: set[str] = set()
        wildcard: set[str] = set()
        exception: set[str] = set()
        for number, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            rule = line.split()[0]
            body = rule.lower()
            if body.startswith("!"):
                target = exception
                body = body[1:]
            elif body.startswith("*."):
                target = wildcard
                body = body[2:]
            else:
                target = exact
            try:
                _check_rule(rule, body)
            except ValueError as exc:
                raise ValueError(f"{where}{number}: {exc}") from None
            target.add(".".join(_ascii_label(lb) for lb in body.split(".")))
        return cls(frozenset(exact), frozenset(wildcard), frozenset(exception))


@lru_cache(maxsize=1)
def default_suffixes() -> SuffixSet:
    """Bundled snapshot covering common registries."""
    text = resources.files("flocpriv.data").joinpath("public_suffix_list.dat").read_text("utf-8")
    return SuffixSet.from_text(text)


# Hostname labels: nonempty, and LDH plus underscore once punycoded.
_LABEL = re.compile(r"[A-Za-z0-9_-]+")
_ASCII_HOST = re.compile(rf"{_LABEL.pattern}(?:\.{_LABEL.pattern})*")


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
    labels = host.split(".")
    if host.isascii():
        if not _ASCII_HOST.fullmatch(host):  # an empty host fails here too
            return None
        canon = labels
    else:
        canon = [_ascii_label(lb) for lb in labels]
        if not all(_LABEL.fullmatch(lb) for lb in canon):
            return None
    n = len(labels)
    # An IPv4 literal (labels are nonempty, so a digit join means digit labels).
    if n == 4 and "".join(labels).isdigit():
        return None
    # Walk from the TLD leftwards, one dict step per label, up to the first
    # label with no child. At depth d an exception wins outright (its suffix
    # is the rule minus one label); else the longest match: an exact rule
    # is d labels, a wildcard body d + 1 when one more label exists.
    children = suffixes.trie
    exception = longest = d = 0
    while d < n:
        node = children.get(canon[-1 - d])
        if node is None:
            break
        d += 1
        children, kinds = node
        if kinds & _EXCEPTION:
            exception = d
        if kinds & _EXACT:
            longest = d
        if kinds & _WILDCARD and d < n:
            longest = d + 1
    count = exception - 1 if exception else longest or (1 if implicit_star else None)
    if count is None or count >= n:
        return None
    return ".".join(labels[n - count - 1 :])
