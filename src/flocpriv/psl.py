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

``registrable_domains`` resolves a column of hosts at a time, and
``registrable_domain`` is that of one host, so there is one walk. The
hosts that need more normalisation than stripping and lowercasing are
found in the column joined into one string, with ``bytes.translate`` and
substring searches and never a regex: a regex over a joined column
allocates several hundred bytes per repetition.

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
from itertools import repeat
from typing import Iterable

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

#: ``bytes.translate`` table for a column joined by "\n": the bytes of
#: lowercase LDH-plus-underscore labels and their dots stay, "\n" reads as
#: ".", and every other byte becomes "\0".
_PLAIN_VIEW = bytes(
    b if b in b"abcdefghijklmnopqrstuvwxyz0123456789-_." else ord(".") if b == ord("\n") else 0
    for b in range(256)
)


def _odd(hosts: list[str]) -> Iterable[int]:
    """The indices of those of ``hosts`` (stripped and lowercased) that are
    not plain: nonempty ASCII LDH-plus-underscore labels joined by single
    dots. They are found in the hosts joined by "\n" and read through
    ``_PLAIN_VIEW``, where an odd host holds a "\0" or, once wrapped in
    "\n"s, a ".." (an empty host or label, a leading or trailing dot). A
    "\n" inside a host would shift the hosts' places, so then every host
    counts as odd."""
    data = ("\n" + "\n".join(hosts) + "\n").encode("utf-8", "surrogatepass")
    if data.count(b"\n") != len(hosts) + 1:
        return range(len(hosts))
    view = data.translate(_PLAIN_VIEW)
    odd = set()
    for mark in (b"\0", b".."):
        at = view.find(mark)
        counted = newlines = 0  # newlines: the "\n"s in data[:counted]
        while at >= 0:
            newlines += data.count(b"\n", counted, at + 1)
            counted = at + 1
            odd.add(newlines - 1)  # the host after the newlines-th "\n"
            # Resume at the "\n" that ends this host (data ends with one).
            at = view.find(mark, data.find(b"\n", at + 1))
    return odd


def _labels(host: str) -> tuple[list[str], list[str]] | None:
    """The labels of a stripped, lowercased ``host``, as written and as
    matched (punycode), or None if it has no registrable domain: a
    bracketed or bare IPv6 literal, a port that is not ASCII digits, or an
    empty or non-LDH label. A trailing dot and an ASCII-digit port are
    dropped."""
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
        return labels, labels
    canon = [_ascii_label(lb) for lb in labels]
    if not all(_LABEL.fullmatch(lb) for lb in canon):
        return None
    return labels, canon


def registrable_domains(
    hosts: Iterable[str],
    suffixes: SuffixSet | None = None,
    *,
    implicit_star: bool = False,
) -> list[str | None]:
    """The eTLD+1 of each of ``hosts``, in order, or None where none exists.

    Rejections (None): empty input, IP literals, empty labels, hosts that
    are themselves public suffixes, and (unless ``implicit_star``)
    hostnames whose TLD is not in the list at all.

    Hosts are stripped and lowercased, and each is split on its dots as it
    is, save those that ``_odd`` finds in the column: only those go through
    ``_labels`` (trailing dot, brackets, port, IDNA, empty labels). Every
    host then takes one walk down the rule trie.
    """
    if suffixes is None:
        suffixes = default_suffixes()
    hosts = list(map(str.lower, map(str.strip, hosts)))
    # Per host: None to split it on its dots, else what _labels made of it
    # (its labels as written and as matched, or () if it has no domain).
    fixed: Iterable[tuple | None] = repeat(None)
    if odd := _odd(hosts):
        fixed = [None] * len(hosts)
        for i in odd:
            fixed[i] = _labels(hosts[i]) or ()
    trie = suffixes.trie
    unlisted = 1 if implicit_star else None
    out: list[str | None] = []
    append = out.append
    for labels, fix in zip(map(str.split, hosts, repeat(".")), fixed):
        canon = labels  # the labels the trie is walked with (punycode)
        if fix is not None:
            if not fix:
                append(None)
                continue
            labels, canon = fix
        n = len(labels)
        # An IPv4 literal (labels are nonempty, so a digit join means digit labels).
        if n == 4 and "".join(labels).isdigit():
            append(None)
            continue
        # Walk from the TLD leftwards, one dict step per label, up to the
        # first label with no child. At depth d an exception wins outright
        # (its suffix is the rule minus one label); else the longest match:
        # an exact rule is d labels, a wildcard body d + 1 when one more
        # label exists.
        children = trie
        exception = longest = d = 0
        for label in reversed(canon):
            node = children.get(label)
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
        count = exception - 1 if exception else longest or unlisted
        append(None if count is None or count >= n else ".".join(labels[n - count - 1 :]))
    return out


def registrable_domain(
    host: str,
    suffixes: SuffixSet | None = None,
    *,
    implicit_star: bool = False,
) -> str | None:
    """The eTLD+1 of ``host``, or None when none exists:
    ``registrable_domains`` of the one host."""
    return registrable_domains([host], suffixes, implicit_star=implicit_star)[0]
