"""Registrable-domain extraction against the published reference vectors.

The vectors below are the standard checkPublicSuffix cases from the
public-suffix project's test file (expected registrable domain, or None
for rejection). They assume unlisted TLDs act as suffixes, so they run
with implicit_star=True; strict-mode behavior has its own tests.
"""

import hashlib
import json
import re
import tracemalloc
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocpriv import psl
from flocpriv.cli import main
from flocpriv.psl import SuffixSet, default_suffixes, registrable_domain, registrable_domains

# (host, expected registrable domain) — None means rejection.
REFERENCE_VECTORS = [
    # null / trivial input
    ("COM", None),
    ("example.COM", "example.com"),
    ("WwW.example.COM", "example.com"),
    # unlisted TLD (implicit-star semantics)
    ("example", None),
    ("example.example", "example.example"),
    ("b.example.example", "example.example"),
    ("a.b.example.example", "example.example"),
    # TLD with only one rule
    ("biz", None),
    ("domain.biz", "domain.biz"),
    ("b.domain.biz", "domain.biz"),
    ("a.b.domain.biz", "domain.biz"),
    # TLD with some two-level rules
    ("com", None),
    ("example.com", "example.com"),
    ("b.example.com", "example.com"),
    ("a.b.example.com", "example.com"),
    ("uk.com", None),
    ("example.uk.com", "example.uk.com"),
    ("b.example.uk.com", "example.uk.com"),
    ("a.b.example.uk.com", "example.uk.com"),
    ("test.ac", "test.ac"),
    # TLD with only one wildcard rule
    ("mm", None),
    ("c.mm", None),
    ("b.c.mm", "b.c.mm"),
    ("a.b.c.mm", "b.c.mm"),
    # More complex TLD
    ("jp", None),
    ("test.jp", "test.jp"),
    ("www.test.jp", "test.jp"),
    ("ac.jp", None),
    ("test.ac.jp", "test.ac.jp"),
    ("www.test.ac.jp", "test.ac.jp"),
    ("kyoto.jp", None),
    ("test.kyoto.jp", "test.kyoto.jp"),
    ("ide.kyoto.jp", None),
    ("b.ide.kyoto.jp", "b.ide.kyoto.jp"),
    ("a.b.ide.kyoto.jp", "b.ide.kyoto.jp"),
    ("c.kobe.jp", None),
    ("b.c.kobe.jp", "b.c.kobe.jp"),
    ("a.b.c.kobe.jp", "b.c.kobe.jp"),
    ("city.kobe.jp", "city.kobe.jp"),
    ("www.city.kobe.jp", "city.kobe.jp"),
    # TLD with a wildcard rule and exceptions
    ("ck", None),
    ("test.ck", None),
    ("b.test.ck", "b.test.ck"),
    ("a.b.test.ck", "b.test.ck"),
    ("www.ck", "www.ck"),
    ("www.www.ck", "www.ck"),
    # US K12
    ("us", None),
    ("test.us", "test.us"),
    ("www.test.us", "test.us"),
    ("ak.us", None),
    ("test.ak.us", "test.ak.us"),
    ("www.test.ak.us", "test.ak.us"),
    ("k12.ak.us", None),
    ("test.k12.ak.us", "test.k12.ak.us"),
    ("www.test.k12.ak.us", "test.k12.ak.us"),
    # IDN labels
    ("食狮.com.cn", "食狮.com.cn"),
    ("食狮.公司.cn", "食狮.公司.cn"),
    ("www.食狮.公司.cn", "食狮.公司.cn"),
    ("shishi.公司.cn", "shishi.公司.cn"),
    ("公司.cn", None),
    ("食狮.中国", "食狮.中国"),
    ("www.食狮.中国", "食狮.中国"),
    ("shishi.中国", "shishi.中国"),
    ("中国", None),
    # Same as above, but punycoded
    ("xn--85x722f.com.cn", "xn--85x722f.com.cn"),
    ("xn--85x722f.xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn"),
    ("www.xn--85x722f.xn--55qx5d.cn", "xn--85x722f.xn--55qx5d.cn"),
    ("shishi.xn--55qx5d.cn", "shishi.xn--55qx5d.cn"),
    ("xn--55qx5d.cn", None),
    ("xn--85x722f.xn--fiqs8s", "xn--85x722f.xn--fiqs8s"),
    ("www.xn--85x722f.xn--fiqs8s", "xn--85x722f.xn--fiqs8s"),
    ("shishi.xn--fiqs8s", "shishi.xn--fiqs8s"),
    ("xn--fiqs8s", None),
]


@pytest.mark.parametrize("host,expected", REFERENCE_VECTORS)
def test_reference_vector(host, expected):
    assert registrable_domain(host, implicit_star=True) == expected


class TestStrictMode:
    def test_unlisted_tld_rejected(self):
        assert registrable_domain("example.example") is None
        assert registrable_domain("example.nosuchtld") is None

    def test_listed_tld_accepted(self):
        assert registrable_domain("example.com") == "example.com"

    def test_bare_suffix_rejected(self):
        assert registrable_domain("com") is None
        assert registrable_domain("co.uk") is None

    def test_multi_level(self):
        assert registrable_domain("a.b.example.co.uk") == "example.co.uk"


class TestNormalization:
    def test_case_and_trailing_dot(self):
        assert registrable_domain("WWW.Example.COM.") == "example.com"

    def test_port_stripped(self):
        assert registrable_domain("example.com:8080") == "example.com"

    @pytest.mark.parametrize("port", ["\u0661\u0662", "\u00b2"], ids=["arabic_indic", "superscript"])
    def test_non_ascii_digit_port_rejected(self, port):
        assert registrable_domain("example.com:" + port) is None

    def test_ipv4_rejected(self):
        assert registrable_domain("192.168.0.1") is None

    def test_ipv6_rejected(self):
        assert registrable_domain("[2001:db8::1]") is None
        assert registrable_domain("2001:db8::1") is None

    def test_empty_and_degenerate(self):
        assert registrable_domain("") is None
        assert registrable_domain(".") is None
        assert registrable_domain("..") is None

    def test_spaces_rejected(self):
        assert registrable_domain("exa mple.com") is None


class TestSuffixSet:
    def test_from_text_comments_ignored(self):
        s = SuffixSet.from_text("// comment\ncom\n\n*.ck\n!www.ck\n")
        assert registrable_domain("foo.com", s) == "foo.com"
        assert registrable_domain("b.test.ck", s) == "b.test.ck"
        assert registrable_domain("www.www.ck", s) == "www.ck"

    def test_private_section_rules_active(self):
        suffixes = default_suffixes()
        assert registrable_domain("foo.github.io", suffixes) == "foo.github.io"
        assert registrable_domain("a.foo.github.io", suffixes) == "foo.github.io"

    def test_exception_beats_wildcard(self):
        s = SuffixSet.from_text("ck\n*.ck\n!www.ck\n")
        assert registrable_domain("www.ck", s) == "www.ck"

    def test_most_labels_wins(self):
        s = SuffixSet.from_text("com\nfoo.com\n")
        assert registrable_domain("bar.foo.com", s) == "bar.foo.com"
        assert registrable_domain("foo.com", s) is None

    def test_hosts_deeper_than_every_rule(self):
        # No rule has more than 5 labels; the walk stops where the rules do.
        text = "com\na.b.c.d.com\n*.w.com\n!x.w.com\n"
        s = SuffixSet.from_text(text)
        # The trie is derived state: equality and hashing see the rules only.
        assert SuffixSet.from_text(text) == s
        assert hash(SuffixSet.from_text(text)) == hash(s)
        deep = ".".join(["p"] * 95 + ["a", "b", "c", "d", "com"])
        assert registrable_domain(deep, s) == oracle_registrable_domain(deep, s, False) == (
            "p.a.b.c.d.com"
        )
        cases = {
            "x.y.z.a.b.c.d.com": "z.a.b.c.d.com",
            "z.a.b.c.d.com": "z.a.b.c.d.com",
            "a.b.c.d.com": None,
            "p.q.r.s.t.u.com": "u.com",
            "p.q.r.s.t.v.w.com": "t.v.w.com",
            "p.q.r.s.t.x.w.com": "x.w.com",
        }
        for host, expected in cases.items():
            assert registrable_domain(host, s) == expected, host
            assert oracle_registrable_domain(host, s, False) == expected, host
        assert registrable_domain("a.b.c.d.e.f.nosuchtld", s, implicit_star=True) == "f.nosuchtld"
        empty = SuffixSet.from_text("")
        assert registrable_domain("a.b.c", empty, implicit_star=True) == "b.c"
        assert registrable_domain("a.b.c", empty) is None


class TestMalformedRules:
    @pytest.mark.parametrize(
        "rule,problem",
        [
            (".com", "an empty label"),
            ("com.", "an empty label"),
            ("foo..bar", "an empty label"),
            ("!", "an empty label"),
            ("*.", "an empty label"),
            ("!.com", "an empty label"),
            ("*", "a '*' other than a leading '*.' label"),
            ("*.*.jp", "a '*' other than a leading '*.' label"),
            ("a.*.jp", "a '*' other than a leading '*.' label"),
            ("!*.jp", "a '*' other than a leading '*.' label"),
            ("*foo.com", "a '*' other than a leading '*.' label"),
        ],
    )
    def test_rejected_with_line_and_rule(self, rule, problem):
        with pytest.raises(ValueError) as exc:
            SuffixSet.from_text(f"// header\ncom\n  {rule} trailing words\n*.ck\n")
        assert str(exc.value) == f"line 3: suffix rule {rule!r} has {problem}"

    @pytest.mark.parametrize(
        "rules, message",
        [
            ((frozenset({".com"}), frozenset(), frozenset()),
             "suffix rule '.com' has an empty label"),
            ((frozenset(), frozenset({"*.jp"}), frozenset()),
             "suffix rule '*.*.jp' has a '*' other than a leading '*.' label"),
            ((frozenset(), frozenset(), frozenset({"a..jp"})),
             "suffix rule '!a..jp' has an empty label"),
        ],
        ids=["exact-empty-label", "wildcard-inner-star", "exception-empty-label"],
    )
    def test_direct_construction_checks_every_rule(self, rules, message):
        # These constructed, and registrable_domain("a.com", ...) then gave None.
        with pytest.raises(ValueError) as exc:
            SuffixSet(*rules)
        assert str(exc.value) == message

    def test_first_bad_line_is_named(self):
        with pytest.raises(ValueError, match=r"^line 1: suffix rule '\.com' "):
            SuffixSet.from_text(".com\n*.\nfoo..bar\n*.*.jp")

    def test_bundled_snapshot_loads(self):
        text = resources.files("flocpriv.data").joinpath("public_suffix_list.dat").read_text("utf-8")
        suffixes = SuffixSet.from_text(text)
        assert len(suffixes.exact) > 100 and suffixes.wildcard and suffixes.exception

    def test_preprocess_with_a_bad_list_fails_and_writes_nothing(self, capsys, tmp_path):
        # A file's bad rule is named by path and line; from_text names the line only.
        psl = tmp_path / "bad.dat"
        psl.write_text("com\n*.*.jp\n", encoding="utf-8")
        sessions = tmp_path / "sessions.tsv"
        sessions.write_text(
            "machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip\n"
            "1\t1\ta.com\t20170102\t12:00:00\t1\t60\t4\t1\t36832\n",
            encoding="utf-8",
        )
        out = tmp_path / "pre"
        argv = ["preprocess", "--sessions", sessions, "--psl", psl, "--out", out]
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"{psl}:2: suffix rule '*.*.jp' has a '*' other than a leading '*.' label",
        }
        assert not out.exists()


# ---------------------------------------------------------------------------
# Oracle: the per-position suffix search (re-canonicalising and re-joining
# every candidate suffix), which registrable_domain must agree with.


def _oracle_ascii_label(label):
    if label.isascii():
        return label
    try:
        return label.encode("idna").decode("ascii")
    except UnicodeError:
        return label


def _oracle_canonical(labels):
    return ".".join(_oracle_ascii_label(lb) for lb in labels)


def _oracle_strip_host(host):
    host = host.strip().lower()
    if host.endswith("."):
        host = host[:-1]
    if host.startswith("["):
        return None
    if ":" in host:
        head, _, tail = host.rpartition(":")
        if not (tail.isascii() and tail.isdigit()) or ":" in head:
            return None
        host = head
    return host or None


def _oracle_valid_label(label):
    if not label:
        return False
    ascii_form = _oracle_ascii_label(label)
    return all(c.isalnum() or c in "-_" for c in ascii_form) and ascii_form.isascii()


def _oracle_suffix_label_count(labels, suffixes, implicit_star):
    n = len(labels)
    for i in range(n):
        if _oracle_canonical(labels[i:]) in suffixes.exception:
            return n - i - 1
    best = 0
    matched = False
    for i in range(n):
        if _oracle_canonical(labels[i:]) in suffixes.exact:
            best = max(best, n - i)
            matched = True
    for i in range(n - 1):
        if _oracle_canonical(labels[i + 1 :]) in suffixes.wildcard:
            best = max(best, n - i)
            matched = True
    if matched:
        return best
    return 1 if implicit_star else None


def oracle_registrable_domain(host, suffixes, implicit_star):
    stripped = _oracle_strip_host(host)
    if stripped is None:
        return None
    labels = tuple(stripped.split("."))
    if any(not _oracle_valid_label(lb) for lb in labels):
        return None
    if len(labels) == 4 and all(lb.isdigit() for lb in labels):
        return None
    count = _oracle_suffix_label_count(labels, suffixes, implicit_star)
    if count is None or count >= len(labels):
        return None
    return ".".join(labels[len(labels) - count - 1 :])


def _bundled_rules():
    """The bundled list's rules as written (IDN rules in Unicode) and as
    stored (punycode)."""
    text = resources.files("flocpriv.data").joinpath("public_suffix_list.dat").read_text("utf-8")
    rules = {line.split()[0] for line in text.splitlines() if line.strip() and not line.startswith("//")}
    suffixes = default_suffixes()
    rules.update(suffixes.exact)
    rules.update("*." + w for w in suffixes.wildcard)
    rules.update("!" + e for e in suffixes.exception)
    return sorted(rules)


BUNDLED_RULES = _bundled_rules()


#: Labels that exercise canonicalisation and validation: IDN (one that
#: nameprep maps to ASCII, one that holds an ideographic full stop, one too
#: long to punycode), mixed case, underscores, digits, spaces and empties.
ODD_LABELS = [
    "www", "a", "b", "foo", "bar", "x_y", "-", "_", "0", "192", "255", "WwW", "ExAmPlE",
    "食狮", "bücher", "ｅｘａｍｐｌｅ", "食狮。com", "ü" * 70, "\u0661", "ab cd", "",
    "xn--85x722f", "city", "www",
]


@st.composite
def hosts_from_rules(draw, rules, extra_labels):
    """A rule with its wildcard filled in and up to three labels in front,
    perhaps cut from the left, then decorated."""
    rule = draw(st.sampled_from(rules))
    if rule.startswith("!"):
        rule = rule[1:]
    labels = rule.split(".")
    if labels[0] == "*":
        labels[0] = draw(st.sampled_from(extra_labels))
    labels = draw(st.lists(st.sampled_from(extra_labels), max_size=3)) + labels
    if draw(st.booleans()):
        labels = labels[draw(st.integers(0, len(labels) - 1)) :]
    host = ".".join(labels)
    if draw(st.booleans()):
        host = host.upper()
    host += draw(st.sampled_from(["", "", ".", ":8080", ":", ":x", ":\u0661\u0662", ":\u00b2", "..", " "]))
    return draw(st.sampled_from([host, host, "[" + host, "1.2.3.4", "1.2.3." + host, "::1"]))


NESTED_RULES = """\
com
foo.com
*.foo.com
!bar.foo.com
*.bar.foo.com
b.bar.foo.com
*.b.bar.foo.com
!x.b.bar.foo.com
a.x.b.bar.foo.com
*.y.com
!z.y.com
y.com
"""

NESTED_LABELS = ["com", "foo", "bar", "b", "x", "a", "y", "z", "w"]


class TestAgainstPerPositionOracle:
    @settings(max_examples=1000, deadline=None)
    @given(host=hosts_from_rules(BUNDLED_RULES, ODD_LABELS), implicit_star=st.booleans())
    def test_bundled_list(self, host, implicit_star):
        suffixes = default_suffixes()
        assert registrable_domain(host, suffixes, implicit_star=implicit_star) == (
            oracle_registrable_domain(host, suffixes, implicit_star)
        )

    @settings(max_examples=500, deadline=None)
    @given(
        host=st.one_of(
            hosts_from_rules(NESTED_RULES.split(), NESTED_LABELS),
            st.lists(st.sampled_from(NESTED_LABELS), min_size=1, max_size=7).map(".".join),
        ),
        implicit_star=st.booleans(),
    )
    def test_nested_overlapping_rules(self, host, implicit_star):
        suffixes = SuffixSet.from_text(NESTED_RULES)
        assert registrable_domain(host, suffixes, implicit_star=implicit_star) == (
            oracle_registrable_domain(host, suffixes, implicit_star)
        )

    def test_nested_rules_cover_every_kind_of_match(self):
        suffixes = SuffixSet.from_text(NESTED_RULES)
        cases = {
            "q.w.foo.com": "q.w.foo.com",  # wildcard beats the shorter exact rule
            "q.bar.foo.com": "bar.foo.com",  # exception beats a wildcard
            "q.w.bar.foo.com": "bar.foo.com",  # a shorter exception still wins
            "q.x.b.bar.foo.com": "x.b.bar.foo.com",
            "q.a.x.b.bar.foo.com": "x.b.bar.foo.com",  # exception beats a longer exact rule
            "q.w.b.bar.foo.com": "bar.foo.com",
            "q.z.y.com": "z.y.com",
            "q.w.y.com": "q.w.y.com",
        }
        for host, expected in cases.items():
            assert registrable_domain(host, suffixes) == expected, host
            assert oracle_registrable_domain(host, suffixes, False) == expected, host


#: Labels a plain host is made of: lowercase LDH and underscore only.
PLAIN_LABELS = ["www", "a", "foo", "x_y", "-", "_", "0", "192", "255", "city", "xn--85x722f"]
ASCII_RULES = [rule for rule in BUNDLED_RULES if rule.isascii()]
PLAIN_HOST = re.compile(r"[a-z0-9_-]+(?:\.[a-z0-9_-]+)*")

#: Hosts that are odd as written, one kind each: empty, blank, dots alone,
#: an empty label, a leading or trailing dot, upper case, a port, brackets,
#: an IPv4 literal, IDNA, a space inside, one "\n" inside or joining two
#: hosts, padding and a tab inside.
ODD_HOSTS = [
    "", " ", ".", "..", "a..co.uk", ".a.com", "a.com.", "A.CO.UK", "a.com:8080", "a.com:x",
    "[a.com", "[::1]", "1.2.3.4", "01.2.3.4", "bücher.de", "食狮.com.cn", "ｅｘａｍｐｌｅ.com",
    "ab cd.com", "a\nb.com", "a.com\nb.org", " www.x.co.uk ", "foo\tbar.jp",
]


@st.composite
def plain_hosts(draw):
    """Up to three plain labels in front of an ASCII rule, its wildcard filled."""
    rule = draw(st.sampled_from(ASCII_RULES)).lstrip("!")
    labels = rule.split(".")
    if labels[0] == "*":
        labels[0] = draw(st.sampled_from(PLAIN_LABELS))
    return ".".join(draw(st.lists(st.sampled_from(PLAIN_LABELS), max_size=3)) + labels)


class TestColumns:
    """``registrable_domains`` gives, host by host, what the oracle gives,
    and only the hosts ``_odd`` finds take the per-host ``_labels``."""

    @settings(max_examples=500, deadline=None)
    @given(
        hosts=st.lists(
            st.one_of(
                plain_hosts(),
                hosts_from_rules(BUNDLED_RULES, ODD_LABELS),
                st.sampled_from(ODD_HOSTS),
            ),
            max_size=12,
        ),
        implicit_star=st.booleans(),
    )
    def test_mixed_column_matches_oracle(self, hosts, implicit_star):
        suffixes = default_suffixes()
        assert registrable_domains(hosts, suffixes, implicit_star=implicit_star) == [
            oracle_registrable_domain(host, suffixes, implicit_star) for host in hosts
        ]

    @settings(max_examples=500, deadline=None)
    @given(
        hosts=st.lists(
            st.one_of(
                plain_hosts(),
                st.sampled_from(ODD_HOSTS),
                st.text(alphabet="aZ9_-.:[\n ü", max_size=6),
            ),
            max_size=12,
        )
    )
    def test_odd_finds_each_host_that_is_not_plain(self, hosts):
        hosts = [h.strip().lower() for h in hosts]
        if any("\n" in h for h in hosts):
            want = set(range(len(hosts)))
        else:
            want = {i for i, h in enumerate(hosts) if not PLAIN_HOST.fullmatch(h)}
        assert set(psl._odd(hosts)) == want

    @settings(max_examples=300, deadline=None)
    @given(hosts=st.lists(plain_hosts(), min_size=1, max_size=12), implicit_star=st.booleans())
    def test_plain_column_matches_oracle(self, hosts, implicit_star):
        suffixes = default_suffixes()
        assert not psl._odd(hosts)  # no host needs _labels
        assert registrable_domains(hosts, suffixes, implicit_star=implicit_star) == [
            oracle_registrable_domain(host, suffixes, implicit_star) for host in hosts
        ]

    @pytest.mark.parametrize("host", ODD_HOSTS)
    def test_only_an_odd_host_takes_the_per_host_path(self, host):
        suffixes = default_suffixes()
        hosts = ["www.example.com", "a..b.com", host, "a.b.co.uk", "x.de."]
        # Stripping and lowercasing make upper case and padding plain, and an
        # IPv4 literal is plain labels, which the walk rejects. A "\n" inside
        # a host makes every host odd.
        stays_plain = host in ("A.CO.UK", " www.x.co.uk ", "1.2.3.4", "01.2.3.4")
        odd = set(range(5)) if "\n" in host else {1, 4} if stays_plain else {1, 2, 4}
        assert set(psl._odd([h.strip().lower() for h in hosts])) == odd
        with mock.patch.object(psl, "_labels", wraps=psl._labels) as labels:
            got = registrable_domains(hosts, suffixes)
        assert sorted(call.args[0] for call in labels.call_args_list) == sorted(
            hosts[i].strip().lower() for i in odd
        )
        assert got == ["example.com", None, oracle_registrable_domain(host, suffixes, False),
                       "b.co.uk", "x.de"]

    def test_single_host_and_empty_column(self):
        assert registrable_domains([]) == []
        assert registrable_domains(iter(["WWW.Example.COM."])) == ["example.com"]
        assert registrable_domain("www.example.com") == "example.com"

    def test_plain_column_memory_follows_its_hosts(self):
        # A regex over the joined column took 17 MB for these 30,000 hosts;
        # the resolved names alone hold about 2 MB.
        hosts = [f"www.host{i}.example.co.uk" for i in range(30_000)]
        suffixes = default_suffixes()
        tracemalloc.start()
        try:
            resolved = registrable_domains(hosts, suffixes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resolved[7] == "example.co.uk"
        assert peak < 8e6


RULE_LABELS = ["a", "b", "c", "d"]


@st.composite
def small_rule_sets(draw):
    """Rules over a 4-label alphabet: random exact, wildcard and exception
    bodies, plus a body that is both an exact rule and a wildcard body, an
    exact rule nested under it, and an exception with no wildcard above."""
    body = st.lists(st.sampled_from(RULE_LABELS), min_size=1, max_size=3).map(".".join)
    exact, wildcard, exception = (set(draw(st.lists(body, max_size=5))) for _ in range(3))
    shared = draw(body)
    exact.add(shared)
    wildcard.add(shared)
    exact.add(draw(st.sampled_from(RULE_LABELS)) + "." + shared)
    lone = draw(body.filter(lambda b: b != shared))
    wildcard.discard(lone)
    exception.add(draw(st.sampled_from(RULE_LABELS)) + "." + lone)
    lines = [*exact, *("*." + b for b in wildcard), *("!" + b for b in exception)]
    return "\n".join(draw(st.permutations(lines)))


class TestSmallRuleSets:
    @settings(max_examples=500, deadline=None)
    @given(
        text=small_rule_sets(),
        labels=st.lists(st.sampled_from([*RULE_LABELS, "e", "f"]), min_size=1, max_size=6),
    )
    def test_matches_oracle(self, text, labels):
        suffixes = SuffixSet.from_text(text)
        host = ".".join(labels)
        for implicit_star in (False, True):
            assert registrable_domain(host, suffixes, implicit_star=implicit_star) == (
                oracle_registrable_domain(host, suffixes, implicit_star)
            ), (text, host, implicit_star)


# ---------------------------------------------------------------------------
# Golden run: preprocess on a handmade log whose hosts cover every kind of
# rule and every rejection, with its outputs pinned byte for byte.

#: host -> registrable domain under the bundled list (None: rejected).
GOLDEN_HOSTS = {
    "www.x.co.uk": "x.co.uk",  # multi-label exact rule
    "x.co.uk": "x.co.uk",
    "a.b.kobe.jp": "a.b.kobe.jp",  # wildcard *.kobe.jp
    "q.mm": None,  # a wildcard's match is itself a suffix
    "p.q.mm": "p.q.mm",
    "city.kobe.jp": "city.kobe.jp",  # exception !city.kobe.jp
    "www.city.kobe.jp": "city.kobe.jp",
    "www.ck": "www.ck",  # exception !www.ck
    "a.foo.github.io": "foo.github.io",  # private-section rule
    "bücher.de": "bücher.de",  # IDN label
    "WWW.Example.COM.": "example.com",  # upper case, trailing dot
    "example.org:8080": "example.org",  # port
    "192.168.0.1": None,  # IPv4 literal
    "[2001:db8::1]": None,  # bracketed IPv6 literal
    "example.nosuchtld": None,  # TLD in no rule
    "co.uk": None,  # bare suffix
}

GOLDEN_SHA256 = {
    "machine_weeks.tsv": "5ec708e078111c9e6261301a4935b695b6ef9c37473c67e386b21eab6085d5de",
    "rejects.json": "89bf58767a8629b7d638d668d315f153de8225cc56c5d55004d6dd402c9f1804",
}


def test_preprocess_golden_outputs(tmp_path):
    header = "machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip"
    lines = [
        f"{machine}\t{machine}\t{host}\t20170102\t12:00:00\t1\t60\t4\t1\t36832"
        for machine, host in enumerate(GOLDEN_HOSTS, 1)
    ]
    lines.append("99\t99\t\t20170102\t12:00:00\t1\t60\t4\t1\t36832")  # empty domain
    sessions, out = tmp_path / "sessions.tsv", tmp_path / "pre"
    sessions.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    argv = ["preprocess", "--sessions", sessions, "--out", out, "--min-domains", "1"]
    assert main([str(a) for a in argv]) == 0
    rows = (out / "machine_weeks.tsv").read_text(encoding="utf-8").splitlines()[1:]
    got = {int(row.split("\t")[0]): row.split("\t")[-1] for row in rows}
    want = {m: d for m, d in enumerate(GOLDEN_HOSTS.values(), 1) if d is not None}
    assert got == want
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    assert report["rejected_domains"] == len(GOLDEN_HOSTS) - len(want)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
