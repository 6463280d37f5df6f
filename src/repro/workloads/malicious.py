"""Malicious and malformed domain-name synthesis (Section 5's population).

The paper's Section 5 measures traffic from:

* Spamhaus-DBL-style categories — per ~1M sampled names: 512 spam /
  bad-reputation, 41 botnet C&C, 34 abused redirectors, 11 malware,
  3 phishing;
* RFC 1035 violators — 666k of 39M daily names (≈1.7 %), with the
  underscore the offending character in 87 % of them.

This module synthesises names for each category with the right
*characteristics* (DGA-looking botnet names, typosquatting phish names,
underscore-dominated malformed names) so the analysis pipeline has
realistic material, and keeps the paper's proportions at whatever
universe size a preset chooses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Paper's Section 5 Spamhaus counts per sampled ~1M domain names.
PAPER_DBL_COUNTS_PER_MILLION = {
    "spam": 512,
    "botnet": 41,
    "abused-redirector": 34,
    "malware": 11,
    "phish": 3,
}

#: 666k violating names of 39M observed daily.
PAPER_MALFORMED_FRACTION = 666_000 / 39_000_000

#: "The most common disallowed character found in 87% of the
#: malformatted domains is the underscore".
PAPER_UNDERSCORE_SHARE = 0.87

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiou"
_TLDS = ("com", "net", "org", "info", "biz", "xyz", "top", "icu")
_SPAM_WORDS = (
    "deal", "offer", "free", "win", "bonus", "cash", "pills", "loan",
    "promo", "sale", "click", "prize", "lucky", "gift",
)
_BRANDS = ("paypa1", "amaz0n", "g00gle", "micros0ft", "app1e", "netf1ix")


def _syllables(rng: random.Random, count: int) -> str:
    return "".join(
        rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(count)
    )


def spam_name(rng: random.Random) -> str:
    """Bulk-registered keyword mashes on cheap TLDs."""
    words = rng.sample(_SPAM_WORDS, 2)
    return f"{words[0]}{words[1]}{rng.randrange(100)}.{rng.choice(_TLDS)}"


def botnet_name(rng: random.Random) -> str:
    """DGA-style: high-entropy random label on a short TLD."""
    length = rng.randrange(10, 20)
    label = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(length))
    return f"{label}.{rng.choice(('com', 'net', 'ru', 'cc'))}"


def malware_name(rng: random.Random) -> str:
    """Download/update-themed hosting names."""
    return f"{_syllables(rng, 3)}-{rng.choice(('update', 'cdn', 'dl', 'files'))}.{rng.choice(_TLDS)}"


def phish_name(rng: random.Random) -> str:
    """Typosquats of big brands behind a login-ish label."""
    return f"{rng.choice(('secure', 'login', 'account'))}.{rng.choice(_BRANDS)}.{rng.choice(('com', 'net'))}"


def redirector_name(rng: random.Random) -> str:
    """Abused URL-shortener / open-redirect domains."""
    return f"{_syllables(rng, 2)}{rng.choice(('ly', 'io', 'go', 'be'))}.{rng.choice(('link', 'click', 'co'))}"


_CATEGORY_BUILDERS = {
    "spam": spam_name,
    "botnet": botnet_name,
    "abused-redirector": redirector_name,
    "malware": malware_name,
    "phish": phish_name,
}


def malformed_name(rng: random.Random, underscore_share: float = PAPER_UNDERSCORE_SHARE) -> str:
    """A name violating at least one RFC 1035 rule.

    87 % of violations use an underscore (service-discovery style
    ``_label`` names dominate in the wild); the remainder split between
    over-long labels, other bad characters, and digit-leading labels.
    """
    roll = rng.random()
    if roll < underscore_share:
        kind = "underscore"
    elif roll < underscore_share + 0.06:
        kind = "long-label"
    elif roll < underscore_share + 0.10:
        kind = "bad-char"
    else:
        kind = "digit-start"
    base = _syllables(rng, 3)
    tld = rng.choice(_TLDS)
    if kind == "underscore":
        proto = rng.choice(("_sip", "_ldap", "_autodiscover", "_dmarc", "_spf", "_jabber"))
        return f"{proto}.{base}.{tld}"
    if kind == "long-label":
        return f"{_syllables(rng, 36)}.{base}.{tld}"  # 72-char label > 63
    if kind == "bad-char":
        ch = rng.choice("!*=/")
        return f"{base}{ch}{_syllables(rng, 1)}.{tld}"
    return f"{rng.randrange(10)}{base}.{tld}"


@dataclass(frozen=True)
class AbusePopulation:
    """Synthesised malicious/malformed names, grouped by category."""

    by_category: Dict[str, Tuple[str, ...]]

    def all_names(self) -> List[str]:
        out: List[str] = []
        for names in self.by_category.values():
            out.extend(names)
        return out


def build_abuse_population(
    rng: random.Random,
    benign_universe_size: int,
    dbl_counts_per_million: Dict[str, int] = None,
    malformed_fraction: float = PAPER_MALFORMED_FRACTION,
    minimum_per_category: int = 3,
) -> AbusePopulation:
    """Scale the paper's category counts to a synthetic universe size.

    ``benign_universe_size`` plays the role of the paper's ~1M sampled
    names; each category gets ``count/1M × size`` names (at least
    ``minimum_per_category`` so tiny test universes still exercise every
    category).
    """
    counts = dict(dbl_counts_per_million or PAPER_DBL_COUNTS_PER_MILLION)
    by_category: Dict[str, Tuple[str, ...]] = {}
    for category, per_million in counts.items():
        n = max(minimum_per_category, round(per_million * benign_universe_size / 1_000_000))
        builder = _CATEGORY_BUILDERS[category]
        names = set()
        while len(names) < n:
            names.add(builder(rng))
        by_category[category] = tuple(sorted(names))
    n_malformed = max(minimum_per_category, round(malformed_fraction * benign_universe_size))
    malformed = set()
    while len(malformed) < n_malformed:
        malformed.add(malformed_name(rng))
    by_category["mal-formatted"] = tuple(sorted(malformed))
    return AbusePopulation(by_category=by_category)
