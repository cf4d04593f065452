"""The generator of the bundled 6-device worked example, for tests.

Six devices, three weeks, seven domains per device-week, engineered (by
salt-domain search) so each week's population splits into exactly two
cohorts of three at k=3 with a chosen membership pattern.
``make_table1_sessions()`` must equal ``flocpriv.fixtures.bundled_table1_sessions()``
byte for byte, so a change that moves any hash value fails loudly.
"""

from __future__ import annotations

from flocpriv.simhash import SimHashConfig, simhash

#: Per-week cohort side for each device (device -> (week0, week1, week2)).
TARGET_SIDES: dict[int, tuple[int, int, int]] = {
    1: (0, 0, 0),
    2: (0, 1, 1),
    3: (0, 1, 0),
    4: (1, 0, 0),
    5: (1, 0, 1),
    6: (1, 1, 1),
}

#: Device states come in pairs: AL, AL, CA, CA, NY, NY.
DEVICE_ZIPS: dict[int, str] = {
    1: "36832",
    2: "36832",
    3: "90210",
    4: "90210",
    5: "10001",
    6: "10001",
}

_DEVICE_RACE = {1: "1", 2: "2", 3: "1", 4: "4", 5: "3", 6: "1"}
_DEVICE_INCOME = {1: "4", 2: "14", 3: "16", 4: "10", 5: "8", 6: "14"}
_WEEK_DATES = {0: "20170101", 1: "20170108", 2: "20170115"}


def _device_week_domains(device: int, week: int, config: SimHashConfig) -> list[str]:
    """Seven domains, salted together until the hash MSB hits the side
    that produces the worked-example cohort splits (expected ~2 tries)."""
    target = TARGET_SIDES[device][week]
    for n in range(100_000):
        domains = [f"site-d{device}w{week}s{n}n{i}.com" for i in range(7)]
        value = simhash(domains, config)
        if value >> (config.bit_length - 1) == target:
            return domains
    raise RuntimeError("hash side search failed; hash constants changed?")


def make_table1_sessions(config: SimHashConfig = SimHashConfig()) -> str:
    """The worked-example session log as TSV text (deterministic)."""
    lines = ["machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip"]
    session = 0
    for device in range(1, 7):
        for week in range(3):
            for domain in _device_week_domains(device, week, config):
                session += 1
                lines.append(
                    f"{100 + device}\t{session}\t{domain}\t{_WEEK_DATES[week]}\t"
                    f"12:00:00\t1\t60\t{_DEVICE_INCOME[device]}\t"
                    f"{_DEVICE_RACE[device]}\t{DEVICE_ZIPS[device]}"
                )
    return "\n".join(lines) + "\n"
