"""key = value config files with strict schema validation.

Every CLI command accepts a config file plus flag overrides (flags win).
Unknown keys are rejected, and all offending keys are reported at once so a
bad config needs only one round trip to fix.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any


class ConfigError(ValueError):
    pass


def parse_kv_file(path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_dataclass(cls, values: dict[str, str]):
    """Build a dataclass instance from string values, validating all keys and
    value types at once; every offending key appears in the error message.
    Each value is parsed as its field's default is typed: int, float or str."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    typed: dict[str, Any] = {}
    problems: list[str] = []
    for name, raw in values.items():
        if name not in kinds:
            problems.append(f"unknown key {name!r}")
            continue
        try:
            typed[name] = kinds[name](raw)
        except (TypeError, ValueError):
            problems.append(f"bad value for {name!r}: {raw!r} is not {kinds[name].__name__}")
    if problems:
        raise ConfigError(f"{cls.__name__}: " + "; ".join(sorted(problems)))
    try:
        return cls(**typed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{cls.__name__}: {exc}") from None


def split_sections(values: dict[str, str], prefixes: list[str]) -> dict[str, dict[str, str]]:
    """Partition keys by 'prefix.name'; keys without a known prefix go to ''.

    Reports every unknown-prefix key at once.
    """
    sections: dict[str, dict[str, str]] = {p: {} for p in prefixes}
    sections[""] = {}
    bad = []
    for key, raw in values.items():
        if "." in key:
            prefix, name = key.split(".", 1)
            if prefix in sections:
                sections[prefix][name] = raw
            else:
                bad.append(key)
        else:
            sections[""][key] = raw
    if bad:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(bad))}")
    return sections
