"""Config keys as data: each block of a run config is a table of key name ->
Key, kept next to the code that uses the values. ``check`` turns one raw
value into a typed one and ``check_block`` a whole block; both raise a
ConfigError that names the key, for the config parser and for the library
classes that take the same settings.
"""

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """A setting is missing, malformed, out of range or inconsistent."""


@dataclass(frozen=True)
class Key:
    """One key: its kind, default and bounds.

    ``kind`` is int, float, bool, str (a non-empty string), dict (any
    mapping), a tuple of the allowed values, ``[int]`` or ``[float]`` for a
    list, a table (a dict of Keys) for a nested block, or a function from
    the raw value to the typed one whose docstring names what it accepts.
    ``least`` and ``most`` bound a number and each number of a list; an open
    bound is itself out of range. In a block, a key whose default is None
    may be left out or set to null unless it is required.
    """

    kind: object
    default: object = None
    least: float | None = None
    most: float | None = None
    open_least: bool = False
    open_most: bool = False
    required: bool = False
    nonempty: bool = False  # a list kind: refuse the empty list

    def admits(self, number) -> bool:
        return ((self.least is None or number > self.least
                 or (number == self.least and not self.open_least))
                and (self.most is None or number < self.most
                     or (number == self.most and not self.open_most)))

    def bounds(self) -> str:
        """The allowed range as error text, such as "in [0, 1)" or ">= 1"."""
        if self.most is None:
            return f"{'>' if self.open_least else '>='} {self.least}"
        if self.least is None:
            return f"{'<' if self.open_most else '<='} {self.most}"
        return (f"in {'(' if self.open_least else '['}{self.least}, "
                f"{self.most}{')' if self.open_most else ']'}")


# kind -> (noun, plural noun) in error text.
_NOUNS = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          bool: ("true or false", None), str: ("a non-empty string", "non-empty strings"),
          dict: ("a mapping", None)}


def _convert(kind, value, name: str):
    """One value as ``kind``; a number may be given as a numeric string, but
    a YAML boolean, a fractional integer or a non-finite float is refused."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"unknown {name.rsplit('.', 1)[-1].replace('_', ' ')} "
                             f"{value!r}")
        return value
    if kind not in _NOUNS:
        return kind(value)
    if kind not in (int, float):
        if not isinstance(value, kind) or (kind is str and not value):
            raise TypeError(f"{value!r} is not {_NOUNS[kind][0]}")
        return value
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not a number")
    number = kind(value)
    if kind is int and not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not a whole number")
    if kind is float and not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _noun(kind) -> str:
    if isinstance(kind, list):
        return f"a list of {_NOUNS[kind[0]][1]}"
    if isinstance(kind, tuple):
        return f"one of {', '.join(kind)}"
    return _NOUNS[kind][0] if kind in _NOUNS else kind.__doc__


def check(name: str, value, key: Key):
    """``value`` as ``key``'s kind and within its bounds (a list as a tuple),
    or a ConfigError that names the key ``name``."""
    kind = key.kind
    if isinstance(kind, dict):
        return check_block(name, value, kind)
    listed = isinstance(kind, list)
    try:
        if listed and not isinstance(value, (list, tuple)):
            raise TypeError(f"{value!r} is not a list")
        typed = (tuple(_convert(kind[0], v, name) for v in value) if listed
                 else _convert(kind, value, name))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {_noun(kind)}: {exc}") from exc
    if key.nonempty and not typed:
        raise ConfigError(f"{name} must be a non-empty list")
    if not all(map(key.admits, typed if listed else (typed,))):
        raise ConfigError(f"{name} must be {key.bounds()}")
    return typed


def check_block(name: str, block, table: dict, where: str = "") -> dict:
    """Every key of ``table`` checked from the ``block`` mapping, which may
    hold no other key; an absent key takes its default. Errors name a key
    as ``name.key`` (the top-level block, "config", adds no prefix), and
    ``where`` follows the block name in the unknown-key error."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = sorted(str(key) for key in block.keys() - table.keys())
    if unknown:
        raise ConfigError(f"unknown {name} keys{where}: {', '.join(unknown)}")
    prefix = "" if name == "config" else f"{name}."
    typed = {}
    for key, spec in table.items():
        value = block.get(key, spec.default)
        if value is None and spec.required:
            raise ConfigError(f"{prefix}{key} is required")
        typed[key] = (None if value is None and spec.default is None
                      else check(prefix + key, value, spec))
    return typed
