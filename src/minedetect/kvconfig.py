"""Flat ``key=value`` config text: the file reader and the one codec of every config class.

A config class lists each of its keys once, as a row of a table of
:class:`Key`; :func:`encode` and :func:`decode` read that table in both
directions.
"""

from __future__ import annotations

import functools
from dataclasses import fields
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidConfigError


def read_kv_file(path: str) -> dict[str, str]:
    """Parse a flat key=value config file ('#' starts a comment line); a key may appear once."""
    kv: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in first_line:
                raise InvalidConfigError(
                    f"{path}:{line_no}: key {key!r} repeated (first on line {first_line[key]})"
                )
            first_line[key] = line_no
            kv[key] = value.strip()
    return kv


class Key(NamedTuple):
    """One config key, the dotted attribute ``path`` it sets and the ``parse`` of its text.

    An empty ``path`` is the key itself. A key with ``names`` is a family:
    ``key + name``, for each of ``names``, sets one ``(name, value)`` pair of
    the tuple at ``path``.
    """

    key: str
    path: str = ""
    parse: Callable[[str], Any] = str
    names: tuple[str, ...] = ()


def comma_list(item: Callable[[str], Any] = str, into: Callable = tuple) -> Callable[[str], Any]:
    """A parser of a comma list; entries are stripped and empty ones dropped."""
    return lambda text: into(item(p.strip()) for p in text.split(",") if p.strip())


def check_list_entries(name: str, entries: Iterable[str], error: type = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless every entry reads back from a comma list.

    comma_list splits on commas, strips entries and drops empty ones, so an
    entry must be non-empty, without surrounding whitespace and without a comma.
    """
    for entry in sorted(entries):
        if not entry or entry != entry.strip() or "," in entry:
            raise error(
                f"{name} entries must be non-empty, without surrounding whitespace "
                f"or a comma, got {entry!r}"
            )


def optional_int(text: str) -> int | None:
    """An int, or None for 'any', 'none' or an empty value."""
    raw = text.strip().lower()
    return None if raw in ("", "any", "none") else int(raw)


def _text(value: Any) -> str:
    if isinstance(value, (tuple, frozenset)):
        return ",".join(str(v) for v in (sorted(value) if isinstance(value, frozenset) else value))
    return "any" if value is None else str(value)


def encode(obj: Any, table: Sequence[Key]) -> dict[str, str]:
    """Every key of ``table`` with the text of ``obj``'s value at its path.

    A frozenset is written sorted, a tuple in order and None as 'any'.
    """
    kv = {}
    for row in table:
        value = functools.reduce(getattr, (row.path or row.key).split("."), obj)
        pairs = ((row.key + name, v) for name, v in value) if row.names else [(row.key, value)]
        kv.update((key, _text(v)) for key, v in pairs)
    return kv


def decode(cls: type, table: Sequence[Key], kv: Mapping[str, str], label="config", prefix=""):
    """A ``cls`` built from ``kv``, whose keys must all be in ``table``.

    A key may also carry ``prefix``, but not be given both ways. Each error
    names the key as given. A nested object is built by its field's default
    factory, and a ValueError from it names the field ('bad state config: ...').
    """
    rows = {row.key + name: row for row in table for name in row.names or ("",)}
    tree: dict[str, Any] = {}
    for key, text in sorted(kv.items()):
        name = key.removeprefix(prefix)
        row = rows.get(name)
        if row is None:
            raise InvalidConfigError(f"unknown {label} key {key!r}")
        try:
            value = row.parse(text)
        except ValueError as exc:
            raise InvalidConfigError(f"bad value for {key!r}: {exc}") from exc
        *outer, attr = (row.path or row.key).split(".")
        node = functools.reduce(lambda node, part: node.setdefault(part, {}), outer, tree)
        if row.names:
            value = (*node.get(attr, ()), (name[len(row.key):], value))
        elif attr in node:
            raise InvalidConfigError(f"{label} gives both {name!r} and {prefix + name!r}")
        node[attr] = value
    return _build(cls, tree)


def _build(cls: Callable, tree: dict[str, Any]) -> Any:
    factories = {f.name: f.default_factory for f in fields(cls)}
    for attr, value in tree.items():
        if isinstance(value, dict):
            try:
                tree[attr] = _build(factories[attr], value)
            except ValueError as exc:
                raise InvalidConfigError(f"bad {attr} config: {exc}") from exc
    return cls(**tree)
