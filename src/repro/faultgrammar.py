"""The one text grammar of injected faults: ``kind@target#key=value``.

Three injection sites own their kinds, targets, validation and
injection — sweep cells (:class:`repro.engine.faults.FaultPlan`),
durability seams (:class:`repro.engine.chaos.ChaosPlan`) and encoded
streams (:class:`repro.formats.corrupt.CorruptionSpec`) — and this
module is the only code that knows their text::

    plan    := clause ("," clause)*
    clause  := kind "@" target ("#" option)*
    option  := key "=" value | flag

Whitespace around tokens is ignored, empty clauses and options are
skipped, and a repeated option keeps its last value.  Each site
declares one :class:`Grammar`; :meth:`Grammar.describe` writes every
field that differs from its dataclass default, so
``parse(describe(spec)) == spec`` holds by construction.  Numbers
must be finite: a ``nan`` or ``inf`` delay is refused when read, not
when the fault fires.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .errors import SweepConfigError

__all__ = ["Grammar", "number", "times"]


def number(value: str) -> float:
    """Option converter: a finite float (``nan`` / ``inf`` refused)."""
    result = float(value)
    if not math.isfinite(result):
        raise ValueError("not a finite number")
    return result


def times(value: str) -> "int | None":
    """Option converter: an integer, or ``none`` for unlimited."""
    return None if value.lower() == "none" else int(value)


def _show(value: Any) -> str:
    """The option text a converter reads back as ``value``."""
    if value is None:
        return "none"
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


@dataclass(frozen=True)
class Grammar:
    """How one injection site's specs read and write as text.

    ``options`` maps each ``#key`` to ``(field, converter)``;
    ``target`` turns the text after ``@`` into spec fields and
    ``where`` writes it back; ``flags`` are bare ``#words`` accepted
    and ignored.  Converters and ``target`` signal bad text with
    ``ValueError``.
    """

    what: str
    spec: type
    options: Mapping[str, "tuple[str, Callable[[str], Any]]"]
    target: Callable[[str], dict]
    where: Callable[[Any], str]
    flags: frozenset = frozenset()

    def parse_plan(self, text: str) -> tuple:
        """The specs of a comma-separated plan; an empty plan is refused."""
        specs = tuple(
            self.parse(clause) for clause in text.split(",") if clause.strip()
        )
        if not specs:
            raise SweepConfigError(
                f"{self.what} plan {text!r} contains no specs"
            )
        return specs

    def parse(self, text: str) -> Any:
        """One ``kind@target#key=value...`` clause as a spec."""
        head, *chunks = text.split("#")
        kind, sep, target = (part.strip() for part in head.partition("@"))
        if not (sep and kind and target):
            raise SweepConfigError(
                f"{self.what} spec {text!r} must look like "
                f"kind@target[#key=value...]"
            )
        fields = {"kind": kind}
        fields.update(self._convert(text, "target", target, self.target))
        for chunk in chunks:
            key, sep, value = (part.strip() for part in chunk.partition("="))
            if not sep and (not key or key in self.flags):
                continue
            if not sep or key not in self.options:
                raise SweepConfigError(
                    f"{self.what} option {chunk!r} in {text!r} must be "
                    f"key=value with key in: {', '.join(self.options)}"
                )
            name, convert = self.options[key]
            fields[name] = self._convert(text, key, value, convert)
        return self.spec(**fields)

    def describe(self, spec: Any) -> str:
        """The shortest clause that parses back to ``spec``."""
        defaults = {f.name: f.default for f in dataclasses.fields(spec)}
        options = "".join(
            f"#{key}={_show(getattr(spec, name))}"
            for key, (name, _) in self.options.items()
            if getattr(spec, name) != defaults[name]
        )
        return f"{spec.kind}@{self.where(spec)}{options}"

    def _convert(
        self, text: str, key: str, value: str, convert: Callable
    ) -> Any:
        try:
            return convert(value)
        except ValueError as error:
            raise SweepConfigError(
                f"invalid {self.what} {key} {value!r} in {text!r}: {error}"
            ) from None
