"""Flat key=value experiment configuration.

One dotted key per line, `#` comments and blank lines ignored, duplicate
keys rejected.  Values are strings until a typed accessor parses them;
accessors raise ValidationError with the offending key so the CLI can map
the failure to exit code 2.
"""

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import names_file, read_text
from .errors import ParseError, ValidationError

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def parse_bool(text: str) -> bool:
    """true/1/yes/on or false/0/no/off, in any case; else ValueError."""
    value = text.lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class ExperimentConfig:
    values: dict[str, str] = field(default_factory=dict)
    path: Path | None = None

    @classmethod
    def from_text(cls, text: str, path: Path | None = None) -> "ExperimentConfig":
        values: dict[str, str] = {}
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError("empty key", lineno)
            if key in values:
                raise ParseError(f"duplicate key {key!r}", lineno)
            values[key] = value
        return cls(values=values, path=path)

    @staticmethod
    @names_file
    def from_file(path) -> "ExperimentConfig":
        path = Path(path)
        return ExperimentConfig.from_text(read_text(path), path=path)

    # -- accessors ----------------------------------------------------------

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ValidationError(f"config is missing required key {key!r}")
        return self.values[key]

    def get_int(self, key: str, default: int | None = None) -> int | None:
        if key not in self.values:
            return default
        try:
            return int(self.values[key])
        except ValueError:
            raise ValidationError(f"{key} must be an integer, got {self.values[key]!r}")

    def get_bool(self, key: str, default: bool) -> bool:
        if key not in self.values:
            return default
        try:
            return parse_bool(self.values[key])
        except ValueError:
            raise ValidationError(f"{key} must be a boolean, got {self.values[key]!r}") from None

    def seed(self) -> int:
        """The mandatory experiment seed."""
        raw = self.require("seed")
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(f"seed must be an integer, got {raw!r}")

    def assert_known(self, exact: set[str], prefixes: tuple[str, ...] = ()) -> None:
        """Reject keys outside the command's vocabulary (typo guard)."""
        unknown = [k for k in self.values
                   if k not in exact and not any(k.startswith(p) for p in prefixes)]
        if unknown:
            raise ValidationError(
                "unknown config keys: " + ", ".join(sorted(unknown)))
