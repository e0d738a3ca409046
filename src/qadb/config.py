"""Run configuration: key-value config files and config fingerprints.

Anything that affects results lives in the config file; paths and
verbosity come from command-line flags. The fingerprint therefore hashes
only result-affecting parameters, so identical runs produce identical
output headers regardless of where their files live.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ParseError

ENDPOINT_ENV_VAR = "QADB_BACKEND_ENDPOINT"
_AT_LEAST_ONE = {"k_questions", "top_n", "embedding_dim", "max_revision_rounds"}
_CHOICES = {"retrieval_mode": ("sparse", "dense"), "retrieval_method": ("max", "count", "direct")}


@dataclass
class RunConfig:
    # backend: remote when an endpoint is set, the in-process stub otherwise
    backend_endpoint: str = ""
    # retrieval
    retrieval_mode: str = "sparse"
    retrieval_method: str = "count"
    k_questions: int = 50
    top_n: int = 10
    embedding_dim: int = 64
    # revision
    max_revision_rounds: int = 2
    # misc
    seed: int = 0

    def __post_init__(self) -> None:
        endpoint = os.environ.get(ENDPOINT_ENV_VAR)
        if endpoint:
            self.backend_endpoint = endpoint

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Parse a ``key = value`` config file (# comments, blank lines ok)."""
        values: dict[str, object] = {}
        defaults = {f.name: f.default for f in fields(cls)}
        with open(path, encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in defaults:
                raise ParseError(f"{path}: line {lineno}: unknown config key {key!r}")
            try:
                values[key] = int(value) if isinstance(defaults[key], int) else value
                if key in _AT_LEAST_ONE and values[key] < 1:
                    raise ValueError(f"{key} must be >= 1")
                if key in _CHOICES and values[key] not in _CHOICES[key]:
                    raise ValueError(f"{key} must be one of {', '.join(_CHOICES[key])}")
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        return cls(**values)

    def to_dict(self) -> dict:
        return asdict(self)

    def fingerprint(self) -> str:
        """Short stable hash of every result-affecting parameter."""
        canonical = "\n".join(f"{k}={v!r}" for k, v in sorted(self.to_dict().items()))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
