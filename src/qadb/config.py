"""Run configuration: key-value config files and config fingerprints.

Anything that affects results lives in the config file; paths and
verbosity come from command-line flags. The fingerprint therefore hashes
only result-affecting parameters, so identical runs produce identical
output headers regardless of where their files live.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParseError

ENDPOINT_ENV_VAR = "QADB_BACKEND_ENDPOINT"


@dataclass
class RunConfig:
    # backend: remote when an endpoint is set, the in-process stub otherwise
    backend_endpoint: str = ""
    # retrieval
    retrieval_mode: str = "sparse"
    retrieval_method: str = "count"
    k_questions: int = 50
    top_n: int = 10
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    embedding_dim: int = 64
    recall_ks: tuple[int, ...] = (1, 5, 10)
    multi_answer_only: bool = True
    # construction / revision
    beam: int = 32
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
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in defaults:
                raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _coerce(value, defaults[key])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
        return cls(**values)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def fingerprint(self) -> str:
        """Short stable hash of every result-affecting parameter."""
        canonical = "\n".join(f"{k}={v!r}" for k, v in sorted(self.to_dict().items()))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _coerce(text: str, template: object):
    if isinstance(template, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if isinstance(template, int):
        return int(text)
    if isinstance(template, float):
        return float(text)
    if isinstance(template, tuple):
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    return text
