"""Findings and the per-run configuration shared by every rule."""

from __future__ import annotations

import dataclasses
import hashlib
from typing import List, Optional


@dataclasses.dataclass
class Finding:
    rule: str        # "R1".."R4"
    path: str        # repo-relative, '/'-separated
    line: int
    col: int
    message: str
    fixit: str = ""  # human-readable fix-it hint

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching: rule + file + the access
        line's whitespace-normalized text. Survives re-numbering; collides
        only for identical violations on identical lines (then a count in
        the baseline entry covers it)."""
        return _fingerprint(self.rule, self.path, self.norm_line)

    norm_line: str = ""

    def to_json(self) -> dict:
        d = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.fixit:
            d["fixit"] = self.fixit
        return d

    def render(self) -> str:
        s = f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
        if self.fixit:
            s += f"\n    fix-it: {self.fixit}"
        return s


def _fingerprint(rule: str, path: str, norm_line: str) -> str:
    h = hashlib.sha1()
    h.update(f"{rule}|{path}|{norm_line}".encode())
    return h.hexdigest()[:16]


def normalize_line(text: str) -> str:
    return " ".join(text.split())


@dataclasses.dataclass
class Config:
    """Which dirs each rule applies to (repo-relative prefixes)."""

    # R1a (explicit order required) — all first-party concurrent code.
    order_dirs: tuple = ("src/",)
    # R1b (kpq-order justification required on non-seq_cst accesses).
    annotate_dirs: tuple = ("src/core/", "src/reclaim/", "src/sync/",
                            "src/async/", "src/storage/")
    # R2 wait-free hot paths. src/sync is the sanctioned blocking site and
    # is deliberately absent.
    pure_dirs: tuple = ("src/core/", "src/scale/", "src/storage/")
    # R3 hazard discipline: where nodes loaded from shared atomics live.
    hazard_dirs: tuple = ("src/core/", "src/storage/")
    # R4 hub discipline applies everywhere (a lock held across co_await is
    # a bug no matter the layer).
    hub_dirs: tuple = ("src/",)

    # Pointer-atomic member names treated as shared node sources for R3
    # even when their declaration is in another header.
    known_ptr_atomics: tuple = ("head_", "tail_", "next")


def in_dirs(path: str, prefixes) -> bool:
    return any(path.startswith(p) for p in prefixes)


@dataclasses.dataclass
class RunResult:
    findings: List[Finding]
    files_scanned: int
    files_from_cache: int
    frontend: str  # "token" | "libclang+token"
    error: Optional[str] = None
