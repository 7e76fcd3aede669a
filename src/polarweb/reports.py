"""Structured check reports.

Every theorem check returns a CheckReport: per-assertion verdicts with
witnesses, the seeded sampling trail (including discarded samples and why),
and numeric certificates where floating point was involved.  Reports render
deterministically; the only volatile field is the timestamp, which the CLI
isolates on its own line.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail, "mode": "exact"}


@dataclass
class CheckReport:
    check: str
    seed: int | None = None
    samples_requested: int = 0
    samples_used: int = 0
    discards: list[tuple[str, str]] = field(default_factory=list)
    assertions: list[Assertion] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    certificates: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append(Assertion(name, passed, detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    @property
    def mode(self) -> str:
        """Every assertion is decided in exact arithmetic."""
        return "exact"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "seed": self.seed,
            "samples": {
                "requested": self.samples_requested,
                "used": self.samples_used,
                "discarded": [{"witness": w, "reason": r} for w, r in self.discards],
            },
            "mode": self.mode,
            "passed": self.passed,
            "assertions": [a.to_dict() for a in self.assertions],
            "notes": list(self.notes),
            "certificates": dict(sorted(self.certificates.items())),
        }

    def render_text(self) -> str:
        lines = [f"check: {self.check}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        if self.samples_requested:
            lines.append(
                f"samples: requested={self.samples_requested} used={self.samples_used} "
                f"discarded={len(self.discards)}"
            )
        for witness, reason in self.discards:
            lines.append(f"  discard {witness}: {reason}")
        for a in self.assertions:
            flag = "PASS" if a.passed else "FAIL"
            detail = f" -- {a.detail}" if a.detail else ""
            lines.append(f"{flag} {a.name}{detail} [exact]")
        for n in self.notes:
            lines.append(f"note: {n}")
        for k in sorted(self.certificates):
            lines.append(f"certificate {k}: {self.certificates[k]}")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
