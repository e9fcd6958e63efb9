"""Structured pass/fail reports shared by the library verifiers and the CLI."""

import json
from fractions import Fraction

from .linalg import field, record


def fmt_scalar(x) -> str:
    return str(Fraction(x))


def fmt_vec(v):
    return [fmt_scalar(x) for x in v]


@record(frozen=True)
class Finding:
    check: str
    status: str = "fail"  # "fail" or "note"
    witness: tuple = None  # basis names or coordinate labels
    residual: tuple = None  # exact vector, already stringified
    detail: str = None

    def to_json(self):
        d = {"check": self.check, "status": self.status}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        if self.residual is not None:
            d["residual"] = list(self.residual)
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@record
class Report:
    command: str
    findings: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    applicable: bool = True

    def fail(self, check, witness=None, residual=None, detail=None):
        self.findings.append(Finding(check, "fail", witness, residual, detail))

    def note(self, check, witness=None, residual=None, detail=None):
        self.findings.append(Finding(check, "note", witness, residual, detail))

    def absorb(self, other: "Report", prefix: str = ""):
        for f in other.findings:
            name = f"{prefix}{f.check}" if prefix else f.check
            self.findings.append(Finding(name, f.status, f.witness, f.residual, f.detail))
        for k, v in other.metrics.items():
            key = f"{prefix}{k}" if prefix else k
            self.metrics[key] = v
        if not other.applicable:
            self.note(f"{prefix}not-applicable" if prefix else "not-applicable",
                      detail=other.command)

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "fail" if any(f.status == "fail" for f in self.findings) else "pass"

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"

    def to_json(self):
        return {
            "command": self.command,
            "verdict": self.verdict,
            "findings": [f.to_json() for f in self.findings],
            "metrics": self.metrics,
        }

    def render(self, pretty: bool = False) -> str:
        doc = self.to_json()
        if pretty:
            return json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
