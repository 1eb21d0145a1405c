"""Check records and validation reports.

Every validator in the package returns a ValidationReport: a list of named
checks, each carrying a verdict, the measured residual and the tolerance it
was compared against, plus an optional witness describing the failing datum.
Reports serialize to plain JSON-safe dicts with deterministic key order.
"""

import numpy as np

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
NO_SAMPLES = "no samples"  # detail of a check that evaluated zero cases


def jsonify(value):
    """Make a witness value JSON-safe and deterministic."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()] if value.ndim else jsonify(value.item())
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    return repr(value)


class Check:
    def __init__(self, name, verdict, residual=None, tolerance=None,
                 witness=None, detail=None):
        self.name = name
        self.verdict = verdict
        self.residual = None if residual is None else float(residual)
        self.tolerance = None if tolerance is None else float(tolerance)
        self.witness = witness
        self.detail = detail

    def to_dict(self):
        out = {"name": self.name, "verdict": self.verdict}
        if self.residual is not None:
            out["residual"] = self.residual
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.witness is not None:
            out["witness"] = jsonify(self.witness)
        if self.detail is not None:
            out["detail"] = self.detail
        return out

    def __repr__(self):
        bits = [self.verdict, self.name]
        if self.residual is not None:
            bits.append(f"residual={self.residual:.3e}")
        if self.tolerance is not None:
            bits.append(f"tol={self.tolerance:.1e}")
        return "<Check " + " ".join(bits) + ">"


class ValidationReport:
    def __init__(self, title, checks=None):
        self.title = title
        self.checks = list(checks) if checks else []

    def add(self, name, ok, residual=None, tolerance=None, witness=None, detail=None):
        verdict = PASS if ok else FAIL
        self.checks.append(Check(name, verdict, residual, tolerance, witness, detail))
        return self.checks[-1]

    def skip(self, name, reason):
        self.checks.append(Check(name, SKIPPED, detail=reason))
        return self.checks[-1]

    def extend(self, other):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self):
        return all(c.verdict != FAIL for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if c.verdict == FAIL]

    @property
    def max_residual(self):
        vals = [c.residual for c in self.checks if c.residual is not None]
        return max(vals) if vals else 0.0

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self):
        counts = {
            "pass": sum(c.verdict == PASS for c in self.checks),
            "fail": sum(c.verdict == FAIL for c in self.checks),
            "skipped": sum(c.verdict == SKIPPED for c in self.checks),
        }
        return {
            "title": self.title,
            "checks": [c.to_dict() for c in self.checks],
            "summary": counts,
            "verdict": PASS if self.passed else FAIL,
        }

    def __repr__(self):
        state = "PASS" if self.passed else "FAIL"
        return f"<ValidationReport {self.title!r} {state} ({len(self.checks)} checks)>"
