"""Shared validation report types, error taxonomy, and the equivalence check."""

from __future__ import annotations

from dataclasses import dataclass


class StructuralError(ValueError):
    """Raw data is malformed: dangling references, bad shapes, carrier mismatch."""


class ValidationFailed(ValueError):
    """A build was attempted on data that fails semantic validation."""

    def __init__(self, message: str, report: "Report | None" = None):
        super().__init__(message)
        self.report = report


class PreconditionError(ValueError):
    """An operation was invoked outside its stated preconditions."""


class FalsificationError(RuntimeError):
    """A property that must hold on validated inputs failed.

    Raising this aborts a run loudly: it means either a construction bug or a
    genuine counterexample to a guaranteed identity, never ordinary bad input.
    """


class CapExceededError(ValueError):
    """A size cap guarding an exponential enumeration was exceeded."""


def distinct(built, rows, what: str, key=None):
    """``built``, the dict or set made from the list ``rows``, when no key
    repeats, that is when both have the same length; otherwise
    StructuralError naming ``what`` and the first key that repeats in
    ``rows``, each row's key being ``key(row)``, or the row itself."""
    if len(built) != len(rows):
        seen: set = set()
        for k in rows if key is None else map(key, rows):
            if k in seen:
                raise StructuralError(f"{what} lists {k!r} twice")
            seen.add(k)
    return built


def defect(tainted: bool, message: str) -> Exception:
    """The error for an identity that failed: a precondition failure on input
    built with the validation bypass, a falsification on validated input."""
    if tainted:
        return PreconditionError(message + " (input was built with the validation bypass)")
    return FalsificationError(message)


@dataclass(frozen=True)
class Violation:
    condition: str
    witness: tuple
    detail: str

    def __str__(self) -> str:
        w = ", ".join(str(t) for t in self.witness)
        return f"condition {self.condition}: {self.detail} [witness: {w}]"


@dataclass(frozen=True)
class Report:
    """Outcome of a validator: ok, or a list of labelled violations."""

    ok: bool
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    def raise_if_failed(self, what: str) -> None:
        if not self.ok:
            lines = "; ".join(str(v) for v in self.violations)
            raise ValidationFailed(f"{what}: {lines}", report=self)

    def conditions(self) -> frozenset:
        return frozenset(v.condition for v in self.violations)


def equivalence_classes(items, rel: dict) -> list | None:
    """The classes of ``rel`` when it is an equivalence on ``items``, else None.

    ``rel[p]`` is the set of items related to p, and must lie inside
    ``items``.  The relation is an equivalence exactly when every class
    contains its first member p and equals ``rel[q]`` for each member q, so
    the check costs O(sum of |class|^2).
    """
    seen: set = set()
    classes = []
    for p in items:
        if p in seen:
            continue
        block = rel[p]
        if p not in block or any(rel[q] != block for q in block):
            return None
        classes.append(frozenset(block))
        seen |= block
    return classes


def relation_failures(items, rel: dict) -> tuple:
    """The first reflexive, symmetric and transitive failure of ``rel`` on
    ``items``, each None when that property holds: p not in rel[p], (p, q)
    with q in rel[p] but p not in rel[q], and (p, q, r) with q in rel[p] and
    r in rel[q] but not in rel[p].  First in a scan over ``items`` with the
    related items sorted, so the witnesses do not depend on set order.
    """
    reflexive = next((p for p in items if p not in rel[p]), None)
    symmetric = next(((p, q) for p in items for q in sorted(rel[p]) if p not in rel[q]), None)
    transitive = (
        (p, q, r) for p in items for q in sorted(rel[p]) for r in sorted(rel[q]) if r not in rel[p]
    )
    return reflexive, symmetric, next(transitive, None)
