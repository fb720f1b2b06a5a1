"""Strict triple-level scoring and the error taxonomy.

A prediction counts only if subject, predicate and object are all correct.
Precision runs over emitted predictions (abstentions excluded from the
denominator), recall over gold triples, F1 is their harmonic mean; when
every example has exactly one prediction this reduces to accuracy.
One classifier, ``_category``, puts each example in its error category,
and ``error_taxonomy`` counts them; both renderers read one ``_summary``.
"""

from __future__ import annotations

import enum
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .corpus import KnowledgeGraph, Triple
from .vocab import TripleVocab

__all__ = [
    "ErrorCategory",
    "EvalReport",
    "error_taxonomy",
    "evaluate",
    "format_ablation_grid",
    "format_report",
    "report_records",
]


class ErrorCategory(enum.Enum):
    OOV_ENTITY = "OOV_ENTITY"
    OOV_PREDICATE = "OOV_PREDICATE"
    OVERLAPPING_RELATION = "OVERLAPPING_RELATION"
    WRONG_SUBJECT = "WRONG_SUBJECT"
    WRONG_PREDICATE = "WRONG_PREDICATE"
    WRONG_OBJECT = "WRONG_OBJECT"
    MULTIPLE_WRONG = "MULTIPLE_WRONG"


@dataclass
class EvalReport:
    n_gold: int
    n_predicted: int
    n_correct: int
    precision: float
    recall: float
    f1: float
    error_counts: dict[ErrorCategory, int] = field(default_factory=dict)


def evaluate(preds: Sequence[Triple | None], golds: Sequence[Triple]) -> EvalReport:
    """All-or-nothing P/R/F1 over aligned predictions and golds.

    A None prediction is an abstention: it cannot be correct and does not
    count toward the precision denominator. 0/0 ratios are defined as 0.
    """
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    n_predicted = sum(1 for p in preds if p is not None)
    n_correct = sum(1 for p, g in zip(preds, golds) if p == g)
    n_gold = len(golds)
    precision = n_correct / n_predicted if n_predicted else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalReport(n_gold, n_predicted, n_correct, precision, recall, f1)


def _pair_overlaps(pred: Triple, kg: KnowledgeGraph | None) -> bool:
    """Does the predicted entity pair participate in >1 KG triple?"""
    if kg is None:
        return False
    by_subject = kg.alignment_index.by_subject
    s, o = pred.subject, pred.object
    n = sum(1 for t in by_subject.get(s, ()) if t.object == o)
    if o != s:  # a self-loop pair is its own flip: count it once
        n += sum(1 for t in by_subject.get(o, ()) if t.object == s)
    return n >= 2


_WRONG_SLOT = (ErrorCategory.WRONG_SUBJECT, ErrorCategory.WRONG_PREDICATE,
               ErrorCategory.WRONG_OBJECT)


def _category(
    pred: Triple | None, gold: Triple, tvocab: TripleVocab, kg: KnowledgeGraph | None
) -> ErrorCategory | None:
    """The error category of one example, or None when it is correct.

    Precedence: an out-of-vocabulary gold entity, then an out-of-vocabulary
    gold predicate; an abstention is MULTIPLE_WRONG; then an overlapping
    relation (right entity pair, wrong predicate, and the pair holds more
    than one KG relation), then a single wrong slot, then MULTIPLE_WRONG.
    """
    if pred == gold:
        return None
    if not (tvocab.has_entity(gold.subject) and tvocab.has_entity(gold.object)):
        return ErrorCategory.OOV_ENTITY
    if not tvocab.has_predicate(gold.predicate):
        return ErrorCategory.OOV_PREDICATE
    if pred is None:
        return ErrorCategory.MULTIPLE_WRONG
    wrong = [p != g for p, g in zip(pred, gold)]
    if wrong == [False, True, False] and _pair_overlaps(pred, kg):
        return ErrorCategory.OVERLAPPING_RELATION
    if sum(wrong) == 1:
        return _WRONG_SLOT[wrong.index(True)]
    return ErrorCategory.MULTIPLE_WRONG


def error_taxonomy(
    preds: Sequence[Triple | None],
    golds: Sequence[Triple],
    tvocab: TripleVocab,
    kg: KnowledgeGraph | None = None,
) -> dict[ErrorCategory, int]:
    """The number of incorrect examples in each category, every category
    listed; each example is classified once, by ``_category``."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    counts = Counter(_category(pred, gold, tvocab, kg) for pred, gold in zip(preds, golds))
    return {cat: counts[cat] for cat in ErrorCategory}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _summary(report: EvalReport) -> list[tuple[str, str, str]]:
    """(table label, record key, value) of each summary row, in order."""
    return [
        ("gold triples", "n_gold", f"{report.n_gold}"),
        ("predictions", "n_predicted", f"{report.n_predicted}"),
        ("correct", "n_correct", f"{report.n_correct}"),
        ("precision", "precision", f"{report.precision:.6f}"),
        ("recall", "recall", f"{report.recall:.6f}"),
        ("F1", "f1", f"{report.f1:.6f}"),
    ]


def format_report(report: EvalReport) -> str:
    """Human-readable summary table."""
    lines = [f"{label:<22}{value}" for label, _, value in _summary(report)]
    if report.error_counts:
        lines.append("errors by category:")
        for cat in ErrorCategory:
            lines.append(f"  {cat.value:<22}{report.error_counts.get(cat, 0)}")
    return "\n".join(lines)


def report_records(report: EvalReport) -> list[str]:
    """Line-oriented machine records, fixed key order."""
    recs = [f"{key}\t{value}" for _, key, value in _summary(report)]
    for cat in ErrorCategory:
        recs.append(f"error.{cat.value}\t{report.error_counts.get(cat, 0)}")
    return recs


def format_ablation_grid(
    results: Mapping[str, Mapping[str, Sequence[float]]]
) -> str:
    """Matrix of median F1 per (configuration row, dataset column).

    ``results[config_label][dataset] -> per-seed F1 values``. Medians render
    in the grid; per-seed values follow underneath when any cell has more
    than one run.
    """
    rows = list(results)
    columns: list[str] = []
    for per_dataset in results.values():
        for ds in per_dataset:
            if ds not in columns:
                columns.append(ds)
    width = max([len(r) for r in rows] + [10])
    header = "config".ljust(width) + "".join(f"{c:>14}" for c in columns)
    lines = [header]
    for label in rows:
        cells = []
        for ds in columns:
            vals = results[label].get(ds)
            cells.append(f"{statistics.median(vals):>14.4f}" if vals else f"{'-':>14}")
        lines.append(label.ljust(width) + "".join(cells))
    if any(len(vals) > 1 for per in results.values() for vals in per.values()):
        lines.append("")
        lines.append("per-seed values:")
        for label in rows:
            for ds in columns:
                vals = results[label].get(ds)
                if vals:
                    joined = ", ".join(f"{v:.4f}" for v in vals)
                    lines.append(f"  {label} / {ds}: [{joined}]")
    return "\n".join(lines)
