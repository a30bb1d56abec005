"""Grouped precision/recall/F1 for multi-label attribute predictions.

Decision rule: exclusive groups take the argmax over the group's logits
(ties -> lowest class index), binary groups threshold each logit at 0
(strictly greater). Group metrics are unweighted means over the group's
classes; macro metrics are unweighted means over groups.

Zero-division conventions, per class: if a denominator is 0 but the
class appears in the truth or the predictions, the metric is 0; classes
appearing in neither are excluded from the group mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .schema import AttributeSchema


@dataclass(frozen=True)
class GroupMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int  # truth-positive (tracklet, class) pairs in the group


@dataclass(frozen=True)
class MetricReport:
    groups: tuple[GroupMetrics, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    n_tracklets: int


def decide(logits: np.ndarray, schema: AttributeSchema) -> np.ndarray:
    """Logits (n, c) -> binary predictions of the same shape."""
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise UsageError(f"decide: need (n, c) logits, got shape {logits.shape}")
    if logits.shape[1] != schema.n_classes:
        raise UsageError(
            f"decide: {logits.shape[1]} logits for {schema.n_classes} classes")
    preds = np.zeros(logits.shape, dtype=np.int8)
    for group, start, stop in schema.group_slices:
        block = logits[:, start:stop]
        if group.kind == "exclusive":
            winners = np.argmax(block, axis=1)  # first max wins ties
            preds[np.arange(len(block)), start + winners] = 1
        else:
            preds[:, start:stop] = (block > 0).astype(np.int8)
    return preds


def group_metrics(preds: np.ndarray, truths: np.ndarray) -> tuple[float, float, float]:
    """Unweighted class-mean precision/recall/F1 for one group.

    ``preds`` and ``truths`` are (n_tracklets, n_classes_in_group)
    binary indicator arrays.
    """
    preds = np.asarray(preds)
    truths = np.asarray(truths)
    if preds.shape != truths.shape:
        raise UsageError(f"group_metrics: shapes differ {preds.shape} vs {truths.shape}")
    ps, rs, fs = [], [], []
    for c in range(preds.shape[1]):
        p_col = preds[:, c] != 0
        t_col = truths[:, c] != 0
        tp = int(np.sum(p_col & t_col))
        fp = int(np.sum(p_col & ~t_col))
        fn = int(np.sum(~p_col & t_col))
        if tp + fp + fn == 0:
            continue  # class absent everywhere: excluded from the mean
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        ps.append(precision)
        rs.append(recall)
        fs.append(f1)
    if not ps:
        return 0.0, 0.0, 0.0
    return float(np.mean(ps)), float(np.mean(rs)), float(np.mean(fs))


def macro_report(schema: AttributeSchema, preds: np.ndarray,
                 truths: np.ndarray) -> MetricReport:
    """Per-group metrics plus their arithmetic means across groups."""
    preds = np.asarray(preds)
    truths = np.asarray(truths)
    if preds.shape != truths.shape or preds.ndim != 2:
        raise UsageError(
            f"macro_report: need matching (n, c) arrays, got {preds.shape} vs {truths.shape}")
    if preds.shape[1] != schema.n_classes:
        raise UsageError(
            f"macro_report: {preds.shape[1]} columns for {schema.n_classes} classes")
    groups = []
    for group, start, stop in schema.group_slices:
        p, r, f1 = group_metrics(preds[:, start:stop], truths[:, start:stop])
        support = int(truths[:, start:stop].sum())
        groups.append(GroupMetrics(group.name, p, r, f1, support))
    return MetricReport(
        groups=tuple(groups),
        macro_precision=float(np.mean([g.precision for g in groups])),
        macro_recall=float(np.mean([g.recall for g in groups])),
        macro_f1=float(np.mean([g.f1 for g in groups])),
        n_tracklets=preds.shape[0],
    )


def report_tsv(report: MetricReport) -> str:
    """TSV table: one row per group plus a MACRO row."""
    lines = ["group\tprecision\trecall\tf1\tsupport"]
    for g in report.groups:
        lines.append(f"{g.name}\t{g.precision:.4f}\t{g.recall:.4f}\t{g.f1:.4f}\t{g.support}")
    lines.append(
        f"MACRO\t{report.macro_precision:.4f}\t{report.macro_recall:.4f}"
        f"\t{report.macro_f1:.4f}\t{report.n_tracklets}")
    return "\n".join(lines) + "\n"

