"""Metric computations against hand arithmetic and a brute-force tally."""

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.errors import UsageError
from vtfpar.metrics import (decide, group_metrics, macro_report, report_text,
                            report_tsv)
from vtfpar.schema import AttributeGroup, AttributeSchema, default_schema


def brute_force_group(preds, truths):
    """Independent per-class confusion tally in plain python."""
    n, k = len(preds), len(preds[0])
    ps, rs, fs = [], [], []
    for c in range(k):
        tp = fp = fn = 0
        for i in range(n):
            p, t = int(preds[i][c]) != 0, int(truths[i][c]) != 0
            if p and t:
                tp += 1
            elif p and not t:
                fp += 1
            elif t and not p:
                fn += 1
        if tp + fp + fn == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        ps.append(precision)
        rs.append(recall)
        fs.append(f1)
    if not ps:
        return 0.0, 0.0, 0.0
    return sum(ps) / len(ps), sum(rs) / len(rs), sum(fs) / len(fs)


def _two_group_schema():
    return AttributeSchema((
        AttributeGroup("ga", "exclusive", ("a0", "a1"), ("a0", "a1")),
        AttributeGroup("gb", "binary", ("b0", "b1"), ("b0", "b1")),
    ))


class TestDecide:
    def _schema(self):
        return AttributeSchema((
            AttributeGroup("ex", "exclusive", ("a", "b", "c"), ("a", "b", "c")),
            AttributeGroup("bi", "binary", ("d",), ("d",)),
        ))

    def test_binary_zero_logit_is_negative(self):
        preds = decide(np.array([[0.0, 1.0, -1.0, 0.0]]), self._schema())
        assert preds[0, 3] == 0

    def test_exclusive_tie_breaks_to_lowest_index(self):
        preds = decide(np.array([[1.0, 1.0, 0.0, 1.0]]), self._schema())
        npt.assert_array_equal(preds[0, :3], [1, 0, 0])

    def test_exclusive_argmax(self):
        preds = decide(np.array([[-5.0, 2.0, 1.0, -1.0]]), self._schema())
        npt.assert_array_equal(preds[0, :3], [0, 1, 0])

    def test_batched(self):
        logits = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 2.0, -1.0]])
        preds = decide(logits, self._schema())
        npt.assert_array_equal(preds, [[1, 0, 0, 1], [0, 0, 1, 0]])

    def test_wrong_width_rejected(self):
        with pytest.raises(UsageError):
            decide(np.zeros((1, 3)), self._schema())


class TestGroupMetrics:
    def test_perfect_predictions(self):
        y = np.array([[1, 0], [0, 1], [1, 0]])
        assert group_metrics(y, y) == (1.0, 1.0, 1.0)

    def test_all_wrong_balanced_binary(self):
        truths = np.array([[1], [0], [1], [0]])
        preds = 1 - truths
        assert group_metrics(preds, truths) == (0.0, 0.0, 0.0)

    def test_hand_confusion_case_13_over_24(self):
        # class 0: TP=3 FP=1 FN=1; class 1: TP=1 FP=1 FN=3
        # P=[.75,.5] R=[.75,.25] F1=[.75, 1/3]; group F1 = 13/24
        preds = np.zeros((9, 2), dtype=int)
        truths = np.zeros((9, 2), dtype=int)
        # class 0: 3 TP
        preds[0:3, 0] = 1
        truths[0:3, 0] = 1
        preds[3, 0] = 1          # 1 FP
        truths[4, 0] = 1         # 1 FN
        # class 1: 1 TP
        preds[5, 1] = 1
        truths[5, 1] = 1
        preds[6, 1] = 1          # 1 FP
        truths[7:9, 1] = 1       # 2 FN
        truths[4, 1] = 1         # 3rd FN
        p, r, f1 = group_metrics(preds, truths)
        assert p == pytest.approx((0.75 + 0.5) / 2)
        assert r == pytest.approx((0.75 + 0.25) / 2)
        assert f1 == pytest.approx(13 / 24)

    def test_absent_class_excluded_from_mean(self):
        preds = np.array([[1, 0], [1, 0]])
        truths = np.array([[1, 0], [1, 0]])
        assert group_metrics(preds, truths) == (1.0, 1.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            group_metrics(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, k = rng.integers(1, 30), rng.integers(1, 5)
            preds = (rng.random((n, k)) < 0.4).astype(int)
            truths = (rng.random((n, k)) < 0.4).astype(int)
            fast = group_metrics(preds, truths)
            slow = brute_force_group(preds.tolist(), truths.tolist())
            npt.assert_allclose(fast, slow, atol=1e-12)


class TestMacroReport:
    def test_single_group_equals_group_values(self):
        schema = AttributeSchema(
            (AttributeGroup("only", "binary", ("x", "y"), ("x", "y")),))
        rng = np.random.default_rng(1)
        preds = (rng.random((20, 2)) < 0.5).astype(np.int8)
        truths = (rng.random((20, 2)) < 0.5).astype(np.int8)
        rep = macro_report(schema, preds, truths)
        p, r, f1 = group_metrics(preds, truths)
        assert (rep.macro_precision, rep.macro_recall, rep.macro_f1) == (p, r, f1)

    def test_two_group_mean(self):
        schema = _two_group_schema()
        # group a perfect, group b all wrong -> macro F1 = 0.5
        truths = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int8)
        preds = truths.copy()
        preds[:, 2:] = 1 - preds[:, 2:]
        rep = macro_report(schema, preds, truths)
        assert rep.macro_f1 == pytest.approx(0.5)
        assert rep.groups[0].f1 == 1.0 and rep.groups[1].f1 == 0.0

    def test_macro_f1_is_mean_of_group_f1_not_f1_of_means(self):
        schema = _two_group_schema()
        rng = np.random.default_rng(2)
        preds = (rng.random((40, 4)) < 0.3).astype(np.int8)
        truths = (rng.random((40, 4)) < 0.6).astype(np.int8)
        rep = macro_report(schema, preds, truths)
        f1_of_means = (2 * rep.macro_precision * rep.macro_recall
                       / (rep.macro_precision + rep.macro_recall))
        assert rep.macro_f1 != pytest.approx(f1_of_means, abs=1e-6)
        assert rep.macro_f1 == pytest.approx(
            np.mean([g.f1 for g in rep.groups]), abs=1e-12)

    def test_permutation_and_duplication_invariance(self):
        schema = _two_group_schema()
        rng = np.random.default_rng(3)
        preds = (rng.random((25, 4)) < 0.4).astype(np.int8)
        truths = (rng.random((25, 4)) < 0.4).astype(np.int8)
        base = macro_report(schema, preds, truths)
        perm = rng.permutation(25)
        shuffled = macro_report(schema, preds[perm], truths[perm])
        doubled = macro_report(schema, np.concatenate([preds, preds]),
                               np.concatenate([truths, truths]))
        for other in (shuffled, doubled):
            assert other.macro_precision == pytest.approx(base.macro_precision, abs=1e-12)
            assert other.macro_recall == pytest.approx(base.macro_recall, abs=1e-12)
            assert other.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)

    def test_all_values_in_unit_interval(self):
        schema = default_schema()
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(30, schema.n_classes))
        preds = decide(logits, schema)
        truths = decide(rng.normal(size=(30, schema.n_classes)), schema)
        rep = macro_report(schema, preds, truths)
        for g in rep.groups:
            assert 0.0 <= g.precision <= 1.0
            assert 0.0 <= g.recall <= 1.0
            assert 0.0 <= g.f1 <= 1.0

    def test_report_formats(self):
        schema = _two_group_schema()
        preds = np.array([[1, 0, 1, 0]], dtype=np.int8)
        rep = macro_report(schema, preds, preds)
        tsv = report_tsv(rep)
        lines = tsv.strip().split("\n")
        assert lines[0] == "group\tprecision\trecall\tf1\tsupport"
        assert lines[-1].startswith("MACRO\t")
        assert len(lines) == 1 + 2 + 1
        text = report_text(rep)
        assert "[macro]" in text and "[group ga]" in text
