"""Evaluation protocol, agreement metrics, and rule extraction.

Classifiers are scored by class-balanced repeated holdout: every class is
downsampled to the minority count, split per class into train and test, and
the whole procedure repeated with fresh seeds.  Trees additionally compile
into ordered rule lists whose antecedents are interval logic formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .intervals import And, Box, Diamond, check, format_formula
from .logiset import Atom
# predict_tree is not called here: perfbench/spans.py wraps it by this name
from .trees import (Leaf, Model, Split, learn_forest, learn_tree,
                    model_from_tree, predict_forest, predict_tree)

_HOLDOUT_TAG = 11


def confusion_matrix(y_true, y_pred, n_classes):
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred, strict=True):
        cm[t, p] += 1
    return cm


def accuracy(cm):
    """Percent of instances on the confusion matrix diagonal."""
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return 100.0 * float(np.trace(cm)) / float(total)


def cohen_kappa(cm):
    """Chance-corrected agreement in percent; 0 when chance agreement is 1."""
    total = float(cm.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    p_o = float(np.trace(cm)) / total
    p_e = float(cm.sum(axis=1) @ cm.sum(axis=0)) / (total * total)
    if p_e == 1.0:
        return 0.0
    return 100.0 * (p_o - p_e) / (1.0 - p_e)


def leaf_count(obj):
    """Leaves of a tree node, or the mean over a model's trees."""
    if isinstance(obj, Leaf):
        return 1
    if isinstance(obj, Split):
        return leaf_count(obj.left) + leaf_count(obj.right)
    if isinstance(obj, Model):
        return sum(leaf_count(t) for t in obj.trees) / len(obj.trees)
    raise TypeError(f"cannot count leaves of {type(obj).__name__}")


def balanced_holdout(labels, train_frac=0.8, repeats=10, seed=0):
    """Repeated class-balanced splits as (train, test) index array pairs.

    Each repeat downsamples every class to the minority class count, then
    splits each class train_frac/rest.  Classes need at least 5 members.
    """
    labels = list(labels)
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    c_min = min(len(g) for g in groups.values())
    if c_min < 5:
        raise ValueError(
            f"smallest class has {c_min} instances, need at least 5")
    n_train = math.floor(train_frac * c_min)
    if not 0 < n_train < c_min:
        raise ValueError(f"train_frac {train_frac} leaves an empty side")
    splits = []
    for rep in range(repeats):
        rng = np.random.default_rng((seed, _HOLDOUT_TAG, rep))
        train, test = [], []
        for lab in sorted(groups):
            pick = rng.choice(groups[lab], size=c_min, replace=False)
            train.extend(int(i) for i in pick[:n_train])
            test.extend(int(i) for i in pick[n_train:])
        splits.append((np.array(sorted(train)), np.array(sorted(test))))
    return splits


@dataclass
class MetricsReport:
    kappa: list
    accuracy: list
    leaves: list

    @property
    def kappa_mean(self):
        return _mean(self.kappa)

    @property
    def kappa_std(self):
        return _std(self.kappa)

    @property
    def accuracy_mean(self):
        return _mean(self.accuracy)

    @property
    def accuracy_std(self):
        return _std(self.accuracy)

    @property
    def leaves_mean(self):
        return _mean(self.leaves)

    @property
    def leaves_std(self):
        return _std(self.leaves)


def _mean(xs):
    return sum(xs) / len(xs)


def _std(xs):
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def evaluate(ls, params, model="tree", train_frac=0.8, repeats=10, seed=0):
    """Balanced repeated holdout scores for a tree or forest learner."""
    if model not in ("tree", "forest"):
        raise ValueError(f"model must be tree or forest, got {model!r}")
    labels = [inst.label for inst in ls.instances]
    splits = balanced_holdout(labels, train_frac=train_frac, repeats=repeats,
                              seed=seed)
    kappas, accs, leaves = [], [], []
    k = len(ls.classes)
    for rep, (train, test) in enumerate(splits):
        if model == "tree":
            fitted = model_from_tree(learn_tree(ls, params, indices=train),
                                     params, ls.classes, ls.attr_names)
        else:
            fitted = learn_forest(ls, replace(params, seed=(seed, rep)),
                                  indices=train)
        preds = [predict_forest(fitted, ls.instances[i]) for i in test]
        leaves.append(leaf_count(fitted))
        cm = confusion_matrix([labels[i] for i in test], preds, k)
        kappas.append(cohen_kappa(cm))
        accs.append(accuracy(cm))
    return MetricsReport(kappa=kappas, accuracy=accs, leaves=leaves)


# --- rules ------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    antecedent: object    # Formula
    consequent: int       # class id
    coverage: object = None
    confidence: object = None


def flip_atom(atom):
    op = "<=" if atom.op == ">=" else ">="
    return Atom(fn=atom.fn, attr=atom.attr, op=op, threshold=atom.threshold)


def _antecedent(path, mode):
    # The conjunction that the edges of one decision path state, under one
    # rule per edge.  An open witness scope is a (relation, items) pair,
    # rendered as <relation> over its items; inner is the innermost one,
    # whose worlds the next edge's relation starts from.
    top, inner = [], None
    for (rel, atom), truth in path:
        item = atom if truth else flip_atom(atom)
        if rel not in ("G", "Id"):
            if mode != "modal":
                raise ValueError(
                    f"modal relation {rel} in a propositional tree")
            item = (rel, [item]) if truth else Box(rel, item)
        if rel == "G" or (inner is None and mode == "modal"):
            # the edge speaks of all worlds: a false one holds at every
            # world, a true one at a witness that opens a new top scope
            if not truth:
                top.append(Box("G", item))
                continue
            inner = []
            top.append(("G", inner))
        (top if inner is None else inner).append(item)
        if isinstance(item, tuple):
            inner = item[1]
    return _conjunction(top)


def _conjunction(items):
    parts = [Diamond(it[0], _conjunction(it[1])) if isinstance(it, tuple)
             else it for it in items]
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def extract_rules(tree, mode="modal"):
    """One rule per leaf, in routing order (true branches first).

    A rule's antecedent re-states the decisions along the path: true modal
    edges open witness scopes that later atoms join, false edges contribute
    universally quantified flipped atoms.  An instance is classified by the
    first rule it satisfies, matching tree routing.
    """
    rules = []

    def walk(node, path):
        if isinstance(node, Leaf):
            rules.append(Rule(_antecedent(path, mode), node.class_id))
            return
        edge = (node.decision.relation, node.decision.atom)
        for child, truth in ((node.left, True), (node.right, False)):
            path.append((edge, truth))
            walk(child, path)
            path.pop()

    walk(tree, [])
    return rules


def rule_satisfied(rule, inst):
    return check(rule.antecedent, inst, (0, inst.T))


def rule_metrics(rules, instances, min_confidence=0.5, min_coverage=8):
    """Score rules on instances; keep those strictly above both cutoffs."""
    if not instances:
        return []
    stacked = replace(instances[0],
                      table=np.stack([inst.table for inst in instances]))
    labels = np.array([inst.label for inst in instances])
    kept = []
    for rule in rules:
        covered = labels[rule_satisfied(rule, stacked)]
        cov = len(covered)
        if cov == 0:
            continue
        conf = int(np.count_nonzero(covered == rule.consequent)) / cov
        if conf > min_confidence and cov > min_coverage:
            kept.append(replace(rule, coverage=cov, confidence=conf))
    return kept


# --- report shaping ---------------------------------------------------------

METRICS_COLUMNS = ("task", "mode", "model", "repeat", "kappa", "accuracy",
                   "leaves")
RULES_COLUMNS = ("antecedent", "consequent", "coverage", "confidence")


def metrics_rows(report, task, mode, model):
    rows = []
    for rep, (ka, ac, lv) in enumerate(zip(report.kappa, report.accuracy,
                                           report.leaves)):
        rows.append([task, mode, model, str(rep), str(float(ka)),
                     str(float(ac)), str(float(lv))])
    rows.append([task, mode, model, "mean", str(float(report.kappa_mean)),
                 str(float(report.accuracy_mean)),
                 str(float(report.leaves_mean))])
    rows.append([task, mode, model, "std", str(float(report.kappa_std)),
                 str(float(report.accuracy_std)),
                 str(float(report.leaves_std))])
    return rows


def rules_rows(rules, classes, attr_names):
    rows = []
    for rule in rules:
        rows.append([format_formula(rule.antecedent, attr_names),
                     str(classes[rule.consequent]), str(rule.coverage),
                     str(float(rule.confidence))])
    return rows
