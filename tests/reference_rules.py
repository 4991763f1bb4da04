"""The rule extraction that symaudio.evaluation's one-pass edge rule replaced.

Kept verbatim as the reference for rule-by-rule tests: a true edge and a
false edge each have their own builder, with their own G, Id and modal
branches, and the half-built antecedent (top-level items plus the stack of
open witness scopes) is deep-copied for both children of every internal
node.
"""
import copy

from symaudio.evaluation import Rule, flip_atom
from symaudio.intervals import And, Box, Diamond
from symaudio.trees import Leaf


def _render_items(items):
    parts = [_render_item(it) for it in items]
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def _render_item(item):
    if isinstance(item, tuple) and item and item[0] == "scope":
        _, rel, body = item
        return Diamond(rel, _render_items(body))
    return item


def _true_edge(top, stack, rel, atom, mode):
    if rel == "G":
        body = [atom]
        top.append(("scope", "G", body))
        stack[:] = [body]
    elif rel == "Id":
        if stack:
            stack[-1].append(atom)
        elif mode == "modal":
            body = [atom]
            top.append(("scope", "G", body))
            stack[:] = [body]
        else:
            top.append(atom)
    else:
        body = [atom]
        if stack:
            stack[-1].append(("scope", rel, body))
            stack.append(body)
        elif mode == "modal":
            top.append(("scope", "G", [("scope", rel, body)]))
            stack[:] = [body]
        else:
            raise ValueError(
                f"modal relation {rel} in a propositional tree")


def _false_edge(top, stack, rel, neg, mode):
    if rel == "G":
        top.append(Box("G", neg))
    elif rel == "Id":
        if stack:
            stack[-1].append(neg)
        elif mode == "modal":
            top.append(Box("G", neg))
        else:
            top.append(neg)
    else:
        if stack:
            stack[-1].append(Box(rel, neg))
        elif mode == "modal":
            top.append(Box("G", Box(rel, neg)))
        else:
            raise ValueError(
                f"modal relation {rel} in a propositional tree")


def extract_rules(tree, mode="modal"):
    """One rule per leaf, in routing order (true branches first).

    A rule's antecedent re-states the decisions along the path: true modal
    edges open witness scopes that later atoms join, false edges contribute
    universally quantified flipped atoms.  An instance is classified by the
    first rule it satisfies, matching tree routing.
    """
    rules = []

    def walk(node, top, stack):
        if isinstance(node, Leaf):
            rules.append(Rule(_render_items(top), node.class_id))
            return
        rel = node.decision.relation
        atom = node.decision.atom
        t_top, t_stack = copy.deepcopy((top, stack))
        _true_edge(t_top, t_stack, rel, atom, mode)
        walk(node.left, t_top, t_stack)
        f_top, f_stack = copy.deepcopy((top, stack))
        _false_edge(f_top, f_stack, rel, flip_atom(atom), mode)
        walk(node.right, f_top, f_stack)

    walk(tree, [], [])
    return rules
