"""Check items: the pass/fail records every suite reports.

A check item is a dict with a "name" and a "status" of "pass", "fail" or
"skipped".  A failing item carries a "witness" that locates the failure
whenever one is known, a skipped item carries a "reason", and some suites
add extra fields (an instance count, the bi-modes a relation was evaluated
on, a note).  Every item is built by the three functions below.

The module imports nothing from qav: a nonzero difference is reported
through its own methods, is_zero() and, for a matrix, first_nonzero().
"""

from __future__ import annotations


def check(name, ok, witness=None, **extra) -> dict:
    """A pass or fail item; the witness, when given, and the extra fields are
    recorded on either outcome."""
    item = {"name": name, "status": "pass" if ok else "fail"}
    if witness is not None:
        item["witness"] = witness
    item.update(extra)
    return item


def skipped(name, reason) -> dict:
    """An item for a check whose preconditions do not hold."""
    return {"name": name, "status": "skipped", "reason": reason}


def first_failure(name, instances, /, **extra) -> dict:
    """Pass when every diff of instances, an iterable of (labels, diff)
    pairs, is zero.  Otherwise fail at the first nonzero diff and stop: the
    witness is the labels followed by the first nonzero entry (row, col,
    value) of a matrix, or by the value of a scalar."""
    for labels, diff in instances:
        if diff.is_zero():
            continue
        first = getattr(diff, "first_nonzero", None)
        if first is None:
            witness = {**labels, "value": str(diff)}
        else:
            row, col, value = first()
            witness = {**labels, "row": row, "col": col, "value": str(value)}
        return check(name, False, witness, **extra)
    return check(name, True, **extra)
