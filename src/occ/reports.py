"""Small pass/fail report objects shared by the checking entry points.

`CheckItem` and `Report`, like `occ.specialization.SpecializationMap`, are
immutable named tuples: they are iterable and indexable, equal to a plain
tuple of the same values, and assigning an attribute raises
`AttributeError`.
"""

from __future__ import annotations

from collections import namedtuple

from .series import first_difference


class CheckItem(namedtuple("CheckItem", "name passed detail expected actual", defaults=("", "", ""))):
    __slots__ = ()

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"{status} {self.name}{tail}"

    def to_json_obj(self):
        return {
            "item": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
            "detail": self.detail,
        }


class Report(namedtuple("Report", "title items", defaults=((),))):
    __slots__ = ()

    @property
    def passed(self):
        return all(i.passed for i in self.items)

    def lines(self):
        out = [f"== {self.title} =="]
        out.extend(i.line() for i in self.items)
        out.append(f"{'OK' if self.passed else 'FAILED'} ({sum(i.passed for i in self.items)}/{len(self.items)} passed)")
        return out

    def __str__(self):
        return "\n".join(self.lines())

    def to_json_obj(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "items": [i.to_json_obj() for i in self.items],
        }


def merge_reports(title, reports) -> Report:
    """Flatten several reports into one, prefixing items with their source."""
    items = []
    for rep in reports:
        for i in rep.items:
            items.append(
                CheckItem(f"{rep.title}: {i.name}", i.passed, i.detail, i.expected, i.actual)
            )
    return Report(title, tuple(items))


def agreement(name, got, expected) -> CheckItem:
    """An item that passes when the series agree, else names their first differing term."""
    d = first_difference(got, expected)
    if d is None:
        return CheckItem(name, True)
    return CheckItem(name, False, f"first difference at {d[0]}: {d[1]} != {d[2]}")
