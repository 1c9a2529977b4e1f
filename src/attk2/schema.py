"""Type registries for nodes and edges.

The static table keeps labels sorted (str order, which is UTF-8 byte order)
and assigns each label a contiguous id range, recording only the highest id
per label; resolving an id is a binary search over those upper limits.

The dynamic table cannot reorder ids, but it only appends them. It keeps two
append-only arrays: the code of every element's label, by id, and per label
its ids in ascending order. Ranges become rank/select queries, a bisect of or
an index into a label's id array.

Both tables hold one attribute registry: per label, a dict from each
attribute name, in declaration order, to its 1-based ordinal and dense flag.
The store file keeps the paper's form of it, the names plus a bitmap of the
dense flags; `io` builds that bitmap when it writes and decodes it on load.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate

from .errors import InputError, NotFoundError


def _attribute_info(self, label: str, att: str):
    """(1-based ordinal, dense flag) of att within label, or None."""
    atts = self._atts.get(label)
    if atts is None:
        raise NotFoundError(f"unknown label {label!r}")
    return atts.get(att)


def _attrs_of(self, label: str) -> list[tuple[str, bool]]:
    """(attribute, dense flag) pairs of the label, in declaration order."""
    atts = self._atts.get(label)
    if atts is None:
        raise NotFoundError(f"unknown label {label!r}")
    return [(att, dense) for att, (_, dense) in atts.items()]


def _mixed_kind(schemas) -> str | None:
    """The first attribute name declared dense under one label and sparse
    under another, over (label, [(attribute, dense flag)...]) pairs; None
    when every name keeps one kind."""
    kinds: dict[str, bool] = {}
    for _, atts in schemas:
        for att, dense in atts:
            if kinds.setdefault(att, bool(dense)) != bool(dense):
                return att
    return None


class TypeTable:
    """Static label registry with contiguous id ranges per label."""

    __slots__ = ("labels", "upper_limits", "_atts", "_index")

    def __init__(
        self,
        labels: list[str],
        upper_limits: list[int],
        attrs: list[list[tuple[str, bool]]],
    ):
        """attrs: per label, its (attribute, dense flag) pairs in order."""
        self.labels = labels
        self.upper_limits = upper_limits
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._atts = {
            lab: {att: (j, bool(dense)) for j, (att, dense) in enumerate(pairs, 1)}
            for lab, pairs in zip(labels, attrs)
        }

    @classmethod
    def build(
        cls, entries: list[tuple[str, int, list[tuple[str, bool]]]]
    ) -> "TypeTable":
        """entries: (label, element count, [(attribute, dense flag)...])."""
        seen = set()
        for label, count, attr_list in entries:
            if label in seen:
                raise InputError(f"duplicate label {label!r}")
            if count < 0:
                raise InputError(f"label {label!r} has negative element count")
            if len({name for name, _ in attr_list}) != len(attr_list):
                raise InputError(f"label {label!r} declares a duplicate attribute")
            seen.add(label)
        ordered = sorted(entries, key=lambda e: e[0])
        uppers = list(accumulate(count for _, count, _ in ordered))
        return cls([e[0] for e in ordered], uppers, [e[2] for e in ordered])

    @property
    def count(self) -> int:
        """Total number of registered elements."""
        return self.upper_limits[-1] if self.upper_limits else 0

    def label_list(self) -> list[str]:
        return list(self.labels)

    def ids_of(self, label: str) -> tuple[int, int]:
        """Inclusive id range (lo, hi) of the label; empty labels give lo > hi."""
        idx = self._index.get(label)
        if idx is None:
            raise NotFoundError(f"unknown label {label!r}")
        lower = self.upper_limits[idx - 1] if idx else 0
        return lower + 1, self.upper_limits[idx]

    def type_of(self, elem_id: int) -> str:
        if not 1 <= elem_id <= self.count:
            raise IndexError(f"id {elem_id} out of range 1..{self.count}")
        return self.labels[bisect_left(self.upper_limits, elem_id)]

    def dense_names(self) -> list[str]:
        """Every attribute name a label declares dense, sorted: the columns of
        the kind's `DenseAttributeMatrix`, so the store file need not list them."""
        return sorted({att for d in self._atts.values() for att, (_, dense) in d.items() if dense})

    attribute_info = _attribute_info
    attrs_of = _attrs_of


class DynTypeTable:
    """Growable label registry. Ids are only ever appended, so each label's
    ids form an ascending array: rank in a label is a bisect of it and
    select an index into it."""

    __slots__ = ("_code_of", "_names", "_atts", "_codes", "_ids")

    def __init__(self):
        self._code_of: dict[str, int] = {}  # label -> stable code
        self._names: list[str] = []  # code -> label
        self._atts: dict[str, dict[str, tuple[int, bool]]] = {}
        self._codes = array("I")  # id - 1 -> code of its label
        self._ids: list[array] = []  # code -> ascending ids of the label

    @property
    def count(self) -> int:
        return len(self._codes)

    def add_type(self, label: str):
        if label in self._code_of:
            raise InputError(f"label {label!r} already exists")
        self._code_of[label] = len(self._names)
        self._names.append(label)
        self._ids.append(array("I"))
        self._atts[label] = {}

    def add_attribute(self, label: str, att: str, dense: bool):
        atts = self._atts.get(label)
        if atts is None:
            raise NotFoundError(f"unknown label {label!r}")
        if att in atts:
            raise InputError(f"attribute {att!r} already declared for {label!r}")
        atts[att] = (len(atts) + 1, dense)

    def register_element(self, label: str) -> int:
        """Append an element of the label; returns its sequential 1-based id."""
        code = self._code_of.get(label)
        if code is None:
            raise NotFoundError(f"unknown label {label!r}")
        self._codes.append(code)
        self._ids[code].append(len(self._codes))
        return len(self._codes)

    def label_list(self) -> list[str]:
        return sorted(self._atts)

    def has_label(self, label: str) -> bool:
        return label in self._code_of

    def _label_ids(self, label: str) -> array:
        code = self._code_of.get(label)
        if code is None:
            raise NotFoundError(f"unknown label {label!r}")
        return self._ids[code]

    def ids_of(self, label: str) -> list[int]:
        """Ascending ids carrying the label."""
        return self._label_ids(label).tolist()

    def _code(self, elem_id: int) -> int:
        if not 1 <= elem_id <= len(self._codes):
            raise IndexError(f"id {elem_id} out of range 1..{len(self._codes)}")
        return self._codes[elem_id - 1]

    def type_of(self, elem_id: int) -> str:
        return self._names[self._code(elem_id)]

    def rank_in_label(self, elem_id: int) -> tuple[str, int]:
        """Label of the element and its 1-based rank among that label's ids."""
        code = self._code(elem_id)
        return self._names[code], bisect_left(self._ids[code], elem_id) + 1

    def select_in_label(self, label: str, rank: int) -> int:
        """Id of the rank-th element of the label."""
        ids = self._label_ids(label)
        if not 1 <= rank <= len(ids):
            raise NotFoundError(f"label {label!r} has no element of rank {rank}")
        return ids[rank - 1]

    attribute_info = _attribute_info
    attrs_of = _attrs_of
