"""Type tables: label ranges, id resolution, attribute registry."""

import random

import pytest

from attk2.errors import InputError, NotFoundError
from attk2.schema import DynTypeTable, TypeTable


@pytest.fixture
def nodes_table():
    return TypeTable.build(
        [
            ("Researcher", 3, [("Name", False), ("Position", True), ("University", False)]),
            ("Paper", 2, [("Title", False), ("Topic", False)]),
        ]
    )


def test_labels_sorted(nodes_table):
    assert nodes_table.label_list() == ["Paper", "Researcher"]
    assert TypeTable.build([]).label_list() == []


def test_ids_of(nodes_table):
    assert nodes_table.ids_of("Researcher") == (3, 5)
    assert nodes_table.ids_of("Paper") == (1, 2)
    with pytest.raises(NotFoundError):
        nodes_table.ids_of("Venue")


def test_type_of(nodes_table):
    assert nodes_table.type_of(4) == "Researcher"
    assert nodes_table.type_of(1) == "Paper"
    assert nodes_table.type_of(2) == "Paper"
    assert nodes_table.type_of(3) == "Researcher"
    with pytest.raises(NotFoundError):
        nodes_table.type_of(0)
    with pytest.raises(NotFoundError):
        nodes_table.type_of(6)


def test_single_type_table():
    t = TypeTable.build([("Only", 4, [])])
    assert t.type_of(1) == "Only"
    assert t.type_of(4) == "Only"


def test_attribute_info(nodes_table):
    assert nodes_table.attribute_info("Researcher", "Name") == (1, False)
    assert nodes_table.attribute_info("Researcher", "Position") == (2, True)
    assert nodes_table.attribute_info("Researcher", "Title") is None
    assert nodes_table.attrs_of("Paper") == [("Title", False), ("Topic", False)]


def test_empty_labels_are_skipped_in_resolution():
    t = TypeTable.build([("A", 0, []), ("B", 2, []), ("C", 0, [])])
    lo, hi = t.ids_of("A")
    assert lo > hi
    assert t.type_of(1) == "B" and t.type_of(2) == "B"


def test_build_rejects_duplicates():
    from attk2.graph import check_bundle
    from attk2.io import InputBundle

    nodes = [(str(i), "A", []) for i in range(1, 4)]
    with pytest.raises(InputError, match="duplicate label 'A'"):
        check_bundle(InputBundle([("A", []), ("A", [])], [], nodes, []))
    with pytest.raises(InputError, match="duplicate attribute 'x'"):
        check_bundle(InputBundle([("A", [("x", True), ("x", False)])], [], nodes[:1], []))


def test_dyn_add_type_and_register():
    t = DynTypeTable()
    t.add_type("X")
    assert "X" in t.label_list()
    assert t.register_element("X") == 1
    assert t.register_element("X") == 2
    t.add_type("A")
    assert t.label_list() == ["A", "X"]
    assert t.register_element("A") == 3
    assert t.type_of(3) == "A"
    assert t.ids_of("X") == [1, 2]
    with pytest.raises(InputError):
        t.add_type("X")
    with pytest.raises(NotFoundError):
        t.register_element("Y")


def test_dyn_attributes():
    t = DynTypeTable()
    t.add_type("X")
    t.add_attribute("X", "a", False)
    t.add_attribute("X", "b", True)
    assert t.attribute_info("X", "a") == (1, False)
    assert t.attribute_info("X", "b") == (2, True)
    assert t.attribute_info("X", "c") is None
    assert len(t.attrs_of("X")) == 2
    with pytest.raises(InputError):
        t.add_attribute("X", "a", True)
    with pytest.raises(NotFoundError):
        t.add_attribute("Y", "a", True)


def test_dyn_registrations_match_array_oracle():
    rng = random.Random(500)
    t = DynTypeTable()
    labels = []
    ref = []
    for step in range(500):
        if not labels or (len(labels) < 8 and rng.random() < 0.05):
            name = f"L{len(labels)}"
            t.add_type(name)
            labels.append(name)
        lab = rng.choice(labels)
        assert t.register_element(lab) == len(ref) + 1
        ref.append(lab)
        i = rng.randint(1, len(ref))
        assert t.type_of(i) == ref[i - 1]
    for lab in labels:
        assert t.ids_of(lab) == [i + 1 for i, l in enumerate(ref) if l == lab]
    # rank/select round trip within a label
    lab = ref[0]
    label_ids = t.ids_of(lab)
    for rank, elem in enumerate(label_ids, start=1):
        assert t.rank_in_label(elem) == (lab, rank)
        assert t.select_in_label(lab, rank) == elem


def test_label_order_is_utf8_byte_order():
    # 1- to 4-byte UTF-8; UTF-16 would put the last one before "\uffda"
    labels = ["\U0001F600", "z", "\uffda", "\u00e9", "Z"]
    want = sorted(labels, key=str.encode)
    assert want == ["Z", "z", "\u00e9", "\uffda", "\U0001F600"]
    t = TypeTable.build([(lab, 1, []) for lab in labels])
    assert t.label_list() == want
    assert [t.type_of(i) for i in range(1, 6)] == want
    d = DynTypeTable()
    for lab in labels:
        d.add_type(lab)
    assert d.label_list() == want
