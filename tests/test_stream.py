"""Model-based random testing of the whole dynamic API: seeded streams of
every mutation interleaved with the seven queries, each call's result or
exception class compared with the naive reference store. At random points
the store is frozen, the static store is compared with the reference through
`StaticRunner`, and its `save_db`/`load_db` round trip must reproduce the
file byte for byte."""

import ast
import inspect
import random
from pathlib import Path

from attk2 import io
from attk2.dyngraph import DynAttK2Graph
from attk2.graph import EDGE, NODE
from attk2.oracle import NaiveStore
from attk2.queries import StaticRunner

NODE_LABELS = ["A", "B", "C"]
EDGE_LABELS = ["R", "S"]
ATTS = ["x", "y", "z"]
VALUES = ["p", "q", "r"]
SEEDS = 300
CALLS = 250


def test_the_reference_imports_only_errors_and_two_graph_names():
    """The reference states its rules itself: it may take the error classes
    and `graph.NODE`/`graph.UNDEFINED` from the package, nothing else, so it
    cannot reuse the rules of `schema.DynTypeTable`."""
    tree = ast.parse(Path(inspect.getsourcefile(NaiveStore)).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "attk2"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                package, _, module = module.partition(".")
                if package != "attk2":
                    continue  # the standard library
            names = {a.name for a in node.names}
            assert module == "errors" or (
                module == "graph" and names <= {"NODE", "UNDEFINED"}
            ), f"oracle.py line {node.lineno} imports {names} from {module!r}"


def _outcome(call):
    """('ok', result) or ('raised', exception class) of a call."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return "raised", type(exc)


class _Stream:
    """One random call at a time, drawn from what the reference store holds:
    its ids, removed ones included, and ids 0 and one past the end."""

    def __init__(self, rng: random.Random, oracle: NaiveStore):
        self.rng = rng
        self.oracle = oracle

    def kind(self):
        return self.rng.choice((NODE, NODE, EDGE, EDGE, "vertex"))

    def label(self, kind):
        own, other = (NODE_LABELS, EDGE_LABELS) if kind == NODE else (EDGE_LABELS, NODE_LABELS)
        return self.rng.choice(own if self.rng.random() < 0.85 else other)

    def elem(self, kind):
        rng = self.rng
        count = len(self.oracle.edge_labels if kind == EDGE else self.oracle.node_labels)
        dead = sorted(self.oracle.dead_edges if kind == EDGE else self.oracle.dead_nodes)
        r = rng.random()
        if r < 0.08:
            return 0
        if r < 0.16:
            return count + 1
        if dead and r < 0.3:
            return rng.choice(dead)
        return rng.randint(1, max(count, 1))

    def attrs(self):
        rng = self.rng
        pairs = [(rng.choice(ATTS), rng.choice(VALUES)) for _ in range(rng.randint(0, 2))]
        if pairs and rng.random() < 0.1:
            pairs.append((pairs[0][0], rng.choice(VALUES)))  # given twice
        return pairs

    def call(self):
        """(name, args) of one call of the dynamic API."""
        rng = self.rng
        kind = self.kind()
        op = rng.choices(
            [
                "add_node_type", "add_edge_type", "add_attribute", "add_node",
                "add_edge", "set_attribute", "remove_edge", "remove_node",
                "get_types", "scan", "get_type", "get_attribute", "select",
                "neighbors", "related",
            ],
            weights=[2, 2, 4, 12, 12, 6, 3, 3, 2, 4, 4, 6, 5, 5, 5],
        )[0]
        if op == "add_node_type":
            return op, (self.label(NODE),)
        if op == "add_edge_type":
            return op, (self.label(EDGE),)
        if op == "add_attribute":
            return op, (kind, self.label(kind), rng.choice(ATTS), rng.random() < 0.5)
        if op == "add_node":
            return op, (self.label(NODE), self.attrs())
        if op == "add_edge":
            return op, (self.label(EDGE), self.elem(NODE), self.elem(NODE), self.attrs())
        if op == "set_attribute":
            return op, (kind, self.elem(kind), rng.choice(ATTS), rng.choice(VALUES))
        if op == "remove_edge":
            return op, (self.elem(EDGE),)
        if op == "remove_node":
            return op, (self.elem(NODE),)
        if op == "get_types":
            return op, (kind,)
        if op == "scan":
            return op, (kind, self.label(kind))
        if op == "get_type":
            return op, (kind, self.elem(kind))
        if op == "get_attribute":
            return op, (kind, self.elem(kind), rng.choice(ATTS))
        if op == "select":
            return op, (kind, self.label(kind), rng.choice(ATTS), rng.choice(VALUES))
        if op == "neighbors":
            return op, (self.label(NODE), self.elem(NODE))
        return op, (self.label(EDGE), self.elem(NODE))


def _static_calls(oracle: NaiveStore):
    """(script operation, its arguments in external ids, the reference call)
    for every query of a frozen store over the reference's labels, ids,
    attributes and values; the frozen store's external ids are the dynamic
    ids as decimal strings."""
    n, m = len(oracle.node_labels), len(oracle.edge_labels)
    o = oracle
    calls = [("GetNodeTypes", [], lambda: o.get_types(NODE)),
             ("GetEdgeTypes", [], lambda: o.get_types(EDGE))]
    for kind, labels, count, tag in (
        (NODE, NODE_LABELS, n, "Node"),
        (EDGE, EDGE_LABELS, m, "Edge"),
    ):
        for label in labels:
            calls.append((f"Scan{tag}s", [label], lambda k=kind, lab=label: o.scan(k, lab)))
            for att in ATTS:
                for value in VALUES:
                    calls.append((
                        f"Select{tag}s", [label, att, value],
                        lambda k=kind, lab=label, a=att, v=value: o.select(k, lab, a, v),
                    ))
        for i in range(count + 2):
            calls.append((f"Get{tag}Type", [str(i)], lambda k=kind, i=i: o.get_type(k, i)))
            for att in ATTS:
                calls.append((
                    f"Get{tag}Attribute", [str(i), att],
                    lambda k=kind, i=i, a=att: o.get_attribute(k, i, a),
                ))
    for i in range(n + 2):
        for label in NODE_LABELS:
            calls.append(
                ("Neighbors", [label, str(i)], lambda lab=label, i=i: o.neighbors(lab, i))
            )
        for label in EDGE_LABELS:
            calls.append(
                ("Related", [label, str(i)], lambda lab=label, i=i: o.related(lab, i))
            )
    return calls


def _by_external(outcome):
    """An outcome with its id list as sorted decimal strings: a static store
    orders a label's ids by external id, bytewise."""
    status, result = outcome
    if status == "ok" and isinstance(result, list):
        return status, sorted(map(str, result))
    return outcome


def _check_frozen(g: DynAttK2Graph, oracle: NaiveStore, path, where):
    frozen = g.freeze()
    io.save_db(frozen, path)
    data = path.read_bytes()
    loaded = io.load_db(path)
    io.save_db(loaded, path)
    assert path.read_bytes() == data, f"{where}: save_db(load_db(f)) differs from f"
    calls = _static_calls(oracle)
    for static in (frozen, loaded):
        runner = StaticRunner(static)
        for op, args, reference in calls:
            got, want = _outcome(lambda: runner.run(op, args)), _outcome(reference)
            if not op.endswith("Types"):  # labels keep their order
                got, want = _by_external(got), _by_external(want)
            assert got == want, f"{where}: {op}{tuple(args)}: frozen {got}, reference {want}"


def test_random_streams_match_the_reference(tmp_path):
    for seed in range(SEEDS):
        rng = random.Random(seed)
        g, oracle = DynAttK2Graph(), NaiveStore()
        stream = _Stream(rng, oracle)
        freeze_at = set(rng.sample(range(CALLS), 2)) if seed % 4 == 0 else set()
        for step in range(CALLS):
            op, args = stream.call()
            got = _outcome(lambda: getattr(g, op)(*args))
            want = _outcome(lambda: getattr(oracle, op)(*args))
            assert got == want, (
                f"seed {seed}, call {step}: {op}{args}: store {got}, reference {want}"
            )
            if step in freeze_at:
                _check_frozen(g, oracle, tmp_path / "frozen.db", f"seed {seed}, call {step}")
