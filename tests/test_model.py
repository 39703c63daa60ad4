"""Model layer: table layout, parsing, validation, round-trips."""

import ast
import itertools
import json
import re

import numpy as np
import pytest

from noisymax import (
    CycleError,
    DanglingReferenceError,
    Factor,
    MalformedDistributionError,
    Network,
    NetworkSyntaxError,
    NoisyMaxCpd,
    SchemaError,
    TableCpd,
    Variable,
    parse_network,
    serialize_network,
)
from noisymax.model import node_parents
from helpers import noisy_or_network, references_doc

NAN, INF = float("nan"), float("inf")

NOISY_OR_DOC = {
    "variables": [
        {"name": "C1", "states": ["F", "T"]},
        {"name": "C2", "states": ["F", "T"]},
        {"name": "E", "states": ["F", "T"]},
    ],
    "nodes": [
        {"child": "C1", "parents": [], "cpd": {"type": "table", "values": [0.5, 0.5]}},
        {"child": "C2", "parents": [], "cpd": {"type": "table", "values": [0.5, 0.5]}},
        {
            "child": "E",
            "cpd": {
                "type": "noisy-max",
                "causes": ["C1", "C2"],
                "links": [[[1, 0], [0.2, 0.8]], [[1, 0], [0.4, 0.6]]],
            },
        },
    ],
}


def doc_text(doc=NOISY_OR_DOC) -> str:
    return json.dumps(doc)


class TestFactorIndex:
    """The canonical flat layout is row-major, last scope variable fastest,
    so ``np.ravel_multi_index`` gives each assignment's flat offset."""

    @staticmethod
    def layout(sizes):
        """A factor whose every entry holds its own flat offset."""
        return Factor.from_flat(range(len(sizes)), sizes, np.arange(np.prod(sizes)))

    def test_origin(self):
        assert self.layout([2, 3]).values[0, 0] == 0

    def test_last_cell(self):
        assert self.layout([2, 3]).values[1, 2] == 5

    def test_first_variable_stride(self):
        assert self.layout([2, 3]).values[1, 0] == 3

    def test_bijection(self):
        sizes = [2, 3, 4]
        values = self.layout(sizes).values
        offsets = [values[a] for a in itertools.product(range(2), range(3), range(4))]
        assert sorted(offsets) == list(range(24))

    def test_matches_numpy_ravel(self):
        sizes = (3, 2, 4)
        factor = self.layout(sizes)
        for a in itertools.product(range(3), range(2), range(4)):
            offset = np.ravel_multi_index(a, sizes)
            assert factor.values[a] == factor.values.ravel()[offset] == offset


class TestVariable:
    def test_single_state_rejected(self):
        with pytest.raises(SchemaError):
            Variable(0, "x", ("only",))

    def test_duplicate_states_rejected(self):
        with pytest.raises(SchemaError):
            Variable(0, "x", ("a", "a"))


class TestFactor:
    def test_duplicate_scope_rejected(self):
        with pytest.raises(ValueError):
            Factor((0, 0), np.ones((2, 2)))

    def test_from_flat_length_check(self):
        with pytest.raises(ValueError):
            Factor.from_flat((0,), (2,), [1.0, 2.0, 3.0])

    def test_negative_entries_allowed(self):
        f = Factor((0,), [-1.0, 2.5])
        assert f.values.min() == -1.0


class TestParse:
    def test_single_variable_prior(self):
        text = json.dumps(
            {
                "variables": [{"name": "A", "states": ["a0", "a1"]}],
                "nodes": [
                    {"child": "A", "parents": [], "cpd": {"type": "table", "values": [0.3, 0.7]}}
                ],
            }
        )
        net = parse_network(text)
        assert len(net.variables) == 1
        assert all(not node_parents(net.nodes[v.id]) for v in net.variables)

    def test_noisy_or_document(self):
        net = parse_network(doc_text())
        node = net.nodes[2]
        assert isinstance(node, NoisyMaxCpd)
        assert node.causes == (0, 1)
        assert node.links[0].shape == (2, 2)
        assert node.links[0][1, 1] == 0.8

    def test_link_row_not_normalized(self):
        doc = json.loads(doc_text())
        doc["nodes"][2]["cpd"]["links"][0][1] = [0.1, 0.8]
        with pytest.raises(MalformedDistributionError):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize(
        "node, key, value, message",
        [
            (0, "values", [NAN, 1.0], "non-finite"),
            (0, "values", [INF, 0.0], "do not sum to 1"),
            (2, "links", [[[1, 0], [NAN, 1.0]], [[1, 0], [0.4, 0.6]]], "non-finite"),
            (2, "links", [[[1, 0], [INF, 0.0]], [[1, 0], [0.4, 0.6]]], "row 1 sums to"),
            (2, "leak", [NAN, 1.0], "non-finite"),
            (2, "leak", [None, 1.0], "non-finite"),
            (2, "leak", [INF, -INF], "negative"),
        ],
    )
    def test_non_finite_probability(self, node, key, value, message):
        # json.dumps writes NaN and Infinity, and json.loads reads them back.
        doc = json.loads(doc_text())
        doc["nodes"][node]["cpd"][key] = value
        with pytest.raises(MalformedDistributionError, match=message):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("links", [[[1, 0], ["x", 1]], [[1, 0], [0.4, 0.6]]]),
            ("links", [[[1, 0], [1]], [[1, 0], [0.4, 0.6]]]),
            ("links", [[[1, 0], [{}, 1]], [[1, 0], [0.4, 0.6]]]),
            ("leak", ["x", 1]),
            ("leak", [[1], [0, 0]]),
            ("links", [[[1, 0], [0.5, "5e-1"]], [[1, 0], [0.4, 0.6]]]),
            ("leak", ["0.9", "0.1"]),
        ],
    )
    def test_malformed_link_numbers_are_schema_errors(self, key, value):
        doc = json.loads(doc_text())
        doc["nodes"][2]["cpd"][key] = value
        with pytest.raises(SchemaError, match=rf"nodes\[2\]\.cpd\.{key}"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize(
        "node, key, value, context",
        [
            (0, "values", [True, False], "nodes[0]"),
            (0, "values", [0.0, True], "nodes[0]"),
            (2, "links", [[[1, 0], [True, 0]], [[1, 0], [0.4, 0.6]]], "nodes[2].cpd.links[0]"),
            (2, "leak", [False, True], "nodes[2].cpd.leak"),
        ],
        ids=["table", "mixed-table", "link-row", "leak"],
    )
    def test_booleans_are_not_probabilities(self, node, key, value, context):
        doc = json.loads(doc_text())
        doc["nodes"][node]["cpd"][key] = value
        message = rf"{re.escape(context)}: (true|false) is not a number"
        with pytest.raises(SchemaError, match=message):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("row, total", [([0.1, 1.0], "1.1"), ([INF, 0.0], "inf")])
    def test_link_row_sum_is_printed_as_a_number(self, row, total):
        doc = json.loads(doc_text())
        doc["nodes"][2]["cpd"]["links"][0][1] = row
        with pytest.raises(MalformedDistributionError) as excinfo:
            parse_network(json.dumps(doc))
        assert str(excinfo.value) == f"link table for cause 0: row 1 sums to {total}"

    def test_flat_link_rows_are_a_schema_error(self):
        doc = json.loads(doc_text())
        doc["nodes"][2]["cpd"]["links"][0] = [1, 0, 0.2, 0.8]
        with pytest.raises(SchemaError, match="link table for cause 0: rows must be 2-D"):
            parse_network(json.dumps(doc))

    def test_duplicate_variable_name_is_named(self):
        doc = json.loads(doc_text())
        doc["variables"][1]["name"] = "C1"
        with pytest.raises(SchemaError, match="duplicate variable name 'C1'"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize(
        "where, value, message",
        [
            ("name", 1, "variables[1].name: 1 is not a string"),
            ("name", None, "variables[1].name: null is not a string"),
            ("states", ["F", None], "variables[1].states[1]: null is not a string"),
            ("states", [True, "T"], "variables[1].states[0]: true is not a string"),
            ("states", ["F", 0.5], "variables[1].states[1]: 0.5 is not a string"),
        ],
    )
    def test_names_and_states_must_be_strings(self, where, value, message):
        doc = json.loads(doc_text())
        doc["variables"][1][where] = value
        with pytest.raises(SchemaError) as excinfo:
            parse_network(json.dumps(doc))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "parents",
        [["ghost", 3], ["C2", "C1"], ["C1"], [], None, "C1"],
        ids=["unknown", "reordered", "short", "empty", "null", "string"],
    )
    def test_noisy_max_parents_must_be_its_causes(self, parents):
        doc = json.loads(doc_text())
        doc["nodes"][2]["parents"] = parents
        with pytest.raises(SchemaError, match=r"^nodes\[2\]\.parents: .* is not cpd\.causes"):
            parse_network(json.dumps(doc))
        doc["nodes"][2]["parents"] = ["C1", "C2"]
        assert parse_network(json.dumps(doc)) == parse_network(doc_text())

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("table", "child", ["a"]),
            ("table", "parents", [["a"]]),
            ("noisy-max", "causes", [["a"]]),
            ("table", "parents", None),
            ("noisy-max", "causes", None),
            ("table", "parents", "ab"),
            ("noisy-max", "causes", "ab"),
        ],
        ids=[
            "child-list", "parent-list", "cause-list",
            "parents-null", "causes-null", "parents-string", "causes-string",
        ],
    )
    def test_malformed_references_are_schema_errors(self, kind, key, value):
        doc = references_doc(kind)
        assert node_parents(parse_network(json.dumps(doc)).nodes[2]) == (0, 1)
        node = doc["nodes"][2]
        (node["cpd"] if key == "causes" else node)[key] = value
        with pytest.raises(SchemaError, match=r"^nodes\[2\]"):
            parse_network(json.dumps(doc))

    def test_syntax_error_reports_position(self):
        with pytest.raises(NetworkSyntaxError) as excinfo:
            parse_network('{"variables": [}')
        assert excinfo.value.line == 1
        assert "line 1" in str(excinfo.value)

    def test_three_cycle_rejected(self):
        table = {"type": "table", "values": [0.5, 0.5, 0.5, 0.5]}
        doc = {
            "variables": [{"name": n, "states": ["F", "T"]} for n in "ABC"],
            "nodes": [
                {"child": "A", "parents": ["C"], "cpd": table},
                {"child": "B", "parents": ["A"], "cpd": table},
                {"child": "C", "parents": ["B"], "cpd": table},
            ],
        }
        with pytest.raises(CycleError, match="cycle detected"):
            parse_network(json.dumps(doc))

    def test_cycle_error_names_the_cycle_only(self):
        # A feeds the B <-> C cycle and D hangs below it; neither is on it.
        def table(n_parents):
            return {"type": "table", "values": [0.5] * 2 ** (n_parents + 1)}

        parents = {"A": [], "B": ["A", "C"], "C": ["B"], "D": ["C"]}
        doc = {
            "variables": [{"name": n, "states": ["F", "T"]} for n in parents],
            "nodes": [
                {"child": n, "parents": ps, "cpd": table(len(ps))} for n, ps in parents.items()
            ],
        }
        with pytest.raises(CycleError) as excinfo:
            parse_network(json.dumps(doc))
        names = str(excinfo.value).removeprefix("cycle detected among variables ")
        assert sorted(ast.literal_eval(names)) == ["B", "C"]

    def test_dangling_parent(self):
        doc = json.loads(doc_text())
        doc["nodes"][2]["cpd"]["causes"] = ["C1", "ghost"]
        with pytest.raises(DanglingReferenceError):
            parse_network(json.dumps(doc))

    def test_duplicate_node(self):
        doc = json.loads(doc_text())
        doc["nodes"].append(doc["nodes"][0])
        with pytest.raises(SchemaError):
            parse_network(json.dumps(doc))

    def test_missing_node(self):
        doc = json.loads(doc_text())
        doc["nodes"].pop(0)
        with pytest.raises(SchemaError):
            parse_network(json.dumps(doc))

    def test_table_slice_not_normalized(self):
        doc = json.loads(doc_text())
        doc["nodes"][0]["cpd"]["values"] = [0.5, 0.4]
        with pytest.raises(MalformedDistributionError):
            parse_network(json.dumps(doc))

    def test_effect_among_causes(self):
        doc = json.loads(doc_text())
        doc["nodes"][2]["cpd"]["causes"] = ["C1", "E"]
        doc["nodes"][2]["cpd"]["links"][1] = [[1, 0], [1, 0]]
        with pytest.raises(SchemaError):
            parse_network(json.dumps(doc))


class TestRoundTrip:
    def test_one_node(self):
        net = Network(
            (Variable(0, "A", ("a", "b")),),
            (TableCpd(Factor((0,), [0.3, 0.7])),),
        )
        assert parse_network(serialize_network(net)) == net

    def test_noisy_or(self):
        net = noisy_or_network()
        assert parse_network(serialize_network(net)) == net

    def test_four_cause_three_values(self):
        variables = tuple(Variable(i, f"c{i}", ("F", "T")) for i in range(4)) + (
            Variable(4, "e", ("L", "M", "H")),
        )
        links = tuple([[1, 0, 0], [0.5, 0.3, 0.2]] for i in range(4))
        nodes = tuple(TableCpd(Factor((i,), [0.9, 0.1])) for i in range(4)) + (
            NoisyMaxCpd(4, (0, 1, 2, 3), links),
        )
        net = Network(variables, nodes)
        assert parse_network(serialize_network(net)) == net

    def test_leak_preserved(self):
        net = noisy_or_network()
        node = net.nodes[2]
        with_leak = NoisyMaxCpd(node.effect, node.causes, node.links, leak=[0.95, 0.05])
        net2 = Network(net.variables, net.nodes[:2] + (with_leak,))
        back = parse_network(serialize_network(net2))
        assert back == net2
        assert np.array_equal(back.nodes[2].leak, [0.95, 0.05])

    def test_reparse_is_fixed_point(self):
        text = serialize_network(noisy_or_network())
        assert serialize_network(parse_network(text)) == text


class TestNodeValidation:
    def test_negative_table_probability(self):
        with pytest.raises(MalformedDistributionError):
            TableCpd(Factor((0,), [-0.5, 1.5]))

    def test_link_shape_must_match_domains(self):
        variables = (
            Variable(0, "c", ("a", "b", "c")),
            Variable(1, "e", ("F", "T")),
        )
        link = [[1, 0], [0.5, 0.5]]
        with pytest.raises(SchemaError):
            Network(
                variables,
                (
                    TableCpd(Factor((0,), [0.2, 0.3, 0.5])),
                    NoisyMaxCpd(1, (0,), (link,)),
                ),
            )

    def test_network_names_the_repeated_variable(self):
        variables = (
            Variable(0, "a", ("F", "T")),
            Variable(1, "b", ("F", "T")),
            Variable(2, "a", ("F", "T")),
        )
        nodes = tuple(TableCpd(Factor((i,), [0.5, 0.5])) for i in range(3))
        with pytest.raises(SchemaError, match="^duplicate variable name 'a'$"):
            Network(variables, nodes)

    def test_leak_must_normalize(self):
        with pytest.raises(MalformedDistributionError):
            NoisyMaxCpd(1, (0,), ([[1, 0], [0.5, 0.5]],), leak=[0.5, 0.4])
