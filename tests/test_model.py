"""Model layer: table layout, parsing, validation, round-trips."""

import itertools
import json

import numpy as np
import pytest

from noisymax import (
    CycleError,
    DanglingReferenceError,
    Factor,
    LinkTable,
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
from helpers import noisy_or_network


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
            assert factor.values[a] == factor.flat()[offset] == offset


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
        assert node.links[0].rows.shape == (2, 2)
        assert node.links[0].rows[1, 1] == 0.8

    def test_link_row_not_normalized(self):
        doc = json.loads(doc_text())
        doc["nodes"][2]["cpd"]["links"][0][1] = [0.1, 0.8]
        with pytest.raises(MalformedDistributionError):
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
        links = tuple(LinkTable(i, [[1, 0, 0], [0.5, 0.3, 0.2]]) for i in range(4))
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
        link = LinkTable(0, [[1, 0], [0.5, 0.5]])
        with pytest.raises(SchemaError):
            Network(
                variables,
                (
                    TableCpd(Factor((0,), [0.2, 0.3, 0.5])),
                    NoisyMaxCpd(1, (0,), (link,)),
                ),
            )

    def test_leak_must_normalize(self):
        with pytest.raises(MalformedDistributionError):
            NoisyMaxCpd(1, (0,), (LinkTable(0, [[1, 0], [0.5, 0.5]]),), leak=[0.5, 0.4])
