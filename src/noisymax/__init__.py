"""Exact Bayesian-network inference with factored noisy-max CPDs.

The package splits into four layers: :mod:`noisymax.model` (variables,
factors, networks, the JSON format), :mod:`noisymax.factorize` (expansion of
noisy-max nodes under four strategies plus the enumeration oracle),
:mod:`noisymax.infer` (variable elimination over generalized factors), and
:mod:`noisymax.bench` (synthetic generators and the benchmark runner).
"""

from .model import (
    CycleError,
    DanglingReferenceError,
    Factor,
    GuardExceededError,
    MalformedDistributionError,
    Network,
    NetworkError,
    NetworkSyntaxError,
    NoisyMaxCpd,
    SchemaError,
    TableCpd,
    Variable,
    parse_network,
    serialize_network,
)
from .factorize import (
    ExpandedNetwork,
    ExpansionResult,
    SizeReport,
    Strategy,
    encoding_entries,
    expand,
    expand_cpd,
    oracle_cpd,
)
from .infer import (
    EliminationStats,
    InferenceError,
    NegativeMassError,
    Query,
    ZeroPosteriorError,
    align,
    brute_force_joint,
    eliminate,
    marginalize,
    multiply,
    query_posterior,
    restrict,
)
from .bench import (
    AgreementError,
    BenchReport,
    GeneratorSpec,
    SplitMix64,
    generate,
    run_benchmark,
)

__version__ = "0.1.0"
