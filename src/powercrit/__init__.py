"""Power graphs of finite groups: twin classes, criticality, partitions.

The package computes power graphs and enhanced power graphs of finite
groups, their closed-twin and same-generator partitions, neighbourhood
closures and star vertices; classifies twin classes, elements and groups
as plain/compound/critical; detects cyclic partitions and Frobenius
structure; and runs a desk-scale census over the metacyclic family whose
arithmetic flags it cross-checks against graph-computed classification.
"""

from .criticality import (
    CompoundParams,
    GroupKind,
    NClassRecord,
    class_records,
    classify_class,
    classify_element,
    classify_group,
    dihedral_plain_critical_profile,
    plain_critical_by_overgroups,
)
from .errors import (
    GroupSpecError,
    InternalConsistencyError,
    ResourceLimitError,
    ScaleError,
    SettingError,
)
from .frobenius import (
    CensusEntry,
    FrobeniusStructure,
    MetacyclicParams,
    ParamFlags,
    census,
    eppo_metacyclic_equivalence_check,
    recognize_critical_structure,
    validate,
)
from .groups import (
    CyclicPoset,
    CyclicSubgroup,
    Group,
    exponent_and_pi,
    generated_subgroup,
    is_maximal_element,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_generalized_quaternion,
    make_metacyclic,
    make_symmetric,
    max_materialize,
    maximal_cyclic_subgroups,
)
from .groupspec import parse_group_spec
from .numtheory import (
    PrimePower,
    as_prime_power,
    euler_phi,
    factorize,
    is_prime,
)
from .partitions import (
    PartitionResult,
    Verdict,
    check_main_corollary,
    check_partition_implies_compound_critical,
    check_plain_critical_maximal,
    cyclic_partition,
    hughes_thompson,
    kegel_partitionable,
)
from .power_graph import PowerGraph, TwinPartition, export_dot, export_json_graph
from .report import analyze_group, element_report

__version__ = "0.1.0"
