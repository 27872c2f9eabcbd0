"""Bi-decomposition of incompletely specified functions (the paper's
core contribution): decomposability checks, component derivation,
variable grouping, component-reuse cache and the recursive engine."""

from repro.decomp.checks import (or_decomposable, and_decomposable,
                                 exor_decomposable_single, derivative_isf,
                                 weak_or_useful, weak_and_useful)
from repro.decomp.exor import check_exor_bidecomp, exor_decomposable
from repro.decomp.derive import (OR_GATE, AND_GATE, EXOR_GATE,
                                 derive_or_component_a,
                                 derive_or_component_b,
                                 derive_and_component_a,
                                 derive_and_component_b,
                                 derive_weak_or_component_a,
                                 derive_weak_and_component_a,
                                 derive_exor_component_b,
                                 derive_component_a, derive_component_b)
from repro.decomp.context import CheckContext
from repro.decomp.grouping import (find_initial_grouping, group_variables,
                                   find_best_grouping, grouping_score,
                                   improve_grouping)
from repro.decomp.weak import find_weak_grouping
from repro.decomp.inessential import is_inessential, remove_inessential
from repro.decomp.cache import ComponentCache, NullCache
from repro.decomp.cache_store import (CACHE_FORMAT, CACHE_VERSION,
                                      CacheStoreError, StoredComponent,
                                      PersistentComponentCache,
                                      cone_gate_count, store_component,
                                      serialize_cache, save_store,
                                      load_store)
from repro.decomp.terminal import find_gate
from repro.decomp.trace import CertificateTracer
from repro.decomp.bidecomp import (DecompositionConfig, DecompositionEngine,
                                   DecompositionError, DecompositionStats,
                                   StepListener)
from repro.decomp.driver import (DecompositionResult, bi_decompose,
                                 bi_decompose_function)
from repro.decomp.ashenhurst import (AshenhurstDecomposition,
                                     ashenhurst_decompose,
                                     find_ashenhurst)

__all__ = [
    "or_decomposable", "and_decomposable", "exor_decomposable_single",
    "derivative_isf", "weak_or_useful", "weak_and_useful",
    "check_exor_bidecomp", "exor_decomposable",
    "OR_GATE", "AND_GATE", "EXOR_GATE",
    "derive_or_component_a", "derive_or_component_b",
    "derive_and_component_a", "derive_and_component_b",
    "derive_weak_or_component_a", "derive_weak_and_component_a",
    "derive_exor_component_b", "derive_component_a", "derive_component_b",
    "find_initial_grouping", "group_variables", "find_best_grouping",
    "grouping_score", "improve_grouping", "find_weak_grouping",
    "is_inessential", "remove_inessential",
    "CheckContext",
    "ComponentCache", "NullCache", "find_gate", "CertificateTracer",
    "CACHE_FORMAT", "CACHE_VERSION", "CacheStoreError", "StoredComponent",
    "PersistentComponentCache", "cone_gate_count", "store_component",
    "serialize_cache", "save_store", "load_store",
    "DecompositionConfig", "DecompositionEngine", "DecompositionError",
    "DecompositionStats", "DecompositionResult", "StepListener",
    "bi_decompose", "bi_decompose_function",
    "AshenhurstDecomposition", "ashenhurst_decompose",
    "find_ashenhurst",
]
