// Convenience reducer aliases in the style of the Cilk Plus reducer library
// headers (reducer_opadd.h etc.). The Policy parameter selects the runtime
// view store: mm_policy (memory-mapped, the paper's contribution, default)
// or hypermap_policy (the Cilk Plus baseline) — see views/view_store.hpp for
// the contract.
#pragma once

#include "core/reducer.hpp"
#include "reducers/monoids.hpp"

namespace cilkm {

template <typename T, typename Policy = mm_policy>
using reducer_opadd = reducer<op_add<T>, Policy>;

template <typename T, typename Policy = mm_policy>
using reducer_opmul = reducer<op_mul<T>, Policy>;

template <typename T, typename Policy = mm_policy>
using reducer_min = reducer<op_min<T>, Policy>;

template <typename T, typename Policy = mm_policy>
using reducer_max = reducer<op_max<T>, Policy>;

template <typename T, typename Policy = mm_policy>
using reducer_opand = reducer<op_and<T>, Policy>;

template <typename T, typename Policy = mm_policy>
using reducer_opor = reducer<op_or<T>, Policy>;

template <typename T, typename Policy = mm_policy>
using reducer_opxor = reducer<op_xor<T>, Policy>;

/// The paper's Figure 2 type: list_append_reducer<Node*> l;
template <typename T, typename Policy = mm_policy>
using list_append_reducer = reducer<list_append<T>, Policy>;

template <typename T, typename Policy = mm_policy>
using vector_reducer = reducer<vector_concat<T>, Policy>;

template <typename Policy = mm_policy>
using string_reducer = reducer<string_concat, Policy>;

}  // namespace cilkm
