// analyze/callgraph — token-level function index and call-graph
// approximation over src/, shared by the lock-order and hot-path passes.
//
// This is *not* a C++ parser. Function definitions are recognised by the
// `name(args...) <qualifiers> {` shape (constructor initialiser lists
// included), class membership by enclosing `class X { ... }` regions or a
// `X::name` qualifier, and calls by `name(` tokens inside a body. Call
// edges are resolved by name, narrowed by a cheap receiver-type lookup
// (`CapabilityDag& dag = ...; dag.insert(...)` restricts `insert` to
// CapabilityDag's definitions) so common method names do not weld the
// whole repo into one blob. Known blind spots — callbacks through
// std::function, virtual dispatch to out-of-repo overrides, calls inside
// constructor initialiser lists, macro-generated code — are documented in
// DESIGN.md §15; all make the approximation *miss* edges, never invent
// them, so the passes stay zero-false-positive at the cost of
// completeness, with the runtime lock-rank checker as the backstop.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/model.hpp"

namespace sariadne::analyze {

struct BodyEvent {
    enum class Kind {
        kScopeOpen,   // '{' inside a body
        kScopeClose,  // '}' inside a body
        kGuard,       // lock_guard/unique_lock/shared_lock/scoped_lock decl
        kUnlock,      // guard_var.unlock()
        kCall,        // name(...) call site
        kAlloc,       // new / make_unique / make_shared / std::vector / std::string
        kThrow,       // throw token
    };

    // Events start from (kind, offset) and fill their kind-specific fields
    // afterwards; as partial aggregate init that trips GCC's
    // -Wmissing-field-initializers, which -DSARIADNE_WERROR=ON makes fatal.
    BodyEvent(Kind event_kind, std::size_t event_offset)
        : kind(event_kind), offset(event_offset) {}

    Kind kind;
    std::size_t offset = 0;  // into SourceFile::code
    // kGuard
    std::string guard_type;               // "shared_lock", "lock_guard", ...
    std::string guard_var;                // declared guard variable name
    std::vector<std::string> mutex_args;  // trailing identifier per mutex arg
    // kUnlock / kCall
    std::string name;       // callee or unlocked guard variable
    std::string receiver;   // identifier before '.'/'->' ("" if none)
    std::string qualifier;  // last segment before '::' ("" if none)
    // kAlloc
    std::string what;  // "new", "make_unique", "std::vector", ...
};

struct FunctionDef {
    std::string cls;   // enclosing/qualifying class ("" for free functions)
    std::string name;
    std::size_t file = 0;         // index into Repo::files
    std::size_t head_offset = 0;  // offset of the name token in code
    std::size_t body_begin = 0;   // offset of the body '{'
    std::size_t body_end = 0;     // offset one past the matching '}'
    std::size_t line = 0;         // 1-based line of the name token
    std::vector<BodyEvent> events;  // ordered by offset

    std::string display() const {
        return cls.empty() ? name : cls + "::" + name;
    }
};

struct FunctionIndex {
    const Repo* repo = nullptr;
    std::vector<FunctionDef> defs;
    std::map<std::string, std::vector<std::size_t>> by_name;
    std::set<std::string> classes;  // every class/struct name seen in src/
    // file index -> indices of its header/source pair group (same
    // directory + stem), used for receiver-type lookups.
    std::map<std::size_t, std::vector<std::size_t>> file_group;

    /// Candidate definitions a call event may reach, narrowed by
    /// qualifier, `this`, or a receiver-type declaration found in the
    /// caller's file group. Falls back to every definition of the name.
    std::vector<std::size_t> resolve(const FunctionDef& caller,
                                     const BodyEvent& call) const;
};

/// Indexes every function defined in a file of `top` "src". Fixture trees
/// loaded as their own Repo roots index their own src/ the same way.
FunctionIndex build_function_index(const Repo& repo);

}  // namespace sariadne::analyze
