// The paper's semantic matching relation (§2.3).
//
// Match(C1, C2) — C1 a provided capability, C2 a required one — holds iff
//   * every input C1 expects is offered by C2: the expected (more generic)
//     input concept subsumes some offered input concept,
//   * every output C2 expects is offered by C1: the provided output concept
//     subsumes the expected output concept, and
//   * every property C2 requires (service category included) is provided by
//     C1: the provided property concept subsumes the required one.
//
// (The paper's prose writes d(in, in') for the input clause; the worked
// Figure 1 example — provided SendDigitalStream expecting DigitalResource
// matching requested GetVideoStream offering VideoResource — fixes the
// intended argument order: the *provider-side* concept is the subsumer in
// all three clauses. We implement that order.)
//
// SemanticDistance(C1, C2) sums, over the matched pairs, the subsumption
// level distance d(), taking for each expected element its best (minimum
// distance) partner; it scores how closely an advertisement fits a request
// (0 = exact fit) and orders capabilities inside the directory DAGs.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "encoding/resolved.hpp"
#include "ontology/ids.hpp"

namespace sariadne::matching {

using desc::ResolvedCapability;
using onto::ConceptRef;

/// Subsumption-distance provider: d(subsumer, subsumee) — 0 when
/// equivalent, the number of classified-hierarchy levels when subsumption
/// holds, std::nullopt (the paper's NULL) otherwise. Implementations:
/// EncodedOracle (interval codes, the fast path) and TaxonomyOracle
/// (reasoner output, used by the online matcher and as a test reference).
class DistanceOracle {
public:
    virtual ~DistanceOracle() = default;

    virtual std::optional<int> distance(ConceptRef subsumer,
                                        ConceptRef subsumee) = 0;

    /// Combined code-version tag of an ontology set as this oracle sees it
    /// — the precise per-set tag used at publish-time version validation.
    /// The base returns 0 (no encoded view), so non-encoded oracles always
    /// use the d() path.
    virtual std::uint64_t environment_tag(
        const FlatSet<onto::OntologyIndex>& ontologies) {
        (void)ontologies;
        return 0;
    }

    /// Whole-environment tag as this oracle sees it. The batched
    /// flat-layout kernel is taken only when both capabilities carry valid
    /// CodeSignatures whose global_tag equals this — a single integer
    /// compare per side, cheap enough for flat-scan inner loops. Without
    /// an encoded view the answer is 0: with it, the guard never passes.
    /// Deliberately non-virtual: match_capability evaluates this guard on
    /// every call, and a data-pointer load beats a virtual dispatch there;
    /// encoded oracles install their tag word at construction.
    std::uint64_t global_environment_tag() const noexcept {
        return global_tag_word_ != nullptr
                   ? global_tag_word_->load(std::memory_order_acquire)
                   : 0;
    }

    /// Number of d() evaluations performed — the paper's "number of
    /// semantic matches" cost metric at concept granularity.
    std::uint64_t queries() const noexcept { return queries_; }

    /// Reports concept-pair evaluations done by the batched encoded kernel
    /// so queries() counts both matching paths identically.
    void note_batched_queries(std::uint64_t pairs) noexcept {
        queries_ += pairs;
    }

protected:
    std::uint64_t queries_ = 0;
    /// The environment-tag word backing global_environment_tag(), owned by
    /// the knowledge base the oracle was constructed over (which outlives
    /// it). nullptr = no encoded view.
    const std::atomic<std::uint64_t>* global_tag_word_ = nullptr;
};

/// Result of one capability match.
struct MatchOutcome {
    bool matched = false;
    int semantic_distance = 0;  ///< meaningful only when matched
};

/// Evaluates Match(provided, required) and, when it holds, the semantic
/// distance. Returns {false, 0} otherwise. When both capabilities carry
/// CodeSignatures whose environment tags match the oracle's current view,
/// the evaluation runs as a non-virtual batched kernel over the packed
/// interval arrays (identical results, identical queries() accounting);
/// otherwise it falls back to per-pair oracle.distance() calls.
MatchOutcome match_capability(const ResolvedCapability& provided,
                              const ResolvedCapability& required,
                              DistanceOracle& oracle);

/// The prechecked encoded kernel behind match_capability's fast path: the
/// three Match clauses evaluated directly over the two packed
/// CodeSignatures, no virtual tag probe. Callers must have established the
/// dispatch guard themselves — both signatures valid and carrying the
/// oracle's current nonzero global environment tag. The DAG hot path
/// proves this once per query from its freshness summaries
/// (summary.code_tag == current tag ⇒ guard holds) instead of re-deriving
/// it per vertex. Results and queries() accounting are identical to
/// match_capability on the same inputs.
MatchOutcome match_capability_encoded(const ResolvedCapability& provided,
                                      const ResolvedCapability& required,
                                      DistanceOracle& oracle);

/// Convenience: true iff Match(provided, required) holds.
inline bool matches(const ResolvedCapability& provided,
                    const ResolvedCapability& required, DistanceOracle& oracle) {
    return match_capability(provided, required, oracle).matched;
}

/// True iff the two capabilities are equivalent in the paper's §3.3 sense:
/// Match holds both ways with distance 0 both ways (they collapse into one
/// DAG vertex).
bool equivalent_capabilities(const ResolvedCapability& a,
                             const ResolvedCapability& b,
                             DistanceOracle& oracle);

/// True iff `a` and `b` list the same provider-input concepts the same
/// number of times, counted by equivalence class. Match sums the distance
/// over every provider input, so two equivalent capabilities that repeat
/// an input a different number of times still answer one request at
/// different distances: a DAG vertex may only hold capabilities that are
/// equivalent *and* pass this check.
bool same_input_classes(const ResolvedCapability& a,
                        const ResolvedCapability& b, DistanceOracle& oracle);

}  // namespace sariadne::matching
