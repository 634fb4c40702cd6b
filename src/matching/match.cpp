#include "matching/match.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace sariadne::matching {

namespace {

/// For every concept in `expected`, finds the minimum d(subsumer, subsumee)
/// over `offered` — with the provider-side concept passed as `subsumer`
/// according to `provider_expects`. Accumulates the sum into `total`;
/// returns false as soon as one expected concept has no partner.
bool cover_all(const std::vector<ConceptRef>& expected,
               const std::vector<ConceptRef>& offered, bool provider_expects,
               DistanceOracle& oracle, int& total) {
    for (const ConceptRef want : expected) {
        int best = std::numeric_limits<int>::max();
        for (const ConceptRef have : offered) {
            // Provider-side concept is always the subsumer (see header).
            const auto d = provider_expects ? oracle.distance(want, have)
                                            : oracle.distance(have, want);
            if (d && *d < best) {
                best = *d;
                if (best == 0) break;  // cannot improve
            }
        }
        if (best == std::numeric_limits<int>::max()) return false;
        total += best;
    }
    return true;
}

/// d() on packed signature codes with −1 for the oracle's nullopt: −1
/// across ontologies, 0 within one equivalence class, otherwise the
/// merge-scan minimum nesting distance (see packed_distance, whose no-pair
/// answer is already −1). Mirrors EncodedOracle::distance exactly; the
/// sentinel keeps std::optional construction out of the innermost loop.
inline int coded_distance(const encoding::CodedInterval* subsumer_base,
                          const desc::CodedConceptSpan& subsumer,
                          const encoding::CodedInterval* subsumee_base,
                          const desc::CodedConceptSpan& subsumee) noexcept {
    if (subsumer.ontology != subsumee.ontology) return -1;
    if (subsumer.canonical == subsumee.canonical) return 0;
    return encoding::packed_distance(subsumer_base + subsumer.begin,
                                     subsumer.count,
                                     subsumee_base + subsumee.begin,
                                     subsumee.count);
}

/// cover_all on packed signatures — same iteration order, early exits and
/// pair accounting as the oracle path, but no virtual dispatch and no
/// pointer-chasing beyond the two flat interval arrays. The subsumption
/// direction is a template parameter so the per-pair direction branch
/// compiles away (the call sites fix it statically anyway). always_inline
/// matters: the clause-shape fast path below pushes the body past the
/// inliner's default budget, and an out-of-line call per clause costs more
/// than the whole 1x1 case.
template <bool kProviderExpects>
[[gnu::always_inline]] inline bool cover_all_encoded(const desc::CodeSignature& expected_sig,
                       const std::vector<desc::CodedConceptSpan>& expected,
                       const desc::CodeSignature& offered_sig,
                       const std::vector<desc::CodedConceptSpan>& offered,
                       std::uint64_t& pairs, int& total) {
    const encoding::CodedInterval* expected_base =
        expected_sig.intervals.data();
    const encoding::CodedInterval* offered_base = offered_sig.intervals.data();
    if (expected.size() == 1 && offered.size() == 1) {
        // One expected concept against one offered concept — the dominant
        // clause shape (capabilities rarely carry more than a couple of
        // concepts per role). Same single pair the generic loop would
        // evaluate, without the loop or best-tracking machinery.
        ++pairs;
        const int d = kProviderExpects
                          ? coded_distance(expected_base, expected[0],
                                           offered_base, offered[0])
                          : coded_distance(offered_base, offered[0],
                                           expected_base, expected[0]);
        if (d < 0) return false;
        total += d;
        return true;
    }
    const desc::CodedConceptSpan* offered_begin = offered.data();
    const desc::CodedConceptSpan* offered_end = offered_begin + offered.size();
    for (const desc::CodedConceptSpan& want : expected) {
        int best = std::numeric_limits<int>::max();
        for (const desc::CodedConceptSpan* have = offered_begin;
             have != offered_end; ++have) {
            ++pairs;
            const int d =
                kProviderExpects
                    ? coded_distance(expected_base, want, offered_base, *have)
                    : coded_distance(offered_base, *have, expected_base, want);
            if (d >= 0 && d < best) {
                best = d;
                if (best == 0) break;  // cannot improve
            }
        }
        if (best == std::numeric_limits<int>::max()) return false;
        total += best;
    }
    return true;
}

}  // namespace

MatchOutcome match_capability_encoded(const ResolvedCapability& provided,
                                      const ResolvedCapability& required,
                                      DistanceOracle& oracle) {
    const desc::CodeSignature& ps = provided.signature;
    const desc::CodeSignature& rs = required.signature;
    std::uint64_t pairs = 0;
    int total = 0;
    const bool matched =
        cover_all_encoded</*kProviderExpects=*/true>(ps, ps.inputs, rs,
                                                     rs.inputs, pairs, total) &&
        cover_all_encoded</*kProviderExpects=*/false>(
            rs, rs.outputs, ps, ps.outputs, pairs, total) &&
        cover_all_encoded</*kProviderExpects=*/false>(
            rs, rs.properties, ps, ps.properties, pairs, total);
    oracle.note_batched_queries(pairs);
    return matched ? MatchOutcome{true, total} : MatchOutcome{false, 0};
}

MatchOutcome match_capability(const ResolvedCapability& provided,
                              const ResolvedCapability& required,
                              DistanceOracle& oracle) {
    // Fast path: both sides carry signatures built against the knowledge
    // base's current whole-environment state. The guard is two integer
    // compares against the oracle's global tag (0 means "no encoded view"
    // — the DistanceOracle base — and never dispatches); a stale tag only
    // ever causes fallback to the oracle path, never a wrong answer.
    const desc::CodeSignature& ps = provided.signature;
    const desc::CodeSignature& rs = required.signature;
    const std::uint64_t env = oracle.global_environment_tag();
    if (ps.valid && rs.valid && env != 0 && ps.global_tag == env &&
        rs.global_tag == env) {
        return match_capability_encoded(provided, required, oracle);
    }

    int total = 0;
    // Inputs: the provider's expected inputs must all be supplied; the
    // provider-side (expected) concept subsumes the offered one.
    if (!cover_all(provided.inputs, required.inputs, /*provider_expects=*/true,
                   oracle, total)) {
        return {false, 0};
    }
    // Outputs: the requester's expected outputs must all be delivered; the
    // provider-side (offered) concept subsumes the expected one.
    if (!cover_all(required.outputs, provided.outputs, /*provider_expects=*/false,
                   oracle, total)) {
        return {false, 0};
    }
    // Properties (service category folded in): required ones must be
    // provided; the provided concept subsumes the required one.
    if (!cover_all(required.properties, provided.properties,
                   /*provider_expects=*/false, oracle, total)) {
        return {false, 0};
    }
    return {true, total};
}

bool equivalent_capabilities(const ResolvedCapability& a,
                             const ResolvedCapability& b,
                             DistanceOracle& oracle) {
    const MatchOutcome forward = match_capability(a, b, oracle);
    if (!forward.matched || forward.semantic_distance != 0) return false;
    const MatchOutcome backward = match_capability(b, a, oracle);
    return backward.matched && backward.semantic_distance == 0;
}

bool same_input_classes(const ResolvedCapability& a,
                        const ResolvedCapability& b, DistanceOracle& oracle) {
    if (a.inputs.size() != b.inputs.size()) return false;
    const auto count_class = [&](ConceptRef of,
                                 const std::vector<ConceptRef>& inputs) {
        return std::count_if(inputs.begin(), inputs.end(),
                             [&](ConceptRef other) {
                                 const auto d = oracle.distance(of, other);
                                 return d && *d == 0;
                             });
    };
    // Equal sizes plus equal per-class counts for every class of `a` leave
    // no room for a class only `b` has.
    for (const ConceptRef input : a.inputs) {
        if (count_class(input, a.inputs) != count_class(input, b.inputs)) {
            return false;
        }
    }
    return true;
}

}  // namespace sariadne::matching
