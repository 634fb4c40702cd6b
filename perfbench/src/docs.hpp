// The generated inputs of one run and their reference answers. Documents
// come from workload::ServiceWorkload with its default generator seed (the
// one sariadne_loadgen uses), so every run of a workload serves the same
// service set and the run seed picks requests and arrivals; the expected
// answer of every request document is computed with
// directory::FlatDirectory (the linear-scan matcher) over the same
// services, so a reply from the system under test is checked against an
// implementation that shares no DAG or memo code with it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ariadne/wire.hpp"

namespace perfbench {

/// (service_name, semantic_distance) pairs, sorted.
using Answer = std::vector<std::pair<std::string, int>>;

/// Order-independent digest of an answer, used on the reply hot path.
std::uint64_t answer_digest(Answer answer);
std::uint64_t answer_digest(const std::vector<sariadne::ariadne::wire::Hit>& hits);

struct DocSet {
    std::vector<std::string> services;  ///< service description documents
    std::vector<std::string> requests;  ///< request documents
    std::vector<Answer> expected;       ///< reference answer per request
    std::vector<std::uint64_t> expected_digest;
};

/// Services 0..service_count-1 and the matching request of each listed
/// service index, answered by a FlatDirectory over all services.
DocSet make_docs(std::size_t service_count, const std::vector<std::size_t>& request_of);

/// `count` distinct indices below `bound`, drawn from `seed`.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t bound,
                                        std::size_t count);

}  // namespace perfbench
