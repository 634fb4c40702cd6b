// Fuzz target: the Ariadne protocol wire codec — the byte boundary a
// deployed node would expose to the network. try_decode must map every
// byte sequence to either a validated WireMessage or a Result error, and
// every accepted message must survive a round trip unchanged: the codec
// is canonical, so encode(m) reproduces the accepted bytes exactly and
// decode(encode(m)) == m. The value comparison is skipped only when a
// double field holds a NaN (NaN != NaN); the byte check still covers it.
// Any escaping exception, abort, or overread under ASan is a finding.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <variant>
#include <vector>

#include "ariadne/wire.hpp"

namespace {

namespace wire = sariadne::ariadne::wire;

bool holds_nan(const wire::Payload& payload) {
    if (const auto* p = std::get_if<wire::ElectCandidate>(&payload)) {
        return std::isnan(p->fitness);
    }
    if (const auto* p = std::get_if<wire::Response>(&payload)) {
        return std::isnan(p->compute_ms);
    }
    if (const auto* p = std::get_if<wire::ForwardResponse>(&payload)) {
        return std::isnan(p->compute_ms);
    }
    return false;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    const auto decoded = wire::try_decode(std::span(data, size));
    if (!decoded.ok()) return 0;
    const wire::WireMessage& message = decoded.value();
    const std::vector<std::uint8_t> bytes = wire::encode(message);
    if (bytes.size() != size ||
        !std::equal(bytes.begin(), bytes.end(), data)) {
        std::abort();
    }
    const auto again = wire::try_decode(bytes);
    if (!again.ok()) std::abort();
    if (!(again.value() == message) && !holds_nan(message.payload)) {
        std::abort();
    }
    return 0;
}
