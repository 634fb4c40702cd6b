// Outside-in tracing: the daemon is not instrumented. Instead the exact
// operation sequence a traced daemon run served is replayed in-process
// through the public calls the daemon makes for it — wire decode, XML
// parse, description build, resolve, directory query or publish, wire
// encode — with one span per call. Spans of one operation share its id;
// they stay in memory and are written out when the replay ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "docs.hpp"
#include "loadgen.hpp"

namespace perfbench {

/// An in-memory span: [start, end) of one named call for one operation.
/// `parent` is the index of the enclosing span, or -1.
struct Span {
    std::uint64_t op = 0;
    std::uint16_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class SpanRecorder {
public:
    /// Interns a span name.
    std::uint16_t name(const std::string& text);
    std::int32_t open(std::uint64_t op, std::uint16_t name, std::int32_t parent = -1);
    void close(std::int32_t span);
    void add(const Span& span) { spans_.push_back(span); }
    std::size_t size() const noexcept { return spans_.size(); }

    /// Self time per span name (duration minus time covered by children),
    /// in microseconds, summed over all spans.
    std::vector<std::pair<std::string, double>> self_us() const;
    std::uint64_t count(const std::string& name) const;

    /// Writes "op,name,parent,start_ns,end_ns" rows.
    void write_csv(const std::string& path) const;

private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/// Replays `ops` (the daemon's op sequence, in order) against an
/// in-process directory holding `docs.services`, recording spans into
/// `spans`, and fills the per-layer metrics of `result` as microseconds
/// per operation. Also times ontology registration and the bulk load.
void replay_daemon_ops(const DocSet& docs, const std::vector<Op>& ops,
                       SpanRecorder& spans, RunResult& result);

}  // namespace perfbench
