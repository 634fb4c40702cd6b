// The daemon as a child process, seen from outside: launch, wait until it
// listens, scrape its Prometheus /metrics, read its CPU time and peak RSS
// from /proc, and stop it (SIGTERM, then SIGKILL if it does not drain).
// Also the client side of the wire framing (u32-LE length + datagram).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class DaemonProcess {
public:
    /// Starts `path` with the §5 universe flags and ephemeral ports, pinned
    /// to `cpu` unless it is -1, and blocks until both listeners are
    /// announced. Throws on failure.
    DaemonProcess(const std::string& path, int cpu);
    ~DaemonProcess();

    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    int pid() const noexcept { return pid_; }
    std::uint16_t port() const noexcept { return port_; }

    /// One GET /metrics, parsed into name -> value (histogram buckets and
    /// labelled series are kept under their full text name).
    std::map<std::string, double> scrape() const;

    /// SIGTERM and wait (SIGKILL after a grace period). Returns true when
    /// the daemon exited 0 on its own. Idempotent.
    bool stop();

private:
    int pid_ = -1;
    int stdout_fd_ = -1;
    std::uint16_t port_ = 0;
    std::uint16_t metrics_port_ = 0;
    bool clean_exit_ = false;
};

/// Counter delta between two scrapes (0 when absent from both).
double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name);

/// A blocking loopback TCP connection speaking the daemon's framing.
class Connection {
public:
    explicit Connection(std::uint16_t port);
    ~Connection();

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd() const noexcept { return fd_; }

    /// Writes every byte or throws.
    void send_all(const std::uint8_t* data, std::size_t size);

    /// Unblocks a reader stuck in recv().
    void shutdown();

private:
    int fd_ = -1;
};

/// Frames a wire body with its length prefix.
std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& body);

/// Reads a frame's length prefix.
inline std::uint32_t read_le32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace perfbench
