#include "daemon.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"

namespace perfbench {

namespace {

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
    return fd;
}

/// Reads one '\n'-terminated line from `fd` within `timeout_ms`.
bool read_line(int fd, std::string& line, int timeout_ms) {
    line.clear();
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count();
        if (left <= 0) return false;
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
        char c = 0;
        const ssize_t got = ::read(fd, &c, 1);
        if (got <= 0) return false;
        if (c == '\n') return true;
        line.push_back(c);
    }
}

std::uint16_t port_after(const std::string& line, const std::string& marker) {
    const auto at = line.find(marker);
    if (at == std::string::npos) return 0;
    return static_cast<std::uint16_t>(std::stoul(line.substr(at + marker.size())));
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& path, int cpu) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2() failed");
    const std::string universe = std::to_string(kUniverse);
    const std::string classes = std::to_string(kClasses);
    const std::string seed = std::to_string(kUniverseSeed);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork() failed");
    if (pid_ == 0) {
        // The daemon must never outlive the benchmark, even if the
        // benchmark is killed before it can stop it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        pin_to_cpu(cpu);
        ::dup2(pipe_fds[1], STDOUT_FILENO);
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
        ::execl(path.c_str(), path.c_str(), "--port", "0", "--metrics-port", "0",
                "--universe", universe.c_str(), "--classes", classes.c_str(),
                "--seed", seed.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
    }
    ::close(pipe_fds[1]);
    stdout_fd_ = pipe_fds[0];
    std::string line;
    while ((port_ == 0 || metrics_port_ == 0) && read_line(stdout_fd_, line, 20000)) {
        if (const auto p = port_after(line, "listening on 127.0.0.1:")) port_ = p;
        if (const auto p = port_after(line, "metrics on 127.0.0.1:")) metrics_port_ = p;
    }
    if (port_ == 0 || metrics_port_ == 0) {
        stop();
        throw std::runtime_error("daemon did not announce its ports: " + path);
    }
}

DaemonProcess::~DaemonProcess() { stop(); }

bool DaemonProcess::stop() {
    if (pid_ > 0) {
        ::kill(pid_, SIGTERM);
        int status = 0;
        const auto deadline = Clock::now() + std::chrono::seconds(5);
        pid_t done = 0;
        while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
               Clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (done == 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
        }
        clean_exit_ = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
        ::close(stdout_fd_);
        stdout_fd_ = -1;
    }
    return clean_exit_;
}

std::map<std::string, double> DaemonProcess::scrape() const {
    const int fd = connect_loopback(metrics_port_);
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)!::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL);
    std::string text;
    char chunk[65536];
    ssize_t got = 0;
    while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
        text.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(fd);
    std::map<std::string, double> values;
    const auto body = text.find("\r\n\r\n");
    std::istringstream lines(body == std::string::npos ? "" : text.substr(body + 4));
    std::string line;
    while (std::getline(lines, line)) {
        const auto space = line.rfind(' ');
        if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
        values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
    }
    if (values.empty()) throw std::runtime_error("empty /metrics scrape");
    return values;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& name) {
    const auto b = before.find(name);
    const auto a = after.find(name);
    return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

Connection::Connection(std::uint16_t port) : fd_(connect_loopback(port)) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Connection::~Connection() {
    if (fd_ >= 0) ::close(fd_);
}

void Connection::send_all(const std::uint8_t* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
        const ssize_t sent = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("send() failed: ") + std::strerror(errno));
        }
        off += static_cast<std::size_t>(sent);
    }
}

void Connection::shutdown() { ::shutdown(fd_, SHUT_RDWR); }

std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> out(4 + body.size());
    const auto len = static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(len >> (8 * i));
    std::copy(body.begin(), body.end(), out.begin() + 4);
    return out;
}

}  // namespace perfbench
