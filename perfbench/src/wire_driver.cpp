#include "wire_driver.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>

#include "pipetune/net/protocol.hpp"

namespace perfbench {

using pipetune::util::Json;
using Clock = std::chrono::steady_clock;

WireDriver::WireDriver(std::uint16_t port, std::size_t connections) {
    try {
        for (std::size_t i = 0; i < std::max<std::size_t>(1, connections); ++i) {
            Conn conn;
            conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (conn.fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
            conns_.push_back(std::move(conn));
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(port);
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            const int fd = conns_.back().fd;
            if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
                throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        }
    } catch (...) {
        close_all();  // a throwing constructor runs no destructor
        throw;
    }
}

WireDriver::~WireDriver() { close_all(); }

void WireDriver::close_all() {
    for (Conn& conn : conns_)
        if (conn.fd >= 0) ::close(conn.fd);
    conns_.clear();
}

void WireDriver::flush(Conn& conn) {
    while (conn.out_off < conn.outbox.size()) {
        const ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.out_off,
                                 conn.outbox.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    conn.outbox.clear();
    conn.out_off = 0;
}

PhaseReport WireDriver::run(const std::vector<PlannedRequest>& plan, double response_timeout_s) {
    PhaseReport report;
    report.outcomes.resize(plan.size());

    std::vector<std::size_t> open, closed;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].connection >= conns_.size())
            throw std::invalid_argument("WireDriver: request names a connection it does not have");
        (plan[i].closed_loop ? closed : open).push_back(i);
    }
    std::stable_sort(open.begin(), open.end(),
                     [&](std::size_t a, std::size_t b) { return plan[a].due_s < plan[b].due_s; });

    const Clock::time_point start = Clock::now();
    auto now_s = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };

    std::map<std::uint64_t, std::size_t> in_flight;  // request id -> plan index
    double last_send_s = 0.0;
    auto send = [&](std::size_t index) {
        const PlannedRequest& request = plan[index];
        Json frame = Json::object();
        frame["id"] = next_id_;
        frame["method"] = request.method;
        if (!request.token.empty()) frame["token"] = request.token;
        frame["params"] = request.params;
        Conn& conn = conns_[request.connection];
        conn.outbox += pipetune::net::encode_frame(frame.dump());
        RequestOutcome& outcome = report.outcomes[index];
        outcome.sent = true;
        outcome.sent_s = last_send_s = now_s();
        outcome.due_s = request.closed_loop ? outcome.sent_s : request.due_s;
        in_flight[next_id_++] = index;
        flush(conn);
    };

    std::size_t next_open = 0, next_closed = 0;
    bool closed_waiting = false;
    bool sending = true;
    std::vector<pollfd> fds(conns_.size());
    std::vector<char> buffer(1 << 16);
    while (true) {
        const double now = now_s();
        if (sending) {
            while (next_open < open.size() && plan[open[next_open]].due_s <= now) {
                send(open[next_open++]);
            }
            if (!closed.empty()) {
                if (!closed_waiting && next_closed < closed.size()) {
                    send(closed[next_closed++]);
                    closed_waiting = true;
                }
                if (!closed_waiting && next_closed == closed.size()) sending = false;
            } else if (next_open == open.size()) {
                sending = false;
            }
        }
        const bool stalled = !in_flight.empty() && (!sending || closed_waiting) &&
                             now_s() - last_send_s > response_timeout_s;
        if ((!sending && in_flight.empty()) || stalled) break;

        double wait_s = 0.05;
        if (sending && next_open < open.size())
            wait_s = std::clamp(plan[open[next_open]].due_s - now_s(), 0.0, wait_s);
        for (std::size_t c = 0; c < conns_.size(); ++c) {
            fds[c].fd = conns_[c].fd;
            fds[c].events = POLLIN | (conns_[c].outbox.empty() ? 0 : POLLOUT);
            fds[c].revents = 0;
        }
        timespec timeout{static_cast<time_t>(wait_s),
                         static_cast<long>((wait_s - static_cast<double>(static_cast<time_t>(wait_s))) * 1e9)};
        const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (ready < 0 && errno != EINTR)
            throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
        if (ready <= 0) continue;

        for (std::size_t c = 0; c < conns_.size(); ++c) {
            Conn& conn = conns_[c];
            if (fds[c].revents & POLLOUT) flush(conn);
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            while (true) {
                const ssize_t n = ::recv(conn.fd, buffer.data(), buffer.size(), 0);
                if (n > 0) {
                    conn.reader.feed(buffer.data(), static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR) continue;
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                throw std::runtime_error("WireDriver: server closed a connection");
            }
            std::string frame;
            while (conn.reader.next(&frame) == pipetune::net::FrameReader::Event::kFrame) {
                const double done = now_s();
                auto parsed = pipetune::net::parse_response(frame);
                const auto it = parsed ? in_flight.find(parsed.value().id) : in_flight.end();
                if (it == in_flight.end()) {
                    ++report.stray_frames;
                    continue;
                }
                RequestOutcome& outcome = report.outcomes[it->second];
                outcome.done_s = done;
                outcome.status = parsed.value().status;
                outcome.result = std::move(parsed.value().result);
                outcome.error = std::move(parsed.value().error);
                if (plan[it->second].closed_loop) closed_waiting = false;
                in_flight.erase(it);
                report.elapsed_s = done;
            }
        }
    }
    report.elapsed_s = std::max(report.elapsed_s, last_send_s);
    return report;
}

}  // namespace perfbench
