#pragma once
// WireDriver: the benchmark's own client for the pipetune wire protocol. One
// thread, a fixed set of persistent loopback connections, and pipelined
// request ids — built only on the public framing/protocol functions
// (encode_frame, FrameReader, parse_response).
//
// A phase is a plan of requests of two kinds:
//   open loop    sent at a scheduled time (due_s after the phase starts),
//                whatever the server is doing; latency counts from due_s, so a
//                stall also charges the requests that queued up behind it;
//   closed loop  sent one after another: each as soon as the previous
//                closed-loop request is answered (latency counts from send).
// When a plan has closed-loop requests, the phase lasts until the last of
// them is answered and open-loop requests due later are not sent.

#include <cstdint>
#include <string>
#include <vector>

#include "pipetune/net/framing.hpp"
#include "pipetune/util/json.hpp"

namespace perfbench {

struct PlannedRequest {
    std::string method;
    std::string token;
    pipetune::util::Json params = pipetune::util::Json::object();
    std::size_t connection = 0;
    double due_s = 0.0;
    bool closed_loop = false;
};

struct RequestOutcome {
    bool sent = false;
    double due_s = -1.0;   ///< seconds from phase start; closed loop: = sent_s
    double sent_s = -1.0;
    double done_s = -1.0;  ///< response received; -1 = none within the timeout
    int status = 0;        ///< 0 = no response
    pipetune::util::Json result;
    std::string error;

    bool answered() const { return done_s >= 0.0; }
    double latency_s() const { return done_s - due_s; }
};

struct PhaseReport {
    std::vector<RequestOutcome> outcomes;  ///< parallel to the plan
    double elapsed_s = 0.0;                ///< phase start to last response
    std::size_t stray_frames = 0;          ///< responses matching no request
};

class WireDriver {
public:
    /// Opens `connections` persistent connections to 127.0.0.1:port. Throws
    /// std::runtime_error when a connection fails.
    WireDriver(std::uint16_t port, std::size_t connections);
    ~WireDriver();
    WireDriver(const WireDriver&) = delete;
    WireDriver& operator=(const WireDriver&) = delete;

    /// Run one phase. Requests still unanswered `response_timeout_s` after the
    /// last send are reported unanswered (status 0).
    PhaseReport run(const std::vector<PlannedRequest>& plan, double response_timeout_s);

    std::size_t connections() const { return conns_.size(); }

private:
    struct Conn {
        int fd = -1;
        pipetune::net::FrameReader reader;
        std::string outbox;
        std::size_t out_off = 0;
    };
    void flush(Conn& conn);
    void close_all();

    std::vector<Conn> conns_;
    std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
