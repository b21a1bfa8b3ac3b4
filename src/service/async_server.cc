/**
 * @file
 * Implementation of the reactor-driven TCP front end.
 */

#include "service/async_server.hh"

#include <sstream>
#include <vector>

#include "stats/json.hh"

namespace jcache::service
{

namespace
{

/** Best-effort error frame for a transport-level violation. */
std::string
frameErrorResponse(net::FrameStatus status)
{
    std::ostringstream oss;
    stats::JsonWriter json(oss);
    json.beginObject();
    json.field("ok", false);
    json.field("code", "frame_" + net::name(status));
    json.field("error", "malformed frame (" + net::name(status) +
                            "); closing connection");
    json.endObject();
    return oss.str();
}

/** Event-loop tick period: bounds shutdown and idle-check latency. */
constexpr int kTickMillis = 250;

} // namespace

AsyncServer::AsyncServer(const AsyncServerConfig& config)
    : config_(config), service_(config.service)
{
}

AsyncServer::~AsyncServer()
{
    requestStop();
}

bool
AsyncServer::start(std::string* error)
{
    if (!reactor_.valid()) {
        if (error)
            *error = "cannot set up the epoll reactor";
        return false;
    }
    listener_ = net::Listener::listenOn(config_.port, error);
    return listener_.valid();
}

void
AsyncServer::serve()
{
    if (!listener_.valid() || !reactor_.valid())
        return;
    listener_.setNonBlocking();
    bool listening = reactor_.add(listener_.fd(), net::kReadable,
                                  [this](unsigned) { onAccept(); });
    Clock::time_point drain_deadline{};
    for (;;) {
        reactor_.runOnce(kTickMillis);
        Clock::time_point now = Clock::now();
        if (stop_.load() && !draining_) {
            // Stop accepting; connections get a bounded grace to
            // flush responses for frames they already sent.
            draining_ = true;
            if (listening) {
                reactor_.remove(listener_.fd());
                listening = false;
            }
            listener_.close();
            drain_deadline =
                now +
                std::chrono::milliseconds(config_.drainGraceMillis);
        }
        tick(now);
        if (draining_ &&
            (connections_.empty() || now >= drain_deadline))
            break;
    }
    std::vector<std::uint64_t> open;
    open.reserve(connections_.size());
    for (const auto& [id, conn] : connections_)
        open.push_back(id);
    for (std::uint64_t id : open)
        destroy(id);
    if (listening)
        reactor_.remove(listener_.fd());
    listener_.close();
}

void
AsyncServer::onAccept()
{
    for (;;) {
        net::Socket client = listener_.acceptNonBlocking();
        if (!client.valid())
            break;
        if (!client.setNonBlocking())
            continue;
        auto conn = std::make_unique<Connection>();
        conn->socket = std::move(client);
        conn->id = next_id_++;
        conn->lastActivity = Clock::now();
        conn->interest = net::kReadable;
        int fd = conn->socket.fd();
        std::uint64_t id = conn->id;
        connections_.emplace(id, std::move(conn));
        if (!reactor_.add(fd, net::kReadable,
                          [this, id](unsigned events) {
                              onEvent(id, events);
                          })) {
            connections_.erase(id);
            continue;
        }
        service_.noteConnectionAccepted();
    }
}

void
AsyncServer::onEvent(std::uint64_t id, unsigned events)
{
    auto it = connections_.find(id);
    if (it == connections_.end())
        return;
    Connection& conn = *it->second;
    bool alive = true;
    if (events & (net::kReadable | net::kHangup))
        alive = handleReadable(conn);
    if (alive && (events & net::kWritable))
        alive = writeOut(conn);
    bool done = (conn.peerClosed || conn.violated) &&
                conn.slots.empty() &&
                conn.outpos == conn.outbuf.size();
    if (!alive || done) {
        destroy(id);
        return;
    }
    updateInterest(conn);
}

bool
AsyncServer::handleReadable(Connection& conn)
{
    char buf[16384];
    while (!conn.violated && !conn.peerClosed) {
        net::IoResult r = conn.socket.readSome(buf, sizeof(buf));
        if (r.status == net::IoStatus::Ok) {
            conn.decoder.append(buf, r.bytes);
            conn.lastActivity = Clock::now();
            continue;
        }
        if (r.status == net::IoStatus::Timeout)
            break;  // EAGAIN: kernel buffer drained
        if (r.status == net::IoStatus::Closed) {
            conn.peerClosed = true;
            break;
        }
        return false;  // reset or other socket error
    }
    return drainFrames(conn);
}

bool
AsyncServer::drainFrames(Connection& conn)
{
    std::string payload;
    bool need_more = false;
    while (!conn.violated &&
           conn.slots.size() < config_.maxPipelinedRequests) {
        net::DecodeStatus status = conn.decoder.next(payload);
        if (status == net::DecodeStatus::NeedMore) {
            need_more = true;
            break;
        }
        if (status == net::DecodeStatus::Oversized) {
            violation(conn, net::FrameStatus::Oversized);
            break;
        }
        dispatch(conn, payload);
    }
    // EOF in the middle of a frame is the nonblocking analogue of the
    // blocking reader's Truncated: the peer can never complete it.
    // Only judged when decoding stopped for lack of bytes — bytes
    // parked behind the pipelining cap are not torn, just deferred.
    if (conn.peerClosed && need_more && conn.decoder.buffered() > 0)
        violation(conn, net::FrameStatus::Truncated);
    return flushConnection(conn);
}

void
AsyncServer::dispatch(Connection& conn, const std::string& payload)
{
    Slot slot;
    slot.seq = conn.nextSeq++;
    std::uint64_t seq = slot.seq;
    std::uint64_t id = conn.id;
    conn.slots.push_back(std::move(slot));
    conn.lastActivity = Clock::now();
    // The completion may fire on the scheduler thread; hop back to
    // the loop thread so all connection state stays single-threaded.
    service_.handleAsync(
        payload, [this, id, seq](std::string response) {
            reactor_.post([this, id, seq,
                           response = std::move(response)]() mutable {
                onResponse(id, seq, std::move(response));
            });
        });
}

void
AsyncServer::onResponse(std::uint64_t id, std::uint64_t seq,
                        std::string response)
{
    auto it = connections_.find(id);
    if (it == connections_.end())
        return;  // connection died while the job ran
    Connection& conn = *it->second;
    for (Slot& slot : conn.slots) {
        if (slot.seq == seq) {
            slot.done = true;
            slot.response = std::move(response);
            break;
        }
    }
    conn.lastActivity = Clock::now();
    // Flushing may unblock the pipelining cap, so re-decode too.
    if (!drainFrames(conn)) {
        destroy(id);
        return;
    }
    bool done = (conn.peerClosed || conn.violated) &&
                conn.slots.empty() &&
                conn.outpos == conn.outbuf.size();
    if (done) {
        destroy(id);
        return;
    }
    updateInterest(conn);
}

void
AsyncServer::violation(Connection& conn, net::FrameStatus status)
{
    if (conn.violated)
        return;
    conn.violated = true;
    service_.noteProtocolError();
    // Answer best-effort, in order: the error frame queues behind any
    // responses still owed, then the connection closes.
    Slot slot;
    slot.seq = conn.nextSeq++;
    slot.done = true;
    slot.response = frameErrorResponse(status);
    conn.slots.push_back(std::move(slot));
}

bool
AsyncServer::flushConnection(Connection& conn)
{
    while (!conn.slots.empty() && conn.slots.front().done) {
        if (!net::encodeFrame(conn.slots.front().response,
                              conn.outbuf))
            return false;  // response exceeds the frame bound
        conn.slots.pop_front();
    }
    if (service_.shutdownRequested())
        requestStop();
    return writeOut(conn);
}

bool
AsyncServer::writeOut(Connection& conn)
{
    while (conn.outpos < conn.outbuf.size()) {
        net::IoResult r =
            conn.socket.writeSome(conn.outbuf.data() + conn.outpos,
                                  conn.outbuf.size() - conn.outpos);
        if (r.status == net::IoStatus::Ok) {
            conn.outpos += r.bytes;
            conn.lastActivity = Clock::now();
            continue;
        }
        if (r.status == net::IoStatus::Timeout)
            break;  // send buffer full: wait for writability
        return false;  // peer vanished mid-response
    }
    if (conn.outpos == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.outpos = 0;
    }
    return true;
}

void
AsyncServer::updateInterest(Connection& conn)
{
    unsigned desired = 0;
    if (!conn.peerClosed && !conn.violated &&
        conn.slots.size() < config_.maxPipelinedRequests)
        desired |= net::kReadable;
    if (conn.outpos < conn.outbuf.size())
        desired |= net::kWritable;
    if (desired != conn.interest) {
        conn.interest = desired;
        reactor_.setInterest(conn.socket.fd(), desired);
    }
}

void
AsyncServer::destroy(std::uint64_t id)
{
    auto it = connections_.find(id);
    if (it == connections_.end())
        return;
    reactor_.remove(it->second->socket.fd());
    it->second->socket.close();
    connections_.erase(it);
    service_.noteConnectionClosed();
}

void
AsyncServer::tick(Clock::time_point now)
{
    std::vector<std::uint64_t> victims;
    for (const auto& [id, conn] : connections_) {
        // A connection with work in flight is never idle: waiting on
        // a queued job or a slow reader is accounted elsewhere.
        if (!conn->slots.empty() ||
            conn->outpos != conn->outbuf.size())
            continue;
        if (draining_) {
            victims.push_back(id);
            continue;
        }
        auto idle =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - conn->lastActivity)
                .count();
        if (idle >=
            static_cast<long long>(config_.connectionTimeoutMillis))
            victims.push_back(id);
    }
    for (std::uint64_t id : victims)
        destroy(id);
}

} // namespace jcache::service
