/**
 * @file
 * Tests for the jcached front end (service/async_server.hh): a real
 * AsyncServer on an ephemeral loopback port, attacked with truncated
 * frames, oversized prefixes, malformed JSON and mid-response
 * disconnects — a misbehaving client costs its own connection, never
 * the daemon — plus pipelined requests answered in order on one
 * connection, and connection metrics in the stats node block.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.hh"
#include "net/socket.hh"
#include "service/async_server.hh"
#include "service/json_value.hh"
#include "util/fault.hh"

using namespace jcache;
using service::AsyncServer;
using service::AsyncServerConfig;
using service::JsonValue;

namespace
{

class AsyncServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        AsyncServerConfig config;
        config.port = 0;  // ephemeral
        config.connectionTimeoutMillis = 2000;
        config.service.executorThreads = 2;
        server_ = std::make_unique<AsyncServer>(config);
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
        serve_thread_ = std::thread([this] { server_->serve(); });
    }

    void TearDown() override
    {
        server_->requestStop();
        if (serve_thread_.joinable())
            serve_thread_.join();
        fault::reset();
    }

    net::Socket connect()
    {
        std::string error;
        net::Socket socket = net::Socket::connectTo(
            "127.0.0.1", server_->port(), &error);
        EXPECT_TRUE(socket.valid()) << error;
        socket.setTimeout(10000);
        return socket;
    }

    /** One full request/response exchange on a fresh connection. */
    JsonValue exchange(const std::string& request)
    {
        net::Socket socket = connect();
        EXPECT_EQ(net::writeFrame(socket, request),
                  net::FrameStatus::Ok);
        std::string response;
        EXPECT_EQ(net::readFrame(socket, response),
                  net::FrameStatus::Ok);
        std::string error;
        JsonValue v = JsonValue::parse(response, &error);
        EXPECT_EQ(error, "") << response;
        return v;
    }

    /** The daemon must still answer after whatever just happened. */
    void expectStillServing()
    {
        JsonValue v = exchange("{\"type\": \"ping\"}");
        EXPECT_TRUE(v.getBool("ok", false));
    }

    std::unique_ptr<AsyncServer> server_;
    std::thread serve_thread_;
};

std::string
framePrefix(std::uint32_t len)
{
    std::string bytes(4, '\0');
    for (unsigned i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>((len >> (8 * i)) & 0xff);
    return bytes;
}

} // namespace

TEST_F(AsyncServerTest, AnswersPingAndRun)
{
    JsonValue ping = exchange("{\"type\": \"ping\"}");
    EXPECT_TRUE(ping.getBool("ok", false));
    EXPECT_EQ(ping.getString("type"), "ping");

    JsonValue run = exchange(
        "{\"type\": \"run\", \"workload\": \"ccom\","
        " \"config\": {\"size_bytes\": 4096}}");
    ASSERT_TRUE(run.getBool("ok", false)) << run.getString("error");
    EXPECT_GT(run.get("payload").get("result").getNumber(
                  "instructions", 0),
              0.0);
}

TEST_F(AsyncServerTest, PipelinedRequestsAnswerInOrder)
{
    // Write every frame before reading any response.  A slow
    // simulation is queued first so later cheap pings would overtake
    // it if the server answered out of order.
    fault::configure("service.delay=always");
    net::Socket socket = connect();
    ASSERT_EQ(net::writeFrame(
                  socket,
                  "{\"type\": \"run\", \"workload\": \"ccom\","
                  " \"config\": {\"size_bytes\": 4096},"
                  " \"request_id\": \"slow\"}"),
              net::FrameStatus::Ok);
    for (int i = 0; i < 4; ++i) {
        std::string ping = "{\"type\": \"ping\", \"request_id\": \"p" +
                           std::to_string(i) + "\"}";
        ASSERT_EQ(net::writeFrame(socket, ping), net::FrameStatus::Ok);
    }

    std::vector<std::string> ids;
    for (int i = 0; i < 5; ++i) {
        std::string response;
        ASSERT_EQ(net::readFrame(socket, response),
                  net::FrameStatus::Ok);
        JsonValue v = JsonValue::parse(response);
        EXPECT_TRUE(v.getBool("ok", false))
            << v.getString("error");
        ids.push_back(v.getString("request_id"));
    }
    ASSERT_EQ(ids.size(), 5u);
    EXPECT_EQ(ids[0], "slow");
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ids[i + 1], "p" + std::to_string(i));
}

TEST_F(AsyncServerTest, ManyPipelinedPingsOnOneConnection)
{
    constexpr int kCount = 64;
    net::Socket socket = connect();
    for (int i = 0; i < kCount; ++i) {
        std::string ping = "{\"type\": \"ping\", \"request_id\": \"n" +
                           std::to_string(i) + "\"}";
        ASSERT_EQ(net::writeFrame(socket, ping), net::FrameStatus::Ok);
    }
    for (int i = 0; i < kCount; ++i) {
        std::string response;
        ASSERT_EQ(net::readFrame(socket, response),
                  net::FrameStatus::Ok);
        JsonValue v = JsonValue::parse(response);
        EXPECT_TRUE(v.getBool("ok", false));
        EXPECT_EQ(v.getString("request_id"),
                  "n" + std::to_string(i));
    }
}

TEST_F(AsyncServerTest, TruncatedFrameClosesOnlyThatConnection)
{
    {
        net::Socket socket = connect();
        std::string partial = framePrefix(100) + "partial";
        ASSERT_TRUE(
            socket.writeAll(partial.data(), partial.size()).ok());
        socket.shutdownWrite();

        std::string response;
        if (net::readFrame(socket, response) == net::FrameStatus::Ok) {
            JsonValue v = JsonValue::parse(response);
            EXPECT_FALSE(v.getBool("ok", true));
            EXPECT_EQ(v.getString("code"), "frame_truncated");
        }
    }
    expectStillServing();
}

TEST_F(AsyncServerTest, TruncatedPrefixClosesOnlyThatConnection)
{
    {
        net::Socket socket = connect();
        std::string two_bytes = framePrefix(100).substr(0, 2);
        ASSERT_TRUE(
            socket.writeAll(two_bytes.data(), two_bytes.size()).ok());
        socket.shutdownWrite();
        std::string response;
        net::readFrame(socket, response);  // drain best-effort reply
    }
    expectStillServing();
}

TEST_F(AsyncServerTest, OversizedPrefixIsRejected)
{
    {
        net::Socket socket = connect();
        std::string huge = framePrefix(net::kMaxFrameBytes + 1);
        ASSERT_TRUE(socket.writeAll(huge.data(), huge.size()).ok());

        std::string response;
        ASSERT_EQ(net::readFrame(socket, response),
                  net::FrameStatus::Ok);
        JsonValue v = JsonValue::parse(response);
        EXPECT_FALSE(v.getBool("ok", true));
        EXPECT_EQ(v.getString("code"), "frame_oversized");
    }
    expectStillServing();
}

TEST_F(AsyncServerTest, ViolationAfterPipelinedFramesAnswersThemFirst)
{
    // Two good pings followed by an oversized prefix in one burst:
    // the good requests are answered in order, then the frame error
    // arrives as the final response before the close.
    net::Socket socket = connect();
    std::string burst;
    std::string encoded;
    ASSERT_TRUE(net::encodeFrame(
        "{\"type\": \"ping\", \"request_id\": \"a\"}", encoded));
    burst += encoded;
    encoded.clear();
    ASSERT_TRUE(net::encodeFrame(
        "{\"type\": \"ping\", \"request_id\": \"b\"}", encoded));
    burst += encoded;
    burst += framePrefix(net::kMaxFrameBytes + 1);
    ASSERT_TRUE(socket.writeAll(burst.data(), burst.size()).ok());

    std::string response;
    ASSERT_EQ(net::readFrame(socket, response), net::FrameStatus::Ok);
    EXPECT_EQ(JsonValue::parse(response).getString("request_id"), "a");
    ASSERT_EQ(net::readFrame(socket, response), net::FrameStatus::Ok);
    EXPECT_EQ(JsonValue::parse(response).getString("request_id"), "b");
    ASSERT_EQ(net::readFrame(socket, response), net::FrameStatus::Ok);
    JsonValue v = JsonValue::parse(response);
    EXPECT_FALSE(v.getBool("ok", true));
    EXPECT_EQ(v.getString("code"), "frame_oversized");
    EXPECT_EQ(net::readFrame(socket, response),
              net::FrameStatus::Closed);
    expectStillServing();
}

TEST_F(AsyncServerTest, MalformedJsonGetsErrorAndConnectionLives)
{
    net::Socket socket = connect();
    ASSERT_EQ(net::writeFrame(socket, "this is not json"),
              net::FrameStatus::Ok);
    std::string response;
    ASSERT_EQ(net::readFrame(socket, response), net::FrameStatus::Ok);
    JsonValue v = JsonValue::parse(response);
    EXPECT_FALSE(v.getBool("ok", true));
    EXPECT_EQ(v.getString("code"), "parse_error");

    ASSERT_EQ(net::writeFrame(socket, "{\"type\": \"ping\"}"),
              net::FrameStatus::Ok);
    ASSERT_EQ(net::readFrame(socket, response), net::FrameStatus::Ok);
    EXPECT_TRUE(JsonValue::parse(response).getBool("ok", false));
}

TEST_F(AsyncServerTest, DisconnectMidResponseLeavesDaemonServing)
{
    for (int i = 0; i < 3; ++i) {
        net::Socket socket = connect();
        ASSERT_EQ(net::writeFrame(
                      socket,
                      "{\"type\": \"run\", \"workload\": \"ccom\","
                      " \"config\": {\"size_bytes\": 4096}}"),
                  net::FrameStatus::Ok);
        socket.close();
    }
    expectStillServing();
}

TEST_F(AsyncServerTest, ProtocolErrorsShowInStats)
{
    {
        net::Socket socket = connect();
        std::string huge = framePrefix(net::kMaxFrameBytes + 1);
        ASSERT_TRUE(socket.writeAll(huge.data(), huge.size()).ok());
        std::string response;
        net::readFrame(socket, response);
    }
    JsonValue stats = exchange("{\"type\": \"stats\"}");
    ASSERT_TRUE(stats.getBool("ok", false));
    EXPECT_GE(stats.get("payload").get("requests").getNumber(
                  "protocol_errors", 0),
              1.0);
}

TEST_F(AsyncServerTest, ConnectionMetricsInNodeBlock)
{
    // A handful of extra connections, then ask for stats while one
    // of them is still open.
    net::Socket held = connect();
    ASSERT_EQ(net::writeFrame(held, "{\"type\": \"ping\"}"),
              net::FrameStatus::Ok);
    std::string response;
    ASSERT_EQ(net::readFrame(held, response), net::FrameStatus::Ok);

    JsonValue stats = exchange("{\"type\": \"stats\"}");
    ASSERT_TRUE(stats.getBool("ok", false));
    JsonValue node = stats.get("payload").get("node");
    EXPECT_EQ(node.getString("role"), "single");
    JsonValue conns = node.get("connections");
    // `held` plus the stats connection itself are open right now.
    EXPECT_GE(conns.getNumber("open", 0), 2.0);
    EXPECT_GE(conns.getNumber("accepted", 0), 2.0);

    JsonValue health = exchange("{\"type\": \"health\"}");
    ASSERT_TRUE(health.getBool("ok", false));
    EXPECT_EQ(
        health.get("payload").get("node").getString("role"),
        "single");
}

TEST_F(AsyncServerTest, StopMidJobStillFlushesBufferedRequests)
{
    fault::configure("service.delay=always");
    net::Socket socket = connect();
    ASSERT_EQ(net::writeFrame(
                  socket,
                  "{\"type\": \"run\", \"workload\": \"ccom\","
                  " \"config\": {\"size_bytes\": 4096}}"),
              net::FrameStatus::Ok);
    ASSERT_EQ(net::writeFrame(socket, "{\"type\": \"ping\"}"),
              net::FrameStatus::Ok);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server_->requestStop();

    std::string response;
    ASSERT_EQ(net::readFrame(socket, response), net::FrameStatus::Ok);
    JsonValue run = JsonValue::parse(response);
    EXPECT_TRUE(run.getBool("ok", false)) << run.getString("error");
    EXPECT_EQ(run.getString("type"), "run");

    ASSERT_EQ(net::readFrame(socket, response), net::FrameStatus::Ok);
    JsonValue ping = JsonValue::parse(response);
    EXPECT_TRUE(ping.getBool("ok", false));
    EXPECT_EQ(ping.getString("type"), "ping");
    fault::reset();

    serve_thread_.join();
}

TEST_F(AsyncServerTest, InBandShutdownDrainsTheServer)
{
    JsonValue v = exchange("{\"type\": \"shutdown\"}");
    EXPECT_TRUE(v.getBool("ok", false));
    EXPECT_TRUE(v.getBool("draining", false));
    serve_thread_.join();

    std::string error;
    net::Socket after = net::Socket::connectTo(
        "127.0.0.1", server_->port(), &error);
    // The listener is gone; a racing connect may still succeed
    // momentarily on some kernels, but a frame exchange must fail.
    if (after.valid()) {
        after.setTimeout(2000);
        std::string response;
        EXPECT_NE(net::readFrame(after, response),
                  net::FrameStatus::Ok);
    }
}

TEST_F(AsyncServerTest, ConcurrentConnectionsAllServed)
{
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::string error;
            net::Socket socket = net::Socket::connectTo(
                "127.0.0.1", server_->port(), &error);
            if (!socket.valid())
                return;
            socket.setTimeout(10000);
            std::string request =
                "{\"type\": \"run\", \"workload\": \"ccom\","
                " \"config\": {\"size_bytes\": " +
                std::to_string(4096 << (t % 3)) + "}}";
            if (net::writeFrame(socket, request) !=
                net::FrameStatus::Ok)
                return;
            std::string response;
            if (net::readFrame(socket, response) !=
                net::FrameStatus::Ok)
                return;
            if (JsonValue::parse(response).getBool("ok", false))
                ++ok;
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(ok.load(), kThreads);
}
