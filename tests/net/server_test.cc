#include "net/server.hh"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/framing.hh"
#include "net/socket.hh"

namespace hcm {
namespace net {
namespace {

/** Round-trip one framed payload on a fresh client connection. */
std::string
roundTripOnce(std::uint16_t port, const std::string &payload,
              std::uint32_t max_frame = kDefaultMaxFrameBytes)
{
    std::string error;
    Socket sock = connectTo("127.0.0.1", port, 2000, &error);
    EXPECT_TRUE(sock.valid()) << error;
    EXPECT_TRUE(sock.setIoTimeoutMs(2000, &error)) << error;
    std::string frame = encodeFrame(payload);
    EXPECT_TRUE(sock.sendAll(frame.data(), frame.size(), &error))
        << error;
    FrameDecoder decoder(max_frame);
    char buf[4096];
    std::string response;
    while (!decoder.next(&response)) {
        EXPECT_FALSE(decoder.failed()) << decoder.error();
        long n = sock.recvSome(buf, sizeof(buf), &error);
        if (n <= 0)
            return "<closed: " + error + ">";
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    return response;
}

TEST(TcpServerTest, EchoRoundTrip)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return "echo:" + request;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_NE(server.port(), 0u);
    EXPECT_EQ(roundTripOnce(server.port(), "hello"), "echo:hello");
    server.stop();
}

TEST(TcpServerTest, ManyFramesOnOneConnection)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return request + "!";
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    Socket sock = connectTo("127.0.0.1", server.port(), 2000, &error);
    ASSERT_TRUE(sock.valid()) << error;
    ASSERT_TRUE(sock.setIoTimeoutMs(2000, &error)) << error;
    // Coalesce several requests into one write; the server must
    // answer each in order.
    std::string stream;
    for (int i = 0; i < 10; ++i)
        stream += encodeFrame("req" + std::to_string(i));
    ASSERT_TRUE(sock.sendAll(stream.data(), stream.size(), &error))
        << error;
    FrameDecoder decoder;
    char buf[4096];
    std::string response;
    for (int i = 0; i < 10; ++i) {
        while (!decoder.next(&response)) {
            ASSERT_FALSE(decoder.failed()) << decoder.error();
            long n = sock.recvSome(buf, sizeof(buf), &error);
            ASSERT_GT(n, 0) << error;
            decoder.feed(buf, static_cast<std::size_t>(n));
        }
        EXPECT_EQ(response, "req" + std::to_string(i) + "!");
    }
    server.stop();
}

TEST(TcpServerTest, ZeroLengthPayloadRoundTrips)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return "len=" + std::to_string(request.size());
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_EQ(roundTripOnce(server.port(), ""), "len=0");
    server.stop();
}

TEST(TcpServerTest, OversizedFrameAnswersErrorAndDrops)
{
    TcpServerOptions opts;
    opts.maxFrameBytes = 64;
    TcpServer server(opts, [](const std::string &) {
        return "should never be called";
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::string big(1000, 'x');
    std::string response = roundTripOnce(server.port(), big);
    EXPECT_EQ(response.rfind("{\"error\":", 0), 0u) << response;

    // The connection is gone, but the server still accepts new ones.
    EXPECT_EQ(roundTripOnce(server.port(), std::string(10, 'y')),
              "should never be called");
    server.stop();
}

TEST(TcpServerTest, StopWithOpenConnectionDoesNotHang)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return request;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    // A client that connects and then just sits there.
    Socket idle = connectTo("127.0.0.1", server.port(), 2000, &error);
    ASSERT_TRUE(idle.valid()) << error;
    server.stop(); // must shut the idle connection down, not wait on it
}

TEST(TcpServerTest, StopWithLiveConnectionsClosesEveryClient)
{
    // Clients that have been served and still hold their connections,
    // half of which hang up just as the server stops, so connection
    // threads close their sockets while stop() shuts the rest down.
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return request;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::vector<Socket> clients;
    for (int i = 0; i < 6; ++i) {
        clients.push_back(
            connectTo("127.0.0.1", server.port(), 2000, &error));
        ASSERT_TRUE(clients.back().valid()) << error;
        ASSERT_TRUE(clients.back().setIoTimeoutMs(2000, &error))
            << error;
        std::string frame = encodeFrame("ping");
        ASSERT_TRUE(clients.back().sendAll(frame.data(), frame.size(),
                                           &error))
            << error;
        char buf[64];
        ASSERT_GT(clients.back().recvSome(buf, sizeof(buf), &error), 0)
            << error;
    }
    for (std::size_t i = 0; i < clients.size(); i += 2)
        clients[i].close();
    server.stop();
    for (std::size_t i = 1; i < clients.size(); i += 2) {
        char buf[64];
        EXPECT_EQ(clients[i].recvSome(buf, sizeof(buf), &error), 0)
            << "client " << i << ": " << error;
    }
}

TEST(TcpServerTest, StopIsIdempotent)
{
    TcpServerOptions opts;
    TcpServer server(opts, [](const std::string &request) {
        return request;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    server.stop();
    server.stop();
}

TEST(SocketTest, ConnectToClosedPortFailsWithError)
{
    // Bind-then-close to find a port that is (momentarily) not
    // listening; connect must fail fast with a reason, not hang.
    std::string error;
    auto [probe, port] = listenOn("127.0.0.1", 0, &error);
    ASSERT_TRUE(probe.valid()) << error;
    probe.close();
    Socket sock = connectTo("127.0.0.1", port, 1000, &error);
    EXPECT_FALSE(sock.valid());
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace net
} // namespace hcm
