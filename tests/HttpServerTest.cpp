//===- tests/HttpServerTest.cpp - Embedded HTTP server tests --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Exercises support/HttpServer with a raw-socket client: happy-path GET
// and HEAD, keep-alive reuse, the 4xx taxonomy for malformed and
// oversized requests, address parsing, and concurrent scrapes at 1, 2
// and 8 client threads (the TSan leg turns the latter into a real race
// hunt across handler state).
//
//===----------------------------------------------------------------------===//

#include "support/HttpServer.h"
#include "support/StatusServer.h"
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <sys/time.h>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lima;
using namespace lima::http;

namespace {

/// Blocking client socket connected to 127.0.0.1:Port; -1 on failure.
/// A nonzero \p RcvBuf sets SO_RCVBUF before connecting, so the TCP
/// window is negotiated for it.
int connectTo(uint16_t Port, int RcvBuf = 0) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (RcvBuf != 0)
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &RcvBuf, sizeof(RcvBuf));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendAll(int Fd, std::string_view Data) {
  while (!Data.empty()) {
    ssize_t N = ::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// Reads until the peer closes.
std::string readToEof(int Fd) {
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  return Out;
}

struct ClientResponse {
  int Status = 0;
  std::string Head;
  std::string Body;
};

/// Reads exactly one framed response (status line + headers +
/// Content-Length bytes) so keep-alive connections can be reused.
bool readResponse(int Fd, ClientResponse &R) {
  std::string Buf;
  char C;
  // Head, byte at a time (tests, not a hot path).
  while (Buf.find("\r\n\r\n") == std::string::npos) {
    if (::recv(Fd, &C, 1, 0) != 1)
      return false;
    Buf += C;
  }
  R.Head = Buf;
  if (Buf.compare(0, 9, "HTTP/1.1 ") != 0)
    return false;
  R.Status = std::atoi(Buf.c_str() + 9);
  size_t LenPos = Buf.find("Content-Length: ");
  if (LenPos == std::string::npos)
    return false;
  size_t Len = static_cast<size_t>(
      std::atoll(Buf.c_str() + LenPos + std::strlen("Content-Length: ")));
  R.Body.clear();
  while (R.Body.size() < Len) {
    char Chunk[4096];
    size_t Want = std::min(Len - R.Body.size(), sizeof(Chunk));
    ssize_t N = ::recv(Fd, Chunk, Want, 0);
    if (N <= 0)
      return false;
    R.Body.append(Chunk, static_cast<size_t>(N));
  }
  return true;
}

/// One-shot helper: connect, send, read everything until close.
std::string roundTrip(uint16_t Port, const std::string &Raw) {
  int Fd = connectTo(Port);
  EXPECT_GE(Fd, 0);
  if (Fd < 0)
    return {};
  EXPECT_TRUE(sendAll(Fd, Raw));
  std::string Out = readToEof(Fd);
  ::close(Fd);
  return Out;
}

/// A server with one echo-ish handler on "/x", started on an ephemeral
/// port.
class ServerFixture {
public:
  explicit ServerFixture(ServerLimits Limits = {}) : Server(Limits) {
    Server.handle("/x", [this](const Request &Req) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      Response R;
      R.Body = "method=" + Req.Method + " path=" + Req.Path +
               " query=" + Req.Query + "\n";
      return R;
    });
    auto Err = Server.start("127.0.0.1:0");
    EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
  }
  HttpServer Server;
  std::atomic<uint64_t> Hits{0};
};

TEST(HttpAddress, Forms) {
  auto Full = parseAddress("127.0.0.1:9190");
  ASSERT_TRUE(static_cast<bool>(Full));
  EXPECT_EQ(Full->first, "127.0.0.1");
  EXPECT_EQ(Full->second, 9190);

  auto PortColon = parseAddress(":8080");
  ASSERT_TRUE(static_cast<bool>(PortColon));
  EXPECT_EQ(PortColon->first, "127.0.0.1");
  EXPECT_EQ(PortColon->second, 8080);

  auto Bare = parseAddress("8080");
  ASSERT_TRUE(static_cast<bool>(Bare));
  EXPECT_EQ(Bare->second, 8080);

  auto Localhost = parseAddress("localhost:0");
  ASSERT_TRUE(static_cast<bool>(Localhost));
  EXPECT_EQ(Localhost->first, "127.0.0.1");
  EXPECT_EQ(Localhost->second, 0);
}

TEST(HttpAddress, Rejects) {
  for (const char *Bad :
       {"", "example.com:80", "127.0.0.1:", "127.0.0.1:notaport",
        "127.0.0.1:65536", "1.2.3:80"}) {
    auto HostPort = parseAddress(Bad);
    EXPECT_FALSE(static_cast<bool>(HostPort)) << Bad;
    if (!HostPort)
      HostPort.takeError().consume();
  }
}

TEST(HttpServerTest, StartStop) {
  HttpServer Server;
  Server.handle("/", [](const Request &) { return Response(); });
  ASSERT_FALSE(Server.start("127.0.0.1:0"));
  EXPECT_TRUE(Server.running());
  EXPECT_NE(Server.port(), 0);
  EXPECT_EQ(Server.address(), "127.0.0.1:" + std::to_string(Server.port()));
  Server.stop();
  EXPECT_FALSE(Server.running());
  Server.stop(); // idempotent
}

TEST(HttpServerTest, GetWithQuery) {
  ServerFixture F;
  std::string Out = roundTrip(
      F.Server.port(), "GET /x?a=b HTTP/1.1\r\nHost: t\r\n"
                       "Connection: close\r\n\r\n");
  EXPECT_NE(Out.find("HTTP/1.1 200 OK"), std::string::npos) << Out;
  EXPECT_NE(Out.find("method=GET path=/x query=a=b"), std::string::npos)
      << Out;
  EXPECT_EQ(F.Server.requestsServed(), 1u);
}

TEST(HttpServerTest, HeadSuppressesBody) {
  ServerFixture F;
  std::string Out = roundTrip(F.Server.port(),
                              "HEAD /x HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(Out.find("HTTP/1.1 200 OK"), std::string::npos);
  // Content-Length advertises the GET body, but none is sent.
  EXPECT_NE(Out.find("Content-Length: "), std::string::npos);
  EXPECT_EQ(Out.find("method=HEAD"), std::string::npos);
  EXPECT_EQ(Out.substr(Out.size() - 4), "\r\n\r\n");
}

TEST(HttpServerTest, NotFound) {
  ServerFixture F;
  std::string Out = roundTrip(F.Server.port(),
                              "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(Out.find("HTTP/1.1 404 Not Found"), std::string::npos) << Out;
}

TEST(HttpServerTest, MethodNotAllowed) {
  ServerFixture F;
  std::string Out = roundTrip(F.Server.port(),
                              "POST /x HTTP/1.1\r\n\r\n");
  EXPECT_NE(Out.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("Allow: GET, HEAD"), std::string::npos) << Out;
}

TEST(HttpServerTest, MalformedRequestLine) {
  ServerFixture F;
  std::string Out = roundTrip(F.Server.port(), "GET /x\r\n\r\n");
  EXPECT_NE(Out.find("HTTP/1.1 400 Bad Request"), std::string::npos) << Out;
}

TEST(HttpServerTest, UnsupportedVersion) {
  ServerFixture F;
  std::string Out = roundTrip(F.Server.port(), "GET /x HTTP/2.0\r\n\r\n");
  EXPECT_NE(Out.find("HTTP/1.1 505"), std::string::npos) << Out;
}

TEST(HttpServerTest, BodyRejected) {
  ServerFixture F;
  std::string Out = roundTrip(F.Server.port(),
                              "GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\n"
                              "hello");
  EXPECT_NE(Out.find("HTTP/1.1 400"), std::string::npos) << Out;
}

TEST(HttpServerTest, RequestLineTooLong) {
  ServerLimits Limits;
  Limits.MaxRequestLineBytes = 128;
  ServerFixture F(Limits);
  std::string Out = roundTrip(F.Server.port(),
                              "GET /" + std::string(4096, 'a') +
                                  " HTTP/1.1\r\n\r\n");
  EXPECT_NE(Out.find("HTTP/1.1 414"), std::string::npos) << Out;
}

TEST(HttpServerTest, HeadersTooLarge) {
  ServerLimits Limits;
  Limits.MaxHeaderBytes = 256;
  ServerFixture F(Limits);
  std::string Raw = "GET /x HTTP/1.1\r\n";
  for (int I = 0; I != 8; ++I)
    Raw += "X-Pad-" + std::to_string(I) + ": " + std::string(64, 'p') +
           "\r\n";
  Raw += "\r\n";
  std::string Out = roundTrip(F.Server.port(), Raw);
  EXPECT_NE(Out.find("HTTP/1.1 431"), std::string::npos) << Out;
}

TEST(HttpServerTest, TooManyHeaders) {
  ServerLimits Limits;
  Limits.MaxHeaderCount = 4;
  ServerFixture F(Limits);
  std::string Raw = "GET /x HTTP/1.1\r\n";
  for (int I = 0; I != 16; ++I)
    Raw += "X-" + std::to_string(I) + ": v\r\n";
  Raw += "\r\n";
  std::string Out = roundTrip(F.Server.port(), Raw);
  EXPECT_NE(Out.find("HTTP/1.1 431"), std::string::npos) << Out;
}

TEST(HttpServerTest, KeepAliveReusesConnection) {
  ServerFixture F;
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  for (int I = 0; I != 3; ++I) {
    ASSERT_TRUE(sendAll(Fd, "GET /x HTTP/1.1\r\nHost: t\r\n\r\n"));
    ClientResponse R;
    ASSERT_TRUE(readResponse(Fd, R)) << "request " << I;
    EXPECT_EQ(R.Status, 200);
    EXPECT_NE(R.Head.find("Connection: keep-alive"), std::string::npos);
  }
  ::close(Fd);
  EXPECT_EQ(F.Hits.load(), 3u);
  EXPECT_EQ(F.Server.requestsServed(), 3u);
}

TEST(HttpServerTest, Http10ClosesByDefault) {
  ServerFixture F;
  std::string Out = roundTrip(F.Server.port(), "GET /x HTTP/1.0\r\n\r\n");
  EXPECT_NE(Out.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(Out.find("Connection: close"), std::string::npos);
}

TEST(HttpServerTest, PipelinedRequestsAllAnswered) {
  ServerFixture F;
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  // Two requests in one write; the second asks to close so the test
  // can read to EOF.
  ASSERT_TRUE(sendAll(Fd, "GET /x HTTP/1.1\r\n\r\n"
                          "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"));
  std::string Out = readToEof(Fd);
  ::close(Fd);
  size_t First = Out.find("HTTP/1.1 200");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Out.find("HTTP/1.1 200", First + 1), std::string::npos) << Out;
  EXPECT_EQ(F.Hits.load(), 2u);
}

void scrapeConcurrently(unsigned Threads, unsigned RequestsPerThread) {
  ServerFixture F;
  uint16_t Port = F.Server.port();
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R != RequestsPerThread; ++R) {
        std::string Out = roundTrip(
            Port, "GET /x?t=" + std::to_string(T) +
                      " HTTP/1.1\r\nConnection: close\r\n\r\n");
        if (Out.find("HTTP/1.1 200 OK") == std::string::npos)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(F.Hits.load(), uint64_t(Threads) * RequestsPerThread);
  EXPECT_EQ(F.Server.requestsServed(), uint64_t(Threads) * RequestsPerThread);
}

TEST(HttpServerTest, ConcurrentScrape1Thread) { scrapeConcurrently(1, 16); }
TEST(HttpServerTest, ConcurrentScrape2Threads) { scrapeConcurrently(2, 16); }
TEST(HttpServerTest, ConcurrentScrape8Threads) { scrapeConcurrently(8, 8); }

// ---- Streaming responses (the SSE transport) ---------------------------

void setRecvTimeout(int Fd, int Ms) {
  timeval Tv{Ms / 1000, (Ms % 1000) * 1000};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

/// Reads until \p Needle appears in the accumulated bytes, the peer
/// closes, or the receive timeout fires.
std::string readUntil(int Fd, std::string_view Needle) {
  std::string Out;
  char Buf[4096];
  while (Out.find(Needle) == std::string::npos) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  return Out;
}

/// Decodes chunked transfer framing; stops cleanly at the terminating
/// 0-chunk or when the input ends mid-chunk (a live stream usually
/// does).
std::string dechunk(std::string_view Raw) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < Raw.size()) {
    size_t LineEnd = Raw.find("\r\n", Pos);
    if (LineEnd == std::string_view::npos)
      break;
    size_t Len = std::strtoull(
        std::string(Raw.substr(Pos, LineEnd - Pos)).c_str(), nullptr, 16);
    if (Len == 0)
      break;
    Pos = LineEnd + 2;
    if (Pos + Len > Raw.size())
      break;
    Out.append(Raw.substr(Pos, Len));
    Pos += Len + 2; // payload + trailing CRLF
  }
  return Out;
}

/// Keeps receiving and re-decoding the chunked stream until the decoded
/// payload contains \p Needle (or timeout/close).  \p Raw accumulates
/// the wire bytes across calls.
std::string readChunkedUntil(int Fd, std::string &Raw,
                             std::string_view Needle) {
  std::string Decoded = dechunk(Raw);
  char Buf[4096];
  while (Decoded.find(Needle) == std::string::npos) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Raw.append(Buf, static_cast<size_t>(N));
    Decoded = dechunk(Raw);
  }
  return Decoded;
}

/// A server with one buffered handler and one SSE endpoint fed by a
/// shared hub, on an ephemeral port.
class StreamFixture {
public:
  explicit StreamFixture(size_t MaxPendingBytes = 1 << 20)
      : Hub(std::make_shared<StreamHub>(MaxPendingBytes)) {
    Server.handle("/x", [](const Request &) {
      Response R;
      R.Body = "plain\n";
      return R;
    });
    Server.handle("/events", [this](const Request &) {
      return Response::stream("text/event-stream", Hub, ": hello\n\n");
    });
    auto Err = Server.start("127.0.0.1:0");
    EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
  }

  /// Spins until the hub sees \p N subscribers (subscription happens on
  /// the server thread after the request parses).
  bool waitSubscribers(size_t N, int Ms = 5000) {
    for (int I = 0; I != Ms; ++I) {
      if (Hub->subscribers() == N)
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Hub->subscribers() == N;
  }

  HttpServer Server;
  std::shared_ptr<StreamHub> Hub;
};

TEST(HttpStreamTest, ChunkedSseDelivery) {
  StreamFixture F;
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  setRecvTimeout(Fd, 5000);
  ASSERT_TRUE(sendAll(Fd, "GET /events HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string Raw = readUntil(Fd, "\r\n\r\n");
  EXPECT_NE(Raw.find("HTTP/1.1 200"), std::string::npos) << Raw;
  EXPECT_NE(Raw.find("Content-Type: text/event-stream"), std::string::npos);
  EXPECT_NE(Raw.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(Raw.find("Connection: close"), std::string::npos);
  EXPECT_NE(Raw.find("Cache-Control: no-cache"), std::string::npos);
  ASSERT_TRUE(F.waitSubscribers(1));

  F.Hub->publish("event: window\ndata: {\"id\":1}\n\n");
  F.Hub->publish("event: alert\ndata: {\"id\":1,\"sid\":2.5}\n\n");
  Raw.erase(0, Raw.find("\r\n\r\n") + 4);
  std::string Decoded = readChunkedUntil(Fd, Raw, "\"sid\":2.5");

  // Initial payload first, then the two frames, wire-exact and in
  // publish order.
  EXPECT_EQ(Decoded.find(": hello\n\n"), 0u) << Decoded;
  size_t W = Decoded.find("event: window\ndata: {\"id\":1}\n\n");
  size_t A = Decoded.find("event: alert\ndata: {\"id\":1,\"sid\":2.5}\n\n");
  ASSERT_NE(W, std::string::npos) << Decoded;
  ASSERT_NE(A, std::string::npos) << Decoded;
  EXPECT_LT(W, A);
  EXPECT_EQ(F.Hub->framesPublished(), 2u);
  EXPECT_EQ(F.Hub->framesDropped(), 0u);
  ::close(Fd);
}

TEST(HttpStreamTest, Http10StreamsRawBytes) {
  StreamFixture F;
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  setRecvTimeout(Fd, 5000);
  ASSERT_TRUE(sendAll(Fd, "GET /events HTTP/1.0\r\n\r\n"));
  std::string Head = readUntil(Fd, "\r\n\r\n");
  EXPECT_NE(Head.find("HTTP/1.1 200"), std::string::npos) << Head;
  EXPECT_EQ(Head.find("Transfer-Encoding"), std::string::npos) << Head;
  EXPECT_NE(Head.find("Connection: close"), std::string::npos);
  ASSERT_TRUE(F.waitSubscribers(1));
  F.Hub->publish("data: raw\n\n");
  // No chunk framing on 1.0: the frame arrives as published.
  std::string Raw = Head.substr(Head.find("\r\n\r\n") + 4);
  Raw += readUntil(Fd, "data: raw\n\n");
  EXPECT_NE(Raw.find(": hello\n\ndata: raw\n\n"), std::string::npos) << Raw;
  ::close(Fd);
}

TEST(HttpStreamTest, HeadDoesNotSubscribe) {
  StreamFixture F;
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  setRecvTimeout(Fd, 5000);
  ASSERT_TRUE(sendAll(Fd, "HEAD /events HTTP/1.1\r\n\r\n"));
  // Headers only, then the server closes; the probe never joins the
  // hub.
  std::string Out = readToEof(Fd);
  ::close(Fd);
  EXPECT_NE(Out.find("HTTP/1.1 200"), std::string::npos) << Out;
  EXPECT_NE(Out.find("Content-Type: text/event-stream"), std::string::npos);
  EXPECT_EQ(Out.find(": hello"), std::string::npos) << Out;
  EXPECT_EQ(F.Hub->subscribers(), 0u);
}

TEST(HttpStreamTest, ClientDisconnectUnsubscribes) {
  StreamFixture F;
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  setRecvTimeout(Fd, 5000);
  ASSERT_TRUE(sendAll(Fd, "GET /events HTTP/1.1\r\n\r\n"));
  readUntil(Fd, "\r\n\r\n");
  ASSERT_TRUE(F.waitSubscribers(1));
  ::close(Fd);
  // The poll loop notices the hangup and unsubscribes; keep nudging it
  // with publishes until the subscriber count drops.
  bool Gone = false;
  for (int I = 0; I != 5000 && !Gone; ++I) {
    F.Hub->publish("data: ping\n\n");
    Gone = F.Hub->subscribers() == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(Gone);
}

TEST(HttpStreamTest, KeepAliveThenStream) {
  StreamFixture F;
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  setRecvTimeout(Fd, 5000);
  // A buffered request first: the connection stays in keep-alive...
  ASSERT_TRUE(sendAll(Fd, "GET /x HTTP/1.1\r\nHost: t\r\n\r\n"));
  ClientResponse R;
  ASSERT_TRUE(readResponse(Fd, R));
  EXPECT_EQ(R.Status, 200);
  EXPECT_NE(R.Head.find("Connection: keep-alive"), std::string::npos);
  // ...then upgrades to a stream, which is the connection's last
  // request.
  ASSERT_TRUE(sendAll(Fd, "GET /events HTTP/1.1\r\n\r\n"));
  std::string Raw = readUntil(Fd, "\r\n\r\n");
  EXPECT_NE(Raw.find("Transfer-Encoding: chunked"), std::string::npos) << Raw;
  EXPECT_NE(Raw.find("Connection: close"), std::string::npos) << Raw;
  ASSERT_TRUE(F.waitSubscribers(1));
  F.Hub->publish("data: after-keepalive\n\n");
  Raw.erase(0, Raw.find("\r\n\r\n") + 4);
  std::string Decoded = readChunkedUntil(Fd, Raw, "after-keepalive");
  EXPECT_NE(Decoded.find("data: after-keepalive\n\n"), std::string::npos);
  EXPECT_EQ(F.Server.requestsServed(), 2u);
  ::close(Fd);
}

TEST(HttpStreamTest, StopTerminatesChunkedStream) {
  StreamFixture F;
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  setRecvTimeout(Fd, 5000);
  ASSERT_TRUE(sendAll(Fd, "GET /events HTTP/1.1\r\n\r\n"));
  readUntil(Fd, "\r\n\r\n");
  ASSERT_TRUE(F.waitSubscribers(1));
  F.Server.stop();
  // Graceful stop flushes pending frames and sends the terminating
  // 0-chunk so the client sees a clean end-of-stream.
  std::string Tail = readToEof(Fd);
  ::close(Fd);
  EXPECT_NE(Tail.find("0\r\n\r\n"), std::string::npos) << Tail;
}

TEST(HttpStreamTest, StopDeliversFramesPendingBehindBackedUpOutput) {
  StreamFixture F(64 * 1024);
  int Fd = connectTo(F.Server.port(), 4096);
  ASSERT_GE(Fd, 0);
  setRecvTimeout(Fd, 5000);
  ASSERT_TRUE(sendAll(Fd, "GET /events HTTP/1.1\r\n\r\n"));
  std::string Raw = readUntil(Fd, "\r\n\r\n");
  ASSERT_TRUE(F.waitSubscribers(1));
  // Stop reading and publish until the hub's pending cap binds: the
  // server's output is then backed up and frames wait in the hub.
  const std::string Frame = "data: " + std::string(500, 'z') + "\n\n";
  for (int I = 0; I != 200000 && F.Hub->framesDropped() == 0; ++I) {
    F.Hub->publish(Frame);
    if (I % 256 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(F.Hub->framesDropped(), 0u);
  uint64_t Expected = F.Hub->framesPublished() - F.Hub->framesDropped();
  // stop() blocks while the server drains, which needs this client to
  // read; give the server time to leave its loop before reading.
  std::thread Stopper([&F] { F.Server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Raw += readToEof(Fd);
  Stopper.join();
  ::close(Fd);
  std::string Payload = dechunk(Raw.substr(Raw.find("\r\n\r\n") + 4));
  uint64_t Delivered = 0;
  for (size_t Pos = Payload.find("data: "); Pos != std::string::npos;
       Pos = Payload.find("data: ", Pos + 1))
    ++Delivered;
  EXPECT_EQ(Delivered, Expected);
  EXPECT_NE(Raw.find("\r\n0\r\n\r\n"), std::string::npos);
}

TEST(HttpStreamTest, StalledSubscriberDropsNotBuffers) {
  // A tiny pending cap so a non-reading client trips backpressure
  // quickly.
  StreamFixture F(1024);
  int Fd = connectTo(F.Server.port());
  ASSERT_GE(Fd, 0);
  // Shrink the client's receive window so kernel buffering cannot
  // swallow the flood.
  int RcvBuf = 4096;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &RcvBuf, sizeof(RcvBuf));
  setRecvTimeout(Fd, 5000);
  ASSERT_TRUE(sendAll(Fd, "GET /events HTTP/1.1\r\n\r\n"));
  readUntil(Fd, "\r\n\r\n");
  ASSERT_TRUE(F.waitSubscribers(1));
  // Stop reading and publish until the hub reports drops: the pending
  // buffer must cap at MaxPendingBytes instead of growing without
  // bound.
  const std::string Frame = "data: " + std::string(500, 'z') + "\n\n";
  bool Dropped = false;
  for (int I = 0; I != 200000 && !Dropped; ++I) {
    F.Hub->publish(Frame);
    Dropped = F.Hub->framesDropped() > 0;
    if (I % 256 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(Dropped);
  ::close(Fd);
}

TEST(StatusServerTest, EndpointsServe) {
  status::StatusServer Status;
  std::atomic<bool> Ready{false};
  Status.addHealthProbe("alive", [] {
    return status::ProbeResult{true, "yes"};
  });
  Status.addReadyProbe("warmup", [&Ready] {
    bool R = Ready.load();
    return status::ProbeResult{R, R ? "warm" : "cold"};
  });
  Status.addVar("answer", [] { return std::string("42"); });
  ASSERT_FALSE(Status.start("127.0.0.1:0"));

  auto get = [&](const std::string &Path) {
    return roundTrip(Status.port(), "GET " + Path +
                                        " HTTP/1.1\r\nConnection: close"
                                        "\r\n\r\n");
  };

  EXPECT_NE(get("/healthz").find("HTTP/1.1 200"), std::string::npos);
  // Not ready yet: 503 with the probe detail.
  std::string NotReady = get("/readyz");
  EXPECT_NE(NotReady.find("HTTP/1.1 503"), std::string::npos) << NotReady;
  EXPECT_NE(NotReady.find("[-] warmup: cold"), std::string::npos) << NotReady;
  Ready.store(true);
  EXPECT_NE(get("/readyz").find("HTTP/1.1 200"), std::string::npos);

  std::string Varz = get("/varz");
  EXPECT_NE(Varz.find("\"version\""), std::string::npos);
  EXPECT_NE(Varz.find("\"answer\": 42"), std::string::npos) << Varz;

  std::string Metrics = get("/metrics");
  EXPECT_NE(Metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(Metrics.find("process_resident_memory_bytes"), std::string::npos)
      << Metrics;

  std::string Spans = get("/debug/spans");
  EXPECT_NE(Spans.find("\"traceEvents\""), std::string::npos) << Spans;

  Status.stop();
  EXPECT_FALSE(Status.running());
}

} // namespace
