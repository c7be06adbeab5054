//===- support/HttpServer.cpp - Embedded HTTP/1.1 status server -----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/HttpServer.h"
#include "support/Metrics.h"
#include "support/MetricsExport.h"
#include "support/Retry.h"
#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace lima;
using namespace lima::http;

//===----------------------------------------------------------------------===//
// Small pieces
//===----------------------------------------------------------------------===//

std::string_view http::statusReason(int Status) {
  switch (Status) {
  case 200:
    return "OK";
  case 204:
    return "No Content";
  case 400:
    return "Bad Request";
  case 404:
    return "Not Found";
  case 405:
    return "Method Not Allowed";
  case 413:
    return "Content Too Large";
  case 414:
    return "URI Too Long";
  case 431:
    return "Request Header Fields Too Large";
  case 500:
    return "Internal Server Error";
  case 503:
    return "Service Unavailable";
  case 505:
    return "HTTP Version Not Supported";
  default:
    return Status >= 200 && Status < 300 ? "OK" : "Error";
  }
}

static bool equalsIgnoreCase(std::string_view A, std::string_view B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (std::tolower(static_cast<unsigned char>(A[I])) !=
        std::tolower(static_cast<unsigned char>(B[I])))
      return false;
  return true;
}

const std::string *Request::header(std::string_view Name) const {
  for (const auto &[Key, Value] : Headers)
    if (equalsIgnoreCase(Key, Name))
      return &Value;
  return nullptr;
}

std::string Request::queryParam(std::string_view Name) const {
  std::string_view Rest = Query;
  while (!Rest.empty()) {
    size_t Amp = Rest.find('&');
    std::string_view Pair =
        Amp == std::string_view::npos ? Rest : Rest.substr(0, Amp);
    size_t Eq = Pair.find('=');
    if (Eq != std::string_view::npos && Pair.substr(0, Eq) == Name)
      return std::string(Pair.substr(Eq + 1));
    if (Eq == std::string_view::npos && Pair == Name)
      return std::string(); // bare "?flag" — present but valueless
    if (Amp == std::string_view::npos)
      break;
    Rest.remove_prefix(Amp + 1);
  }
  return std::string();
}

//===----------------------------------------------------------------------===//
// StreamHub
//===----------------------------------------------------------------------===//

StreamHub::StreamHub(size_t MaxPendingBytes)
    : MaxPendingBytes(MaxPendingBytes) {}

void StreamHub::publish(std::string_view Frame) {
  Published.fetch_add(1, std::memory_order_relaxed);
  // Collect the wakers under the lock, run them outside it: a waker is
  // a pipe write, but holding Mu across foreign code invites deadlock.
  std::vector<std::function<void()>> Wakers;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (Subscriber &S : Subs) {
      if (S.Pending.size() + Frame.size() > MaxPendingBytes) {
        Dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      S.Pending.append(Frame);
      if (S.Waker)
        Wakers.push_back(S.Waker);
    }
  }
  for (const auto &Wake : Wakers)
    Wake();
}

uint64_t StreamHub::subscribe(std::function<void()> Waker) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Id = NextId++;
  Subs.push_back(Subscriber{Id, std::string(), std::move(Waker)});
  NumSubs.store(Subs.size(), std::memory_order_relaxed);
  return Id;
}

bool StreamHub::drain(uint64_t Id, std::string &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (Subscriber &S : Subs)
    if (S.Id == Id) {
      Out = std::move(S.Pending);
      S.Pending.clear();
      return true;
    }
  return false;
}

void StreamHub::unsubscribe(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (size_t I = 0; I != Subs.size(); ++I)
    if (Subs[I].Id == Id) {
      Subs.erase(Subs.begin() + static_cast<ptrdiff_t>(I));
      break;
    }
  NumSubs.store(Subs.size(), std::memory_order_relaxed);
}

Expected<std::pair<std::string, uint16_t>>
http::parseAddress(const std::string &Address) {
  if (Address.empty())
    return makeStringError("empty listen address");
  std::string Host = "127.0.0.1";
  std::string PortStr = Address;
  size_t Colon = Address.rfind(':');
  if (Colon != std::string::npos) {
    if (Colon != 0)
      Host = Address.substr(0, Colon);
    PortStr = Address.substr(Colon + 1);
  }
  if (Host == "localhost")
    Host = "127.0.0.1";
  in_addr Parsed;
  if (inet_pton(AF_INET, Host.c_str(), &Parsed) != 1)
    return makeStringError("bad listen host '%s' (numeric IPv4 only)",
                           Host.c_str());
  if (PortStr.empty() ||
      PortStr.find_first_not_of("0123456789") != std::string::npos)
    return makeStringError("bad listen port '%s'", PortStr.c_str());
  unsigned long Port = std::strtoul(PortStr.c_str(), nullptr, 10);
  if (Port > 65535)
    return makeStringError("listen port %lu out of range", Port);
  return std::make_pair(Host, static_cast<uint16_t>(Port));
}

namespace {

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// A parse attempt over one connection's input buffer.
enum class HeadState { NeedMore, Ready, Fail };

} // namespace

//===----------------------------------------------------------------------===//
// Impl
//===----------------------------------------------------------------------===//

struct HttpServer::Impl {
  ServerLimits Limits;
  std::vector<std::pair<std::string, Handler>> Handlers;
  std::vector<std::pair<std::string, Handler>> PrefixHandlers;

  std::thread Thread;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopFlag{false};
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint16_t> BoundPort{0};
  std::string Host;

  int ListenFd = -1;
  int WakeRead = -1;
  int WakeWrite = -1;

  struct Conn {
    int Fd = -1;
    std::string In;
    std::string Out;
    size_t OutOff = 0;
    uint64_t Served = 0;
    uint64_t LastActiveMs = 0;
    bool CloseAfterWrite = false;
    /// Non-null once a streaming response was dispatched: the
    /// connection is dedicated to pushing this hub's frames.
    std::shared_ptr<StreamHub> Hub;
    uint64_t SubId = 0;
    bool Chunked = false;
  };
  std::vector<Conn> Conns;

  ~Impl() { closeFds(); }

  void closeFds() {
    for (Conn &C : Conns) {
      if (C.Hub)
        C.Hub->unsubscribe(C.SubId);
      if (C.Fd >= 0)
        ::close(C.Fd);
    }
    Conns.clear();
    for (int *Fd : {&ListenFd, &WakeRead, &WakeWrite})
      if (*Fd >= 0) {
        ::close(*Fd);
        *Fd = -1;
      }
  }

  /// The handler for \p Path plus the mount string it matched (the
  /// bounded-cardinality path label for self-metrics).  Exact mounts
  /// win; among prefixes the longest match wins.
  std::pair<const Handler *, std::string_view>
  findHandler(const std::string &Path) const {
    for (const auto &[Mount, H] : Handlers)
      if (Mount == Path)
        return {&H, Mount};
    const Handler *Best = nullptr;
    std::string_view BestMount;
    for (const auto &[Prefix, H] : PrefixHandlers)
      if (Path.compare(0, Prefix.size(), Prefix) == 0 &&
          (!Best || Prefix.size() > BestMount.size())) {
        Best = &H;
        BestMount = Prefix;
      }
    return {Best, BestMount};
  }

  /// Self-metrics: one labeled count per answered request.  The path
  /// label is always a mount string or a fixed sentinel, never the raw
  /// request target, so cardinality stays bounded under hostile load.
  static void recordRequest(std::string_view PathLabel, int Status) {
#if LIMA_TELEMETRY
    LIMA_METRIC_COUNT_DYN("lima.http.requests_total{path=\"" +
                              metrics::escapeLabelValue(PathLabel) +
                              "\",status=\"" + std::to_string(Status) + "\"}",
                          1);
#else
    (void)PathLabel;
    (void)Status;
#endif
  }

  /// Serializes \p R onto the connection's output buffer.  \p Head
  /// suppresses the body bytes (HEAD), \p KeepAlive picks the
  /// Connection header.
  void enqueue(Conn &C, const Response &R, bool Head, bool KeepAlive) {
    std::string &Out = C.Out;
    Out += "HTTP/1.1 ";
    Out += std::to_string(R.Status);
    Out += ' ';
    Out += statusReason(R.Status);
    Out += "\r\nServer: lima\r\nContent-Type: ";
    Out += R.ContentType;
    Out += "\r\nContent-Length: ";
    Out += std::to_string(R.Body.size());
    if (R.Status == 405)
      Out += "\r\nAllow: GET, HEAD";
    Out += KeepAlive ? "\r\nConnection: keep-alive"
                     : "\r\nConnection: close";
    Out += "\r\n\r\n";
    if (!Head)
      Out += R.Body;
    if (!KeepAlive)
      C.CloseAfterWrite = true;
    Requests.fetch_add(1, std::memory_order_relaxed);
  }

  /// 4xx/5xx shortcut: always closes the connection afterwards (the
  /// input buffer may be unframed garbage, so resync is impossible).
  void enqueueError(Conn &C, int Status, std::string_view Detail) {
    Response R = Response::text(Status, std::string(statusReason(Status)) +
                                            (Detail.empty() ? "" : ": ") +
                                            std::string(Detail) + "\n");
    enqueue(C, R, /*Head=*/false, /*KeepAlive=*/false);
    recordRequest("<bad-request>", Status);
  }

  /// Appends \p Data as stream payload: chunk-framed on HTTP/1.1,
  /// raw bytes on an HTTP/1.0 close-delimited stream.
  static void appendStreamPayload(Conn &C, std::string_view Data) {
    if (Data.empty())
      return;
    if (C.Chunked) {
      char Hex[2 * sizeof(size_t) + 1];
      std::snprintf(Hex, sizeof(Hex), "%zx", Data.size());
      C.Out += Hex;
      C.Out += "\r\n";
      C.Out.append(Data);
      C.Out += "\r\n";
    } else {
      C.Out.append(Data);
    }
  }

  /// Serializes a streaming response's head and subscribes the
  /// connection to the hub.  The stream is the connection's last
  /// request: Connection: close, and keep-alive never resumes.
  void enqueueStream(Conn &C, const Response &R, bool Head, bool Http11) {
    std::string &Out = C.Out;
    Out += "HTTP/1.1 ";
    Out += std::to_string(R.Status);
    Out += ' ';
    Out += statusReason(R.Status);
    Out += "\r\nServer: lima\r\nContent-Type: ";
    Out += R.ContentType;
    Out += "\r\nCache-Control: no-cache";
    if (Http11 && !Head)
      Out += "\r\nTransfer-Encoding: chunked";
    Out += "\r\nConnection: close\r\n\r\n";
    Requests.fetch_add(1, std::memory_order_relaxed);
    if (Head) {
      // HEAD probes the endpoint without tying up a stream slot.
      C.CloseAfterWrite = true;
      return;
    }
    C.Chunked = Http11;
    C.Hub = R.Stream;
    int WakeFd = WakeWrite;
    C.SubId = C.Hub->subscribe([WakeFd] {
      // An EINTR here would eat the wakeup and stall the stream until
      // the next poll timeout; a full pipe (EAGAIN) already means a
      // wakeup is pending, so that loss is fine.
      char Byte = 's';
      (void)!retry::retryEintr(
          [&] { return ::write(WakeFd, &Byte, 1); });
    });
    appendStreamPayload(C, R.Body);
  }

  /// Moves any frames the hub has pending for this connection onto its
  /// output buffer.  Runs every poll tick (a publish wakes the loop).
  void pumpStream(Conn &C) {
    if (!C.Hub)
      return;
    // Don't pull new frames while earlier output is still unflushed:
    // leaving them in the hub's per-subscriber buffer is what makes
    // the MaxPendingBytes cap actually bind for a stalled client —
    // draining eagerly would just relocate the backlog into C.Out,
    // which has no bound of its own.
    if (C.OutOff < C.Out.size())
      return;
    takeFrames(C);
  }

  /// Moves every frame the hub holds for this streaming connection onto
  /// its output buffer, flushed or not.
  void takeFrames(Conn &C) {
    std::string Frames;
    if (C.Hub->drain(C.SubId, Frames) && !Frames.empty())
      appendStreamPayload(C, Frames);
  }

  /// Tries to cut one complete request head off C.In.  Returns NeedMore
  /// when the terminator has not arrived (after enforcing the buffering
  /// limits), Fail when an error response was enqueued, Ready with the
  /// parsed request and the number of consumed bytes otherwise.
  HeadState cutRequest(Conn &C, Request &Req, size_t &Consumed) {
    const std::string &In = C.In;
    size_t HeadEnd = In.find("\r\n\r\n");
    size_t HeadLen;
    size_t TermLen;
    if (HeadEnd != std::string::npos) {
      HeadLen = HeadEnd;
      TermLen = 4;
    } else if ((HeadEnd = In.find("\n\n")) != std::string::npos) {
      HeadLen = HeadEnd;
      TermLen = 2;
    } else {
      // Not terminated yet — bound what we are willing to buffer.
      size_t FirstNl = In.find('\n');
      if (FirstNl == std::string::npos &&
          In.size() > Limits.MaxRequestLineBytes) {
        enqueueError(C, 414, "request line too long");
        return HeadState::Fail;
      }
      if (In.size() > Limits.MaxRequestLineBytes + Limits.MaxHeaderBytes) {
        enqueueError(C, 431, "request head too large");
        return HeadState::Fail;
      }
      return HeadState::NeedMore;
    }
    Consumed = HeadLen + TermLen;

    // Split the head into lines (tolerating both CRLF and bare LF).
    std::string_view Head(In.data(), HeadLen);
    std::vector<std::string_view> Lines;
    while (!Head.empty()) {
      size_t Nl = Head.find('\n');
      std::string_view Line =
          Nl == std::string_view::npos ? Head : Head.substr(0, Nl);
      if (!Line.empty() && Line.back() == '\r')
        Line.remove_suffix(1);
      Lines.push_back(Line);
      if (Nl == std::string_view::npos)
        break;
      Head.remove_prefix(Nl + 1);
    }
    if (Lines.empty() || Lines[0].empty()) {
      enqueueError(C, 400, "empty request line");
      return HeadState::Fail;
    }
    if (Lines[0].size() > Limits.MaxRequestLineBytes) {
      enqueueError(C, 414, "request line too long");
      return HeadState::Fail;
    }

    // Request line: METHOD SP TARGET SP VERSION, single spaces.
    std::string_view Line = Lines[0];
    size_t Sp1 = Line.find(' ');
    size_t Sp2 = Sp1 == std::string_view::npos
                     ? std::string_view::npos
                     : Line.find(' ', Sp1 + 1);
    if (Sp1 == std::string_view::npos || Sp2 == std::string_view::npos ||
        Line.find(' ', Sp2 + 1) != std::string_view::npos || Sp1 == 0 ||
        Sp2 == Sp1 + 1 || Sp2 + 1 == Line.size()) {
      enqueueError(C, 400, "malformed request line");
      return HeadState::Fail;
    }
    Req.Method = std::string(Line.substr(0, Sp1));
    std::string_view Target = Line.substr(Sp1 + 1, Sp2 - Sp1 - 1);
    Req.Version = std::string(Line.substr(Sp2 + 1));
    size_t Question = Target.find('?');
    Req.Path = std::string(Target.substr(0, Question));
    Req.Query = Question == std::string_view::npos
                    ? std::string()
                    : std::string(Target.substr(Question + 1));
    if (Req.Version != "HTTP/1.1" && Req.Version != "HTTP/1.0") {
      enqueueError(C, 505, "only HTTP/1.0 and HTTP/1.1");
      return HeadState::Fail;
    }

    // Headers.
    size_t HeaderBytes = 0;
    for (size_t L = 1; L != Lines.size(); ++L) {
      std::string_view H = Lines[L];
      if (H.empty())
        continue;
      HeaderBytes += H.size();
      if (Lines.size() - 1 > Limits.MaxHeaderCount ||
          HeaderBytes > Limits.MaxHeaderBytes) {
        enqueueError(C, 431, "too many header bytes");
        return HeadState::Fail;
      }
      size_t ColonPos = H.find(':');
      if (ColonPos == std::string_view::npos || ColonPos == 0) {
        enqueueError(C, 400, "malformed header line");
        return HeadState::Fail;
      }
      std::string_view Value = H.substr(ColonPos + 1);
      while (!Value.empty() && (Value.front() == ' ' || Value.front() == '\t'))
        Value.remove_prefix(1);
      while (!Value.empty() && (Value.back() == ' ' || Value.back() == '\t'))
        Value.remove_suffix(1);
      Req.Headers.emplace_back(std::string(H.substr(0, ColonPos)),
                               std::string(Value));
    }
    return HeadState::Ready;
  }

  /// Parses and answers every complete request buffered on \p C.
  /// Returns false when the connection must close once Out drains.
  bool processInput(Conn &C) {
    // A streaming connection accepts no further requests; whatever the
    // client still sends is discarded (SSE clients send nothing).
    if (C.Hub) {
      C.In.clear();
      return true;
    }
    for (;;) {
      Request Req;
      size_t Consumed = 0;
      HeadState State = cutRequest(C, Req, Consumed);
      if (State == HeadState::NeedMore)
        return true;
      if (State == HeadState::Fail)
        return false;
      C.In.erase(0, Consumed);

      // A status surface accepts no request bodies; without parsing one
      // we also could not re-frame the connection, so reject and close.
      const std::string *Len = Req.header("Content-Length");
      if ((Len && *Len != "0") || Req.header("Transfer-Encoding")) {
        enqueueError(C, 400, "request body not supported");
        return false;
      }

      ++C.Served;
      bool KeepAlive;
      const std::string *Connection = Req.header("Connection");
      if (Req.Version == "HTTP/1.1")
        KeepAlive = !Connection || !equalsIgnoreCase(*Connection, "close");
      else
        KeepAlive = Connection && equalsIgnoreCase(*Connection, "keep-alive");
      if (C.Served >= Limits.MaxRequestsPerConnection)
        KeepAlive = false;

      bool Head = Req.Method == "HEAD";
      if (Req.Method != "GET" && !Head) {
        enqueueError(C, 405, "only GET and HEAD");
        return false;
      }
      auto [H, Mount] = findHandler(Req.Path);
      if (!H) {
        enqueue(C, Response::text(404, "not found: " + Req.Path + "\n"),
                Head, KeepAlive);
        recordRequest("<unmatched>", 404);
        if (!KeepAlive)
          return false;
        continue;
      }
      [[maybe_unused]] auto Begin = std::chrono::steady_clock::now();
      Response R = (*H)(Req);
      LIMA_METRIC_OBSERVE(
          "lima.http.request_duration_seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Begin)
              .count(),
          metrics::Histogram::exponentialBounds(1e-5, 10.0, 8));
      recordRequest(Mount, R.Status);
      if (R.Stream) {
        enqueueStream(C, R, Head, Req.Version == "HTTP/1.1");
        if (Head)
          return false;
        // The stream owns the connection from here; drop any pipelined
        // bytes the client optimistically sent.
        C.In.clear();
        return true;
      }
      enqueue(C, R, Head, KeepAlive);
      if (!KeepAlive)
        return false;
    }
  }

  /// Writes as much pending output as the socket accepts.  Returns
  /// false when the connection died.
  bool flushOut(Conn &C) {
    while (C.OutOff < C.Out.size()) {
      ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff,
                         C.Out.size() - C.OutOff, MSG_NOSIGNAL);
      if (N > 0) {
        C.OutOff += static_cast<size_t>(N);
        C.LastActiveMs = nowMs();
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return true;
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    if (C.OutOff == C.Out.size() && !C.Out.empty()) {
      C.Out.clear();
      C.OutOff = 0;
    }
    return !C.CloseAfterWrite || !C.Out.empty();
  }

  void acceptPending() {
    for (;;) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        return;
      setNonBlocking(Fd);
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      if (Conns.size() >= Limits.MaxConnections) {
        // Over the cap: answer 503 best-effort and drop the socket.
        static const char Busy[] =
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n"
            "Connection: close\r\n\r\n";
        (void)::send(Fd, Busy, sizeof(Busy) - 1, MSG_NOSIGNAL);
        ::close(Fd);
        recordRequest("<over-capacity>", 503);
        continue;
      }
      Conn C;
      C.Fd = Fd;
      C.LastActiveMs = nowMs();
      Conns.push_back(std::move(C));
    }
  }

  void dropConn(size_t Index) {
    Conn &C = Conns[Index];
    if (C.Hub)
      C.Hub->unsubscribe(C.SubId);
    ::close(C.Fd);
    Conns.erase(Conns.begin() + static_cast<ptrdiff_t>(Index));
  }

  void loop() {
    std::vector<pollfd> Fds;
    char Buf[16 * 1024];
    while (!StopFlag.load(std::memory_order_acquire)) {
      Fds.clear();
      Fds.push_back({WakeRead, POLLIN, 0});
      Fds.push_back({ListenFd, POLLIN, 0});
      for (const Conn &C : Conns) {
        short Events = POLLIN;
        if (C.OutOff < C.Out.size())
          Events |= POLLOUT;
        Fds.push_back({C.Fd, Events, 0});
      }
      // acceptPending() below may grow Conns; only the first Polled
      // connections have a pollfd this tick (newcomers wait one tick).
      size_t Polled = Conns.size();
      int Ready = ::poll(Fds.data(), Fds.size(), 250);
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      if (Fds[0].revents & POLLIN)
        while (retry::retryEintr(
                   [&] { return ::read(WakeRead, Buf, sizeof(Buf)); }) > 0) {
        }
      if (Fds[1].revents & POLLIN)
        acceptPending();

      uint64_t Now = nowMs();
      for (size_t I = Polled; I-- != 0;) {
        Conn &C = Conns[I];
        short Revents = Fds[2 + I].revents;
        bool Alive = true;
        if (Revents & (POLLERR | POLLNVAL)) {
          Alive = false;
        } else if (Revents & POLLIN) {
          ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
          if (N > 0) {
            C.In.append(Buf, static_cast<size_t>(N));
            C.LastActiveMs = Now;
            if (!processInput(C))
              C.CloseAfterWrite = true;
          } else if (N == 0 ||
                     (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                      errno != EINTR)) {
            Alive = false;
          }
        } else if ((Revents & POLLHUP) && C.Out.empty()) {
          Alive = false;
        }
        if (Alive) {
          pumpStream(C);
          Alive = flushOut(C);
        }
        // LastActiveMs may be a hair newer than Now (flushOut stamps a
        // fresh clock); guard the subtraction or it wraps negative.
        // Streaming connections are exempt: a healthy SSE stream is
        // silent between windows, possibly for minutes.
        if (Alive && !C.Hub && Limits.IdleTimeoutMs != 0 &&
            Now > C.LastActiveMs && Now - C.LastActiveMs > Limits.IdleTimeoutMs)
          Alive = false;
        if (!Alive)
          dropConn(I);
      }
      // Newly accepted connections missed the per-conn pass above, and
      // frames published since the poll woke may target any subscriber:
      // pump every streaming connection so no frame waits a full tick.
      for (size_t I = Conns.size(); I-- != 0;) {
        Conn &C = Conns[I];
        if (!C.Hub || C.OutOff < C.Out.size())
          continue;
        pumpStream(C);
        if (!C.Out.empty() && !flushOut(C))
          dropConn(I);
      }
    }

    // Graceful drain: stop listening, give in-flight responses a short
    // window to flush, then tear down.  Streams end here: every frame
    // the hub still holds for them goes out ahead of the chunked
    // terminator (pumpStream would leave them behind while earlier
    // output is unflushed, and unsubscribing discards them), so an
    // HTTP/1.1 client sees each published frame and then a clean
    // end-of-stream.  The drain deadline bounds a stalled client.
    ::close(ListenFd);
    ListenFd = -1;
    for (Conn &C : Conns) {
      if (!C.Hub)
        continue;
      takeFrames(C);
      if (C.Chunked)
        C.Out += "0\r\n\r\n";
      C.Hub->unsubscribe(C.SubId);
      C.Hub.reset();
      C.CloseAfterWrite = true;
    }
    uint64_t Deadline = nowMs() + 500;
    while (nowMs() < Deadline) {
      bool Pending = false;
      for (size_t I = Conns.size(); I-- != 0;) {
        Conn &C = Conns[I];
        if (C.OutOff >= C.Out.size()) {
          dropConn(I);
          continue;
        }
        if (!flushOut(C))
          dropConn(I);
        else
          Pending = true;
      }
      if (!Pending)
        break;
      pollfd Pfd{Conns.empty() ? -1 : Conns[0].Fd, POLLOUT, 0};
      ::poll(&Pfd, 1, 20);
    }
  }
};

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

HttpServer::HttpServer() : I(std::make_unique<Impl>()) {}
HttpServer::HttpServer(ServerLimits Limits) : HttpServer() {
  I->Limits = Limits;
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string Path, Handler H) {
  assert(!running() && "handlers must be mounted before start()");
  I->Handlers.emplace_back(std::move(Path), std::move(H));
}

void HttpServer::handlePrefix(std::string Prefix, Handler H) {
  assert(!running() && "handlers must be mounted before start()");
  I->PrefixHandlers.emplace_back(std::move(Prefix), std::move(H));
}

Error HttpServer::start(const std::string &Address) {
  if (running())
    return makeStringError("http server already running");
  auto HostPort = parseAddress(Address);
  if (!HostPort)
    return HostPort.takeError();
  const auto &[Host, Port] = *HostPort;

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeStringError("socket: %s", std::strerror(errno));
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    int Saved = errno;
    ::close(Fd);
    return makeStringError("cannot bind %s: %s", Address.c_str(),
                           std::strerror(Saved));
  }
  if (::listen(Fd, 64) != 0) {
    int Saved = errno;
    ::close(Fd);
    return makeStringError("listen: %s", std::strerror(Saved));
  }
  socklen_t AddrLen = sizeof(Addr);
  ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen);
  setNonBlocking(Fd);

  int Wake[2];
  if (::pipe(Wake) != 0) {
    int Saved = errno;
    ::close(Fd);
    return makeStringError("pipe: %s", std::strerror(Saved));
  }
  setNonBlocking(Wake[0]);
  setNonBlocking(Wake[1]);

  I->ListenFd = Fd;
  I->WakeRead = Wake[0];
  I->WakeWrite = Wake[1];
  I->Host = Host;
  I->BoundPort.store(ntohs(Addr.sin_port), std::memory_order_release);
  I->StopFlag.store(false, std::memory_order_release);
  I->Thread = std::thread([Impl = I.get()] { Impl->loop(); });
  I->Running.store(true, std::memory_order_release);
  return Error::success();
}

void HttpServer::stop() {
  if (!I || !I->Running.exchange(false, std::memory_order_acq_rel))
    return;
  I->StopFlag.store(true, std::memory_order_release);
  char Byte = 'x';
  (void)!retry::retryEintr(
      [&] { return ::write(I->WakeWrite, &Byte, 1); });
  if (I->Thread.joinable())
    I->Thread.join();
  I->closeFds();
}

bool HttpServer::running() const {
  return I->Running.load(std::memory_order_acquire);
}

uint16_t HttpServer::port() const {
  return I->BoundPort.load(std::memory_order_acquire);
}

std::string HttpServer::address() const {
  return I->Host + ":" + std::to_string(port());
}

uint64_t HttpServer::requestsServed() const {
  return I->Requests.load(std::memory_order_relaxed);
}
