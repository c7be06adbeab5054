//===- support/FileWatch.cpp - Wait for a followed file to change ---------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/FileWatch.h"
#include "support/FaultInjection.h"
#include "support/Log.h"
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <string_view>
#include <thread>
#include <unistd.h>
#ifdef __linux__
#include <sys/inotify.h>
#endif

using namespace lima;

namespace {

/// Reads a nonblocking descriptor until it is empty.
void drainPipe(int Fd) {
  char Buf[64];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0 && !(N < 0 && errno == EINTR))
      return;
  }
}

} // namespace

FileWatch::FileWatch() {
  // Without the pipe, wake() is a no-op; a signal still ends a wait()
  // running on the thread it is delivered to (poll fails with EINTR).
  if (::pipe2(WakePipe, O_NONBLOCK | O_CLOEXEC) != 0)
    WakePipe[0] = WakePipe[1] = -1;
}

FileWatch::~FileWatch() {
  for (int Fd : {WakePipe[0], WakePipe[1], Inotify})
    if (Fd >= 0)
      ::close(Fd);
}

void FileWatch::fallBack(const char *Why, int Err) {
  if (Inotify >= 0)
    ::close(Inotify);
  Inotify = FileWd = DirWd = -1;
  FellBack = true;
  logging::warn("file change notification unavailable, re-checking on "
                "the interval",
                {logging::field("during", Why),
                 logging::field("error", std::strerror(Err))});
}

bool FileWatch::watch(const char *FaultSite, const std::string &Path) {
  if (FellBack)
    return false;
  if (fault::Fault F = fault::check(FaultSite)) {
    fallBack(FaultSite, F.errnoValue() ? F.errnoValue() : EIO);
    return false;
  }
#ifdef __linux__
  if (Inotify < 0) {
    Inotify = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (Inotify < 0) {
      fallBack("inotify_init1", errno);
      return false;
    }
    size_t Slash = Path.rfind('/');
    std::string Dir = Slash == std::string::npos ? "."
                      : Slash == 0               ? "/"
                                                 : Path.substr(0, Slash);
    Basename = Path.substr(Slash + 1);
    DirWd = ::inotify_add_watch(Inotify, Dir.c_str(),
                                IN_CREATE | IN_MOVED_TO | IN_ONLYDIR);
    if (DirWd < 0) {
      fallBack("inotify_add_watch", errno);
      return false;
    }
  }
  int Wd = ::inotify_add_watch(Inotify, Path.c_str(),
                               IN_MODIFY | IN_MOVE_SELF | IN_DELETE_SELF);
  if (Wd < 0) {
    fallBack("inotify_add_watch", errno);
    return false;
  }
  // A rotated-away file may still be written to; its changes are no
  // longer ours to wake for.
  if (FileWd >= 0 && FileWd != Wd)
    ::inotify_rm_watch(Inotify, FileWd);
  FileWd = Wd;
  return true;
#else
  (void)Path;
  fallBack("no change notification on this platform", ENOSYS);
  return false;
#endif
}

bool FileWatch::drainNotifications() {
  bool Changed = false;
#ifdef __linux__
  alignas(struct inotify_event) char Buf[4096];
  for (;;) {
    ssize_t N = ::read(Inotify, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return Changed; // EAGAIN: the queue is empty.
    for (size_t Off = 0; Off + sizeof(struct inotify_event) <= size_t(N);) {
      struct inotify_event E;
      std::memcpy(&E, Buf + Off, sizeof(E));
      const char *Name = Buf + Off + sizeof(E); // NUL-padded to E.len.
      Off += sizeof(E) + E.len;
      // An overflowed queue lost events: assume the file was among them.
      if ((E.mask & IN_Q_OVERFLOW) || E.wd == FileWd ||
          (E.wd == DirWd && E.len != 0 &&
           std::string_view(Name, ::strnlen(Name, E.len)) == Basename))
        Changed = true;
    }
  }
#endif
  return Changed;
}

WakeCause FileWatch::wait(uint64_t TimeoutMs) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);
  uint64_t LeftMs = TimeoutMs;
  for (;;) {
    struct pollfd Fds[2];
    nfds_t N = 0;
    if (WakePipe[0] >= 0)
      Fds[N++] = {WakePipe[0], POLLIN, 0};
    if (Inotify >= 0)
      Fds[N++] = {Inotify, POLLIN, 0};
    int R =
        ::poll(Fds, N, static_cast<int>(std::min<uint64_t>(LeftMs, INT_MAX)));
    if (R < 0 && errno == EINTR) {
      // The handler may also have written the pipe; one wake is enough.
      if (WakePipe[0] >= 0)
        drainPipe(WakePipe[0]);
      return WakeCause::Signal;
    }
    if (R < 0) {
      // poll itself failed (ENOMEM): still wait, or callers would spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(LeftMs));
      return WakeCause::Timeout;
    }
    if (R == 0)
      return WakeCause::Timeout;
    if (WakePipe[0] >= 0 && Fds[0].revents != 0) {
      drainPipe(WakePipe[0]);
      return WakeCause::Signal;
    }
    if (drainNotifications())
      return WakeCause::Notify;
    // Only other files in the directory changed: wait out the rest.
    Clock::time_point Now = Clock::now();
    if (Now >= Deadline)
      return WakeCause::Timeout;
    LeftMs = static_cast<uint64_t>(
        std::chrono::ceil<std::chrono::milliseconds>(Deadline - Now).count());
  }
}

void FileWatch::wake() const {
  if (WakePipe[1] < 0)
    return;
  int Saved = errno;
  // A full pipe already holds a pending wake; nothing is lost.
  if (::write(WakePipe[1], "", 1) < 0) {
  }
  errno = Saved;
}
