//===- support/FileWatch.h - Wait for a followed file to change -*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one blocking wait of a file follower.  wait() returns as soon as
/// one of three things happens: the watched file changes, wake() is
/// called (from a signal handler, say), or the timeout runs out.
///
/// On Linux the change side is one inotify descriptor watching the
/// file's inode (IN_MODIFY, which a truncation also raises,
/// IN_MOVE_SELF, IN_DELETE_SELF) and its directory, filtered to the
/// file's basename (IN_CREATE, IN_MOVED_TO: a new file at the path).
/// It is poll(2)ed together with a self-pipe that wake() writes one
/// byte to; write(2) is async-signal-safe, so a handler running on any
/// thread ends a wait() in progress on another.
///
/// Notifications are hints, never data: a caller reads to EOF after
/// every wake, so a coalesced or spurious notification costs one idle
/// read and loses nothing, and the timeout keeps a periodic re-check
/// for changes no notification reports (a remote filesystem, say).
/// When notification is unavailable (another platform, inotify_init1 or
/// inotify_add_watch failing with EMFILE or ENOSPC, or an injected
/// fault) the watch logs one warning and every wait() is a timed wait
/// on the self-pipe alone: the follower still works, it just notices
/// changes one timeout late.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_SUPPORT_FILEWATCH_H
#define LIMA_SUPPORT_FILEWATCH_H

#include <cstdint>
#include <string>

namespace lima {

/// Why FileWatch::wait() returned.
enum class WakeCause : uint8_t {
  Notify = 0,  ///< The watched file (or the file at its path) changed.
  Timeout = 1, ///< The timeout ran out with no change reported.
  Signal = 2,  ///< wake() was called, or a signal interrupted the wait.
};

class FileWatch {
public:
  /// Creates the wake pipe.  Nothing is watched until watch().
  FileWatch();
  ~FileWatch();
  FileWatch(const FileWatch &) = delete;
  FileWatch &operator=(const FileWatch &) = delete;

  /// Watches the file now at \p Path and, for the first call, its
  /// directory.  After a rotation, calling it again with the same path
  /// moves the inode watch to the new file; call it before the first
  /// read of a file, so no append can land unseen between the read
  /// and the watch.  \p FaultSite names the fault-injection site
  /// (support/FaultInjection.h) that can make the set-up fail.  On any
  /// failure the watch falls back to timed waits for good, logging
  /// one warning, and returns false.
  bool watch(const char *FaultSite, const std::string &Path);

  /// Blocks until the watched file changes, wake() is called or
  /// \p TimeoutMs milliseconds pass.  Notifications about other files
  /// in the directory are dropped without returning.
  WakeCause wait(uint64_t TimeoutMs);

  /// Makes the wait() in progress, or else the next one, return
  /// WakeCause::Signal.  Async-signal-safe.
  void wake() const;

private:
  /// Reads every queued notification; true if one was about the file.
  bool drainNotifications();
  void fallBack(const char *Why, int Err);

  int WakePipe[2] = {-1, -1};
  int Inotify = -1;
  int FileWd = -1;
  int DirWd = -1;
  std::string Basename;
  bool FellBack = false;
};

} // namespace lima

#endif // LIMA_SUPPORT_FILEWATCH_H
