//===- tests/FileWatchTest.cpp - follower wake-up tests -------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// FileWatch::wait() must return promptly on each change a file follower
// cares about (append, rename-over, truncation), on wake() from another
// thread or a signal handler, and otherwise only when its timeout runs
// out; with notification set-up failing (injected monitor.watch fault)
// it must still time out and still honour wake().
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/FileWatch.h"
#include "TestHelpers.h"
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <unistd.h>

using namespace lima;
using lima::testutil::failed;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// A private directory holding the followed file "trace.txt".
class FileWatchTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::string Templ = ::testing::TempDir() + "/lima_watch_XXXXXX";
    ASSERT_NE(::mkdtemp(Templ.data()), nullptr);
    Dir = Templ;
    Path = Dir + "/trace.txt";
    append(Path, "LIMATRACE 1\n");
  }
  void TearDown() override {
    fault::reset();
    std::filesystem::remove_all(Dir);
  }

  static void append(const std::string &File, const std::string &Bytes) {
    int Fd = ::open(File.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(::write(Fd, Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    ::close(Fd);
  }

  std::string Dir;
  std::string Path;
};

/// A wait long enough that returning before it means a real wake-up.
constexpr uint64_t LongMs = 10000;

TEST_F(FileWatchTest, TimesOutWithoutChange) {
  FileWatch W;
  ASSERT_TRUE(W.watch("test.watch", Path));
  auto T0 = Clock::now();
  EXPECT_EQ(W.wait(60), WakeCause::Timeout);
  EXPECT_GE(msSince(T0), 55.0);
}

TEST_F(FileWatchTest, WakesOnAppendFromAnotherThread) {
  FileWatch W;
  ASSERT_TRUE(W.watch("test.watch", Path));
  std::thread Writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    append(Path, "procs 1\n");
  });
  auto T0 = Clock::now();
  EXPECT_EQ(W.wait(LongMs), WakeCause::Notify);
  EXPECT_LT(msSince(T0), LongMs / 2.0);
  Writer.join();
}

TEST_F(FileWatchTest, CoalescedAppendsWakeOnce) {
  FileWatch W;
  ASSERT_TRUE(W.watch("test.watch", Path));
  for (int I = 0; I != 5; ++I)
    append(Path, "procs 1\n");
  EXPECT_EQ(W.wait(LongMs), WakeCause::Notify);
  // The queue was drained by that wake.
  EXPECT_EQ(W.wait(30), WakeCause::Timeout);
}

TEST_F(FileWatchTest, WakesOnRenameOverAndFollowsNewInode) {
  FileWatch W;
  ASSERT_TRUE(W.watch("test.watch", Path));
  std::string Old = Dir + "/trace.txt.1";
  std::string Next = Dir + "/trace.txt.next";
  append(Next, "LIMATRACE 1\n");
  // Rotation: the old file moves aside, a new one is renamed into place.
  ASSERT_EQ(::rename(Path.c_str(), Old.c_str()), 0);
  ASSERT_EQ(::rename(Next.c_str(), Path.c_str()), 0);
  EXPECT_EQ(W.wait(LongMs), WakeCause::Notify);
  while (W.wait(30) != WakeCause::Timeout) {
  }

  ASSERT_TRUE(W.watch("test.watch", Path));
  // The retired file is no longer watched; the new one is.
  append(Old, "procs 1\n");
  EXPECT_EQ(W.wait(60), WakeCause::Timeout);
  append(Path, "procs 1\n");
  EXPECT_EQ(W.wait(LongMs), WakeCause::Notify);
}

TEST_F(FileWatchTest, WakesOnTruncate) {
  FileWatch W;
  ASSERT_TRUE(W.watch("test.watch", Path));
  ASSERT_EQ(::truncate(Path.c_str(), 0), 0);
  EXPECT_EQ(W.wait(LongMs), WakeCause::Notify);
}

TEST_F(FileWatchTest, IgnoresOtherFilesInTheDirectory) {
  FileWatch W;
  ASSERT_TRUE(W.watch("test.watch", Path));
  append(Dir + "/other.txt", "x\n");
  auto T0 = Clock::now();
  EXPECT_EQ(W.wait(80), WakeCause::Timeout);
  EXPECT_GE(msSince(T0), 75.0);
}

TEST_F(FileWatchTest, WakeFromAnotherThread) {
  FileWatch W;
  ASSERT_TRUE(W.watch("test.watch", Path));
  std::thread Waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    W.wake();
  });
  auto T0 = Clock::now();
  EXPECT_EQ(W.wait(LongMs), WakeCause::Signal);
  EXPECT_LT(msSince(T0), LongMs / 2.0);
  Waker.join();
  // A wake posted before the wait is not lost either.
  W.wake();
  EXPECT_EQ(W.wait(LongMs), WakeCause::Signal);
  EXPECT_EQ(W.wait(30), WakeCause::Timeout);
}

std::atomic<const FileWatch *> SignalTarget{nullptr};
void onTestSignal(int) {
  if (const FileWatch *W = SignalTarget.load())
    W->wake();
}

TEST_F(FileWatchTest, WakesOnSignalDeliveredToAnyThread) {
  FileWatch W;
  ASSERT_TRUE(W.watch("test.watch", Path));
  SignalTarget.store(&W);
  struct sigaction Action {};
  Action.sa_handler = onTestSignal;
  sigemptyset(&Action.sa_mask);
  struct sigaction Previous {};
  ASSERT_EQ(::sigaction(SIGUSR2, &Action, &Previous), 0);
  // Process-directed: the kernel picks the thread that runs the handler.
  std::thread Sender([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::kill(::getpid(), SIGUSR2);
  });
  auto T0 = Clock::now();
  EXPECT_EQ(W.wait(LongMs), WakeCause::Signal);
  EXPECT_LT(msSince(T0), LongMs / 2.0);
  Sender.join();
  ::sigaction(SIGUSR2, &Previous, nullptr);
  SignalTarget.store(nullptr);
}

TEST_F(FileWatchTest, InjectedFaultFallsBackToTimedWaits) {
  ASSERT_FALSE(failed(fault::configure("test.watch:emfile@1x*")));
  FileWatch W;
  EXPECT_FALSE(W.watch("test.watch", Path));
  // Later calls (a rotation) stay on the fallback.
  EXPECT_FALSE(W.watch("test.watch", Path));
  append(Path, "procs 1\n");
  auto T0 = Clock::now();
  EXPECT_EQ(W.wait(60), WakeCause::Timeout);
  EXPECT_GE(msSince(T0), 55.0);
  W.wake();
  EXPECT_EQ(W.wait(LongMs), WakeCause::Signal);
}

TEST_F(FileWatchTest, MissingFileFallsBack) {
  FileWatch W;
  EXPECT_FALSE(W.watch("test.watch", Dir + "/absent.txt"));
  // The fallback is for good, even once the file exists.
  EXPECT_FALSE(W.watch("test.watch", Path));
  EXPECT_EQ(W.wait(20), WakeCause::Timeout);
}

} // namespace
