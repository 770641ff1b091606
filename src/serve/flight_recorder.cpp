#include "serve/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "obs/json.h"

namespace swsim::serve {

namespace {

// Crash-path state: one recorder pointer plus the fd to dump to, both
// plain atomics so the handler's reads are async-signal-safe.
std::atomic<const FlightRecorder*> g_crash_recorder{nullptr};
std::atomic<int> g_crash_fd{2};

void crash_handler(int signum) {
  const FlightRecorder* rec =
      g_crash_recorder.load(std::memory_order_relaxed);
  if (rec != nullptr) {
    const int fd = g_crash_fd.load(std::memory_order_relaxed);
    static const char header[] = "\n--- swsim flight recorder (crash) ---\n";
    [[maybe_unused]] ssize_t rc = ::write(fd, header, sizeof header - 1);
    rec->dump_to_fd(fd);
  }
  // Re-raise with the default disposition so the exit status / core dump
  // behaviour is what the operator expects from the original signal.
  ::signal(signum, SIG_DFL);
  ::raise(signum);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

FlightRecorder::~FlightRecorder() {
  const FlightRecorder* self = this;
  g_crash_recorder.compare_exchange_strong(self, nullptr,
                                           std::memory_order_relaxed);
}

void FlightRecorder::record(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[next_ % slots_.size()];
  const std::size_t n = std::min(line.size(), kSlotBytes - 1);
  slot.len = 0;  // invalidate for the lock-free crash reader
  std::memcpy(slot.text, line.data(), n);
  slot.text[n] = '\0';
  slot.len = static_cast<std::uint16_t>(n);
  ++next_;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(
      next_ < slots_.size() ? next_ : slots_.size());
}

void FlightRecorder::dump(std::ostream& out) const {
  const auto marker = [&out](const char* phase, const char* count_key,
                             std::uint64_t n) {
    out << obs::JsonWriter()
               .begin_object()
               .field("flight_recorder", phase)
               .field(count_key, n)
               .end_object()
               .str()
        << "\n";
  };
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t cap = slots_.size();
  const std::size_t held =
      static_cast<std::size_t>(next_ < cap ? next_ : cap);
  const std::uint64_t dropped = next_ - held;
  marker("begin", "dropped", dropped);
  const std::uint64_t start = next_ - held;
  for (std::uint64_t i = start; i < next_; ++i) {
    const Slot& slot = slots_[i % cap];
    if (slot.len == 0) continue;
    out.write(slot.text, slot.len);
    out << "\n";
  }
  marker("end", "entries", held);
}

std::size_t FlightRecorder::dump_to_fd(int fd) const {
  // No locks, no heap: walk the slots in ring order and write whatever is
  // there. next_ is read unsynchronized — a torn ordering or a partially
  // written slot is acceptable on the crash path.
  const std::size_t cap = slots_.size();
  const std::uint64_t next = next_;
  const std::size_t held = static_cast<std::size_t>(next < cap ? next : cap);
  const std::uint64_t start = next - held;
  std::size_t written = 0;
  for (std::uint64_t i = start; i < next; ++i) {
    const Slot& slot = slots_[i % cap];
    const std::uint16_t len = slot.len;
    if (len == 0 || len >= kSlotBytes) continue;
    ssize_t rc = ::write(fd, slot.text, len);
    if (rc > 0) written += static_cast<std::size_t>(rc);
    rc = ::write(fd, "\n", 1);
    if (rc > 0) written += 1;
  }
  return written;
}

void FlightRecorder::arm_crash_dump(int fd) {
  g_crash_fd.store(fd, std::memory_order_relaxed);
  g_crash_recorder.store(this, std::memory_order_relaxed);
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = crash_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  for (const int signum : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(signum, &action, nullptr);
  }
}

}  // namespace swsim::serve
