// kdlint fixture: R9 must fire on raw threading primitives (threads,
// locks, atomics, thread_local — the simulator is single-threaded) and
// stay quiet on member accesses that merely share a name. Lines
// asserted exactly by tests/kdlint_test.cc.
#include <atomic>
#include <thread>

namespace fixture {

struct Worker {
  std::mutex mu;                         // line 11: R9 mutex
  std::atomic<int> counter{0};           // line 12: R9 atomic

  void Spawn() {
    std::thread t([] {});                // line 15: R9 thread
    t.join();
  }

  void Tick() {
    std::lock_guard<std::mutex> lk(mu);  // line 20: R9 lock_guard + mutex
    counter.fetch_add(1);
  }
};

// Accessing somebody else's member that shares a primitive's name
// stays quiet: `seam.mutex()` is a member call, not a raw primitive.
template <typename Seam>
int Quiet(Seam& seam) {
  return seam.mutex() ? 1 : 0;
}

// A per-thread variable presumes threads.
int Calls() {
  static thread_local int calls = 0;     // line 34: R9 thread_local
  return ++calls;
}

}  // namespace fixture
