// The host-speed yardstick (bench.h): a fixed miniature of the simulator's
// two hottest structures, a set-associative LRU tag array and an event
// min-heap, on memory of its own allocated once. Its code sits in
// benchmark/ and calls nothing in src/, so no change to the simulator
// moves its time; only the host does.
#include <algorithm>
#include <functional>
#include <vector>

#include "bench.h"

namespace h2bench {

namespace {

constexpr u32 kSets = 8192, kWays = 8;  // 512 KB of tags
constexpr u32 kLookups = 30'000;
constexpr u32 kHeapSize = 4096;         // 32 KB of pending events
constexpr u32 kEvents = 8'000;

u64 mix(u64 x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

struct State {
  std::vector<u64> tags = std::vector<u64>(kSets * kWays);
  std::vector<u64> heap;
  u64 sink = 0;  ///< keeps the work observable
  State() { heap.reserve(kHeapSize); }
};

/// Per thread: --smoke runs its workloads on threads side by side.
State& state() {
  thread_local State s;
  return s;
}

}  // namespace

double yardstick() {
  State& s = state();
  const u64 t0 = now_ns();
  u64 acc = 1;
  for (u32 i = 0; i < kLookups; ++i) {
    acc = mix(acc + i);
    u64* set = &s.tags[(acc % kSets) * kWays];
    const u64 tag = (acc >> 20) & 63;
    u32 w = 0;
    while (w < kWays - 1 && set[w] != tag) ++w;
    for (; w > 0; --w) set[w] = set[w - 1];  // move to MRU
    set[0] = tag;
  }
  s.heap.clear();
  for (u32 i = 0; i < kHeapSize; ++i) {
    s.heap.push_back(mix(acc + i) & 0xffffffff);
    std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>());
  }
  for (u32 i = 0; i < kEvents; ++i) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>());
    const u64 when = s.heap.back();
    acc += when;
    s.heap.back() = when + (mix(acc) & 0xffff);
    std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>());
  }
  s.sink += acc;
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace h2bench
