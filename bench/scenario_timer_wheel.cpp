// Experiment E10 — timer-store microbenchmark: the hierarchical wheel vs the
// arm / cancel / re-arm at millions of concurrent timers.
//
// The protocol workload is arm/cancel churn: every proposer retransmit,
// suspicion grace and backoff timer is armed, then almost always cancelled
// before it fires. A binary heap pays O(log n) per arm plus a tombstone per
// cancel (see sim::EventQueue); the hierarchical wheel behind EventLoop pays
// O(1) list splices out of a node pool. Three run families:
//
//  * arm_cancel/... — wall-clock schedule+cancel ops/s with `--timers`
//    standing timers resident (the ≥10× headline). The timed region ends
//    with a next_time() settle that restores the store to its standing-only
//    state: the heap's lazy cancel defers an O(log n) pop per tombstone to
//    exactly this moment, so stopping the clock before it would let the
//    heap report half its amortized cost. The wheel frees on cancel and
//    owes nothing. Host-dependent.
//  * dispatch/...  — arm `--timers` deadlines spread over a 2 s window,
//    drain via next_time() stepping, and report dispatch jitter = pop
//    instant − effective deadline. Both stores fire on the deadline, so it
//    is identically 0; a wheel that rounded deadlines up to its 1024 µs
//    tick read up to one tick here. Deterministic for a given seed, so CI
//    gates on it. The wheel's next_time() steps through every distinct
//    deadline, so the drain rate also prices its lazily sorted slot.
//  * deterministic/wheel — a seeded schedule/cancel/advance workload in
//    virtual time whose fired/cancelled/cascade counters are bit-stable;
//    the CI benchdiff gate that catches accidental wheel behavior changes.
//
// Only the *_per_sec metrics depend on the host; CI diffs against the
// committed BENCH_timers.json with those ignored.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "evl/timer_wheel.hpp"
#include "sim/event_queue.hpp"
#include "util/stats.hpp"

namespace tw::bench {
namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- arm/cancel

/// `timers` standing timers resident, then `churn` schedule+cancel pairs of
/// a short-lived timer — the retransmit-timer shape. Returns ops/sec.
double churn_heap(int timers, int churn, double& peak_storage) {
  sim::EventQueue q;
  for (int i = 0; i < timers; ++i)
    q.schedule(1'000'000'000 + i, [] {});
  peak_storage = 0;
  const double t0 = now_sec();
  for (int i = 0; i < churn; ++i) {
    const sim::EventId id = q.schedule(500'000 + i % 1000, [] {});
    q.cancel(id);
    if ((i & 0xffff) == 0)
      peak_storage =
          std::max(peak_storage, static_cast<double>(q.storage_size()));
  }
  peak_storage = std::max(peak_storage, static_cast<double>(q.storage_size()));
  (void)q.next_time();  // settle: the deferred tombstone pops come due
  const double wall = now_sec() - t0;
  return 2.0 * churn / wall;
}

double churn_wheel(int timers, int churn, double& peak_storage) {
  evl::TimerWheel w(0);
  for (int i = 0; i < timers; ++i)
    w.schedule(1'000'000'000 + i, [] {});
  const double t0 = now_sec();
  for (int i = 0; i < churn; ++i) {
    const sim::EventId id = w.schedule(500'000 + i % 1000, [] {});
    w.cancel(id);
  }
  (void)w.next_time();  // settle (symmetry with the heap; a no-op here)
  const double wall = now_sec() - t0;
  peak_storage = static_cast<double>(w.allocated_nodes());
  return 2.0 * churn / wall;
}

BenchRun arm_cancel_run(const char* impl, int timers, int churn,
                        double ops_per_sec, double peak_storage) {
  BenchRun r;
  r.name = std::string("arm_cancel/") + impl + "/n" + std::to_string(timers);
  r.config = {{"timers", static_cast<double>(timers)},
              {"churn", static_cast<double>(churn)}};
  r.metrics = {{"arm_cancel_ops_per_sec", ops_per_sec},
               {"peak_storage", peak_storage}};
  std::printf("%-28s ops/s=%11.0f  peak-storage=%9.0f\n", r.name.c_str(),
              ops_per_sec, peak_storage);
  return r;
}

// ------------------------------------------------------------------ dispatch

/// Deadlines uniform in [0, 2 s); drain at full speed by stepping to
/// next_time(). Jitter = pop instant − effective deadline (µs).
BenchRun dispatch_heap(int timers, std::uint64_t seed) {
  sim::EventQueue q;
  std::uint64_t s = seed;
  for (int i = 0; i < timers; ++i)
    q.schedule(static_cast<sim::SimTime>(splitmix(s) % 2'000'000), [] {});
  util::Samples jitter;
  const double t0 = now_sec();
  while (!q.empty()) {
    const sim::SimTime due = q.next_time();
    const auto fired = q.pop();
    jitter.add(static_cast<double>(due - fired.time));
  }
  const double wall = now_sec() - t0;

  BenchRun r;
  r.name = "dispatch/heap/n" + std::to_string(timers);
  r.config = {{"timers", static_cast<double>(timers)},
              {"seed", static_cast<double>(seed)}};
  r.metrics = {{"drain_pops_per_sec", timers / wall},
               {"jitter_p50_us", jitter.percentile(0.5)},
               {"jitter_p99_us", jitter.percentile(0.99)},
               {"jitter_max_us", jitter.max()}};
  std::printf("%-28s pops/s=%10.0f  jitter us: p50=%4.0f p99=%4.0f max=%4.0f\n",
              r.name.c_str(), timers / wall, jitter.percentile(0.5),
              jitter.percentile(0.99), jitter.max());
  return r;
}

BenchRun dispatch_wheel(int timers, std::uint64_t seed) {
  evl::TimerWheel w(0);
  std::uint64_t s = seed;
  for (int i = 0; i < timers; ++i)
    w.schedule(static_cast<std::int64_t>(splitmix(s) % 2'000'000), [] {});
  util::Samples jitter;
  const double t0 = now_sec();
  while (!w.empty()) {
    const std::int64_t now = w.next_time();
    while (auto fired = w.pop_due(now))
      jitter.add(static_cast<double>(now - fired->deadline));
  }
  const double wall = now_sec() - t0;

  BenchRun r;
  r.name = "dispatch/wheel/n" + std::to_string(timers);
  r.config = {{"timers", static_cast<double>(timers)},
              {"seed", static_cast<double>(seed)}};
  r.metrics = {{"drain_pops_per_sec", timers / wall},
               {"jitter_p50_us", jitter.percentile(0.5)},
               {"jitter_p99_us", jitter.percentile(0.99)},
               {"jitter_max_us", jitter.max()}};
  std::printf("%-28s pops/s=%10.0f  jitter us: p50=%4.0f p99=%4.0f max=%4.0f\n",
              r.name.c_str(), timers / wall, jitter.percentile(0.5),
              jitter.percentile(0.99), jitter.max());
  return r;
}

// ------------------------------------------------- deterministic wheel gate

/// A seeded virtual-time workload across all four wheel levels. Every
/// metric is bit-stable for a given (ops, seed): CI diffs them unignored.
BenchRun deterministic_wheel(int ops, std::uint64_t seed) {
  evl::TimerWheel w(0);
  std::uint64_t s = seed;
  std::vector<sim::EventId> live;
  std::int64_t vnow = 0;
  std::uint64_t fired = 0;
  double max_nodes = 0;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t r = splitmix(s);
    switch (r % 4) {
      case 0:
      case 1: {  // arm: delays spanning level 0 through level 3
        const auto delay =
            static_cast<std::int64_t>(splitmix(s) % (1ull << 26));
        live.push_back(w.schedule(vnow + delay, [] {}));
        break;
      }
      case 2: {  // cancel a random live timer (may already have fired)
        if (!live.empty()) {
          const std::size_t at = splitmix(s) % live.size();
          w.cancel(live[at]);
          live[at] = live.back();
          live.pop_back();
        }
        break;
      }
      case 3: {  // advance virtual time and drain what came due
        vnow += static_cast<std::int64_t>(splitmix(s) % 500'000);
        while (w.pop_due(vnow)) ++fired;
        break;
      }
    }
    max_nodes = std::max(max_nodes, static_cast<double>(w.allocated_nodes()));
  }
  while (w.pop_due(vnow + (std::int64_t{1} << 40))) ++fired;

  const evl::TimerWheel::Stats& st = w.stats();
  BenchRun r;
  r.name = "deterministic/wheel/ops" + std::to_string(ops);
  r.config = {{"ops", static_cast<double>(ops)},
              {"seed", static_cast<double>(seed)}};
  r.metrics = {{"fired_total", static_cast<double>(fired)},
               {"cancelled_total", static_cast<double>(st.cancelled)},
               {"cascades", static_cast<double>(st.cascades)},
               {"cascaded_timers", static_cast<double>(st.cascaded_timers)},
               {"max_allocated_nodes", max_nodes}};
  std::printf(
      "%-28s fired=%llu cancelled=%llu cascades=%llu cascaded=%llu "
      "max-nodes=%.0f\n",
      r.name.c_str(), static_cast<unsigned long long>(fired),
      static_cast<unsigned long long>(st.cancelled),
      static_cast<unsigned long long>(st.cascades),
      static_cast<unsigned long long>(st.cascaded_timers), max_nodes);
  return r;
}

}  // namespace
}  // namespace tw::bench

int main(int argc, char** argv) {
  using namespace tw;
  using namespace tw::bench;
  std::string out = "BENCH_timers.json";
  int timers = 1'000'000;
  int churn = 1'000'000;
  int det_ops = 200'000;
  const std::uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--out" && next()) {
      out = argv[i];
    } else if (arg == "--timers" && next()) {
      timers = std::atoi(argv[i]);
    } else if (arg == "--churn" && next()) {
      churn = std::atoi(argv[i]);
    } else {
      std::fprintf(stderr,
                   "usage: scenario_timer_wheel [--out FILE] [--timers N] "
                   "[--churn N]\n");
      return 2;
    }
  }
  if (timers <= 0 || churn <= 0) return 2;

  BenchReport report{"timer-wheel", {}};

  print_header("E10a: arm/cancel churn with standing timers resident",
               "ops/s is wall-clock; the wheel should clear 10x the heap");
  double heap_peak = 0, wheel_peak = 0;
  const double heap_ops = churn_heap(timers, churn, heap_peak);
  const double wheel_ops = churn_wheel(timers, churn, wheel_peak);
  report.runs.push_back(
      arm_cancel_run("heap", timers, churn, heap_ops, heap_peak));
  report.runs.push_back(
      arm_cancel_run("wheel", timers, churn, wheel_ops, wheel_peak));
  std::printf("%-28s %.1fx\n", "wheel-vs-heap speedup", wheel_ops / heap_ops);

  print_header("E10b: full-speed drain of a 2s deadline spread",
               "jitter = pop instant - deadline; 0 = fires on the deadline");
  report.runs.push_back(dispatch_heap(timers, seed));
  report.runs.push_back(dispatch_wheel(timers, seed));

  print_header("E10c: deterministic wheel workload (CI gate)",
               "seeded arm/cancel/advance mix across all four levels");
  report.runs.push_back(deterministic_wheel(det_ops, seed));

  if (!report.write_file(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
