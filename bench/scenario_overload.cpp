// Experiment E13 — goodput vs offered load under saturation, exported as
// tw-bench-v1 JSON for tools/benchdiff.
//
// One n=5 team with admission control on (NodeConfig::max_pending = 64). A
// single hot proposer (p0) offers load at 1x, 2x, 4x and 8x the calibrated
// saturation point for a fixed sim-time window. The claim under test is
// graceful degradation: past saturation the EXCESS is absorbed by explicit
// admission refusals, not by latency growth or collapse — goodput at 8x
// must hold at >= 80% of the peak across multipliers, refusals must be
// doing the absorbing, accepted-proposal latency must stay bounded, and
// overload must never look like a failure (zero suspicions, all §3 safety
// invariants intact).
//
// Clocks are perfect (csync sends nothing) and latency is sim-time: every
// metric except wall-clock msgs_per_sec is deterministic for a given seed
// and CI-diffable.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "gms/sim_harness.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"
#include "util/stats.hpp"

namespace tw::bench {
namespace {

struct OverloadKnobs {
  int n = 5;
  int max_pending = 64;
  /// Calibrated saturation: offered proposals per second at multiplier 1.
  /// 10k/s sits at the occupancy-cap ceiling (64 in flight / ~6ms delivery)
  /// for the default n=5/max_pending=64 team, so 2x-8x is genuine overload.
  double base_rate_hz = 10000.0;
  int multiplier = 1;
  sim::Duration window = sim::sec(3);
  std::uint64_t seed = 11;
};

struct OverloadResult {
  double offered = 0;      ///< proposals presented to try_propose
  double accepted = 0;     ///< admitted (got a sequence number)
  double refused = 0;      ///< refused by admission control
  double delivered = 0;    ///< accepted AND delivered back at p0
  double goodput_hz = 0;   ///< delivered / window (sim-time)
  double lat_p50_ms = 0;   ///< accepted-proposal delivery latency (sim)
  double lat_p99_ms = 0;
  double occupancy_peak = 0;
  double overload_enters = 0;
  double overload_exits = 0;
  double suspicions = 0;   ///< across the whole team — must be 0
  double safety_violations = 0;
  double wall_msgs_per_sec = 0;  ///< host-dependent; CI ignores it
};

bool run_load(const OverloadKnobs& k, BenchRun& out, OverloadResult& res) {
  gms::HarnessConfig cfg;
  cfg.n = k.n;
  cfg.seed = k.seed;
  cfg.perfect_clocks = true;
  cfg.node.max_pending = k.max_pending;
  gms::SimHarness h(cfg);
  h.start();
  const util::ProcessSet everyone =
      util::ProcessSet::full(static_cast<ProcessId>(k.n));
  if (!h.run_until_group(everyone, sim::sec(30))) return false;

  // Offer `base * multiplier` proposals/s from the hot proposer for the
  // window, evenly spaced. A refusal is final: the client's retry budget
  // is the next scheduled proposal — what E13 measures is capacity, not
  // client persistence.
  const double rate = k.base_rate_hz * k.multiplier;
  const int total = static_cast<int>(rate * sim::to_sec(k.window));
  const sim::Duration gap = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(static_cast<double>(k.window) / total));
  struct Sent {
    sim::SimTime at = -1;  ///< -1 = refused (or never offered)
  };
  std::vector<Sent> sent(static_cast<std::size_t>(total));
  auto& sim = h.cluster().simulator();
  const sim::SimTime start = h.now();
  std::uint64_t refused = 0, accepted = 0;
  for (int i = 0; i < total; ++i) {
    const sim::SimTime at = start + static_cast<sim::SimTime>(i + 1) * gap;
    sim.at(at, [&h, &sent, &refused, &accepted, i, at] {
      const gms::ProposeResult r = h.propose(0, static_cast<std::uint64_t>(i));
      if (!r.accepted) {
        ++refused;
        return;
      }
      ++accepted;
      sent[static_cast<std::size_t>(i)].at = at;
    });
  }

  const auto wall0 = std::chrono::steady_clock::now();
  h.run_until(start + static_cast<sim::SimTime>(total + 2) * gap);
  // Drain: every ACCEPTED proposal must come back delivered at p0 (the
  // admission bound exists precisely so accepted work always completes).
  const auto delivered_at_p0 = [&] { return h.delivered(0).size(); };
  for (int spin = 0; spin < 100; ++spin) {
    if (delivered_at_p0() >= accepted) break;
    h.run_for(sim::msec(200));
  }
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  util::Samples lat;
  std::uint64_t delivered = 0;
  for (const auto& rec : h.delivered(0)) {
    const auto marker = gms::SimHarness::payload_tag(rec.payload);
    if (marker >= sent.size()) continue;
    const Sent& s = sent[marker];
    if (s.at < 0) continue;
    ++delivered;
    lat.add(static_cast<double>(rec.at - s.at) / 1000.0);  // ms
  }
  if (delivered == 0) return false;

  std::uint64_t suspicions = 0;
  for (const auto& e : h.merged_trace())
    if (e.kind == obs::EvKind::suspect) ++suspicions;
  const auto violations = h.check_majority_agreement_invariants(everyone);
  for (const auto& v : violations)
    std::fprintf(stderr, "safety violation: %s\n", v.c_str());

  const auto& st = h.node(0).stats();
  res.offered = static_cast<double>(total);
  res.accepted = static_cast<double>(accepted);
  res.refused = static_cast<double>(refused);
  res.delivered = static_cast<double>(delivered);
  res.goodput_hz =
      static_cast<double>(delivered) / sim::to_sec(k.window);
  res.lat_p50_ms = lat.percentile(0.5);
  res.lat_p99_ms = lat.percentile(0.99);
  res.occupancy_peak = static_cast<double>(st.occupancy_peak);
  res.overload_enters = static_cast<double>(st.overload_enters);
  res.overload_exits = static_cast<double>(st.overload_exits);
  res.suspicions = static_cast<double>(suspicions);
  res.safety_violations = static_cast<double>(violations.size());
  res.wall_msgs_per_sec =
      wall_sec > 0 ? static_cast<double>(delivered) / wall_sec : 0.0;

  out.name = "overload/x" + std::to_string(k.multiplier);
  out.config = {{"n", static_cast<double>(k.n)},
                {"max_pending", static_cast<double>(k.max_pending)},
                {"base_rate_hz", k.base_rate_hz},
                {"multiplier", static_cast<double>(k.multiplier)},
                {"window_ms", static_cast<double>(k.window) / 1000.0},
                {"seed", static_cast<double>(k.seed)}};
  out.metrics = {{"offered", res.offered},
                 {"accepted", res.accepted},
                 {"refused", res.refused},
                 {"delivered", res.delivered},
                 {"goodput_hz", res.goodput_hz},
                 {"latency_ms_p50", res.lat_p50_ms},
                 {"latency_ms_p99", res.lat_p99_ms},
                 {"occupancy_peak", res.occupancy_peak},
                 {"overload_enters", res.overload_enters},
                 {"overload_exits", res.overload_exits},
                 {"suspicions", res.suspicions},
                 {"msgs_per_sec", res.wall_msgs_per_sec}};
  std::printf(
      "%-12s offered=%6.0f accepted=%6.0f refused=%6.0f goodput=%7.0f/s  "
      "lat ms: p50=%5.1f p99=%5.1f  occ-peak=%3.0f  wall msgs/s=%9.0f\n",
      out.name.c_str(), res.offered, res.accepted, res.refused,
      res.goodput_hz, res.lat_p50_ms, res.lat_p99_ms, res.occupancy_peak,
      res.wall_msgs_per_sec);
  return true;
}

}  // namespace
}  // namespace tw::bench

int main(int argc, char** argv) {
  using namespace tw;
  using namespace tw::bench;
  std::string out_path = "BENCH_overload.json";
  OverloadKnobs base;
  std::vector<int> multipliers = {1, 2, 4, 8};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--out" && next()) {
      out_path = argv[i];
    } else if (arg == "--base-rate" && next()) {
      base.base_rate_hz = std::atof(argv[i]);
    } else if (arg == "--max-pending" && next()) {
      base.max_pending = std::atoi(argv[i]);
    } else if (arg == "--seed" && next()) {
      base.seed = std::strtoull(argv[i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: scenario_overload [--out FILE] [--base-rate HZ] "
                   "[--max-pending N] [--seed S]\n");
      return 2;
    }
  }
  if (base.base_rate_hz <= 0 || base.max_pending <= 0) return 2;

  std::printf("\n== E13: goodput vs offered load under saturation ==\n"
              "hot proposer, max_pending=%d, refusal-only admission; "
              "latency is sim-time\n", base.max_pending);
  BenchReport report{"overload", {}};
  std::vector<std::pair<int, OverloadResult>> results;
  bool ok = true;
  for (int m : multipliers) {
    OverloadKnobs k = base;
    k.multiplier = m;
    BenchRun r;
    OverloadResult res;
    if (run_load(k, r, res)) {
      report.runs.push_back(std::move(r));
      results.emplace_back(m, res);
    } else {
      std::fprintf(stderr, "run failed for multiplier=%d\n", m);
      ok = false;
    }
  }
  if (!report.write_file(out_path)) ok = false;

  // The graceful-degradation acceptance gate.
  double peak_goodput = 0, lat_p99_1x = 0;
  for (const auto& [m, res] : results) {
    peak_goodput = std::max(peak_goodput, res.goodput_hz);
    if (m == 1) lat_p99_1x = res.lat_p99_ms;
  }
  for (const auto& [m, res] : results) {
    if (res.suspicions != 0) {
      std::fprintf(stderr, "FAIL: %0.f suspicions at %dx — overload looked "
                   "like a failure\n", res.suspicions, m);
      ok = false;
    }
    if (res.safety_violations != 0) {
      std::fprintf(stderr, "FAIL: safety violations at %dx\n", m);
      ok = false;
    }
    if (res.delivered != res.accepted) {
      std::fprintf(stderr, "FAIL: %dx accepted %.0f but delivered %.0f — "
                   "admitted work must always complete\n",
                   m, res.accepted, res.delivered);
      ok = false;
    }
  }
  const auto x8 = std::find_if(results.begin(), results.end(),
                               [](const auto& r) { return r.first == 8; });
  if (x8 == results.end()) {
    ok = false;
  } else {
    const double ratio =
        peak_goodput > 0 ? x8->second.goodput_hz / peak_goodput : 0;
    std::printf("\ngoodput @8x = %.0f/s (%.1f%% of peak %.0f/s), "
                "refused @8x = %.0f, p99 @8x = %.1fms (1x: %.1fms)\n",
                x8->second.goodput_hz, 100.0 * ratio, peak_goodput,
                x8->second.refused, x8->second.lat_p99_ms, lat_p99_1x);
    if (ratio < 0.80) {
      std::fprintf(stderr, "FAIL: goodput past saturation fell to %.1f%% "
                   "of peak (floor 80%%) — that is collapse, not "
                   "degradation\n", 100.0 * ratio);
      ok = false;
    }
    if (x8->second.refused <= 0) {
      std::fprintf(stderr, "FAIL: no refusals at 8x — the excess went "
                   "somewhere other than admission control\n");
      ok = false;
    }
    if (lat_p99_1x > 0 && x8->second.lat_p99_ms > 3.0 * lat_p99_1x) {
      std::fprintf(stderr, "FAIL: accepted-proposal p99 at 8x is %.1fx the "
                   "1x value (ceiling 3x) — latency is absorbing the "
                   "excess, refusals should be\n",
                   x8->second.lat_p99_ms / lat_p99_1x);
      ok = false;
    }
  }

  std::printf("\nwrote %s%s\n", out_path.c_str(),
              ok ? "" : "  (WITH FAILURES)");
  return ok ? 0 : 1;
}
