// End-to-end and per-layer benchmark of the Skeap/Seap simulator.
//
//   sks_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run turns --seed into fixed operation scripts (which node issues which
// Insert/DeleteMin with which priority in which batch), one per deployment
// (kDeployments of them), then replays them, one repetition after another,
// until --seconds of wall time have passed. A repetition builds the system
// once per deployment and replays that deployment's script. Every repetition
// is checked: each gathered operation history must pass the heap-semantics
// oracle (core/semantics.hpp), every DeleteMin callback must fire, and the
// simulated outcome (results, rounds, messages, bits) must be identical in
// every repetition, since the simulator is deterministic per seed.
//
// Closed loop: each batch holds a fixed number of operations per node and
// the next batch is issued only when the previous one has quiesced.
//
// --trace 0 prints the end-to-end metrics: host throughput (ops/s), set-up
// time (system construction) and the protocol's simulated cost per
// operation (rounds per batch, messages per operation). --trace 1 prints
// the per-layer metrics instead: message and bit counts split by the module
// that sent them, host time of the spans this file wraps around each call
// into the library, and host ns/op of the first deployment's script with
// each optional layer switched on alone.
//
// Host time on a shared machine drifts by up to 1.5x for seconds at a time
// (other tenants contend for the core and its caches). Fixed calibration
// work that never calls the library runs between repetitions; each span is
// divided by the calibration time around its repetition, and the mean of
// the faster half of those ratios is reported, scaled to a host on which
// the calibration takes kCalibrationReferenceSeconds. A change to the library
// moves the ratio; a busy neighbour moves both sides of it. What the
// calibration misses only ever slows a repetition down, so the slower half
// is dropped: across seeds this halves the spread of the median ratio.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/semantics.hpp"
#include "obs/sampler.hpp"
#include "seap/seap_system.hpp"
#include "skeap/skeap_system.hpp"

using namespace sks;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mean of the smallest half of `v` (of its single value if it has one).
double faster_half_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = std::max<std::size_t>(1, v.size() / 2);
  return std::accumulate(v.begin(), v.begin() + static_cast<long>(k), 0.0) /
         static_cast<double>(k);
}

// ---- Calibration -----------------------------------------------------------

/// Nominal duration of calibrate() that host times are scaled to.
constexpr double kCalibrationReferenceSeconds = 0.025;

/// Fixed host work in the simulator's instruction mix (ordered-map
/// updates, small allocations, indirect calls) over `keys` map keys, that
/// never touches the library, so no library change can speed it up.
/// Returns its wall time.
double calibration_loop(std::uint64_t keys, int iterations) {
  const auto t0 = Clock::now();
  std::map<std::uint64_t, std::vector<std::uint64_t>> cells;
  std::vector<std::function<void(std::uint64_t)>> handlers;
  std::uint64_t acc = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    handlers.emplace_back([&acc, k](std::uint64_t v) { acc += v ^ k; });
  }
  Rng rng(0xca11b7a7eULL);
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t key = rng.below(keys);
    std::vector<std::uint64_t>& cell = cells[key];
    cell.push_back(rng.next());
    if (cell.size() > 8) cells.erase(key);
    handlers[key & 63](key);
  }
  const double elapsed = seconds_since(t0);
  // Keep the work observable so it cannot be optimized away.
  if (acc + cells.size() == 42) std::fprintf(stderr, "calibration\n");
  return elapsed;
}

/// A loop whose working set fits in a core's private caches plus one that
/// spills into the shared cache, weighted to take about equal time.
/// Neighbours slow the two by factors up to 20% apart for minutes at a
/// time, and the simulator's working set sits between them: across seeds,
/// the sum left ops/s with an interquartile spread of 2-5% of the median on
/// every workload, where either loop alone left up to 8% or 11%.
double calibrate() {
  return calibration_loop(1 << 12, 50000) +
         calibration_loop(1 << 16, 100000) / 6;
}

// ---- Configuration ---------------------------------------------------------

/// Optional layers stacked on the paper's protocol. All off = the paper's
/// synchronous, loss-free network with in-memory messages.
struct Layers {
  bool reliable = false;     ///< seq/ack/retransmit transport
  bool wire = false;         ///< encode -> bytes -> decode on every send
  bool recovery = false;     ///< failure detector + k = 2 replication
  bool flow_window = false;  ///< per-channel in-flight window of 4 records
  bool telemetry = false;    ///< obs::Sampler every 32 rounds
  bool tracing = false;      ///< tracer records every event
  double drop = 0.0;         ///< channel loss probability
};

enum class Protocol { kSkeap, kSeap };

struct Workload {
  const char* name;
  Protocol protocol;
  std::size_t nodes;
  std::size_t priorities;        ///< Skeap's constant priority count
  std::size_t prefill_per_node;  ///< inserts per node in the first batch
  std::size_t batches;           ///< mixed batches after the prefill
  std::size_t ops_per_node;      ///< operations per node per mixed batch
  double insert_share;           ///< share of mixed operations that insert
  Layers layers;
};

// skeap: constant priorities, plain network. Exercises the aggregation
// tree, anchor interval assignment and DHT routing (no KSelect).
// seap: arbitrary 48-bit priorities, plain network. Every DeleteMin phase
// runs a distributed KSelect, so it exercises the kselect module.
// hardened: a Skeap script behind every robustness layer at once
// (reliable transport over a 1%-lossy channel, wire codec, crash-recovery
// replication, telemetry) — the path the plain workloads bypass.
// Sizes keep one repetition (all deployments) near one second or less, so
// a run holds enough repetitions for a steady estimate.
const Workload kWorkloads[] = {
    {"skeap", Protocol::kSkeap, 256, 8, 4, 8, 3, 0.55, {}},
    {"seap", Protocol::kSeap, 32, 0, 4, 12, 2, 0.55, {}},
    {"hardened",
     Protocol::kSkeap,
     32,
     8,
     4,
     4,
     2,
     0.55,
     {.reliable = true,
      .wire = true,
      .recovery = true,
      .telemetry = true,
      .drop = 0.01}},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The deployment is part of the system under test, not of its input: the
/// system seeds (overlay labels, hash functions, protocol randomness) are
/// fixed, so --seed varies only the operation scripts. One deployment's
/// rounds/op can sit 30% above another's, so every repetition averages
/// over several, which keeps a change that merely reshuffles the
/// protocol's random draws from reading as a large gain or loss. Each
/// deployment replays its own script because Seap's cost per operation
/// moves by ~5% with the priorities drawn, and averaging over
/// kDeployments scripts shrinks that.
/// Deployment d runs with system seed kFirstSystemSeed + d.
constexpr std::size_t kDeployments = 8;
constexpr std::uint64_t kFirstSystemSeed = 0x5eedb0a7ULL;

// ---- Operation script ------------------------------------------------------

struct Op {
  NodeId node;
  bool insert;
  Priority prio;
};

/// One vector of operations per batch, in issue order.
using Script = std::vector<std::vector<Op>>;

/// The seed draws the priorities and which node issues which operation;
/// the number of Inserts and DeleteMins per batch is fixed by the
/// workload, so the heap's size (and with it Seap's KSelect work) follows
/// the same trajectory for every seed.
Script make_script(const Workload& w, std::uint64_t seed) {
  Rng rng(seed ^ 0x5c41b7e0ULL);
  const Priority max_prio = w.protocol == Protocol::kSkeap
                                ? static_cast<Priority>(w.priorities)
                                : (~0ULL >> 16);
  Script script(1 + w.batches);
  for (std::size_t i = 0; i < w.prefill_per_node; ++i) {
    for (NodeId v = 0; v < w.nodes; ++v) {
      script[0].push_back({v, true, rng.range(1, max_prio)});
    }
  }
  const std::size_t per_batch = w.nodes * w.ops_per_node;
  const auto inserts = static_cast<std::size_t>(
      w.insert_share * static_cast<double>(per_batch) + 0.5);
  for (std::size_t b = 1; b <= w.batches; ++b) {
    std::vector<bool> is_insert(per_batch, false);
    std::fill_n(is_insert.begin(), inserts, true);
    std::shuffle(is_insert.begin(), is_insert.end(), rng);
    for (std::size_t i = 0; i < per_batch; ++i) {
      const auto v = static_cast<NodeId>(i % w.nodes);
      script[b].push_back(
          {v, is_insert[i], is_insert[i] ? rng.range(1, max_prio) : 0});
    }
  }
  return script;
}

std::size_t total_ops(const std::vector<Script>& scripts) {
  std::size_t n = 0;
  for (const Script& script : scripts) {
    for (const auto& batch : script) n += batch.size();
  }
  return n;
}

// ---- One repetition --------------------------------------------------------

/// Messages and bits one module sent.
struct ModuleTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

/// Simulated traffic summed over the deployments of one repetition.
struct Traffic {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t retransmitted = 0;
  std::uint64_t wire_body_bits = 0;
  std::uint64_t wire_header_bits = 0;
  std::uint64_t max_congestion = 0;
  /// Keyed by the action-name prefix every payload of a module carries
  /// ("dht.put" -> "dht").
  std::map<std::string, ModuleTraffic> by_module;

  void add(const sim::MetricsSnapshot& snap) {
    messages += snap.total_messages;
    bits += snap.total_bits;
    retransmitted += snap.retransmitted;
    wire_body_bits += snap.wire_body_bits;
    for (const auto& [action, b] : snap.wire_envelope_bits_by_type) {
      wire_header_bits += b;
    }
    max_congestion = std::max(max_congestion, snap.max_congestion);
    for (const auto& [action, msgs] : snap.messages_by_type) {
      ModuleTraffic& m = by_module[action.substr(0, action.find('.'))];
      m.messages += msgs;
      m.bits += snap.bits_by_type.at(action);
    }
  }

  ModuleTraffic module(const char* name) const {
    const auto it = by_module.find(name);
    return it == by_module.end() ? ModuleTraffic{} : it->second;
  }
};

struct Rep {
  // Host time (seconds) of the spans wrapped around library calls.
  double setup = 0;   ///< system construction (runtime, overlay, DHT)
  double submit = 0;  ///< client insert/delete_min calls
  double epochs = 0;  ///< run_batch / run_cycle until quiescence
  double gather = 0;  ///< collecting the per-node operation histories
  double oracle = 0;  ///< heap-semantics check of the history
  double calibration = 0;  ///< mean calibrate() time before and after
  // Simulated outcome; identical in every repetition of one seed.
  std::uint64_t rounds = 0;
  std::uint64_t max_epoch_rounds = 0;
  std::uint64_t deletes = 0;
  std::uint64_t callbacks = 0;
  std::uint64_t digest = 0;  ///< hash of every DeleteMin result, in order
  std::size_t incomplete = 0;
  std::string error;  ///< first failed check, empty when all passed
  Traffic traffic;

  double run() const { return submit + epochs; }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

template <class Sys>
typename Sys::Options make_options(const Workload& w, const Layers& l,
                                   std::uint64_t system_seed) {
  typename Sys::Options o;
  o.num_nodes = w.nodes;
  o.seed = system_seed;
  if constexpr (std::is_same_v<Sys, skeap::SkeapSystem>) {
    o.num_priorities = w.priorities;
  }
  // Pin everything the environment could otherwise change.
  o.threads = 1;
  o.shards = 1;
  o.wire = l.wire;
  o.reliable.enabled = l.reliable || l.recovery || l.flow_window;
  if (l.flow_window) o.reliable.max_in_flight = 4;
  o.recovery.enabled = l.recovery;
  o.recovery.replication = l.recovery ? 2 : 0;
  o.faults.drop_prob = l.drop;
  return o;
}

std::uint64_t run_epoch(skeap::SkeapSystem& s) { return s.run_batch(); }
std::uint64_t run_epoch(seap::SeapSystem& s) { return s.run_cycle(); }

core::CheckResult check_history(std::vector<skeap::OpRecord> history) {
  return core::check_skeap_trace(std::move(history));
}
core::CheckResult check_history(std::vector<seap::SeapOpRecord> history) {
  return core::check_seap_trace(std::move(history));
}

/// Replay a script on one deployment, adding its cost to `r`.
template <class Sys>
void run_deployment(const Workload& w, const Layers& layers,
                    const Script& script, std::uint64_t system_seed,
                    Rep& r) {
  auto t0 = Clock::now();
  auto sys =
      std::make_unique<Sys>(make_options<Sys>(w, layers, system_seed));
  r.setup += seconds_since(t0);

  std::unique_ptr<obs::Sampler> sampler;
  if (layers.telemetry) {
    obs::Sampler::Options so;
    so.every_rounds = 32;
    so.label = w.name;
    sampler = std::make_unique<obs::Sampler>(sys->net(), std::move(so));
  }
  if (layers.tracing) sys->net().tracer().enable();

  for (const auto& batch : script) {
    t0 = Clock::now();
    for (const Op& op : batch) {
      if (op.insert) {
        sys->insert(op.node, op.prio);
      } else {
        ++r.deletes;
        sys->delete_min(op.node, [&r](std::optional<Element> e) {
          ++r.callbacks;
          r.digest = mix(r.digest, e ? e->id : 0);
        });
      }
    }
    const auto t1 = Clock::now();
    const std::uint64_t rounds = run_epoch(*sys);
    const auto t2 = Clock::now();
    r.submit += std::chrono::duration<double>(t1 - t0).count();
    r.epochs += std::chrono::duration<double>(t2 - t1).count();
    r.rounds += rounds;
    r.max_epoch_rounds = std::max(r.max_epoch_rounds, rounds);
  }
  if (sampler) sampler->sample();
  sampler.reset();
  r.traffic.add(sys->net().metrics().current());

  t0 = Clock::now();
  auto history = sys->gather_trace();
  r.gather += seconds_since(t0);
  for (const auto& op : history) r.incomplete += op.completed ? 0 : 1;
  t0 = Clock::now();
  const core::CheckResult res = check_history(std::move(history));
  r.oracle += seconds_since(t0);
  if (!res.ok && r.error.empty()) r.error = res.error;
}

/// Replay scripts[d] on deployment d, for every script.
Rep run_rep(const Workload& w, const Layers& layers,
            const std::vector<Script>& scripts) {
  Rep r;
  for (std::size_t d = 0; d < scripts.size(); ++d) {
    if (w.protocol == Protocol::kSkeap) {
      run_deployment<skeap::SkeapSystem>(w, layers, scripts[d],
                                         kFirstSystemSeed + d, r);
    } else {
      run_deployment<seap::SeapSystem>(w, layers, scripts[d],
                                       kFirstSystemSeed + d, r);
    }
  }
  if (r.callbacks != r.deletes && r.error.empty()) {
    r.error = std::to_string(r.deletes - r.callbacks) +
              " DeleteMin callbacks never fired";
  }
  return r;
}

// ---- Repetition loop and verdict -------------------------------------------

struct Series {
  std::vector<Rep> reps;
  std::size_t deployments = 0;
  std::size_t ops = 0;  ///< operations per repetition, all deployments
  std::string error;    ///< first correctness failure across repetitions

  std::size_t failed_ops() const {
    std::size_t failed = 0;
    for (const Rep& r : reps) {
      // A repetition that fails a check counts every op.
      failed += r.error.empty() ? r.incomplete : ops;
    }
    return failed;
  }

  /// A span's host seconds (a Rep field or Rep::run) over the faster half
  /// of the repetitions, scaled to the reference host (see calibrate()).
  template <class Span>
  double scaled(Span span) const {
    std::vector<double> v;
    for (const Rep& r : reps) {
      v.push_back(std::invoke(span, r) / r.calibration *
                  kCalibrationReferenceSeconds);
    }
    return faster_half_mean(v);
  }

  template <class Span>
  double ns_per_op(Span span) const {
    return scaled(span) * 1e9 / static_cast<double>(ops);
  }
};

/// Replay the scripts until `budget` seconds have passed (at least
/// `min_reps` repetitions), checking every repetition against the first.
Series run_series(const Workload& w, const Layers& layers,
                  const std::vector<Script>& scripts, double budget,
                  std::size_t min_reps) {
  Series s;
  s.deployments = scripts.size();
  s.ops = total_ops(scripts);
  const auto start = Clock::now();
  double calibration = calibrate();
  while (s.reps.size() < min_reps || seconds_since(start) < budget) {
    Rep r = run_rep(w, layers, scripts);
    const double after = calibrate();
    r.calibration = 0.5 * (calibration + after);
    calibration = after;
    if (s.error.empty() && !r.error.empty()) s.error = r.error;
    if (s.error.empty() && !s.reps.empty()) {
      const Rep& first = s.reps.front();
      if (r.digest != first.digest || r.rounds != first.rounds ||
          r.traffic.messages != first.traffic.messages ||
          r.traffic.bits != first.traffic.bits) {
        s.error = "repetition " + std::to_string(s.reps.size()) +
                  " diverged from the first (non-deterministic replay)";
      }
    }
    s.reps.push_back(std::move(r));
    if (!s.error.empty()) break;
  }
  return s;
}

// ---- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(const Workload& w, const Series& s) {
  const Rep& first = s.reps.front();
  const double ops = static_cast<double>(s.ops);
  const double deployments = static_cast<double>(s.deployments);
  return {
      {"ops_per_s", ops / s.scaled(&Rep::run), "1/s"},
      {"rounds_per_batch",
       static_cast<double>(first.rounds) /
           (deployments * static_cast<double>(1 + w.batches)),
       "rounds"},
      {"msgs_per_op", static_cast<double>(first.traffic.messages) / ops,
       "msg"},
      {"setup_s", s.scaled(&Rep::setup) / deployments, "s"},
  };
}

/// The optional layers measured one at a time in the traced run.
const std::pair<const char*, Layers> kAblations[] = {
    {"plain", {}},
    {"reliable", {.reliable = true}},
    {"wire", {.wire = true}},
    {"recovery", {.recovery = true}},
    {"flow_window", {.flow_window = true}},
    {"telemetry", {.telemetry = true}},
    {"tracing", {.tracing = true}},
};

std::vector<Metric> per_layer(const Series& s,
                              const std::vector<std::pair<std::string,
                                                          double>>& ablations) {
  const Rep& first = s.reps.front();
  const Traffic& t = first.traffic;
  const double ops = static_cast<double>(s.ops);
  const auto per_op = [ops](std::uint64_t v) {
    return static_cast<double>(v) / ops;
  };
  // Skeap's and Seap's own messages are their aggregation-tree traffic.
  const ModuleTraffic proto = {
      t.module("skeap").messages + t.module("seap").messages,
      t.module("skeap").bits + t.module("seap").bits};
  std::vector<Metric> out = {
      {"bits_per_op", per_op(t.bits), "bit"},
      {"proto_msgs_per_op", per_op(proto.messages), "msg"},
      {"proto_bits_per_op", per_op(proto.bits), "bit"},
      {"kselect_msgs_per_op", per_op(t.module("kselect").messages), "msg"},
      {"kselect_bits_per_op", per_op(t.module("kselect").bits), "bit"},
      {"dht_msgs_per_op", per_op(t.module("dht").messages), "msg"},
      {"dht_bits_per_op", per_op(t.module("dht").bits), "bit"},
      {"transport_msgs_per_op", per_op(t.module("transport").messages),
       "msg"},
      {"retransmits_per_op", per_op(t.retransmitted), "msg"},
      {"recovery_msgs_per_op", per_op(t.module("recovery").messages), "msg"},
      {"recovery_bits_per_op", per_op(t.module("recovery").bits), "bit"},
      {"wire_body_bits_per_op", per_op(t.wire_body_bits), "bit"},
      {"wire_header_bits_per_op", per_op(t.wire_header_bits), "bit"},
      {"max_congestion", static_cast<double>(t.max_congestion), "msg"},
      {"max_batch_rounds", static_cast<double>(first.max_epoch_rounds),
       "rounds"},
      {"setup_ms",
       s.scaled(&Rep::setup) * 1e3 / static_cast<double>(s.deployments),
       "ms"},
      {"submit_ns_per_op", s.ns_per_op(&Rep::submit), "ns"},
      {"epoch_ns_per_op", s.ns_per_op(&Rep::epochs), "ns"},
      {"epoch_ns_per_msg",
       s.ns_per_op(&Rep::epochs) * ops / static_cast<double>(t.messages),
       "ns"},
      {"gather_ns_per_op", s.ns_per_op(&Rep::gather), "ns"},
      {"oracle_ns_per_op", s.ns_per_op(&Rep::oracle), "ns"},
  };
  for (const auto& [name, ns] : ablations) {
    out.push_back({name + "_ns_per_op", ns, "ns"});
  }
  return out;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "sks_perfbench: %s\nusage: sks_perfbench --workload "
               "<skeap|seap|hardened> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0)) return usage("--seconds must be positive");

  std::vector<Script> scripts;
  for (std::size_t d = 0; d < kDeployments; ++d) {
    scripts.push_back(make_script(*w, seed * kDeployments + d));
  }
  std::printf("workload %s: n=%zu, %zu deployments x %zu batches, %zu ops, "
              "seed %llu, trace %d\n",
              w->name, w->nodes, scripts.size(), scripts[0].size(),
              total_ops(scripts), static_cast<unsigned long long>(seed),
              trace ? 1 : 0);

  // The traced run spends half its budget on the workload's own
  // configuration and splits the rest over the single-layer ablations,
  // each on the first deployment only.
  const double own_budget = trace ? seconds / 2 : seconds;
  Series series = run_series(*w, w->layers, scripts, own_budget, 3);
  std::size_t attempted = series.ops * series.reps.size();
  std::size_t failed = series.failed_ops();
  std::string error = series.error;

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = end_to_end(*w, series);
  } else {
    std::vector<std::pair<std::string, double>> ablations;
    const double slice = seconds / 2 / std::size(kAblations);
    for (const auto& [name, layers] : kAblations) {
      const Series a = run_series(*w, layers, {scripts[0]}, slice, 1);
      attempted += a.ops * a.reps.size();
      failed += a.failed_ops();
      if (error.empty() && !a.error.empty()) {
        error = std::string(name) + ": " + a.error;
      }
      ablations.emplace_back(name, a.ns_per_op(&Rep::run));
    }
    metrics = per_layer(series, ablations);
  }
  std::printf("%zu repetitions;", series.reps.size());
  for (const Metric& m : metrics) {
    std::printf(" %s=%.6g %s", m.name.c_str(), m.value, m.unit);
  }
  std::printf("\n");
  if (!error.empty()) std::printf("CORRECTNESS FAILURE: %s\n", error.c_str());
  print_result(error.empty() && failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sks_perfbench: %s\n", e.what());
    return 1;
  }
}
