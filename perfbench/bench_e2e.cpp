// bench_e2e — the repository's end-to-end benchmark binary.
//
// Drives one named workload through harness::run_cluster, the public entry
// point of the whole stack, and prints one JSON line of raw per-run numbers
// that perfbench/run.py turns into metrics. One process, one thread, one
// workload, so the process's peak RSS belongs to that workload alone.
//
//   bench_e2e --workload NAME --seed S --seconds T [--setup-only]
//             [--trace FILE]
//
// Every run is closed loop (a client sends its next op only after the
// previous reply) on the simulator's virtual clock with gst = 0, so one
// time unit is one message delay. Phases:
//   1. warm-up: untimed runs on their own seeds fill the coroutine, buffer
//      and allocator pools. Their wall time is the set-up time, and
//      --setup-only stops after it.
//   2. fixed runs: seeds S .. S + fixed_runs - 1. Every count and every
//      virtual-time metric comes from these runs only, so each is exact for
//      a given seed however fast the machine is.
//   3. more timed runs on the following seeds until T wall seconds of runs
//      have been measured. They add wall-time samples and correctness
//      checks.
// With --trace FILE, each fixed run is followed at once by a SIGPROF-sampled
// replay of its seed, and sampled runs continue on the following seeds until
// T wall seconds of them have been measured. Each replayed report must equal
// its untraced run exactly, and the sampled stacks are written to FILE as
// executable-relative code offsets for run.py to symbolize.

#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/cluster.hpp"

using namespace mnm;
using namespace mnm::harness;

namespace {

// ---------------------------------------------------------------------------
// Workloads. Each stresses a different set of layers; perfbench/README.md
// records why each was chosen and which layer metrics it should move.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t warmups;
  std::size_t fixed_runs;
  ClusterConfig (*config)(std::uint64_t seed);
  /// Expectations beyond the checks every honest run gets.
  bool (*expected)(const ClusterConfig& c, const RunReport& r);
};

ClusterConfig kv_base(Algorithm algo, std::size_t n, std::size_t m,
                      std::uint64_t seed) {
  ClusterConfig c;
  c.algo = algo;
  c.n = n;
  c.m = m;
  c.seed = seed;
  c.gst = 0;  // one virtual time unit == one message delay
  c.horizon = 400000;
  c.kv.enabled = true;
  return c;
}

std::size_t op_slots(const ClusterConfig& c) {
  return c.kv.clients * c.kv.ops_per_client;
}

/// Plain (transaction-free) runs complete exactly one op per op slot.
bool every_slot_completed(const ClusterConfig& c, const RunReport& r) {
  return r.kv_ops == op_slots(c);
}

// Message path only: net, core::Paxos, slot hub, smr batching, kv::Router.
// No memories and no signatures, so it is the control for crypto and mem.
ClusterConfig kv_read_fastpaxos(std::uint64_t seed) {
  ClusterConfig c = kv_base(Algorithm::kFastPaxos, 3, 0, seed);
  c.kv.shards = 8;
  c.kv.clients = 64;
  c.kv.ops_per_client = 500;
  c.kv.mix = kv::Mix::kB;
  c.kv.dist = kv::KeyDist::kZipfian;
  c.kv.keys = 4096;
  c.kv.window = 4;
  c.kv.batch = 4;
  return c;
}

// The paper's crash algorithm with client-signed commands: memory writes,
// permission changes, sign/verify and state-machine writes.
ClusterConfig kv_write_pmp_signed(std::uint64_t seed) {
  ClusterConfig c = kv_base(Algorithm::kProtectedMemoryPaxos, 2, 3, seed);
  c.kv.shards = 4;
  c.kv.clients = 32;
  c.kv.ops_per_client = 1000;
  c.kv.mix = kv::Mix::kA;
  c.kv.dist = kv::KeyDist::kZipfian;
  c.kv.keys = 4096;
  c.kv.window = 4;
  c.kv.batch = 4;
  c.kv.sign_commands = true;
  return c;
}

// The paper's Byzantine algorithm in its common case (no faults): SWMR
// registers, non-equivocating broadcast, memory reads and executor wakeups.
ClusterConfig kv_byz_fastrobust(std::uint64_t seed) {
  ClusterConfig c = kv_base(Algorithm::kFastRobust, 3, 3, seed);
  c.kv.shards = 1;
  c.kv.clients = 8;
  c.kv.ops_per_client = 64;
  c.kv.mix = kv::Mix::kA;
  c.kv.dist = kv::KeyDist::kUniform;
  c.kv.keys = 256;
  c.kv.batch = 8;
  c.kv.sign_commands = true;
  return c;
}

// Faults and the upper layers at once: 2PC transfers (txn), leader crash
// with Ω failover and client retries (kv), snapshot + catch-up on rejoin
// (smr), and a live split (reconfig).
ClusterConfig txn_crash_split(std::uint64_t seed) {
  ClusterConfig c = kv_base(Algorithm::kFastPaxos, 3, 0, seed);
  c.kv.shards = 4;
  c.kv.clients = 32;
  c.kv.ops_per_client = 250;
  c.kv.mix = kv::Mix::kA;
  c.kv.dist = kv::KeyDist::kUniform;
  c.kv.keys = 4096;
  c.kv.window = 4;
  c.kv.batch = 4;
  c.kv.snapshot_interval = 64;
  c.kv.txn_fraction = 0.5;
  c.kv.txn_accounts = 2;
  c.kv.accounts = 1024;
  c.kv.txn_zipf_theta = 0.9;
  c.kv.reconfig.push_back({/*at=*/300, reconfig::ChangeKind::kSplit, 0, 4});
  c.faults.process_crashes[1] = 200;
  c.faults.process_rejoins[1] = 400;
  return c;
}

bool split_and_rejoin_happened(const ClusterConfig&, const RunReport& r) {
  return r.reconfig_migrations == 1 && r.reconfig_keys_moved > 0 &&
         r.snapshots_installed > 0;
}

const Workload kWorkloads[] = {
    {"kv_read_fastpaxos", 2, 16, kv_read_fastpaxos, every_slot_completed},
    {"kv_write_pmp_signed", 2, 16, kv_write_pmp_signed, every_slot_completed},
    {"kv_byz_fastrobust", 1, 4, kv_byz_fastrobust, every_slot_completed},
    {"txn_crash_split", 2, 32, txn_crash_split, split_and_rejoin_happened},
};

/// Warm-up runs use seeds far from any timed run's.
constexpr std::uint64_t kWarmupSeedBase = 1'000'000'000;

/// Every workload is honest: no forged or malformed command may apply and
/// no transaction may leave a lock behind, on top of the harness verdicts.
bool run_ok(const Workload& w, const ClusterConfig& c, const RunReport& r) {
  return r.all_ok() && r.kv_forged == 0 && r.kv_malformed == 0 &&
         r.kv_locks_held == 0 && w.expected(c, r);
}

// ---------------------------------------------------------------------------
// Raw per-run numbers. Every field run.py reads is a uint64 RunReport count.
// ---------------------------------------------------------------------------

constexpr std::pair<const char*, std::uint64_t RunReport::*> kFields[] = {
    {"kv_ops", &RunReport::kv_ops},
    {"kv_reads", &RunReport::kv_reads},
    {"kv_writes", &RunReport::kv_writes},
    {"events", &RunReport::events},
    {"messages_sent", &RunReport::messages_sent},
    {"mem_reads", &RunReport::mem_reads},
    {"mem_read_batches", &RunReport::mem_read_batches},
    {"mem_writes", &RunReport::mem_writes},
    {"permission_changes", &RunReport::permission_changes},
    {"signatures", &RunReport::signatures},
    {"verifications", &RunReport::verifications},
    {"tsend_deliveries", &RunReport::tsend_deliveries},
    {"history_entries_decoded", &RunReport::history_entries_decoded},
    {"slots_applied", &RunReport::slots_applied},
    {"commands_applied", &RunReport::commands_applied},
    {"noop_slots", &RunReport::noop_slots},
    {"commit_p50", &RunReport::commit_p50},
    {"commit_p999", &RunReport::commit_p999},
    {"queue_wait_p50", &RunReport::queue_wait_p50},
    {"queue_wait_p99", &RunReport::queue_wait_p99},
    {"occupancy_slots", &RunReport::occupancy_slots},
    {"occupancy_limit", &RunReport::occupancy_limit},
    {"snapshots_taken", &RunReport::snapshots_taken},
    {"snapshots_installed", &RunReport::snapshots_installed},
    {"catchup_bytes", &RunReport::catchup_bytes},
    {"kv_retries", &RunReport::kv_retries},
    {"kv_duplicates", &RunReport::kv_duplicates},
    {"kv_op_p50", &RunReport::kv_op_p50},
    {"kv_op_p99", &RunReport::kv_op_p99},
    {"kv_op_p999", &RunReport::kv_op_p999},
    {"kv_txns", &RunReport::kv_txns},
    {"kv_txn_aborts", &RunReport::kv_txn_aborts},
    {"kv_txn_conflicts", &RunReport::kv_txn_conflicts},
    {"kv_txn_commit_p50", &RunReport::kv_txn_commit_p50},
    {"kv_txn_commit_p999", &RunReport::kv_txn_commit_p999},
    {"reconfig_bounces", &RunReport::reconfig_bounces},
    {"reconfig_keys_moved", &RunReport::reconfig_keys_moved},
};

/// Virtual time of the last client reply. The report carries it only as
/// kv_ops_per_kdelay = 1000 * ops / last_reply_at, which inverts exactly
/// after rounding (last_reply_at is an integer time).
std::uint64_t virtual_time(const RunReport& r) {
  if (r.kv_ops_per_kdelay <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(
      1000.0 * static_cast<double>(r.kv_ops) / r.kv_ops_per_kdelay));
}

std::string report_json(const RunReport& r) {
  std::ostringstream os;
  os << '{';
  for (const auto& [name, field] : kFields) os << '"' << name << "\":" << r.*field << ',';
  os << "\"vtime\":" << virtual_time(r) << '}';
  return os.str();
}

/// Everything a traced replay must reproduce exactly.
std::string fingerprint(const RunReport& r) {
  std::ostringstream os;
  os << r.summary() << ' ' << report_json(r) << " epoch=" << r.reconfig_epoch
     << " flips=";
  for (const sim::Time t : r.reconfig_flip_times) os << t << ',';
  return os.str();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ---------------------------------------------------------------------------
// SIGPROF stack sampler (--trace only). The handler stores a backtrace()
// into a buffer allocated before the timer is armed; backtrace() is called
// once beforehand so the unwinder is loaded outside the handler.
// ---------------------------------------------------------------------------

namespace sampler {

constexpr int kMaxFrames = 64;
constexpr std::size_t kMaxSamples = std::size_t{1} << 15;

std::vector<void*> g_frames;
std::vector<int> g_depths;
volatile std::size_t g_count = 0;
volatile std::size_t g_dropped = 0;

void on_sigprof(int) {
  const int saved_errno = errno;
  const std::size_t i = g_count;
  if (i < kMaxSamples) {
    g_depths[i] = backtrace(&g_frames[i * kMaxFrames], kMaxFrames);
    g_count = i + 1;
  } else {
    g_dropped = g_dropped + 1;
  }
  errno = saved_errno;
}

void install() {
  g_frames.assign(kMaxSamples * kMaxFrames, nullptr);
  g_depths.assign(kMaxSamples, 0);
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction sa{};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
}

/// The kernel rounds the period up to its tick; 1 ms asks for the finest.
void start() {
  itimerval tv{};
  tv.it_interval.tv_usec = 1000;
  tv.it_value.tv_usec = 1000;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

void stop() {
  itimerval tv{};
  setitimer(ITIMER_PROF, &tv, nullptr);
}

/// The executable's own code: its load bias and executable segments.
struct ExeText {
  std::uintptr_t bias = 0;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
};

int first_object(dl_phdr_info* info, std::size_t, void* out) {
  auto* text = static_cast<ExeText*>(out);
  text->bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    text->ranges.emplace_back(lo, lo + ph.p_memsz);
  }
  return 1;  // the main program is reported first
}

/// One line per sample: the hex offsets of its frames that lie in the
/// executable, innermost first. Frames in shared libraries are left out,
/// so libc and libstdc++ time falls to the nearest caller in the binary.
bool write(const char* path) {
  ExeText text;
  dl_iterate_phdr(first_object, &text);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  for (std::size_t s = 0; s < g_count; ++s) {
    const char* sep = "";
    for (int k = 0; k < g_depths[s]; ++k) {
      const auto pc = reinterpret_cast<std::uintptr_t>(g_frames[s * kMaxFrames + k]);
      for (const auto& [lo, hi] : text.ranges) {
        if (pc >= lo && pc < hi) {
          std::fprintf(f, "%s%lx", sep, static_cast<unsigned long>(pc - text.bias));
          sep = " ";
          break;
        }
      }
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

}  // namespace sampler

// ---------------------------------------------------------------------------
// Command line and measurement loop.
// ---------------------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool setup_only = false;
  const char* trace_path = nullptr;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed S "
               "--seconds T [--setup-only] [--trace FILE]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      a.trace_path = value;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

struct Timed {
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;
  bool ok = false;
  std::string fingerprint;
  std::string report;
};

/// One run_cluster call, timed from outside; sampled when `traced`.
Timed timed_run(const Workload& w, std::uint64_t seed, bool traced) {
  const ClusterConfig c = w.config(seed);
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  if (traced) sampler::start();
  const RunReport r = run_cluster(c);
  if (traced) sampler::stop();
  Timed t;
  t.wall_s = seconds_since(t0);
  t.cpu_s = cpu_seconds() - cpu0;
  t.seed = seed;
  t.ops = r.kv_ops;
  t.ok = run_ok(w, c, r);
  t.fingerprint = fingerprint(r);
  t.report = report_json(r);
  return t;
}

void print_runs(std::ostream& os, const char* key, const std::vector<Timed>& runs) {
  os << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Timed& t = runs[i];
    os << (i > 0 ? "," : "") << "{\"seed\":" << t.seed << ",\"wall_s\":" << t.wall_s
       << ",\"ops\":" << t.ops << ",\"ok\":" << (t.ok ? "true" : "false") << '}';
  }
  os << ']';
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const Args args = parse(argc, argv);
  const Workload& w = *args.workload;

  for (std::size_t i = 0; i < w.warmups; ++i) {
    (void)run_cluster(w.config(kWarmupSeedBase + args.seed + i));
  }
  const double setup_s = seconds_since(start);

  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
      << ",\"setup_s\":" << setup_s << ",\"warmups\":" << w.warmups
      << ",\"op_slots_per_run\":" << op_slots(w.config(args.seed));
  if (args.setup_only) {
    std::printf("%s}\n", out.str().c_str());
    return 0;
  }

  std::vector<Timed> runs;
  std::vector<Timed> traced;  // --trace only
  if (args.trace_path != nullptr) sampler::install();
  double measured = 0.0;
  for (std::uint64_t r = 0; r < w.fixed_runs || measured < args.seconds; ++r) {
    const std::uint64_t seed = args.seed + r;
    if (args.trace_path == nullptr) {
      runs.push_back(timed_run(w, seed, false));
      measured += runs.back().wall_s;
      continue;
    }
    // Each fixed run is paired with its traced replay right after it, so
    // machine noise hits both alike and their wall-time ratio is the
    // sampler's overhead.
    if (r < w.fixed_runs) runs.push_back(timed_run(w, seed, false));
    traced.push_back(timed_run(w, seed, true));
    measured += traced.back().wall_s;
  }

  bool replay_matches = true;
  double traced_cpu_s = 0.0;
  if (args.trace_path != nullptr) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (traced[r].fingerprint != runs[r].fingerprint) {
        std::fprintf(stderr, "bench_e2e: traced replay of seed %llu differs\n",
                     static_cast<unsigned long long>(runs[r].seed));
        replay_matches = false;
      }
    }
    for (const Timed& t : traced) traced_cpu_s += t.cpu_s;
    if (!sampler::write(args.trace_path)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.trace_path);
      return 1;
    }
  }

  out << ",\"fixed_runs\":" << w.fixed_runs;
  print_runs(out, "runs", runs);
  out << ",\"reports\":[";
  for (std::size_t r = 0; r < w.fixed_runs; ++r) {
    out << (r > 0 ? "," : "") << runs[r].report;
  }
  out << ']';
  if (args.trace_path != nullptr) {
    print_runs(out, "traced_runs", traced);
    out << ",\"traced_cpu_s\":" << traced_cpu_s
        << ",\"samples\":" << sampler::g_count
        << ",\"samples_dropped\":" << sampler::g_dropped
        << ",\"replay_matches\":" << (replay_matches ? "true" : "false");
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out << ",\"peak_rss_kb\":" << ru.ru_maxrss << '}';
  std::printf("%s\n", out.str().c_str());
  return 0;
}
