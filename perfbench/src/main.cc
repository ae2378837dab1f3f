// rtb_perfbench — one run of the end-to-end benchmark on one workload.
//
//   rtb_perfbench --workload=W --seed=N --seconds=S --trace=0|1
//                 --server=PATH/rtb_server --workdir=DIR
//
// Generates the workload's data set and request stream from the seed,
// starts rtb_server on it (five times: set-up time is the median), then
// drives it from this process over loopback:
//
//   1. warm-up       open loop at the workload's rate, untimed;
//   2. open loop     the same rate for the workload's share of S seconds
//                    (half, or 0.9 on churn_wal): SEARCH/update latency
//                    from each request's due time;
//   3. closed loop   256 requests in flight across the connections for the
//                    rest of S, or until the workload's reply limit:
//                    throughput.
//
// The open loop runs before the closed loop because the server's STATS
// latency percentiles are lifetime histograms: read right after the open
// loop they describe warm-up and open loop at one rate only.
//
// Replies are checked as they arrive and against a brute-force oracle
// afterwards. With --trace=1 the run's request stream is then replayed
// in-process (replay.h), untraced and traced, for the per-layer metrics.
//
// The last line of stdout is one JSON object with every metric, the checks
// and the run's metadata; perfbench/run.py turns it into the benchmark's
// result line. Exit status 1 when any check fails.

#include <sched.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/io.h"
#include "engine/spec.h"
#include "loadgen.h"
#include "replay.h"
#include "report/json.h"
#include "rtree/scan_kernel.h"
#include "server_process.h"
#include "sim/query_gen.h"
#include "storage/file_page_store.h"
#include "storage/page_store.h"
#include "workload.h"

namespace rtb::perfbench {
namespace {

constexpr int kSetupLaunches = 5;
constexpr uint32_t kClosedWindowTotal = 256;  // The server's max_batch.
constexpr size_t kMaxConns = 4;
constexpr uint64_t kSampleEvery = 64;
constexpr size_t kFinalSearches = 64;
constexpr size_t kKeptSpans = 20000;
// Open-loop latency windows hold at least this many searches, so a
// window's p99 has at least ten samples beyond it, and last at least
// kMinWindowSeconds. A search percentile is the median over windows of
// each window's percentile: the shared host stalls a vCPU for milliseconds
// about twice a second, and a short window confines a stall to the windows
// it falls in.
constexpr double kMinWindowSearches = 1000.0;
constexpr double kMinWindowSeconds = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "server", "workdir"}) {
    if (flags.count(required) == 0) return false;
  }
  args->workload = flags["workload"];
  args->seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args->seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  args->trace = flags["trace"] == "1";
  args->server = flags["server"];
  args->workdir = flags["workdir"];
  return args->seconds > 0.0 && flags.size() == 6;
}

// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<double> Flatten(const std::vector<std::vector<double>>& windows) {
  std::vector<double> all;
  for (const auto& w : windows) all.insert(all.end(), w.begin(), w.end());
  return all;
}

std::string Csv(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(v);
  }
  return out;
}

// Each window's p-th percentile, comma-separated.
std::string JoinWindows(const std::vector<std::vector<double>>& windows,
                        double p) {
  std::vector<double> per_window;
  for (const auto& w : windows) per_window.push_back(Percentile(w, p));
  return Csv(per_window);
}

// The median over windows of each window's p-th percentile (empty windows
// skipped).
double WindowMedian(const std::vector<std::vector<double>>& windows,
                    double p) {
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(w, p));
  }
  return Percentile(per_window, 0.5);
}

// A counter from a STATS document: section.key.
double StatNum(const report::JsonValue& doc, const char* section,
               const char* key) {
  const report::JsonValue* s = doc.Find(section);
  const report::JsonValue* v = s == nullptr ? nullptr : s->Find(key);
  return v != nullptr && v->is_number() ? v->number() : 0.0;
}

double Delta(const report::JsonValue& a, const report::JsonValue& b,
             const char* section, const char* key) {
  return StatNum(b, section, key) - StatNum(a, section, key);
}

engine::ExperimentSpec MakeSpec(const WorkloadDef& def, uint64_t seed,
                                const std::string& dir,
                                const std::string& store_name) {
  engine::ExperimentSpec spec;
  spec.name = std::string("perfbench_") + def.name;
  spec.dataset.kind = "file";
  spec.dataset.path = dir + "/data.rects";
  spec.dataset.n = def.objects;
  spec.tree.fanout = def.fanout;
  spec.tree.algo = "HS";
  spec.storage.backend = "file";
  spec.storage.path = dir + "/" + store_name;
  spec.storage.wal.enabled = def.wal;
  spec.pool.buffer_pages = def.pool_pages;
  spec.pool.policy = "LRU";
  engine::QueryClassSpec placeholder;  // Serving takes queries off the wire.
  placeholder.label = "serving";
  placeholder.count = 1;
  spec.workload.classes.push_back(placeholder);
  spec.run.seed = seed;
  spec.run.evaluate_model = false;
  return spec;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

class Metrics {
 public:
  void Put(const std::string& name, double value, const std::string& unit) {
    report::JsonDict m;
    m.PutNum("value", std::isfinite(value) ? value : 0.0);
    m.PutStr("unit", unit);
    dict_.PutDict(name, m);
  }
  const report::JsonDict& dict() const { return dict_; }

 private:
  report::JsonDict dict_;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

// Pins this process to one CPU and returns another for the server, so the
// scheduler never stacks the reactor thread and the load generator; -1 for
// both when fewer than two CPUs are allowed.
std::pair<int, int> PinCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  if (cpus.size() < 2) return {-1, -1};
  const int server_cpu = cpus[cpus.size() - 1];
  const int load_cpu = cpus[cpus.size() - 2];
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(load_cpu, &mine);
  sched_setaffinity(0, sizeof mine, &mine);
  return {server_cpu, load_cpu};
}

// Everything the load phases produced. STATS documents: `before` the open
// loop, `after_open`, and `after` the closed loop.
struct LoadRun {
  PhaseStats warm;
  PhaseStats open;
  PhaseStats closed;
  report::JsonValue before;
  report::JsonValue after_open;
  report::JsonValue after;
};

Result<LoadRun> RunLoad(const WorkloadDef& def, const Args& args,
                        LoadGen* load, uint32_t window) {
  LoadRun run;
  const double warm_s = std::clamp(args.seconds * 0.1, 0.1, 1.0);
  const double open_s = args.seconds * def.open_share;
  const double search_rate =
      def.open_rate * (1.0 - def.insert_frac - def.delete_frac);
  const double window_s =
      std::max(kMinWindowSeconds, kMinWindowSearches / search_rate);
  RTB_ASSIGN_OR_RETURN(run.warm, load->RunOpen(def.open_rate, warm_s,
                                               args.seed * 3 + 1, window_s));
  RTB_ASSIGN_OR_RETURN(run.before, load->Stats());
  RTB_ASSIGN_OR_RETURN(run.open, load->RunOpen(def.open_rate, open_s,
                                               args.seed * 3 + 2, window_s));
  RTB_ASSIGN_OR_RETURN(run.after_open, load->Stats());
  RTB_ASSIGN_OR_RETURN(run.closed, load->RunClosed(window,
                                                   args.seconds - open_s,
                                                   def.closed_ops));
  RTB_ASSIGN_OR_RETURN(run.after, load->Stats());
  return run;
}

// The output oracle. Read-only workloads: the sampled searches against a
// scan of the data set. churn_wal: the quiescent final state against the
// live set the stream left.
Status OracleChecks(const WorkloadDef& def, const Args& args,
                    const std::vector<geom::Rect>& dataset,
                    const RequestStream& stream, LoadGen* load,
                    std::vector<Check>* checks) {
  if (def.insert_frac == 0.0 && def.delete_frac == 0.0) {
    std::vector<std::pair<rtree::ObjectId, geom::Rect>> entries;
    for (size_t i = 0; i < dataset.size(); ++i) {
      entries.emplace_back(i, dataset[i]);
    }
    const BruteForce oracle(std::move(entries));
    uint64_t mismatches = 0;
    for (const auto& [pos, sample] : load->sampled()) {
      if (oracle.Search(sample.rect) != sample.ids) ++mismatches;
    }
    checks->push_back({"sampled_searches",
                       mismatches == 0 && !load->sampled().empty(),
                       std::to_string(load->sampled().size()) + " sampled, " +
                           std::to_string(mismatches) + " wrong"});
    return Status::OK();
  }
  const auto live = stream.LiveSet();
  std::vector<rtree::ObjectId> expected;
  for (const auto& [id, rect] : live) expected.push_back(id);
  RTB_ASSIGN_OR_RETURN(auto all,
                       load->SearchBurst({geom::Rect(-1.0, -1.0, 2.0, 2.0)}));
  checks->push_back(
      {"final_live_set",
       all[0] == expected &&
           expected.size() ==
               dataset.size() + stream.inserts() - stream.deletes(),
       std::to_string(all[0].size()) + " live, expected " +
           std::to_string(expected.size())});
  RTB_ASSIGN_OR_RETURN(auto queries,
                       sim::MakeGenerator(def.query, sim::GeneratorContext{}));
  Rng rng(args.seed + 77);
  std::vector<geom::Rect> rects;
  for (size_t i = 0; i < kFinalSearches; ++i) {
    rects.push_back(queries->Next(rng));
  }
  RTB_ASSIGN_OR_RETURN(auto got, load->SearchBurst(rects));
  const BruteForce oracle(live);
  uint64_t mismatches = 0;
  for (size_t i = 0; i < rects.size(); ++i) {
    if (oracle.Search(rects[i]) != got[i]) ++mismatches;
  }
  checks->push_back({"final_searches", mismatches == 0,
                     std::to_string(mismatches) + " of " +
                         std::to_string(rects.size()) + " wrong"});
  return Status::OK();
}

// Per-layer metrics from the STATS deltas over both timed phases and from
// the load generator.
void StatsMetrics(const LoadRun& run, Metrics* layer) {
  const report::JsonValue& a = run.before;
  const report::JsonValue& b = run.after;
  const double searches = Delta(a, b, "server", "searches");
  const double updates =
      Delta(a, b, "server", "inserts") + Delta(a, b, "server", "deletes");
  const double attempted =
      static_cast<double>(run.open.sent + run.closed.sent);
  const double errors =
      static_cast<double>(run.open.errors + run.closed.errors);
  layer->Put("loadgen.update_p50_ms", WindowMedian(run.open.update_ms, 0.50),
             "ms");
  layer->Put("loadgen.update_p99_ms", WindowMedian(run.open.update_ms, 0.99),
             "ms");
  layer->Put("loadgen.error_ratio", Ratio(errors, attempted), "ratio");
  layer->Put("loadgen.late_p99_ms", Percentile(run.open.late_ms, 0.99), "ms");
  layer->Put("net.effective_batch",
             Ratio(Delta(a, b, "server", "requests_admitted"),
                   Delta(a, b, "server", "batches")),
             "requests");
  layer->Put("net.server_p50_us",
             StatNum(run.after_open, "server", "latency_p50_us"), "us");
  layer->Put("net.server_p99_us",
             StatNum(run.after_open, "server", "latency_p99_us"), "us");
  layer->Put("net.pauses", Delta(a, b, "server", "pauses"), "count");
  layer->Put("rtree.nodes_per_query",
             Ratio(Delta(a, b, "executor", "search_node_accesses"), searches),
             "nodes");
  layer->Put("rtree.page_visits_per_query",
             Ratio(Delta(a, b, "executor", "search_page_visits"), searches),
             "pages");
  layer->Put("rtree.pages_mutated_per_update",
             Ratio(Delta(a, b, "executor", "update_pages_mutated"), updates),
             "pages");
  layer->Put("storage.pool_hit_rate",
             Ratio(Delta(a, b, "pool", "hits"), Delta(a, b, "pool", "requests")),
             "ratio");
  layer->Put("storage.disk_reads_per_query",
             Ratio(Delta(a, b, "pool", "misses"), searches), "reads");
  layer->Put("storage.writebacks_per_update",
             Ratio(Delta(a, b, "pool", "writebacks"), updates), "pages");
  layer->Put("storage.wal_bytes_per_update",
             Ratio(Delta(a, b, "wal", "bytes"), updates), "bytes");
}

// The replay, untraced and then traced: per-layer metrics from its spans,
// the ledger check and, on read-only workloads, the exact ties to the
// end-to-end run.
Status ReplayMetrics(const WorkloadDef& def, const Args& args,
                     const std::string& dir,
                     const std::vector<geom::Rect>& dataset,
                     uint64_t stream_requests, uint64_t e2e_node_accesses,
                     uint64_t e2e_checksum, size_t drain, Metrics* layer,
                     std::vector<Check>* checks, report::JsonDict* info) {
  const engine::ExperimentSpec spec =
      MakeSpec(def, args.seed, dir, "replay.rtb");
  Tracer untraced(false, 0);
  RequestStream base_stream(def, args.seed, dataset);
  RTB_ASSIGN_OR_RETURN(ReplayResult base,
                       Replay(spec, &base_stream, stream_requests, drain,
                              &untraced));
  Tracer tracer(true, kKeptSpans);
  RequestStream traced_stream(def, args.seed, dataset);
  RTB_ASSIGN_OR_RETURN(ReplayResult traced,
                       Replay(spec, &traced_stream, stream_requests, drain,
                              &tracer));
  RTB_RETURN_IF_ERROR(tracer.WriteChromeTrace(dir + "/trace.json"));

  auto ns = [&](SpanKind k) {
    return static_cast<double>(tracer.total(k).total_ns);
  };
  auto self_ns = [&](SpanKind k) {
    return static_cast<double>(tracer.total(k).self_ns);
  };
  double layer_ns = 0.0;
  for (SpanKind k : {SpanKind::kNetEncodeRequests, SpanKind::kNetDecode,
                     SpanKind::kRtreeUpdate, SpanKind::kRtreeSearch,
                     SpanKind::kNetEncodeReplies}) {
    layer_ns += ns(k);
  }
  const double wall_ns = traced.wall_seconds * 1e9;
  const double n_req = static_cast<double>(traced.requests);
  const double n_search = static_cast<double>(traced.searches);
  layer->Put("net.decode_ns_per_req", Ratio(ns(SpanKind::kNetDecode), n_req),
             "ns");
  layer->Put("net.encode_ns_per_reply",
             Ratio(ns(SpanKind::kNetEncodeReplies), n_req), "ns");
  layer->Put("rtree.search_us_per_query",
             Ratio(self_ns(SpanKind::kRtreeSearch), n_search) / 1e3, "us");
  layer->Put("rtree.update_us_per_op",
             Ratio(self_ns(SpanKind::kRtreeUpdate),
                   static_cast<double>(traced.updates)) /
                 1e3,
             "us");
  layer->Put("storage.read_us_per_page",
             Ratio(ns(SpanKind::kStorageRead) + ns(SpanKind::kStorageReadBatch),
                   static_cast<double>(traced.pages_read)) /
                 1e3,
             "us");
  layer->Put("storage.read_syscalls_per_query",
             Ratio(static_cast<double>(traced.io.ReadSyscalls()), n_search),
             "syscalls");
  layer->Put("storage.write_us_per_page",
             Ratio(ns(SpanKind::kStorageWrite) +
                       ns(SpanKind::kStorageWriteBatch),
                   static_cast<double>(traced.pages_written)) /
                 1e3,
             "us");
  const double unattributed = Ratio(wall_ns - layer_ns, wall_ns);
  layer->Put("trace.unattributed_ratio", unattributed, "ratio");
  layer->Put("trace.overhead_ratio",
             Ratio(traced.wall_seconds, base.wall_seconds) - 1.0, "ratio");

  checks->push_back({"ledger", unattributed <= 0.05,
                     "unattributed " + std::to_string(unattributed) +
                         " of the replay's wall time (limit 0.05)"});
  checks->push_back({"replay_errors",
                     traced.errors == 0 && traced.deletes_not_found == 0,
                     std::to_string(traced.errors) + " errors, " +
                         std::to_string(traced.deletes_not_found) +
                         " deletes missing"});
  if (def.insert_frac == 0.0 && def.delete_frac == 0.0) {
    checks->push_back(
        {"replay_node_accesses",
         traced.search_node_accesses == e2e_node_accesses,
         "replay " + std::to_string(traced.search_node_accesses) +
             ", end to end " + std::to_string(e2e_node_accesses)});
    checks->push_back({"replay_checksum",
                       traced.search_checksum == e2e_checksum,
                       "replay " + std::to_string(traced.search_checksum) +
                           ", end to end " + std::to_string(e2e_checksum)});
  }
  info->PutInt("requests", traced.requests);
  info->PutInt("drain_size", drain);
  info->PutInt("drains", traced.drains);
  info->PutNum("traced_wall_s", traced.wall_seconds);
  info->PutNum("untraced_wall_s", base.wall_seconds);
  info->PutInt("search_node_accesses", traced.search_node_accesses);
  info->PutStr("chrome_trace", dir + "/trace.json");
  return Status::OK();
}

report::JsonDict HostFingerprint() {
  utsname uts{};
  uname(&uts);
  report::JsonDict host;
  host.PutInt("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.PutStr("cpu_model", CpuModel());
  host.PutStr("kernel", std::string(uts.sysname) + " " + uts.release);
  host.PutStr("build_type", RTB_PERFBENCH_BUILD_TYPE);
  host.PutStr("compiler", RTB_PERFBENCH_COMPILER);
  host.PutStr("disk", "tree file served by the OS page cache");
  return host;
}

report::JsonDict SeamStates(const engine::ExperimentSpec& spec) {
  report::JsonDict seams;
  seams.PutStr("scan_kernel",
               rtree::ScanKernelName(rtree::ActiveScanKernel()));
  seams.PutBool("vectored_io",
                spec.storage.vectored_io && storage::VectoredIoAvailable());
  seams.PutBool("async_io", spec.storage.async_io);
  seams.PutBool("wal", spec.storage.wal.enabled);
  seams.PutBool("fsync", storage::DurableSyncActive());
  return seams;
}

int Run(const Args& args) {
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "rtb_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  auto fail = [](const std::string& what, const Status& s) {
    std::fprintf(stderr, "rtb_perfbench: %s: %s\n", what.c_str(),
                 s.ToString().c_str());
    return 1;
  };
  // Flush policy of every workload, for the server (inherited) and the
  // replay alike.
  setenv("RTB_NO_FSYNC", "1", 1);
  storage::SetDurableSync(false);

  mkdir(args.workdir.c_str(), 0755);
  char* real = realpath(args.workdir.c_str(), nullptr);
  if (real == nullptr) return fail("--workdir", Status::NotFound(args.workdir));
  const std::string dir = real;
  std::free(real);

  const std::vector<geom::Rect> dataset = MakeDataset(*def, args.seed);
  if (Status s = data::SaveRects(dir + "/data.rects", dataset); !s.ok()) {
    return fail("writing the data set", s);
  }
  const engine::ExperimentSpec spec =
      MakeSpec(*def, args.seed, dir, "tree.rtb");
  {
    std::ofstream out(dir + "/spec.json");
    out << spec.ToJsonDict().ToString() << "\n";
    if (!out) return fail("writing the spec", Status::IoError(dir));
  }
  const auto [server_cpu, load_cpu] = PinCpus();

  // Set-up, timed several times; the last server stays up for the load.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetupLaunches; ++i) {
    if (server != nullptr) {
      if (Status s = server->Stop(); !s.ok()) return fail("stopping", s);
    }
    auto launched = ServerProcess::Launch(args.server, dir + "/spec.json",
                                          dir + "/server_stats.json",
                                          server_cpu);
    if (!launched.ok()) return fail("launching rtb_server", launched.status());
    server = std::move(*launched);
    setups.push_back(server->setup_seconds());
  }

  const size_t conns = std::clamp<size_t>(
      static_cast<size_t>(sysconf(_SC_NPROCESSORS_ONLN)), 1, kMaxConns);
  const uint32_t window = kClosedWindowTotal / static_cast<uint32_t>(conns);
  const bool read_only = def->insert_frac == 0.0 && def->delete_frac == 0.0;
  RequestStream stream(*def, args.seed, dataset);
  auto load = LoadGen::Connect(server->port(), conns, &stream,
                               read_only ? kSampleEvery : 0);
  if (!load.ok()) return fail("connecting", load.status());
  auto run = RunLoad(*def, args, load->get(), window);
  if (!run.ok()) return fail("load", run.status());

  std::vector<Check> checks;
  checks.push_back({"warmup_errors", run->warm.errors == 0,
                    std::to_string(run->warm.errors) + " error replies"});
  checks.push_back({"deletes_found", (*load)->deletes_not_found() == 0,
                    std::to_string((*load)->deletes_not_found()) +
                        " DELETE replies reported the object missing"});
  if (Status s = OracleChecks(*def, args, dataset, stream, load->get(),
                              &checks);
      !s.ok()) {
    return fail("oracle", s);
  }
  auto rss = server->PeakRssMb();
  if (!rss.ok()) return fail("reading VmHWM", rss.status());
  const uint64_t e2e_checksum = (*load)->search_checksum();
  load->reset();  // Close the connections before the server drains.
  if (Status s = server->Stop(); !s.ok()) return fail("stopping", s);

  Metrics e2e;
  e2e.Put("setup_s", Percentile(setups, 0.5), "s");
  e2e.Put("throughput_ops",
          Ratio(static_cast<double>(run->closed.replies_in_phase),
                run->closed.elapsed_seconds),
          "ops/s");
  e2e.Put("search_p50_ms", WindowMedian(run->open.search_ms, 0.50), "ms");
  e2e.Put("search_p99_ms", WindowMedian(run->open.search_ms, 0.99), "ms");
  e2e.Put("peak_rss_mb", *rss, "MB");

  Metrics layer;
  StatsMetrics(*run, &layer);
  report::JsonDict replay_info;
  if (args.trace) {
    // The stream exactly as the server received it, regenerated from the
    // seed, in drains of the size the server formed.
    const double batch = Ratio(
        Delta(run->before, run->after, "server", "requests_admitted"),
        Delta(run->before, run->after, "server", "batches"));
    const size_t drain =
        std::max<size_t>(1, static_cast<size_t>(std::llround(batch)));
    const uint64_t e2e_nodes = static_cast<uint64_t>(
        StatNum(run->after, "executor", "search_node_accesses"));
    if (Status s = ReplayMetrics(*def, args, dir, dataset, stream.size(),
                                 e2e_nodes, e2e_checksum, drain, &layer,
                                 &checks, &replay_info);
        !s.ok()) {
      return fail("replay", s);
    }
  }

  bool correct = true;
  report::JsonDict check_dict;
  for (const Check& c : checks) {
    correct = correct && c.ok;
    report::JsonDict d;
    d.PutBool("ok", c.ok);
    d.PutStr("detail", c.detail);
    check_dict.PutDict(c.name, d);
  }

  report::JsonDict load_info;
  load_info.PutInt("connections", conns);
  load_info.PutInt("threads", 1);
  load_info.PutNum("server_cpu", server_cpu);
  load_info.PutNum("load_cpu", load_cpu);
  load_info.PutInt("closed_window_per_connection", window);
  load_info.PutNum("open_rate_ops", def->open_rate);
  load_info.PutNum("open_s", args.seconds * def->open_share);
  load_info.PutNum("closed_s", run->closed.elapsed_seconds);
  load_info.PutInt("closed_reply_limit", def->closed_ops);
  // The log's length when the load ended: rtb_server truncates it only at
  // start and at shutdown.
  load_info.PutNum("wal_bytes", StatNum(run->after, "wal", "bytes"));
  load_info.PutNum("window_s", run->open.window_seconds);
  load_info.PutInt("open_sent", run->open.sent);
  const std::vector<double> all_search = Flatten(run->open.search_ms);
  load_info.PutInt("open_search_samples", all_search.size());
  load_info.PutNum("open_search_p999_ms", Percentile(all_search, 0.999));
  load_info.PutNum("open_search_max_ms", Percentile(all_search, 1.0));
  load_info.PutStr("open_search_p99_ms_per_window",
                   JoinWindows(run->open.search_ms, 0.99));
  load_info.PutInt("open_update_samples",
                   Flatten(run->open.update_ms).size());
  load_info.PutInt("closed_sent", run->closed.sent);
  load_info.PutStr("setup_runs_s", Csv(setups));
  report::JsonDict meta;
  meta.PutStr("workload", def->name);
  meta.PutStr("why", def->why);
  meta.PutInt("seed", args.seed);
  meta.PutDict("host", HostFingerprint());
  meta.PutDict("seams", SeamStates(spec));
  meta.PutDict("load", load_info);
  if (args.trace) meta.PutDict("replay", replay_info);

  report::JsonDict out;
  out.PutBool("correct", correct);
  out.PutInt("attempted", run->open.sent + run->closed.sent);
  out.PutInt("failed", run->open.errors + run->closed.errors);
  out.PutDict("end_to_end", e2e.dict());
  out.PutDict("per_layer", layer.dict());
  out.PutDict("checks", check_dict);
  out.PutDict("meta", meta);
  std::printf("%s\n", out.ToString().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rtb::perfbench

int main(int argc, char** argv) {
  rtb::perfbench::Args args;
  if (!rtb::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rtb_perfbench --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --server=PATH --workdir=DIR\n");
    return 2;
  }
  return rtb::perfbench::Run(args);
}
