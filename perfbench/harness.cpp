// perfbench harness — runs one benchmark workload through the library's
// public entry points and prints its raw results, one per line:
//
//   M <name> <value> <unit>   a metric
//   C <name> <0|1> <detail>   an output check (1 = passed)
//   O <attempted> <failed>    operation counts
//
// perfbench/run.py builds this binary, runs it and turns the lines into the
// benchmark's JSON result. With --trace 1 the harness also writes a Chrome
// trace (--trace-file) that run.py reduces to per-layer self times.
//
// Workloads (perfbench/README.md explains the choice):
//   recon-original  Dataset::large(), memoize/cancellation/fusion off
//   recon-mlr       Dataset::small(), full mLR + planned offload
//   serve-scaled    ReconService over the loopback tier, scaled_workload(48)
//
// Untraced mode (--trace 0) times set-up (construction + prepare()/prime())
// at least three times and for at least two seconds, then repeats the
// operation, each time on a fresh set-up, until the operations have taken
// --seconds of wall time, reporting medians.
// Traced mode (--trace 1) runs one untraced reference operation, then the
// same operation with the trace recorder on, checks that both give
// identical outputs, and only then runs the outside-in layer probes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/hash.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/mlr.hpp"
#include "encoder/encoder.hpp"
#include "lamino/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"

namespace {

using namespace mlr;

constexpr unsigned kThreads = 2;         // pinned engine width (nproc = 4)
constexpr int kMinSetups = 3;            // set-up samples per run, and
constexpr double kMinSetupSeconds = 2;   // at least this much set-up time
constexpr std::size_t kServeJobs = 48;   // scaled_workload size
constexpr double kPreemptQuantum = 589;  // virtual seconds

struct Options {
  std::string workload;
  double seconds = 10;
  bool trace = false;
  std::string trace_file = "perfbench-trace.json";
};

// ---------------------------------------------------------------- output

void metric(const char* name, double v, const char* unit) {
  std::printf("M %s %.17g %s\n", name, v, unit);
}

void check(const char* name, bool ok, const std::string& detail = "") {
  std::printf("C %s %d %s\n", name, ok ? 1 : 0,
              detail.empty() ? "-" : detail.c_str());
}

// --------------------------------------------------------------- process

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024;  // kilobytes on Linux
}

/// A fixed single-thread loop, timed. Host-speed drift diagnostic only:
/// it never scales any result.
double calibration_seconds() {
  WallTimer t;
  u64 s = 0x9e3779b97f4a7c15ull;
  double x = 1.0;
  for (int i = 0; i < 40'000'000; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    x = x * 0.999999 + double(s >> 40) * 1e-12;
  }
  volatile double sink = x;
  (void)sink;
  return t.seconds();
}

bool all_finite(const Array3D<cfloat>& u) {
  for (const cfloat& v : u.span())
    if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) return false;
  return true;
}

// ----------------------------------------------------------- layer probes

/// Median seconds of `reps` calls of `fn`.
template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  Samples xs;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    xs.add(t.seconds());
  }
  return xs.percentile(0.5);
}

/// F_u1D chunk planes of a volume: each slab of `chunk` n1-slices averaged
/// to one n0×n2 plane — the planes the engine keys.
std::vector<std::vector<cfloat>> chunk_planes(const Array3D<cfloat>& u,
                                              i64 chunk) {
  std::vector<std::vector<cfloat>> planes;
  const i64 plane = u.n0() * u.n2();
  for (const auto& c : lamino::make_chunks(u.n1(), chunk))
    planes.push_back(encoder::average_slab(
        std::span<const cfloat>(u.data() + c.begin * plane,
                                std::size_t(c.count * plane)),
        c.count, u.n0(), u.n2()));
  return planes;
}

/// encoder.forward_ms on `enc` over `planes`, and encoder.train_step_ms on a
/// separate encoder of the same configuration: `enc` is frozen to INT8 once
/// trained and refuses further steps, and training a separate encoder
/// cannot alter anything the run produced.
void probe_encoder(const encoder::CnnEncoder& enc,
                   const std::vector<std::vector<cfloat>>& planes, i64 rows,
                   i64 cols) {
  auto image = [&](std::size_t i) {
    return encoder::ChunkImage{rows, cols, planes[i % planes.size()]};
  };
  const double pass_s = median_seconds(5, [&] {
    for (std::size_t i = 0; i < planes.size(); ++i)
      (void)enc.encode_quantized(image(i));
  });
  metric("encoder.forward_ms", 1e3 * pass_s / double(planes.size()), "ms");
  encoder::CnnEncoder trainee(enc.config());
  std::size_t k = 0;
  const double step_s = median_seconds(15, [&] {
    (void)trainee.train_pair(image(k), image(k + 1));
    ++k;
  });
  metric("encoder.train_step_ms", 1e3 * step_s, "ms");
}

void probe_lamino(const lamino::Operators& ops, const Array3D<cfloat>& u) {
  const auto& g = ops.geometry();
  Array3D<cfloat> d(g.ntheta, g.h, g.w);
  Array3D<cfloat> back(u.shape());
  metric("lamino.forward_s", median_seconds(3, [&] { ops.forward(u, d); }),
         "s");
  metric("lamino.adjoint_s", median_seconds(3, [&] { ops.adjoint(d, back); }),
         "s");
}

/// Per-layer figures the always-on obs registry holds for the traced run.
void emit_registry(const obs::MetricsSnapshot& snap) {
  for (const std::string base : {"stage.encode_probe", "stage.score",
                                  "stage.miss_fft", "stage.tail_drain",
                                  "stage.sync_wait"}) {
    const auto* h = snap.histogram(base + "_s");
    metric((base + "_s").c_str(), h ? h->sum : 0.0, "s");
    metric((base + "_calls").c_str(), h ? double(h->count) : 0.0, "count");
  }

  auto starts = [](const std::string& s, const char* p) {
    return s.rfind(p, 0) == 0;
  };
  auto ends = [](const std::string& s, const char* p) {
    const std::size_t n = std::strlen(p);
    return s.size() >= n && s.compare(s.size() - n, n, p) == 0;
  };
  double requests = 0, bytes = 0;
  for (const auto& [name, v] : snap.counters) {
    if (!starts(name, "net.client.")) continue;
    if (ends(name, ".frames")) requests += double(v);
    if (ends(name, ".bytes_out") || ends(name, ".bytes_in")) bytes += double(v);
  }
  double handle_s = 0;
  for (const auto& h : snap.histograms)
    if (starts(h.name, "net.server.") && ends(h.name, ".handle_s"))
      handle_s += h.sum;
  const auto* gb = snap.histogram("net.client.GET_BATCH.latency_s");
  metric("net.requests", requests, "count");
  metric("net.bytes", bytes, "B");
  metric("net.get_batch_wait_s", gb ? gb->sum : 0.0, "s");
  metric("net.server_handle_s", handle_s, "s");
  metric("net.timeouts", double(snap.counter_value("net.table.timeouts")),
         "count");
  metric("net.retries", double(snap.counter_value("net.table.retries")),
         "count");
}

void emit_memo_counts(u64 lookups, u64 cache_hit, u64 db_hit, u64 shared,
                      u64 miss) {
  metric("memo.lookups", double(lookups), "count");
  metric("memo.cache_hit", double(cache_hit), "count");
  metric("memo.db_hit", double(db_hit), "count");
  metric("memo.db_hit_shared", double(shared), "count");
  metric("memo.miss", double(miss), "count");
  metric("memo.reuse_ratio",
         lookups > 0 ? double(cache_hit + db_hit) / double(lookups) : 0.0,
         "ratio");
}

// ------------------------------------------------------------- tracing

void trace_begin() {
  obs::metrics().reset();
  auto& tr = obs::TraceRecorder::instance();
  tr.clear();
  tr.enable();
}

void trace_end(const Options& o, double traced_wall, double untraced_wall) {
  auto& tr = obs::TraceRecorder::instance();
  tr.disable();
  const u64 dropped = tr.dropped_events();
  check("trace_written", tr.write_json(o.trace_file), o.trace_file);
  check("trace_dropped_zero", dropped == 0,
        "dropped=" + std::to_string(dropped));
  metric("trace.dropped", double(dropped), "count");
  metric("trace.overhead_ratio", traced_wall / untraced_wall - 1.0, "ratio");
  metric("traced.recon_wall_s", traced_wall, "s");
}

/// Untraced measurement: set up until kMinSetups samples and
/// kMinSetupSeconds, then run operations, each on a fresh set-up after the
/// first, until they have taken `seconds` of wall time.
template <class Setup, class Attempt>
auto measure(double seconds, const Samples& setups, Setup&& setup,
             Attempt&& attempt) {
  while (int(setups.count()) < kMinSetups ||
         setups.mean() * double(setups.count()) < kMinSetupSeconds)
    setup();
  std::vector<decltype(attempt())> ops{attempt()};
  double measured = ops.back().wall_s;
  while (measured < seconds) {
    setup();
    ops.push_back(attempt());
    measured += ops.back().wall_s;
  }
  return ops;
}

/// Traced measurement: an untraced reference operation, then the same
/// operation on a fresh set-up with the recorder on. Returns the traced one;
/// `same` tells whether both gave identical outputs.
template <class Setup, class Attempt>
auto traced(const Options& o, Setup&& setup, Attempt&& attempt, bool* same) {
  setup();
  const auto ref = attempt();
  setup();
  trace_begin();
  auto op = attempt();
  trace_end(o, op.wall_s, ref.wall_s);
  *same = same_outputs(ref, op);
  check("trace_on_off_identical", *same);
  return op;
}

// ------------------------------------------------------ recon workloads

ReconstructionConfig recon_config(bool mlr_on) {
  ReconstructionConfig c;
  c.dataset = mlr_on ? Dataset::small() : Dataset::large();
  c.iters = 10;
  c.threads = kThreads;
  c.memoize = mlr_on;
  c.tau = 0.92;
  c.cancellation = mlr_on;
  c.fusion = mlr_on;
  c.offload = mlr_on ? OffloadMode::Planned : OffloadMode::None;
  return c;
}

struct ReconOp {
  Report rep;
  double wall_s = 0, cpu_s = 0;
  u64 fingerprint = 0;
};

ReconOp run_recon(Reconstructor& rec) {
  ReconOp op;
  const double c0 = cpu_seconds();
  WallTimer t;
  {
    MLR_TRACE_SPAN("bench.run", "bench");
    op.rep = rec.run();
  }
  op.wall_s = t.seconds();
  op.cpu_s = cpu_seconds() - c0;
  const auto& u = op.rep.result.u;
  op.fingerprint = fnv1a_bytes(u.data(), u.bytes());
  return op;
}

/// Output checks of one reconstruction; false fails the operation.
bool recon_output_ok(const ReconOp& op) {
  const Report& r = op.rep;
  const bool ok = all_finite(r.result.u) && std::isfinite(r.vtime_s) &&
                  r.vtime_s > 0 && std::isfinite(r.error_vs_truth) &&
                  std::isfinite(r.peak_rss_bytes) && r.peak_rss_bytes > 0;
  check("recon_output_finite", ok,
        "vtime=" + std::to_string(r.vtime_s) +
            " error=" + std::to_string(r.error_vs_truth));
  return ok;
}

bool same_outputs(const ReconOp& a, const ReconOp& b) {
  return a.fingerprint == b.fingerprint && a.rep.vtime_s == b.rep.vtime_s &&
         a.rep.error_vs_truth == b.rep.error_vs_truth &&
         a.rep.peak_rss_bytes == b.rep.peak_rss_bytes;
}

void emit_recon_e2e(const ReconOp& op, double setup_s, double wall_s) {
  const Report& r = op.rep;
  metric("setup_s", setup_s, "s");
  metric("recon_wall_s", wall_s, "s");
  metric("recon_vtime_vs", r.vtime_s, "vs");
  metric("recon_error", r.error_vs_truth, "ratio");
  metric("host_rss_mb", peak_rss_mb(), "MB");
  metric("model_peak_mem_gb", r.peak_rss_bytes / 1e9, "GB");
  // One job arriving at an idle system with no deadline: its turnaround is
  // its run time and it cannot miss.
  metric("turnaround_p50_vs", r.vtime_s, "vs");
  metric("turnaround_p65_vs", r.vtime_s, "vs");
  metric("deadline_hit_rate", 1.0, "ratio");
}

int run_recon_workload(const Options& o, bool mlr_on) {
  const ReconstructionConfig cfg = recon_config(mlr_on);
  std::unique_ptr<Reconstructor> rec;
  Samples setups;
  auto setup = [&] {
    rec.reset();
    WallTimer t;
    rec = std::make_unique<Reconstructor>(cfg);
    rec->prepare();
    setups.add(t.seconds());
  };
  int attempted = 0, failed = 0;
  auto attempt = [&]() -> ReconOp {
    ++attempted;
    ReconOp op = run_recon(*rec);
    if (!recon_output_ok(op)) ++failed;
    return op;
  };

  if (!o.trace) {
    const auto ops = measure(o.seconds, setups, setup, attempt);
    Samples walls;
    bool same = true;
    for (const auto& op : ops) {
      walls.add(op.wall_s);
      same = same && same_outputs(ops.front(), op);
    }
    check("repeat_identical", same);
    if (!same) failed = attempted;
    emit_recon_e2e(ops.front(), setups.percentile(0.5), walls.percentile(0.5));
    std::printf("O %d %d\n", attempted, failed);
    return 0;
  }

  bool same = false;
  const ReconOp op = traced(o, setup, attempt, &same);
  if (!same) ++failed;

  const Report& r = op.rep;
  metric("core.prepare_s", setups.percentile(0.5), "s");
  metric("host.cpu_s", op.cpu_s, "s");
  metric("host.cpu_per_wall", op.cpu_s / op.wall_s, "ratio");
  emit_memo_counts(r.memo.lookups(), r.memo.cache_hit, r.memo.db_hit,
                   r.memo.db_hit_shared, r.memo.miss);
  emit_registry(obs::metrics().snapshot());
  metric("admm.ew_passes", double(r.result.ew_total.passes), "count");
  metric("admm.ew_bytes", r.result.ew_total.bytes, "B");
  metric("offload.exposed_stall_vs", r.exposed_stall_s, "vs");
  // Layers this workload never enters.
  for (const char* n :
       {"serve.jobs_submitted", "serve.jobs_completed", "serve.jobs_rejected",
        "serve.jobs_failed", "serve.preemptions", "tier.promoted",
        "tier.dedup_drops"})
    metric(n, 0, "count");
  for (const char* n : {"serve.queue_wait_p50_vs", "serve.seed_fetch_vs",
                        "fabric.contention_vs", "fabric.uplink_busy_vs"})
    metric(n, 0, "vs");
  metric("serve.slot_utilization", 0, "ratio");

  // Outside-in probes, after the timed phase, on the run's own encoder and
  // volume.
  const auto& u = r.result.u;
  probe_encoder(rec->wrapper().key_encoder(), chunk_planes(u, cfg.chunk_size),
                u.n0(), u.n2());
  probe_lamino(rec->ops(), u);
  std::printf("O %d %d\n", attempted, failed);
  return 0;
}

// ------------------------------------------------------- serve workload

serve::ServiceConfig serve_config() {
  serve::ServiceConfig sc;
  sc.n = 12;
  sc.slots = 2;
  sc.threads = kThreads;
  sc.transport = serve::TierTransport::Loopback;
  sc.admission = serve::AdmissionMode::Reject;
  sc.preempt_quantum_s = kPreemptQuantum;
  sc.iters_cap = 0;
  return sc;
}

struct ServeOp {
  std::vector<serve::JobStats> jobs;
  serve::ServiceStats stats;
  double wall_s = 0, cpu_s = 0;
  u64 fingerprint = kFnvOffsetBasis;
  double contention_vs = 0, uplink_busy_vs = 0, tier_bytes = 0;
  u64 completed = 0, rejected = 0, failed = 0;
};

ServeOp run_serve(serve::ReconService& svc,
                  const std::vector<serve::JobRequest>& traffic) {
  ServeOp op;
  const double c0 = cpu_seconds();
  WallTimer t;
  {
    MLR_TRACE_SPAN("bench.run", "bench");
    for (const auto& j : traffic) svc.submit(j);
    op.jobs = svc.drain();
  }
  op.wall_s = t.seconds();
  op.cpu_s = cpu_seconds() - c0;
  op.stats = svc.stats();
  op.contention_vs = svc.tier().fabric().contention_wait_s();
  op.uplink_busy_vs = svc.tier().fabric().uplink().busy_time();
  op.tier_bytes = svc.tier().total_bytes();
  for (const auto& st : op.jobs) {
    if (!st.admitted) {
      ++op.rejected;
      continue;
    }
    if (st.outcome != serve::JobOutcome::Completed) {
      ++op.failed;
      continue;
    }
    ++op.completed;
    op.fingerprint = fnv1a(op.fingerprint, &st.id, sizeof st.id);
    op.fingerprint = fnv1a(op.fingerprint, &st.output_fingerprint,
                           sizeof st.output_fingerprint);
    op.fingerprint = fnv1a(op.fingerprint, &st.finish, sizeof st.finish);
  }
  return op;
}

bool same_outputs(const ServeOp& a, const ServeOp& b) {
  return a.fingerprint == b.fingerprint && a.completed == b.completed &&
         a.rejected == b.rejected;
}

/// Output checks of a drain. Returns the number of failed operations: jobs
/// whose session failed, plus every job when the drain as a whole is wrong.
u64 serve_output_failures(const ServeOp& op, std::size_t submitted) {
  bool finite = true;
  for (const auto& st : op.jobs)
    if (st.admitted && st.outcome == serve::JobOutcome::Completed)
      finite = finite && std::isfinite(st.error_vs_truth) &&
               std::isfinite(st.run_vtime) && st.run_vtime > 0;
  check("serve_outputs_finite", finite);
  const bool accounted =
      op.jobs.size() == submitted &&
      op.stats.submitted == op.completed + op.rejected + op.failed &&
      op.stats.submitted == submitted;
  check("serve_accounting", accounted,
        std::to_string(op.stats.submitted) + "=" +
            std::to_string(op.completed) + "+" + std::to_string(op.rejected) +
            "+" + std::to_string(op.failed));
  check("serve_some_completed", op.completed > 0);
  if (!finite || !accounted || op.completed == 0) return submitted;
  return op.failed;
}

void emit_serve_e2e(const ServeOp& op,
                    const std::vector<serve::JobRequest>& traffic,
                    double setup_s, double wall_s, i64 n) {
  Samples turnaround, run_vtime, error;
  u64 with_deadline = 0, deadline_hits = 0;
  for (const auto& st : op.jobs) {
    const bool done =
        st.admitted && st.outcome == serve::JobOutcome::Completed;
    if (done) {
      turnaround.add(st.turnaround());
      run_vtime.add(st.run_vtime);
      error.add(st.error_vs_truth);
    }
    // Of the submissions that carry a deadline; refused or failed ones miss.
    if (traffic[std::size_t(st.id - 1)].deadline > 0) {
      ++with_deadline;
      if (done && st.deadline_met) ++deadline_hits;
    }
  }
  // The shared tier's memory-node footprint, at the paper's 1K³ scale.
  const double scale = std::pow(1024.0 / double(n), 3);
  metric("setup_s", setup_s, "s");
  metric("recon_wall_s", wall_s, "s");
  metric("recon_vtime_vs", run_vtime.mean(), "vs");
  metric("recon_error", error.mean(), "ratio");
  metric("host_rss_mb", peak_rss_mb(), "MB");
  metric("model_peak_mem_gb", op.tier_bytes * scale / 1e9, "GB");
  metric("turnaround_p50_vs", turnaround.percentile(0.50), "vs");
  metric("turnaround_p65_vs", turnaround.percentile(0.65), "vs");
  metric("deadline_hit_rate",
         with_deadline > 0 ? double(deadline_hits) / double(with_deadline)
                           : 1.0,
         "ratio");
}

int run_serve_workload(const Options& o) {
  const serve::ServiceConfig sc = serve_config();
  serve::WorkloadGenerator gen(serve::scaled_workload(kServeJobs));
  const auto traffic = gen.generate();
  const auto warm = gen.priming_set();
  std::unique_ptr<serve::ReconService> svc;
  Samples setups;
  auto setup = [&] {
    svc.reset();
    WallTimer t;
    svc = std::make_unique<serve::ReconService>(sc);
    (void)svc->prime(warm);
    setups.add(t.seconds());
  };
  u64 attempted = 0, failed = 0;
  auto attempt = [&]() -> ServeOp {
    ServeOp op = run_serve(*svc, traffic);
    attempted += traffic.size();
    failed += serve_output_failures(op, traffic.size());
    return op;
  };

  if (!o.trace) {
    const auto ops = measure(o.seconds, setups, setup, attempt);
    Samples walls;
    bool same = true;
    for (const auto& op : ops) {
      walls.add(op.wall_s);
      same = same && same_outputs(ops.front(), op);
    }
    check("repeat_identical", same);
    if (!same) failed = attempted;
    emit_serve_e2e(ops.front(), traffic, setups.percentile(0.5),
                   walls.percentile(0.5), sc.n);
    std::printf("O %llu %llu\n", (unsigned long long)attempted,
                (unsigned long long)failed);
    return 0;
  }

  bool same = false;
  const ServeOp op = traced(o, setup, attempt, &same);
  if (!same) failed += traffic.size();

  const serve::ServiceStats& s = op.stats;
  metric("core.prepare_s", setups.percentile(0.5), "s");
  metric("host.cpu_s", op.cpu_s, "s");
  metric("host.cpu_per_wall", op.cpu_s / op.wall_s, "ratio");
  emit_memo_counts(s.lookups, s.cache_hits, s.db_hits, s.shared_hits,
                   s.misses);
  emit_registry(obs::metrics().snapshot());
  metric("admm.ew_passes", 0, "count");
  metric("admm.ew_bytes", 0, "B");
  metric("offload.exposed_stall_vs", 0, "vs");
  metric("serve.jobs_submitted", double(s.submitted), "count");
  metric("serve.jobs_completed", double(op.completed), "count");
  metric("serve.jobs_rejected", double(op.rejected), "count");
  metric("serve.jobs_failed", double(op.failed), "count");
  metric("serve.preemptions", double(s.preemptions), "count");
  metric("serve.queue_wait_p50_vs", s.queue_wait.percentile(0.5), "vs");
  Samples fetch;
  for (const auto& st : op.jobs)
    if (st.admitted && st.outcome == serve::JobOutcome::Completed)
      fetch.add(st.seed_fetch_s);
  metric("serve.seed_fetch_vs", fetch.percentile(0.5), "vs");
  metric("serve.slot_utilization", s.utilization(sc.slots), "ratio");
  metric("tier.promoted", double(s.promoted), "count");
  metric("tier.dedup_drops", double(s.shared_dedup_drops), "count");
  metric("fabric.contention_vs", op.contention_vs, "vs");
  metric("fabric.uplink_busy_vs", op.uplink_busy_vs, "vs");

  // Outside-in probes on the first job's volume. The service keeps its
  // trained encoder private, so the forward probe runs on a fresh quantized
  // encoder of the same architecture (the forward pass is dense: its cost
  // does not depend on the weight values).
  const serve::JobRequest& req = traffic.front();
  const Array3D<cfloat>& u = svc->ground_truth(req.scenario, req.seed);
  encoder::CnnEncoder enc;
  enc.quantize();
  probe_encoder(enc, chunk_planes(u, sc.chunk_size), u.n0(), u.n2());
  probe_lamino(svc->ops(), u);
  std::printf("O %llu %llu\n", (unsigned long long)attempted,
              (unsigned long long)failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--trace-file") o.trace_file = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  metric("host.calib_s", calibration_seconds(), "s");
  try {
    if (o.workload == "recon-original") return run_recon_workload(o, false);
    if (o.workload == "recon-mlr") return run_recon_workload(o, true);
    if (o.workload == "serve-scaled") return run_serve_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench harness: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown --workload '%s'\n", o.workload.c_str());
  return 2;
}
