// perfbench_probe — the benchmark's in-process half.
//
// run.py starts the shipped `phonolid` binary and this probe; the probe
// reaches the program only through its public library API and the serve
// wire client.  Three subcommands, each printing one JSON object as the
// last line of stdout:
//
//   ready  --port-file F
//       Prints "armed", then polls F until it names a port that answers a
//       ping; prints "ready <CLOCK_MONOTONIC seconds>".  run.py starts the
//       probe before the daemon, so the daemon's set-up time excludes the
//       probe's own start-up.
//
//   load   --port P --pid PID --mode closed|open --seconds S --seed N
//          --model-seed M --tier all|3s [--trace-out F] [--tag NAME]
//       Scores the pooled quick test set of corpus seed M against the
//       daemon (closed loop: kClients clients, each sending its next request
//       as soon as the previous one returns; open loop: a Poisson schedule
//       of kOpenRateRps requests/s spread over kClients connections,
//       latency timed from each request's due time).  Reports every
//       latency, the daemon's CPU and peak RSS from /proc/PID, exact phase
//       means from the daemon's stats frame, and each utterance's LLRs as
//       %.17g text for run.py's ledger check.
//
//   ladder --seed N --utt-seed U --tier all|3s --work-dir D
//          [--trace-out F]
//       The traced layer ladder: times the public entry point of every
//       layer (corpus render, FFT, feature pipelines, GEMM, AM training and
//       scoring, Viterbi, supervectors, VSM, fusion, DBA, freeze, bundle
//       load, batched scoring, artifact store, parallel_for) on inputs made
//       from the seeds, and derives one metric per layer from its spans.
//
// With --trace-out every timed call is kept as a span in memory (name,
// start, end, parent span, request id for serve calls) and written at exit
// as Chrome trace-event JSON.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/frozen_model.h"
#include "core/stage_cache.h"
#include "core/subsystem.h"
#include "corpus/dataset.h"
#include "decoder/phone_loop_decoder.h"
#include "dsp/features.h"
#include "dsp/fft.h"
#include "eval/metrics.h"
#include "la/kernels.h"
#include "obs/json.h"
#include "phonotactic/supervector.h"
#include "pipeline/artifact_store.h"
#include "serve/client.h"
#include "svm/vsm.h"
#include "util/thread_pool.h"

namespace {

using namespace phonolid;

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void sleep_until_mono(double t) {
  for (;;) {
    const double left = t - mono_s();
    if (left <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

// ---------------------------------------------------------------- spans ---

/// In-memory span recorder.  Spans nest per thread: a span's parent is the
/// innermost span open on the same thread when it began, unless an explicit
/// parent id is given (a client thread's request spans hang off the load
/// span opened on the main thread).
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request_id = 0;
    std::uint64_t tid = 0;
  };

  bool enabled = true;
  /// Parent of this process's root spans (a span id of the caller).
  std::uint64_t root_parent = 0;

  /// Opens `r` on this thread: assigns its id, parent and thread number.
  void begin(Record& r, std::uint64_t parent) {
    r.id = id_base_ + next_id_.fetch_add(1) + 1;
    r.parent = parent != 0 ? parent : (stack().empty() ? root_parent : stack().back());
    r.tid = thread_number();
    stack().push_back(r.id);
    r.start_s = mono_s();
  }

  /// Closes the innermost span open on this thread and keeps it.
  void end(Record r) {
    r.end_s = mono_s();
    stack().pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    done_.push_back(std::move(r));
  }

  /// Total seconds and count of finished spans with this exact name.
  [[nodiscard]] std::pair<double, std::size_t> total(
      const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& r : done_) {
      if (r.name == name) {
        sum += r.end_s - r.start_s;
        ++n;
      }
    }
    return {sum, n};
  }

  void write_chrome_trace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    obs::Json events = obs::Json::array();
    for (const auto& r : done_) {
      obs::Json e = obs::Json::object();
      e["name"] = r.name;
      e["ph"] = "X";
      e["pid"] = static_cast<long>(getpid());
      e["tid"] = r.tid;
      // CLOCK_MONOTONIC microseconds: run.py merges these events with its
      // own spans on the same clock.
      e["ts"] = r.start_s * 1e6;
      e["dur"] = (r.end_s - r.start_s) * 1e6;
      obs::Json args = obs::Json::object();
      args["id"] = r.id;
      args["parent"] = r.parent;
      if (r.request_id != 0) args["request_id"] = r.request_id;
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    obs::Json doc = obs::Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << doc.dump_string(0) << '\n';
  }

 private:
  static std::vector<std::uint64_t>& stack() {
    thread_local std::vector<std::uint64_t> s;
    return s;
  }
  std::uint64_t thread_number() {
    thread_local std::uint64_t n = next_tid_.fetch_add(1) + 1;
    return n;
  }

  mutable std::mutex mu_;
  std::vector<Record> done_;
  // Span ids are unique across the processes of one benchmark run.
  const std::uint64_t id_base_ = static_cast<std::uint64_t>(getpid()) << 32;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_tid_{0};
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(std::string name, std::uint64_t parent = 0) {
    if (!g_tracer.enabled) return;
    rec_.name = std::move(name);
    g_tracer.begin(rec_, parent);
  }
  ~Span() {
    if (rec_.id != 0) g_tracer.end(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_request_id(std::uint64_t id) { rec_.request_id = id; }
  [[nodiscard]] std::uint64_t id() const { return rec_.id; }

 private:
  Tracer::Record rec_;
};

// ----------------------------------------------------------------- args ---

struct Args {
  std::map<std::string, std::string> kv;

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = kv.find(key);
    if (it != kv.end()) return it->second;
    if (fallback.empty()) throw std::runtime_error("missing --" + key);
    return fallback;
  }
  [[nodiscard]] long integer(const std::string& key, long fallback) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    long v = 0;
    const auto& t = it->second;
    const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || p != t.data() + t.size() || t.empty()) {
      throw std::runtime_error("--" + key + " expects an integer, got " + t);
    }
    return v;
  }
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      throw std::runtime_error("--" + key + " expects a number");
    }
    return v;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument " + key);
    }
    a.kv[key.substr(2)] = argv[++i];
  }
  return a;
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Utterance pool of a workload: every pooled test utterance, or the
/// short (3 s) tier only.
std::vector<std::size_t> utterance_pool(const corpus::LreCorpus& corpus,
                                        const std::string& tier) {
  if (tier == "3s") return corpus.test_indices(corpus::DurationTier::k3s);
  if (tier != "all") throw std::runtime_error("--tier must be all or 3s");
  std::vector<std::size_t> all(corpus.test().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

/// Request order: back-to-back seeded permutations of the pool, so the
/// first |pool| requests cover every utterance exactly once.
std::vector<std::size_t> request_order(const std::vector<std::size_t>& pool,
                                       std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order;
  order.reserve(count + pool.size());
  while (order.size() < count) {
    std::vector<std::size_t> perm = pool;
    std::shuffle(perm.begin(), perm.end(), rng);
    order.insert(order.end(), perm.begin(), perm.end());
  }
  order.resize(count);
  return order;
}

// ---------------------------------------------------------------- ready ---

/// Seconds the daemon gets to answer its first ping.
constexpr double kReadyTimeoutS = 60.0;

int cmd_ready(const Args& args) {
  const std::string port_file = args.str("port-file");
  const double deadline = mono_s() + kReadyTimeoutS;
  std::printf("armed\n");
  std::fflush(stdout);
  while (mono_s() < deadline) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      try {
        serve::Client client;
        client.connect("127.0.0.1", port);
        if (client.ping().status == serve::Status::kOk) {
          std::printf("ready %.9f\n", mono_s());
          return 0;
        }
      } catch (const std::exception&) {
        // Not accepting yet.
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::fprintf(stderr, "ready: no ping answer before the timeout\n");
  return 1;
}

// ----------------------------------------------------------------- load ---

struct ProcSample {
  double cpu_s = 0.0;
  double hwm_mb = 0.0;
};

ProcSample read_proc(long pid) {
  ProcSample s;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid));
  }
  std::istringstream fields(text.substr(close + 2));
  std::vector<std::string> f;
  for (std::string tok; fields >> tok;) f.push_back(tok);
  // Fields after the comm: state is index 0, utime 11, stime 12.
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  s.cpu_s = (std::stod(f.at(11)) + std::stod(f.at(12))) / ticks;
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.hwm_mb = std::stod(line.substr(6)) / 1024.0;
    }
  }
  return s;
}

obs::Json daemon_stats(int port) {
  serve::Client client;
  client.connect("127.0.0.1", port);
  const serve::Response r = client.stats();
  if (r.status != serve::Status::kOk) {
    throw std::runtime_error("stats frame failed: " + r.text);
  }
  return obs::Json::parse(r.text);
}

double stat_number(const obs::Json& doc, const std::vector<std::string>& path) {
  const obs::Json* node = &doc;
  for (const auto& key : path) {
    node = node->find(key);
    if (node == nullptr) return 0.0;
  }
  return node->is_number() ? node->as_double() : 0.0;
}

/// Exact mean of one stats histogram over the window (sum and count
/// deltas, never bucket edges).
double window_mean(const obs::Json& before, const obs::Json& after,
                   std::vector<std::string> path) {
  path.push_back("count");
  const double dn = stat_number(after, path) - stat_number(before, path);
  path.back() = "sum";
  return dn > 0.0 ? (stat_number(after, path) - stat_number(before, path)) / dn : 0.0;
}

struct Sample {
  std::size_t utt = 0;
  double due_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  bool answered = false;  // an OK status came back
  bool ok = false;        // ... with a well-formed LLR vector
};

/// Client threads, one connection each: at most nproc on the 4-core host
/// the benchmark targets.
constexpr std::size_t kClients = 4;
/// Open-loop arrival rate, about half the daemon's closed-loop capacity.
constexpr double kOpenRateRps = 20.0;
/// Seconds past the end of the open-loop schedule after which no request
/// is sent any more.
constexpr double kDrainLimitS = 60.0;

int cmd_load(const Args& args) {
  const int port = static_cast<int>(args.integer("port", 0));
  const long pid = args.integer("pid", 0);
  const std::string mode = args.str("mode");
  const bool open_loop = mode == "open";
  if (!open_loop && mode != "closed") {
    throw std::runtime_error("--mode must be closed or open");
  }
  const double seconds = args.number("seconds", 10.0);
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  const auto model_seed = static_cast<std::uint64_t>(args.integer("model-seed", 0));
  const std::string trace_out = args.str("trace-out", "-");
  const std::string tag = args.str("tag", "load");
  g_tracer.enabled = trace_out != "-";
  if (port <= 0 || pid <= 0 || seconds <= 0.0) {
    throw std::runtime_error("load needs --port, --pid, --seconds > 0");
  }

  const auto corpus = corpus::LreCorpus::build(
      corpus::CorpusConfig::preset(util::Scale::kQuick, model_seed));
  const auto& test = corpus.test();
  const std::vector<std::size_t> pool = utterance_pool(corpus, args.str("tier"));

  // Schedule: the open loop fixes every due time up front — a Poisson
  // process at kOpenRateRps conditioned on its count, i.e. kOpenRateRps *
  // seconds sorted uniform arrival times, so every seed offers the same
  // number of requests.  The closed loop sends each request when its client's
  // previous one returns, so its due time is that moment.
  std::mt19937_64 arrival_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> due;
  if (open_loop) {
    std::uniform_real_distribution<double> at(0.0, seconds);
    due.resize(static_cast<std::size_t>(std::llround(kOpenRateRps * seconds)));
    for (auto& t : due) t = at(arrival_rng);
    std::sort(due.begin(), due.end());
  }
  const std::size_t capacity =
      open_loop ? due.size() : static_cast<std::size_t>(seconds * 2000.0) + pool.size();
  const std::vector<std::size_t> order = request_order(pool, capacity, seed);

  // Warm-up outside the window: one request per client connection.
  {
    serve::Client warm;
    warm.connect("127.0.0.1", port);
    for (std::size_t i = 0; i < std::min(kClients, pool.size()); ++i) {
      (void)warm.score(test[pool[i]].samples);
    }
  }

  const obs::Json stats_before = daemon_stats(port);
  const ProcSample proc_before = read_proc(pid);

  std::vector<Sample> samples(capacity);
  std::vector<std::vector<float>> first_llr(test.size());
  std::vector<std::uint8_t> have_llr(test.size(), 0);
  std::mutex llr_mu;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> repeat_mismatches{0};
  std::atomic<std::size_t> connect_errors{0};
  std::atomic<std::size_t> wrong_answers{0};  // OK status, wrong LLR count
  std::vector<double> gaps_ms;  // closed loop: previous reply -> next send
  std::mutex gaps_mu;

  auto load_span = std::make_unique<Span>("loadgen." + tag);
  const double t0 = mono_s();
  const double t_end = t0 + seconds;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const Span client_span("loadgen.client" + std::to_string(c), load_span->id());
      serve::Client client;
      try {
        client.connect("127.0.0.1", port);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %zu: %s\n", c, e.what());
        connect_errors.fetch_add(1);
        return;
      }
      std::vector<double> local_gaps;
      double prev_done = 0.0;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= capacity) break;
        Sample& s = samples[i];
        s.utt = order[i];
        if (open_loop) {
          s.due_s = t0 + due[i];
          sleep_until_mono(s.due_s);
          // A daemon that has fallen this far behind gets no more load: the
          // rest of the schedule counts as failed, and the run stays short.
          if (mono_s() > t_end + kDrainLimitS) continue;
        } else {
          s.due_s = mono_s();
          if (s.due_s >= t_end) {
            s.send_s = s.done_s = 0.0;
            next.store(capacity);
            break;
          }
        }
        serve::Response resp;
        s.send_s = mono_s();
        if (prev_done > 0.0 && !open_loop) {
          local_gaps.push_back((s.send_s - prev_done) * 1e3);
        }
        try {
          Span call("serve.Client::score");
          resp = client.score(test[s.utt].samples);
          call.set_request_id(resp.trace_id);
        } catch (const std::exception& e) {
          // The connection is gone: this request failed, and the other
          // clients take over the rest of the work.
          std::fprintf(stderr, "utt %zu: %s\n", s.utt, e.what());
          s.done_s = mono_s();
          return;
        }
        s.done_s = prev_done = mono_s();
        if (resp.status != serve::Status::kOk) {
          std::fprintf(stderr, "utt %zu: status %s (%s)\n", s.utt,
                       serve::to_string(resp.status), resp.text.c_str());
          continue;
        }
        // An OK reply with the wrong number of LLRs is a wrong answer, not
        // a failed request.
        s.answered = true;
        s.ok = resp.llr.size() == corpus.num_target_languages();
        if (!s.ok) {
          std::fprintf(stderr, "utt %zu: %zu LLRs, expected %zu\n", s.utt,
                       resp.llr.size(), corpus.num_target_languages());
          wrong_answers.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(llr_mu);
        if (!have_llr[s.utt]) {
          first_llr[s.utt] = resp.llr;
          have_llr[s.utt] = 1;
        } else if (first_llr[s.utt] != resp.llr) {
          repeat_mismatches.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(gaps_mu);
      gaps_ms.insert(gaps_ms.end(), local_gaps.begin(), local_gaps.end());
    });
  }
  for (auto& t : threads) t.join();
  load_span.reset();

  const ProcSample proc_after = read_proc(pid);
  const obs::Json stats_after = daemon_stats(port);

  // Keep the requests that were issued (the closed loop stops issuing at
  // the deadline; in-flight ones complete and count).  Every scheduled
  // open-loop request was attempted, sent or not.
  std::vector<Sample> issued;
  for (const auto& s : samples) {
    if (s.send_s > 0.0) issued.push_back(s);
  }
  if (issued.empty()) throw std::runtime_error("no request was sent");
  const std::size_t attempted = open_loop ? capacity : issued.size();
  double first_send = issued.front().due_s, last_done = 0.0;
  obs::Json latency = obs::Json::array();
  obs::Json late = obs::Json::array();
  std::size_t ok = 0, answered = 0;
  double send_latency_sum_ms = 0.0, last_send = 0.0;
  for (const auto& s : issued) {
    first_send = std::min(first_send, s.due_s);
    last_done = std::max(last_done, s.done_s);
    last_send = std::max(last_send, s.send_s);
    if (s.answered) ++answered;
    if (s.ok) {
      ++ok;
      latency.push_back((s.done_s - s.due_s) * 1e3);
      send_latency_sum_ms += (s.done_s - s.send_s) * 1e3;
    }
    if (open_loop) late.push_back((s.send_s - s.due_s) * 1e3);
  }
  if (!open_loop) {
    for (double g : gaps_ms) late.push_back(g);
  }

  // Quality of the served scores: pooled EER and Cavg over every utterance
  // that came back OK, against its true language.
  std::vector<std::size_t> served;
  for (std::size_t u = 0; u < test.size(); ++u) {
    if (have_llr[u]) served.push_back(u);
  }
  const std::size_t k = corpus.num_target_languages();
  util::Matrix llr(served.size(), k);
  std::vector<std::int32_t> labels(served.size());
  obs::Json llr_text = obs::Json::object();
  for (std::size_t i = 0; i < served.size(); ++i) {
    const std::size_t u = served[i];
    labels[i] = test[u].language;
    obs::Json row = obs::Json::array();
    for (std::size_t j = 0; j < k; ++j) {
      llr(i, j) = first_llr[u][j];
      row.push_back(fmt17(static_cast<double>(first_llr[u][j])));
    }
    llr_text[std::to_string(u)] = std::move(row);
  }

  obs::Json out = obs::Json::object();
  out["requests"] = attempted;
  out["ok"] = ok;
  // Failed: no OK status (shed, error, dropped connection, never sent).
  out["failed"] = attempted - answered;
  out["wrong_answers"] = wrong_answers.load();
  out["connect_errors"] = connect_errors.load();
  out["repeat_mismatches"] = repeat_mismatches.load();
  out["window_s"] = last_done - first_send;
  out["send_span_s"] = last_send - first_send;
  // Client-observed latency from the moment of sending, the figure the
  // daemon's own phase split should add up to.
  out["send_latency_mean_ms"] = ok > 0 ? send_latency_sum_ms / static_cast<double>(ok) : 0.0;
  out["latency_ms"] = std::move(latency);
  out["late_ms"] = std::move(late);
  out["daemon_cpu_s"] = proc_after.cpu_s - proc_before.cpu_s;
  out["daemon_hwm_mb"] = proc_after.hwm_mb;
  if (!served.empty()) {
    out["eer"] = eval::equal_error_rate(eval::TrialSet::from_scores(llr, labels));
    out["cavg"] = eval::cavg(llr, labels, k);
  }
  obs::Json phases = obs::Json::object();
  phases["latency_mean_ms"] = window_mean(stats_before, stats_after, {"latency_ms"});
  phases["queue_wait_mean_ms"] =
      window_mean(stats_before, stats_after, {"phases", "queue_wait_ms"});
  phases["batch_wait_mean_ms"] =
      window_mean(stats_before, stats_after, {"phases", "batch_wait_ms"});
  phases["compute_mean_ms"] =
      window_mean(stats_before, stats_after, {"phases", "compute_ms"});
  phases["write_mean_ms"] =
      window_mean(stats_before, stats_after, {"phases", "write_ms"});
  phases["batch_size_mean"] = window_mean(stats_before, stats_after, {"batch"});
  double sheds = 0.0;
  for (const char* why : {"overloaded", "deadline", "shutdown"}) {
    sheds += stat_number(stats_after, {"sheds", why}) -
             stat_number(stats_before, {"sheds", why});
  }
  phases["sheds"] = sheds;
  out["daemon"] = std::move(phases);
  out["llr"] = std::move(llr_text);
  if (g_tracer.enabled) g_tracer.write_chrome_trace(trace_out);
  std::printf("%s\n", out.dump_string(0).c_str());
  return 0;
}

// --------------------------------------------------------------- ladder ---

/// Repeat `body` until `min_s` seconds have passed; returns seconds per call.
template <typename F>
double per_call_s(double min_s, F&& body) {
  std::size_t calls = 0;
  const double t0 = mono_s();
  double t = t0;
  do {
    body();
    ++calls;
    t = mono_s();
  } while (t - t0 < min_s);
  return (t - t0) / static_cast<double>(calls);
}

int cmd_ladder(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  const auto utt_seed = static_cast<std::uint64_t>(args.integer("utt-seed", 1));
  const std::string tier = args.str("tier");
  const std::string work = args.str("work-dir");
  const std::string trace_out = args.str("trace-out", "-");
  const std::size_t sample_utts = 12;
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  obs::Json m = obs::Json::object();
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t threads = pool.num_threads();

  // util: an empty-body parallel_for round trip over one index per worker.
  {
    const Span s("util.parallel_for");
    m["util.parallel_for_us"] = 1e6 * per_call_s(0.2, [&] {
      util::parallel_for(pool, 0, threads, [](std::size_t) {});
    });
  }

  auto cfg = core::ExperimentConfig::preset(util::Scale::kQuick, seed);
  cfg.cache_dir = work + "/store";
  corpus::LreCorpus corpus;
  {
    const Span s("corpus.LreCorpus::build");
    corpus = corpus::LreCorpus::build(cfg.corpus);
  }
  m["corpus.render_s"] = g_tracer.total("corpus.LreCorpus::build").first;
  double audio_samples = 0.0;
  auto add_audio = [&](const corpus::Dataset& d) {
    for (const auto& u : d) audio_samples += static_cast<double>(u.samples.size());
  };
  for (std::size_t i = 0; i < corpus.native_languages().size(); ++i) {
    add_audio(corpus.am_train(i));
  }
  add_audio(corpus.vsm_train());
  add_audio(corpus.dev());
  add_audio(corpus.test());
  m["corpus.audio_s"] = audio_samples / cfg.corpus.sample_rate;

  // The workload's utterances: a seeded sample of the pool it scores.
  const std::vector<std::size_t> utt_pool = utterance_pool(corpus, tier);
  const std::vector<std::size_t> sample =
      request_order(utt_pool, std::min(sample_utts, utt_pool.size()), utt_seed);

  // dsp: one FFT power spectrum on a seeded frame.
  {
    dsp::MfccConfig mcfg;
    const dsp::Fft fft(mcfg.n_fft);
    std::vector<float> frame(mcfg.n_fft), power(mcfg.n_fft / 2 + 1);
    std::mt19937 rng(static_cast<std::uint32_t>(seed));
    std::normal_distribution<float> noise;
    for (auto& v : frame) v = noise(rng);
    std::vector<std::complex<float>> scratch;
    const Span s("dsp.Fft::power_spectrum");
    m["dsp.power_spectrum_us"] = 1e6 * per_call_s(0.2, [&] {
      fft.power_spectrum(frame, power, scratch);
    });
  }

  // Front ends: train each (AM layer), then decode every split (core).
  const pipeline::StageKey corpus_key =
      core::corpus_stage_key(cfg.corpus, cfg.scale, cfg.seed);
  pipeline::ArtifactStore store(cfg.cache_dir);
  std::vector<std::unique_ptr<core::Subsystem>> subs;
  std::vector<am::HmmTransitions> transitions;
  std::vector<core::DecodedSupervectors> decoded;
  double artifact_bytes = 0.0;
  const double frontends_wall0 = mono_s(), frontends_cpu0 = process_cpu_s();
  for (core::FrontEndSpec spec : cfg.frontends) {
    spec.use_lattice_counts = cfg.use_lattice_counts;
    const bool nn = spec.family != core::ModelFamily::kGmmHmm;
    core::TrainedFrontEnd fe;
    {
      const Span s(nn ? "am.train_front_end[nn]" : "am.train_front_end[gmm]");
      fe = core::Subsystem::train_front_end(corpus, spec, cfg.seed);
    }
    transitions.push_back(fe.transitions());
    const pipeline::StageKey fe_key =
        core::frontend_stage_key(corpus_key, spec, cfg.seed);
    store.save(fe_key, [&](std::ostream& out) { fe.serialize(out); });
    auto sub = core::Subsystem::assemble(corpus, spec, std::move(fe));
    core::DecodedSupervectors ds;
    {
      const Span s("core.Subsystem::decode_splits");
      ds = sub->decode_splits(corpus);
    }
    // pipeline: store and reload the decoded-supervector product under the
    // key the trainer uses, so the Experiment below starts warm.
    const pipeline::StageKey sv_key = core::supervectors_stage_key(fe_key);
    {
      const Span s("pipeline.ArtifactStore::save");
      store.save(sv_key, [&](std::ostream& out) { ds.serialize(out); });
    }
    {
      const Span s("pipeline.ArtifactStore::load");
      core::DecodedSupervectors back;
      if (!store.load(sv_key, [&](std::istream& in) {
            back = core::DecodedSupervectors::deserialize(in);
          })) {
        throw std::runtime_error("artifact store lost a fresh product");
      }
    }
    artifact_bytes += static_cast<double>(
        std::filesystem::file_size(store.path_for(sv_key)));
    decoded.push_back(std::move(ds));
    subs.push_back(std::move(sub));
  }
  // util: how much of the pool the trainer's dominant section keeps busy.
  m["util.parallel_efficiency"] =
      (process_cpu_s() - frontends_cpu0) /
      ((mono_s() - frontends_wall0) * static_cast<double>(threads));
  const auto [nn_train_s, nn_n] = g_tracer.total("am.train_front_end[nn]");
  const auto [gmm_train_s, gmm_n] = g_tracer.total("am.train_front_end[gmm]");
  m["am.train_nn_s"] = nn_n > 0 ? nn_train_s / static_cast<double>(nn_n) : 0.0;
  m["am.train_gmm_s"] = gmm_n > 0 ? gmm_train_s / static_cast<double>(gmm_n) : 0.0;
  const double decode_splits_s = g_tracer.total("core.Subsystem::decode_splits").first;
  m["core.decode_splits_s"] = decode_splits_s;
  const double artifacts = static_cast<double>(subs.size());
  m["pipeline.save_ms"] = 1e3 * g_tracer.total("pipeline.ArtifactStore::save").first / artifacts;
  m["pipeline.load_ms"] = 1e3 * g_tracer.total("pipeline.ArtifactStore::load").first / artifacts;
  m["pipeline.artifact_bytes"] = artifact_bytes / artifacts;

  // The per-utterance chain, layer by layer, against Subsystem::process on
  // the same utterances.  Each layer runs on its own, so its time is not
  // blurred by the others.
  double frames_mfcc = 0.0, frames_plp = 0.0, frames_nn = 0.0, frames_gmm = 0.0;
  double frames_all = 0.0, edges = 0.0, nnz = 0.0, chain_utts = 0.0;
  std::size_t gemm_m = 0, gemm_k = 0, gemm_n = 0;
  for (std::size_t q = 0; q < subs.size(); ++q) {
    const core::Subsystem& sub = *subs[q];
    const core::FrontEndSpec& spec = sub.spec();
    const bool nn = spec.family != core::ModelFamily::kGmmHmm;
    dsp::FeaturePipelineConfig fcfg;
    fcfg.kind = spec.feature;
    fcfg.mfcc.sample_rate = cfg.corpus.sample_rate;
    fcfg.plp.sample_rate = cfg.corpus.sample_rate;
    const dsp::FeaturePipeline features(fcfg);
    const decoder::PhoneLoopDecoder dec(sub.acoustic_model(),
                                        am::HmmTopology{spec.num_phones, 3},
                                        transitions[q], spec.decoder);
    phonotactic::SupervectorConfig sv_cfg;
    sv_cfg.counts.max_order = spec.ngram_order;
    sv_cfg.counts.acoustic_scale = spec.decoder.acoustic_scale;
    sv_cfg.use_lattice = spec.use_lattice_counts;
    const phonotactic::SupervectorBuilder builder(
        phonotactic::NgramIndexer(spec.num_phones, spec.ngram_order), sv_cfg);
    const std::string fkind = spec.feature == dsp::FeatureKind::kMfcc ? "mfcc" : "plp";
    const std::string family = nn ? "nn" : "gmm";
    for (std::size_t u : sample) {
      const corpus::Utterance& utt = corpus.test()[u];
      util::Matrix feats, scores;
      decoder::Lattice lattice;
      phonotactic::SparseVec sv;
      {
        const Span s("dsp.FeaturePipeline::process[" + fkind + "]");
        feats = features.process(utt.samples);
      }
      {
        const Span s("am.AcousticModel::score[" + family + "]");
        sub.acoustic_model().score(feats, scores);
      }
      {
        const Span s("decoder.PhoneLoopDecoder::decode_from_scores");
        lattice = dec.decode_from_scores(scores);
      }
      {
        const Span s("phonotactic.supervector");
        sv = builder.build(lattice);
        sub.tfllr().transform(sv);
      }
      {
        const Span s("core.Subsystem::process");
        (void)sub.process(utt);
      }
      const auto f = static_cast<double>(feats.rows());
      (spec.feature == dsp::FeatureKind::kMfcc ? frames_mfcc : frames_plp) += f;
      (nn ? frames_nn : frames_gmm) += f;
      frames_all += f;
      edges += static_cast<double>(lattice.edges().size());
      nnz += static_cast<double>(sv.nnz());
      chain_utts += 1.0;
      if (nn && gemm_k == 0) {
        gemm_m = feats.rows();
        gemm_k = feats.cols() * (2 * sub.acoustic_model().context_frames() + 1);
        gemm_n = spec.hidden_sizes.empty() ? 32 : spec.hidden_sizes.front();
      }
    }
  }
  auto per = [](double total, double count) { return count > 0.0 ? total / count : 0.0; };
  const double mfcc_s = g_tracer.total("dsp.FeaturePipeline::process[mfcc]").first;
  const double plp_s = g_tracer.total("dsp.FeaturePipeline::process[plp]").first;
  const double nn_s = g_tracer.total("am.AcousticModel::score[nn]").first;
  const double gmm_s = g_tracer.total("am.AcousticModel::score[gmm]").first;
  const double viterbi_s =
      g_tracer.total("decoder.PhoneLoopDecoder::decode_from_scores").first;
  const double sv_s = g_tracer.total("phonotactic.supervector").first;
  const double process_s = g_tracer.total("core.Subsystem::process").first;
  const double chain_s = mfcc_s + plp_s + nn_s + gmm_s + viterbi_s + sv_s;
  m["dsp.mfcc_us_per_frame"] = 1e6 * per(mfcc_s, frames_mfcc);
  m["dsp.plp_us_per_frame"] = 1e6 * per(plp_s, frames_plp);
  m["am.score_nn_us_per_frame"] = 1e6 * per(nn_s, frames_nn);
  m["am.score_gmm_us_per_frame"] = 1e6 * per(gmm_s, frames_gmm);
  m["decoder.viterbi_us_per_frame"] = 1e6 * per(viterbi_s, frames_all);
  m["decoder.lattice_edges_per_utt"] = per(edges, chain_utts);
  m["phonotactic.supervector_us_per_utt"] = 1e6 * per(sv_s, chain_utts);
  m["phonotactic.sv_nnz_per_utt"] = per(nnz, chain_utts);
  m["core.process_ms_per_utt"] = 1e3 * per(process_s, chain_utts);
  // How much of Subsystem::process the dsp + am + decoder + phonotactic
  // ladder leaves unexplained.
  m["core.ladder_unaccounted_pct"] =
      process_s > 0.0 ? 100.0 * (process_s - chain_s) / process_s : 0.0;

  // la: the GEMM kernel at the first NN layer's shape.
  if (gemm_k > 0) {
    util::Matrix a(gemm_m, gemm_k), b(gemm_n, gemm_k), c;
    std::mt19937 rng(static_cast<std::uint32_t>(seed + 1));
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    for (std::size_t r = 0; r < gemm_m; ++r) {
      for (auto& v : a.row(r)) v = dist(rng);
    }
    for (std::size_t r = 0; r < gemm_n; ++r) {
      for (auto& v : b.row(r)) v = dist(rng);
    }
    const Span s("la.gemm_nt");
    const double t = per_call_s(0.2, [&] { la::gemm_nt(a, b, c); });
    m["la.gemm_gflops"] =
        2.0 * static_cast<double>(gemm_m * gemm_k * gemm_n) / t / 1e9;
  } else {
    m["la.gemm_gflops"] = 0.0;
  }

  // svm: one VSM head on subsystem 0's training supervectors.
  {
    std::vector<std::int32_t> train_labels;
    for (const auto& u : corpus.vsm_train()) train_labels.push_back(u.language);
    svm::VsmModel vsm;
    {
      const Span s("svm.VsmModel::train");
      vsm = svm::VsmModel::train(decoded[0].train, train_labels,
                                 corpus.num_target_languages(),
                                 subs[0]->supervector_dim(), cfg.vsm);
    }
    std::vector<float> out(corpus.num_target_languages());
    {
      const Span s("svm.VsmModel::score");
      for (const auto& sv : decoded[0].test) vsm.score(sv, out);
    }
    m["svm.vsm_train_s"] = g_tracer.total("svm.VsmModel::train").first;
    m["svm.vsm_score_us_per_utt"] =
        1e6 * per(g_tracer.total("svm.VsmModel::score").first,
                  static_cast<double>(decoded[0].test.size()));
  }

  // core/backend: the trainer's remaining stages on a warm Experiment,
  // in the order `phonolid freeze` runs them.
  std::unique_ptr<core::Experiment> exp;
  {
    const Span s("core.Experiment::build[warm]");
    exp = core::Experiment::build(cfg);
  }
  const std::size_t v = std::min<std::size_t>(3, exp->num_subsystems());
  const auto selection = exp->select(v);
  std::vector<core::SubsystemScores> m1, m2;
  std::vector<svm::VsmModel> models;
  {
    const Span s("core.Experiment::run_dba");
    m1 = exp->run_dba(v, core::DbaMode::kM1, &models);
    m2 = exp->run_dba(v, core::DbaMode::kM2, &models);
  }
  std::vector<const core::SubsystemScores*> blocks;
  std::vector<double> weights;
  for (const auto* set : {&m1, &m2}) {
    for (const auto& b : *set) blocks.push_back(&b);
    for (std::size_t c : selection.subsystem_fit_counts) {
      weights.push_back(static_cast<double>(c));
    }
  }
  backend::ScoreFusion fusion;
  {
    const Span s("backend.Experiment::fit_fusion");
    fusion = exp->fit_fusion(blocks, weights);
  }
  std::vector<core::FrozenHead> heads;
  for (std::size_t h = 0; h < models.size(); ++h) {
    heads.push_back(core::FrozenHead{
        static_cast<std::uint32_t>(h % exp->num_subsystems()), std::move(models[h])});
  }
  const std::string bundle_dir = work + "/bundle";
  {
    const Span s("core.FrozenModel::write_bundle");
    core::FrozenModel::write_bundle(bundle_dir, *exp, heads, fusion);
  }
  const double dba_s = g_tracer.total("core.Experiment::run_dba").first;
  const double vsm_s = m.find("svm.vsm_train_s")->as_double();
  m["core.dba_s"] = dba_s;
  // Paper §5.4: DBA re-trains only the VSMs on top of shared decoding, so
  // C_DBA / C_baseline = (decode + VSMs + DBA) / (decode + VSMs) stays ~1.
  const double baseline_cost =
      decode_splits_s + vsm_s * static_cast<double>(subs.size());
  m["core.dba_cost_ratio"] = (baseline_cost + dba_s) / baseline_cost;
  m["backend.fusion_fit_s"] = g_tracer.total("backend.Experiment::fit_fusion").first;
  m["core.freeze_s"] = g_tracer.total("core.FrozenModel::write_bundle").first;

  // Inference side: load the fresh bundle and score the sample at batch 1
  // and batch 8; rows must agree bit for bit across batchings.
  std::unique_ptr<core::FrozenModel> model;
  {
    const Span s("core.FrozenModel::load_bundle");
    model = std::make_unique<core::FrozenModel>(core::FrozenModel::load_bundle(bundle_dir));
  }
  m["core.bundle_load_s"] = g_tracer.total("core.FrozenModel::load_bundle").first;
  std::vector<std::span<const float>> pcm;
  for (std::size_t u : sample) pcm.emplace_back(corpus.test()[u].samples);
  std::vector<std::vector<float>> b1_rows;
  for (const auto& one : pcm) {
    const Span s("core.FrozenModel::score_batch[b1]");
    const core::BatchScore r = model->score_batch({one});
    b1_rows.emplace_back(r.llr.row(0).begin(), r.llr.row(0).end());
  }
  std::size_t batch_mismatch = 0;
  for (std::size_t i = 0; i < pcm.size(); i += 8) {
    const std::vector<std::span<const float>> batch(
        pcm.begin() + static_cast<std::ptrdiff_t>(i),
        pcm.begin() + static_cast<std::ptrdiff_t>(std::min(pcm.size(), i + 8)));
    const Span s("core.FrozenModel::score_batch[b8]");
    const core::BatchScore r = model->score_batch(batch);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      const auto row = r.llr.row(j);
      if (!std::equal(row.begin(), row.end(), b1_rows[i + j].begin(),
                      b1_rows[i + j].end())) {
        ++batch_mismatch;
      }
    }
  }
  const double n_pcm = static_cast<double>(pcm.size());
  m["core.score_batch_ms_per_utt.b1"] =
      1e3 * per(g_tracer.total("core.FrozenModel::score_batch[b1]").first, n_pcm);
  m["core.score_batch_ms_per_utt.b8"] =
      1e3 * per(g_tracer.total("core.FrozenModel::score_batch[b8]").first, n_pcm);

  obs::Json out = obs::Json::object();
  out["metrics"] = std::move(m);
  out["threads"] = threads;
  out["batch_mismatches"] = batch_mismatch;
  if (!trace_out.empty() && trace_out != "-") g_tracer.write_chrome_trace(trace_out);
  std::printf("%s\n", out.dump_string(0).c_str());
  return batch_mismatch == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe ready|load|ladder --flag value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    g_tracer.root_parent = static_cast<std::uint64_t>(args.integer("span-parent", 0));
    if (cmd == "ready") return cmd_ready(args);
    if (cmd == "load") return cmd_load(args);
    if (cmd == "ladder") return cmd_ladder(args);
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
