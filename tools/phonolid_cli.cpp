// phonolid — command-line driver for the library.
//
//   phonolid corpus  [--scale S] [--seed N]         corpus statistics
//   phonolid decode  [--frontend Q] [--utterance I] decode + lattice dump
//   phonolid run     [--v N] [--mode m1|m2|both]    baseline vs DBA summary
//   phonolid det     [--v N] [--points N]           DET series (CSV)
//   phonolid votes                                  vote histogram (Table 1)
//   phonolid export  [--trace T] [--prom P]         run pipeline, export
//                                                   trace / Prometheus text
//   phonolid explain <utt-id> [--ledger L]          why was this utterance
//                                                   adopted/scored this way?
//   phonolid diag    --ledger L [--report R]        quality diagnostics from
//                                                   a decision ledger
//   phonolid power   [--input report.json]          per-stage energy and
//                                                   hardware-counter table
//   phonolid flame   [--input report.json]          sampling-profiler top
//                                                   table (self/total time)
//   phonolid profile [--hz N] [--out f.folded] <command...>
//                                                   run any command under the
//                                                   CPU profiler
//   phonolid report-diff base.json cur.json         compare two run reports
//   phonolid freeze  --out bundle/                  train + freeze a model
//                                                   bundle for serving
//   phonolid serve   --bundle bundle/ [--port N]    micro-batching scoring
//                                                   daemon over a bundle
//   phonolid version                                schema/format versions
//
// Global flags: --scale quick|default|full, --seed <uint>,
// --report out.json (structured JSON run report), --ledger out.jsonl
// (decision ledger, deterministic JSONL).  PHONOLID_TRACE / PHONOLID_PROM
// env vars additionally export a Perfetto trace / Prometheus metrics from
// any command.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <csignal>

#include "core/experiment.h"
#include "core/frozen_model.h"
#include "core/stage_cache.h"
#include "serve/admin_http.h"
#include "serve/server.h"
#include "eval/diagnostics.h"
#include "obs/exporters.h"
#include "obs/ledger.h"
#include "pipeline/artifact_store.h"
#include "pipeline/stage_key.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/report_diff.h"
#include "util/math_util.h"
#include "util/options.h"
#include "util/thread_pool.h"

namespace {

using namespace phonolid;

void usage() {
  std::fprintf(
      stderr,
      "usage: phonolid <command> [flags]\n"
      "  corpus       corpus statistics\n"
      "  decode       decode one test utterance (--frontend N --utterance I)\n"
      "  run          baseline vs DBA summary (--v N --mode m1|m2|both)\n"
      "               run/decode stream each utterance through the chunked\n"
      "               front end: --chunk-ms N sets the chunk size\n"
      "               (bit-identical for any N), --stream-checkpoint-s S\n"
      "               emits early LLR checkpoints every S seconds into the\n"
      "               report's \"streaming\" section\n"
      "  det          DET curve CSV for the baseline fusion (--points N)\n"
      "  votes        vote histogram and Tr_DBA sizes\n"
      "  export       run the pipeline and export observability artifacts:\n"
      "               --trace out.trace.json  Chrome trace-event JSON\n"
      "                                       (open in ui.perfetto.dev)\n"
      "               --prom  out.prom        Prometheus text metrics\n"
      "  explain      explain every DBA decision for one utterance:\n"
      "               explain <utt-id> [--ledger l.jsonl]\n"
      "               (without --ledger, runs the quick pipeline first;\n"
      "               exits 2 when the id is unknown)\n"
      "  diag         quality diagnostics from a decision ledger:\n"
      "               diag --ledger l.jsonl [--report out.json]\n"
      "               (DET/confusion/Cllr/adoption precision per round)\n"
      "  power        per-stage energy / hardware-counter table:\n"
      "               power [--scale S] [--cache-dir D]  run the pipeline\n"
      "               power --input report.json          table from a report\n"
      "               (energy source: PHONOLID_ENERGY=rapl|software|off,\n"
      "               default auto = RAPL when readable, else software model)\n"
      "  flame        sampling-profiler top table (self/total samples):\n"
      "               flame [--scale S] [--cache-dir D]  profile a live run\n"
      "               flame --input report.json          table from a report\n"
      "  profile      run any command under the sampling CPU profiler:\n"
      "               profile [--hz N] [--out out.folded] <command> [flags]\n"
      "               prints the flame table after the run; --out writes\n"
      "               folded stacks for flamegraph.pl / speedscope\n"
      "  report-diff  compare two structured run reports:\n"
      "               report-diff baseline.json current.json\n"
      "                 [--gate PATTERN:CHECK[,CHECK...]]...\n"
      "               PATTERN globs leaf keys ('*' crosses '/'), e.g.\n"
      "               results/dba/30s/eer, serve/phases/compute_ms/p99;\n"
      "               CHECK is delta|rel|base, <= or >=, a number\n"
      "               (delta = cur-base, rel = (cur-base)/base); a leaf\n"
      "               passes a gate when any check holds, e.g.\n"
      "                 --gate '*/eer:delta<=0.02'\n"
      "                 --gate 'serve/throughput_rps:rel>=-0.9'\n"
      "                 --gate 'serve/phases/*/p99*:rel<=4,delta<=1'\n"
      "               exits 1 when a gate is violated, 2 on a bad spec\n"
      "  freeze       train and freeze a self-contained model bundle:\n"
      "               freeze --out bundle/ [--v N] [--mode m1|m2|both]\n"
      "               (front ends, VSM heads, fusion — servable without the\n"
      "               training corpus; verify/inspect via MANIFEST.json)\n"
      "  serve        scoring daemon over a frozen bundle:\n"
      "               serve --bundle bundle/ [--port N] [--port-file f]\n"
      "                 [--max-batch N] [--batch-window-ms W]\n"
      "                 [--queue-depth N] [--queue-max-mb MB]\n"
      "                 [--allow-swap 0|1] [--swap-root dir]\n"
      "                 [--admin-port N] [--admin-port-file f]\n"
      "                 [--slow-log N]\n"
      "               (port 0 = kernel-assigned; SIGTERM drains gracefully;\n"
      "               binary protocol in src/serve/protocol.h; the socket is\n"
      "               loopback-only and unauthenticated — gate model swaps\n"
      "               with --allow-swap 0 or confine them to --swap-root;\n"
      "               --admin-port serves live GET /metrics /healthz\n"
      "               /statusz /flamez over loopback HTTP)\n"
      "  version      print schema/format versions and build flags\n"
      "  pipeline     artifact-store maintenance:\n"
      "               pipeline status [--cache-dir D]  entry count + bytes\n"
      "               pipeline gc     [--cache-dir D] [--max-bytes N]\n"
      "                                               drop corrupt/stale\n"
      "                                               entries + orphan temps;\n"
      "                                               --max-bytes also evicts\n"
      "                                               oldest entries beyond\n"
      "                                               the byte budget\n"
      "global flags: --scale quick|default|full  --seed N\n"
      "              --report out.json  (corpus/decode/run/det/votes: write\n"
      "              a structured JSON run report)\n"
      "              --ledger out.jsonl  (run/det/votes/export/explain: write\n"
      "              the per-utterance decision ledger, deterministic JSONL)\n"
      "              --cache-dir D  persist stage artifacts (front-end\n"
      "              models, supervectors, VSMs) so re-runs skip training\n"
      "              and decoding; $PHONOLID_CACHE is the env fallback\n"
      "env: PHONOLID_TRACE=t.json PHONOLID_PROM=m.prom  record and export a\n"
      "     flight-recorder trace / Prometheus metrics from any command\n"
      "     PHONOLID_PROFILE=cpu PHONOLID_PROFILE_HZ=N  sample CPU stacks\n"
      "     PHONOLID_PROFILE_OUT=out.folded  write folded stacks at exit\n");
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> gates;  // every --gate, in order (report-diff)
  std::vector<std::string> positionals;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// Strict integer parse: any junk ("3x", "", "1e3") is a hard error, not a
  /// silent 0 — a mistyped --v or --seed must not quietly change the run.
  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    long value = 0;
    const char* begin = text.data();
    const char* end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end || text.empty()) {
      std::fprintf(stderr, "error: flag --%s expects an integer, got '%s'\n",
                   key.c_str(), text.c_str());
      std::exit(2);
    }
    return value;
  }
  /// Same strictness for floating-point flags.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    double value = 0.0;
    const char* begin = text.data();
    const char* end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end || text.empty()) {
      std::fprintf(stderr, "error: flag --%s expects a number, got '%s'\n",
                   key.c_str(), text.c_str());
      std::exit(2);
    }
    return value;
  }
};

/// Every flag each command accepts; anything else is a usage error, not a
/// silent no-op (a typoed --sclae must not quietly run at default scale).
const std::map<std::string, std::set<std::string>>& command_flags() {
  static const std::map<std::string, std::set<std::string>> flags = {
      {"corpus", {"scale", "seed", "report", "cache-dir"}},
      {"decode",
       {"scale", "seed", "report", "frontend", "utterance", "cache-dir",
        "chunk-ms", "stream-checkpoint-s"}},
      {"run",
       {"scale", "seed", "report", "v", "mode", "cache-dir", "ledger",
        "chunk-ms", "stream-checkpoint-s"}},
      {"det", {"scale", "seed", "report", "points", "cache-dir", "ledger"}},
      {"votes", {"scale", "seed", "report", "cache-dir", "ledger"}},
      {"export", {"scale", "seed", "v", "trace", "prom", "cache-dir", "ledger"}},
      {"explain", {"scale", "seed", "v", "cache-dir", "ledger"}},
      {"diag", {"ledger", "report"}},
      {"power", {"scale", "seed", "report", "cache-dir", "input"}},
      {"flame", {"scale", "seed", "report", "cache-dir", "input"}},
      {"report-diff", {"gate"}},
      {"pipeline", {"cache-dir", "max-bytes"}},
      {"freeze", {"scale", "seed", "out", "v", "mode", "cache-dir", "report"}},
      {"serve",
       {"bundle", "port", "port-file", "max-batch", "batch-window-ms",
        "queue-depth", "queue-max-mb", "allow-swap", "swap-root",
        "admin-port", "admin-port-file", "slow-log"}},
      {"version", {}},
  };
  return flags;
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2 && argv[1][0] != '-') args.command = argv[1];
  const auto known = command_flags().find(args.command);
  if (!args.command.empty() && known == command_flags().end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 args.command.c_str());
    usage();
    std::exit(2);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (known == command_flags().end() || known->second.count(key) == 0) {
        std::fprintf(stderr, "error: unknown flag --%s for command '%s'\n",
                     key.c_str(), args.command.c_str());
        usage();
        std::exit(2);
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: flag --%s expects a value\n",
                     key.c_str());
        usage();
        std::exit(2);
      }
      const std::string value = argv[++i];
      if (key == "gate") {
        args.gates.push_back(value);
      } else if (!args.flags.emplace(key, value).second) {
        // Last-one-wins would silently drop a value the caller meant.
        std::fprintf(stderr, "error: flag --%s given twice\n", key.c_str());
        std::exit(2);
      }
    } else {
      args.positionals.push_back(token);
    }
  }
  return args;
}

core::ExperimentConfig config_from(const Args& args) {
  const std::string scale_text =
      args.get("scale", util::to_string(util::scale_from_env()));
  if (scale_text != "quick" && scale_text != "default" &&
      scale_text != "full") {
    std::fprintf(stderr,
                 "error: flag --scale expects quick|default|full, got '%s'\n",
                 scale_text.c_str());
    std::exit(2);
  }
  const auto scale = util::parse_scale(scale_text);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long>(util::master_seed())));
  auto cfg = core::ExperimentConfig::preset(scale, seed);
  cfg.report_path = args.get("report", "");
  cfg.cache_dir = args.get("cache-dir", "");
  cfg.ledger_path = args.get("ledger", "");
  if (args.flags.count("chunk-ms") != 0) {
    const long ms = args.get_int("chunk-ms", 0);
    if (ms <= 0) {
      std::fprintf(stderr,
                   "error: flag --chunk-ms expects a positive integer, got "
                   "'%ld'\n",
                   ms);
      std::exit(2);
    }
    cfg.batch_chunk_samples = static_cast<std::size_t>(
        static_cast<double>(ms) * cfg.corpus.sample_rate / 1000.0);
    if (cfg.batch_chunk_samples == 0) cfg.batch_chunk_samples = 1;
  }
  return cfg;
}

/// --stream-checkpoint-s: checkpoint cadence in seconds (0 = off; anything
/// non-positive when the flag IS given is a usage error).
double checkpoint_interval_from(const Args& args) {
  if (args.flags.count("stream-checkpoint-s") == 0) return 0.0;
  const double s = args.get_double("stream-checkpoint-s", 0.0);
  if (s <= 0.0) {
    std::fprintf(stderr,
                 "error: flag --stream-checkpoint-s expects a positive "
                 "number of seconds\n");
    std::exit(2);
  }
  return s;
}

obs::Json checkpoints_json(const std::vector<core::StreamingCheckpoint>& cps) {
  obs::Json out = obs::Json::array();
  for (const auto& cp : cps) {
    obs::Json entry = obs::Json::object();
    entry["audio_s"] = obs::Json(cp.audio_s);
    entry["frames"] = obs::Json(cp.frames);
    if (!cp.llr.empty()) {
      obs::Json llr = obs::Json::array();
      for (float v : cp.llr) llr.push_back(obs::Json(v));
      entry["llr"] = std::move(llr);
      entry["best_language"] = obs::Json(cp.best_language);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

obs::Json tier_metrics_json(const core::EvalResult& result) {
  static const char* tiers[] = {"30s", "10s", "3s"};
  obs::Json out = obs::Json::object();
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    obs::Json entry = obs::Json::object();
    entry["eer"] = obs::Json(result.tier[t].eer);
    entry["cavg"] = obs::Json(result.tier[t].cavg);
    out[tiers[t]] = std::move(entry);
  }
  return out;
}

/// Run report for commands that don't hold a full Experiment (corpus,
/// decode); same schema as Experiment::write_report minus its sections.
void write_plain_report(const core::ExperimentConfig& cfg,
                        const std::string& command, obs::Json results) {
  obs::ReportMeta meta;
  meta.tool = "phonolid";
  meta.command = command;
  meta.scale = util::to_string(cfg.scale);
  meta.seed = cfg.seed;
  meta.threads = util::ThreadPool::global().num_threads();
  obs::Json extra = obs::Json::object();
  extra["results"] = std::move(results);
  obs::write_report_file(cfg.report_path,
                         obs::build_report(meta, std::move(extra)));
}

obs::Json load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return obs::Json::parse(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("parsing '" + path + "': " + e.what());
  }
}

int cmd_corpus(const Args& args) {
  const auto cfg = config_from(args);
  const auto corpus = corpus::LreCorpus::build(cfg.corpus);
  std::printf("phone inventory : %zu universal phones\n",
              corpus.inventory().size());
  std::printf("target languages: %zu (", corpus.num_target_languages());
  for (const auto& l : corpus.target_languages()) std::printf(" %s", l.name().c_str());
  std::printf(" )\n");
  std::printf("native languages: %zu\n", corpus.native_languages().size());
  std::printf("vsm train       : %zu utterances\n", corpus.vsm_train().size());
  std::printf("dev             : %zu utterances\n", corpus.dev().size());
  std::printf("test            : %zu utterances\n", corpus.test().size());
  obs::Json tiers_json = obs::Json::object();
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    const auto tier = static_cast<corpus::DurationTier>(t);
    const auto idx = corpus.test_indices(tier);
    double seconds = 0.0;
    for (std::size_t i : idx) {
      seconds += static_cast<double>(corpus.test()[i].samples.size()) /
                 cfg.corpus.sample_rate;
    }
    const double mean_s =
        idx.empty() ? 0.0 : seconds / static_cast<double>(idx.size());
    std::printf("  tier %-4s: %4zu utterances, mean %.2fs audio\n",
                corpus::to_string(tier), idx.size(), mean_s);
    obs::Json tier_entry = obs::Json::object();
    tier_entry["utterances"] = obs::Json(idx.size());
    tier_entry["mean_audio_s"] = obs::Json(mean_s);
    tiers_json[corpus::to_string(tier)] = std::move(tier_entry);
  }
  // Pairwise language distinctness.
  double min_dist = 1e9, max_dist = 0.0;
  const auto& langs = corpus.target_languages();
  for (std::size_t i = 0; i < langs.size(); ++i) {
    for (std::size_t j = i + 1; j < langs.size(); ++j) {
      const double d = corpus::LanguageSpec::bigram_distance(langs[i], langs[j]);
      min_dist = std::min(min_dist, d);
      max_dist = std::max(max_dist, d);
    }
  }
  std::printf("bigram distance : min %.3f  max %.3f (pairwise TV)\n", min_dist,
              max_dist);

  if (!cfg.report_path.empty()) {
    obs::Json results = obs::Json::object();
    results["phone_inventory"] = obs::Json(corpus.inventory().size());
    results["target_languages"] = obs::Json(corpus.num_target_languages());
    results["native_languages"] = obs::Json(corpus.native_languages().size());
    results["vsm_train_utterances"] = obs::Json(corpus.vsm_train().size());
    results["dev_utterances"] = obs::Json(corpus.dev().size());
    results["test_utterances"] = obs::Json(corpus.test().size());
    results["test_tiers"] = std::move(tiers_json);
    results["bigram_distance_min"] = obs::Json(min_dist);
    results["bigram_distance_max"] = obs::Json(max_dist);
    write_plain_report(cfg, "corpus", std::move(results));
  }
  return 0;
}

int cmd_decode(const Args& args) {
  auto cfg = config_from(args);
  const auto q = static_cast<std::size_t>(args.get_int("frontend", 0));
  if (q >= cfg.frontends.size()) {
    std::fprintf(stderr, "error: frontend %zu out of range (have %zu)\n", q,
                 cfg.frontends.size());
    return 1;
  }
  const auto corpus = corpus::LreCorpus::build(cfg.corpus);
  // Pull the trained front-end from the artifact store when possible —
  // decoding one utterance needs no TFLLR fit, so a warm decode skips all
  // training (a disabled store just computes).
  pipeline::ArtifactStore store(
      pipeline::ArtifactStore::resolve_root(cfg.cache_dir));
  const auto fe_key = core::frontend_stage_key(
      core::corpus_stage_key(cfg.corpus, cfg.scale, cfg.seed),
      cfg.frontends[q], cfg.seed);
  auto fe = store.get_or_compute<core::TrainedFrontEnd>(
      fe_key,
      [](std::istream& in) { return core::TrainedFrontEnd::deserialize(in); },
      [](std::ostream& out, const core::TrainedFrontEnd& v) {
        v.serialize(out);
      },
      [&] {
        return core::Subsystem::train_front_end(corpus, cfg.frontends[q],
                                                cfg.seed);
      });
  const auto sub =
      core::Subsystem::assemble(corpus, cfg.frontends[q], std::move(fe));
  sub->set_batch_chunk_samples(cfg.batch_chunk_samples);
  const double checkpoint_s = checkpoint_interval_from(args);
  const auto utt_index =
      static_cast<std::size_t>(args.get_int("utterance", 0)) %
      corpus.test().size();
  const auto& utt = corpus.test()[utt_index];
  std::printf("front-end : %s\n", sub->name().c_str());
  std::printf("utterance : #%zu, language %d, tier %s, %.2fs audio\n",
              utt_index, utt.language, corpus::to_string(utt.tier),
              static_cast<double>(utt.samples.size()) / cfg.corpus.sample_rate);
  std::vector<core::StreamingCheckpoint> checkpoints;
  decoder::Lattice lattice = [&] {
    if (checkpoint_s <= 0.0) return sub->decode(utt);
    core::StreamingOptions opts;
    opts.chunk_samples = cfg.batch_chunk_samples;
    opts.checkpoint_interval_s = checkpoint_s;
    opts.apply_tfllr = false;  // no TFLLR fit in lattice-only decode
    auto res = sub->score_stream(utt.samples, opts);
    checkpoints = std::move(res.checkpoints);
    return std::move(res.lattice);
  }();
  for (const auto& cp : checkpoints) {
    std::printf("checkpoint: %.2fs audio, %zu frames resolved\n", cp.audio_s,
                cp.frames);
  }
  std::printf("lattice   : %zu frames, %zu edges\n", lattice.num_frames(),
              lattice.edges().size());
  std::printf("1-best    :");
  for (std::uint32_t p : lattice.best_path()) std::printf(" %u", p);
  std::printf("\nedges (start end phone posterior):\n");
  const std::size_t show = std::min<std::size_t>(lattice.edges().size(), 40);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& e = lattice.edges()[i];
    std::printf("  %4u %4u  p%02u  %.3f\n", e.start_node, e.end_node, e.phone,
                e.posterior);
  }
  if (show < lattice.edges().size()) {
    std::printf("  ... (%zu more)\n", lattice.edges().size() - show);
  }

  if (!cfg.report_path.empty()) {
    obs::Json results = obs::Json::object();
    results["frontend"] = obs::Json(sub->name());
    results["frontend_index"] = obs::Json(q);
    results["utterance_index"] = obs::Json(utt_index);
    results["utterance_language"] = obs::Json(utt.language);
    results["utterance_tier"] = obs::Json(corpus::to_string(utt.tier));
    results["lattice_frames"] = obs::Json(lattice.num_frames());
    results["lattice_edges"] = obs::Json(lattice.edges().size());
    results["best_path_length"] = obs::Json(lattice.best_path().size());
    if (checkpoint_s > 0.0) {
      obs::Json streaming = obs::Json::object();
      streaming["version"] = obs::Json(1);
      streaming["chunk_samples"] = obs::Json(cfg.batch_chunk_samples);
      streaming["checkpoint_interval_s"] = obs::Json(checkpoint_s);
      streaming["checkpoints"] = checkpoints_json(checkpoints);
      results["streaming"] = std::move(streaming);
    }
    write_plain_report(cfg, "decode", std::move(results));
  }
  return 0;
}

int cmd_run(const Args& args) {
  const auto cfg = config_from(args);
  const auto exp = core::Experiment::build(cfg);
  const auto v = static_cast<std::size_t>(
      args.get_int("v", static_cast<long>(std::min<std::size_t>(3, exp->num_subsystems()))));
  const std::string mode = args.get("mode", "both");

  std::vector<const core::SubsystemScores*> blocks;
  for (const auto& b : exp->baseline_scores()) blocks.push_back(&b);
  const auto baseline = exp->evaluate(blocks);

  const auto selection = exp->select(v);
  std::printf("Tr_DBA(V=%zu): %zu utterances, label error %.2f%%\n", v,
              selection.utt_index.size(),
              100.0 * core::selection_error_rate(selection, exp->test_labels()));

  std::vector<core::SubsystemScores> m1, m2;
  std::vector<const core::SubsystemScores*> dba_blocks;
  std::vector<double> weights;
  if (mode == "m1" || mode == "both") {
    m1 = exp->run_dba(v, core::DbaMode::kM1);
    for (const auto& b : m1) dba_blocks.push_back(&b);
    for (std::size_t c : selection.subsystem_fit_counts) {
      weights.push_back(static_cast<double>(c));
    }
  }
  if (mode == "m2" || mode == "both") {
    m2 = exp->run_dba(v, core::DbaMode::kM2);
    for (const auto& b : m2) dba_blocks.push_back(&b);
    for (std::size_t c : selection.subsystem_fit_counts) {
      weights.push_back(static_cast<double>(c));
    }
  }
  if (dba_blocks.empty()) {
    std::fprintf(stderr, "error: --mode must be m1, m2 or both\n");
    return 1;
  }
  const auto dba = exp->evaluate(dba_blocks, std::move(weights));

  std::printf("\n%-8s %18s %18s\n", "tier", "baseline EER/Cavg",
              "DBA EER/Cavg");
  static const char* tiers[] = {"30s", "10s", "3s"};
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    std::printf("%-8s %8.2f / %-7.2f %8.2f / %-7.2f\n", tiers[t],
                100.0 * baseline.tier[t].eer, 100.0 * baseline.tier[t].cavg,
                100.0 * dba.tier[t].eer, 100.0 * dba.tier[t].cavg);
  }

  // Early-decision demonstration: re-stream the longest-tier test
  // utterances with per-checkpoint LLRs from the baseline VSMs.
  const double checkpoint_s = checkpoint_interval_from(args);
  obs::Json streaming_section = obs::Json::object();
  if (checkpoint_s > 0.0) {
    const auto& corpus = exp->corpus();
    const auto tier30 =
        corpus.test_indices(static_cast<corpus::DurationTier>(0));
    const std::size_t n_utts = std::min<std::size_t>(2, tier30.size());
    const std::size_t k = exp->num_languages();
    std::printf("\nstreaming checkpoints (every %.1fs):\n", checkpoint_s);
    obs::Json utts_json = obs::Json::array();
    for (std::size_t u = 0; u < n_utts; ++u) {
      const std::size_t utt_index = tier30[u];
      const auto& utt = corpus.test()[utt_index];
      obs::Json utt_json = obs::Json::object();
      utt_json["utterance"] = obs::Json(utt_index);
      utt_json["language"] = obs::Json(utt.language);
      utt_json["audio_s"] =
          obs::Json(static_cast<double>(utt.samples.size()) /
                    cfg.corpus.sample_rate);
      obs::Json subs_json = obs::Json::array();
      for (std::size_t s = 0; s < exp->num_subsystems(); ++s) {
        const svm::VsmModel& vsm = exp->baseline_vsm(s);
        core::StreamingOptions opts;
        opts.chunk_samples = cfg.batch_chunk_samples;
        opts.checkpoint_interval_s = checkpoint_s;
        opts.scorer = [&vsm, k](const phonotactic::SparseVec& sv) {
          std::vector<float> out(k);
          vsm.score(sv, std::span<float>(out));
          return out;
        };
        const core::StreamingResult res =
            exp->subsystem(s).score_stream(utt.samples, opts);
        std::printf("  utt #%-4zu %-16s:", utt_index,
                    exp->subsystem(s).name().c_str());
        for (const auto& cp : res.checkpoints) {
          std::printf(" %.0fs->%s", cp.audio_s,
                      cp.best_language < k
                          ? corpus.target_languages()[cp.best_language]
                                .name()
                                .c_str()
                          : "?");
        }
        std::printf("  (true %s)\n",
                    corpus.target_languages()[static_cast<std::size_t>(
                                                  utt.language)]
                        .name()
                        .c_str());
        obs::Json sub_json = obs::Json::object();
        sub_json["subsystem"] = obs::Json(exp->subsystem(s).name());
        sub_json["checkpoints"] = checkpoints_json(res.checkpoints);
        subs_json.push_back(std::move(sub_json));
      }
      utt_json["subsystems"] = std::move(subs_json);
      utts_json.push_back(std::move(utt_json));
    }
    streaming_section["version"] = obs::Json(1);
    streaming_section["chunk_samples"] = obs::Json(cfg.batch_chunk_samples);
    streaming_section["checkpoint_interval_s"] = obs::Json(checkpoint_s);
    streaming_section["utterances"] = std::move(utts_json);
  }

  if (!cfg.ledger_path.empty()) exp->write_ledger(cfg.ledger_path);
  if (!cfg.report_path.empty()) {
    obs::Json results = obs::Json::object();
    results["baseline"] = tier_metrics_json(baseline);
    results["dba"] = tier_metrics_json(dba);
    results["mode"] = obs::Json(mode);
    results["min_votes"] = obs::Json(v);
    obs::Json extra = obs::Json::object();
    extra["results"] = std::move(results);
    if (checkpoint_s > 0.0) {
      extra["streaming"] = std::move(streaming_section);
    }
    exp->write_report(cfg.report_path, "run", std::move(extra));
  }
  return 0;
}

int cmd_det(const Args& args) {
  const auto cfg = config_from(args);
  const auto exp = core::Experiment::build(cfg);
  const auto points = static_cast<std::size_t>(args.get_int("points", 50));

  std::vector<const core::SubsystemScores*> blocks;
  for (const auto& b : exp->baseline_scores()) blocks.push_back(&b);
  const auto result = exp->evaluate(blocks);

  std::printf("tier,p_fa,p_miss,probit_fa,probit_miss\n");
  static const char* tiers[] = {"30s", "10s", "3s"};
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    for (const auto& p : eval::thin_det_curve(result.det[t], points)) {
      std::printf("%s,%.6f,%.6f,%.4f,%.4f\n", tiers[t], p.p_fa, p.p_miss,
                  util::probit(std::max(p.p_fa, 1e-6)),
                  util::probit(std::max(p.p_miss, 1e-6)));
    }
  }

  if (!cfg.ledger_path.empty()) exp->write_ledger(cfg.ledger_path);
  if (!cfg.report_path.empty()) {
    obs::Json results = obs::Json::object();
    results["baseline"] = tier_metrics_json(result);
    obs::Json det = obs::Json::object();
    for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
      det[tiers[t]] = obs::Json(result.det[t].size());
    }
    results["det_points"] = std::move(det);
    obs::Json extra = obs::Json::object();
    extra["results"] = std::move(results);
    exp->write_report(cfg.report_path, "det", std::move(extra));
  }
  return 0;
}

int cmd_votes(const Args& args) {
  const auto cfg = config_from(args);
  const auto exp = core::Experiment::build(cfg);
  const auto& votes = exp->votes();
  std::vector<std::size_t> hist(exp->num_subsystems() + 1, 0);
  for (std::size_t j = 0; j < votes.num_utts; ++j) {
    std::uint16_t best = 0;
    for (std::size_t k = 0; k < votes.num_classes; ++k) {
      best = std::max(best, votes.count(j, k));
    }
    ++hist[best];
  }
  std::printf("max-votes histogram over %zu test utterances:\n",
              votes.num_utts);
  for (std::size_t c = 0; c < hist.size(); ++c) {
    std::printf("  %zu: %zu\n", c, hist[c]);
  }
  std::printf("\nTr_DBA per threshold:\n");
  obs::Json thresholds = obs::Json::array();
  for (std::size_t v = exp->num_subsystems(); v >= 1; --v) {
    const auto sel = exp->select(v);
    std::printf("  V=%zu: %5zu adopted, label error %.2f%%\n", v,
                sel.utt_index.size(),
                100.0 * core::selection_error_rate(sel, exp->test_labels()));
    const double label_error =
        core::selection_error_rate(sel, exp->test_labels());
    obs::Json entry = obs::Json::object();
    entry["min_votes"] = obs::Json(v);
    entry["adopted"] = obs::Json(sel.utt_index.size());
    entry["label_error"] = obs::Json(label_error);
    thresholds.push_back(std::move(entry));
  }

  if (!cfg.ledger_path.empty()) exp->write_ledger(cfg.ledger_path);
  if (!cfg.report_path.empty()) {
    obs::Json histogram = obs::Json::array();
    for (std::size_t c = 0; c < hist.size(); ++c) {
      histogram.push_back(obs::Json(hist[c]));
    }
    obs::Json results = obs::Json::object();
    results["max_votes_histogram"] = std::move(histogram);
    results["trdba_per_threshold"] = std::move(thresholds);
    obs::Json extra = obs::Json::object();
    extra["results"] = std::move(results);
    exp->write_report(cfg.report_path, "votes", std::move(extra));
  }
  return 0;
}

int cmd_export(const Args& args) {
  const std::string trace_path = args.get("trace", "");
  const std::string prom_path = args.get("prom", "");
  if (trace_path.empty() && prom_path.empty()) {
    std::fprintf(stderr, "error: export needs --trace and/or --prom\n");
    usage();
    return 2;
  }
  if (!trace_path.empty() && !obs::FlightRecorder::enabled()) {
    obs::FlightRecorder::enable();
    obs::FlightRecorder::set_thread_name("main");
  }
  // Exercise the full pipeline — build, baseline fusion, one M1 DBA round —
  // so the exported timeline covers decode, VSM training, DBA, and fusion.
  const auto cfg = config_from(args);
  const auto exp = core::Experiment::build(cfg);
  const auto v = static_cast<std::size_t>(args.get_int(
      "v", static_cast<long>(std::min<std::size_t>(3, exp->num_subsystems()))));
  std::vector<const core::SubsystemScores*> blocks;
  for (const auto& b : exp->baseline_scores()) blocks.push_back(&b);
  (void)exp->evaluate(blocks);
  const auto m1 = exp->run_dba(v, core::DbaMode::kM1);
  std::vector<const core::SubsystemScores*> dba_blocks;
  for (const auto& b : m1) dba_blocks.push_back(&b);
  (void)exp->evaluate(dba_blocks);

  if (!cfg.ledger_path.empty()) exp->write_ledger(cfg.ledger_path);
  if (!trace_path.empty()) {
    obs::write_chrome_trace(trace_path);
    std::printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  if (!prom_path.empty()) {
    obs::write_prometheus(prom_path);
    std::printf("wrote Prometheus metrics to %s\n", prom_path.c_str());
  }
  return 0;
}

int cmd_explain(const Args& args) {
  if (args.positionals.size() != 1) {
    std::fprintf(stderr,
                 "error: explain needs exactly one utterance id: "
                 "explain <utt-id> [--ledger l.jsonl]\n");
    usage();
    return 2;
  }
  const std::string& text = args.positionals[0];
  std::uint64_t id = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, id);
  if (ec != std::errc() || ptr != end || text.empty()) {
    std::fprintf(stderr, "error: explain expects an utterance id, got '%s'\n",
                 text.c_str());
    return 2;
  }

  obs::DecisionLedger ledger;
  const std::string ledger_path = args.get("ledger", "");
  if (!ledger_path.empty()) {
    try {
      ledger = obs::DecisionLedger::read_jsonl_file(ledger_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else {
    // No ledger file: run the pipeline (baseline eval, one M1 DBA round,
    // fused eval) so the explanation covers scores, votes, and adoption.
    const auto cfg = config_from(args);
    const auto exp = core::Experiment::build(cfg);
    const auto v = static_cast<std::size_t>(args.get_int(
        "v",
        static_cast<long>(std::min<std::size_t>(3, exp->num_subsystems()))));
    std::vector<const core::SubsystemScores*> blocks;
    for (const auto& b : exp->baseline_scores()) blocks.push_back(&b);
    (void)exp->evaluate(blocks);
    const auto m1 = exp->run_dba(v, core::DbaMode::kM1);
    std::vector<const core::SubsystemScores*> dba_blocks;
    for (const auto& b : m1) dba_blocks.push_back(&b);
    (void)exp->evaluate(dba_blocks);
    ledger = exp->ledger();
  }

  const obs::LedgerEntry* entry = ledger.find(id);
  if (entry == nullptr) {
    std::fprintf(stderr,
                 "error: utterance id %llu not in the ledger (%zu entries)\n",
                 static_cast<unsigned long long>(id), ledger.entries.size());
    return 2;
  }
  std::fputs(obs::format_explain(ledger, *entry).c_str(), stdout);
  return 0;
}

int cmd_diag(const Args& args) {
  const std::string ledger_path = args.get("ledger", "");
  if (ledger_path.empty()) {
    std::fprintf(stderr, "error: diag needs --ledger <file.jsonl>\n");
    usage();
    return 2;
  }
  obs::DecisionLedger ledger;
  try {
    ledger = obs::DecisionLedger::read_jsonl_file(ledger_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (ledger.empty()) {
    std::fprintf(stderr, "error: ledger '%s' has no entries\n",
                 ledger_path.c_str());
    return 2;
  }
  const eval::DiagnosticsResult diag = eval::compute_diagnostics(ledger);
  std::fputs(eval::format_diagnostics(diag).c_str(), stdout);

  // Echo this process's resource usage (same numbers as the report's
  // "resource" section) so a diag run doubles as a quick cost check.
  const obs::ResourceUsage usage = obs::current_resource_usage();
  std::printf("\nresource: wall %.3f s", usage.wall_s);
  if (usage.valid) {
    std::printf(", user CPU %.3f s, system CPU %.3f s, peak RSS %.1f MiB, "
                "ctx switches %ju voluntary / %ju involuntary",
                usage.user_cpu_s, usage.system_cpu_s,
                static_cast<double>(usage.peak_rss_bytes) / (1024.0 * 1024.0),
                static_cast<std::uintmax_t>(usage.voluntary_ctx_switches),
                static_cast<std::uintmax_t>(usage.involuntary_ctx_switches));
  }
  std::printf("\n");

  if (const std::string report_path = args.get("report", "");
      !report_path.empty()) {
    eval::publish_quality_gauges(diag);
    obs::ReportMeta meta;
    meta.tool = "phonolid";
    meta.command = "diag";
    meta.scale = ledger.scale;
    meta.seed = ledger.seed;
    meta.threads = util::ThreadPool::global().num_threads();
    obs::Json extra = obs::Json::object();
    extra["quality"] = eval::diagnostics_json(diag);
    obs::write_report_file(report_path,
                           obs::build_report(meta, std::move(extra)));
  }
  return 0;
}

/// Per-stage energy/counter table from a schema-v1 report.  Shared by the
/// live `phonolid power` run and `power --input report.json`, so committed
/// BENCH_*.json baselines can be inspected the same way as a fresh run.
std::string format_power_table(const obs::Json& report) {
  std::ostringstream out;
  char line[256];

  const obs::Json* energy = report.find("energy");
  const obs::Json* hw = report.find("hw");
  const auto num = [](const obs::Json* obj, const char* key) {
    const obs::Json* v = obj == nullptr ? nullptr : obj->find(key);
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
  };
  const obs::Json* source =
      energy == nullptr ? nullptr : energy->find("source");
  const std::string source_text =
      source != nullptr && source->is_string() ? source->as_string() : "off";
  const double total_j = num(energy, "total_joules");

  out << "energy source : " << source_text;
  if (source_text == "software") {
    std::snprintf(line, sizeof(line), " (%.3g J/GFLOP)",
                  num(energy, "joules_per_gflop"));
    out << line;
  }
  out << '\n';
  std::snprintf(line, sizeof(line), "total joules  : %.6f\n", total_j);
  out << line;
  std::snprintf(line, sizeof(line), "total GFLOPs  : %.3f\n",
                num(energy, "total_gflops"));
  out << line;
  std::snprintf(line, sizeof(line), "GFLOP per J   : %.3f\n",
                num(energy, "gflops_per_watt"));
  out << line;
  const obs::Json* hw_avail = hw == nullptr ? nullptr : hw->find("available");
  if (hw_avail != nullptr && hw_avail->is_bool() && hw_avail->as_bool()) {
    std::snprintf(line, sizeof(line),
                  "hw counters   : IPC %.2f, LLC miss rate %.3f, branch miss "
                  "rate %.3f\n",
                  num(hw, "ipc"), num(hw, "llc_miss_rate"),
                  num(hw, "branch_miss_rate"));
    out << line;
  } else {
    const obs::Json* reason =
        hw == nullptr ? nullptr : hw->find("unavailable_reason");
    out << "hw counters   : unavailable"
        << (reason != nullptr && reason->is_string()
                ? " (" + reason->as_string() + ")"
                : std::string())
        << '\n';
  }

  // One row per span that carries energy or counters, heaviest first.
  struct Row {
    std::string path;
    double joules = 0.0;
    double cycles = 0.0;
    double instructions = 0.0;
    double llc_misses = 0.0;
  };
  std::vector<Row> rows;
  double attributed = 0.0;
  if (const obs::Json* spans = report.find("spans");
      spans != nullptr && spans->is_array()) {
    for (const obs::Json& s : spans->as_array()) {
      const obs::Json* path = s.find("path");
      const obs::Json* joules = s.find("joules");
      const obs::Json* span_hw = s.find("hw");
      if (path == nullptr || !path->is_string()) continue;
      if (joules == nullptr && span_hw == nullptr) continue;
      Row row;
      row.path = path->as_string();
      if (joules != nullptr && joules->is_number()) {
        row.joules = joules->as_double();
        attributed += row.joules;
      }
      row.cycles = num(span_hw, "cycles");
      row.instructions = num(span_hw, "instructions");
      row.llc_misses = num(span_hw, "llc_misses");
      rows.push_back(std::move(row));
    }
  }
  if (total_j > attributed) {
    rows.push_back({"(unattributed)", total_j - attributed, 0, 0, 0});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.joules > b.joules; });

  out << '\n';
  std::snprintf(line, sizeof(line), "%-64s %12s %6s %12s %12s %10s\n", "stage",
                "joules", "%", "cycles", "instr", "llc-miss");
  out << line;
  for (const Row& row : rows) {
    const double pct = total_j > 0.0 ? 100.0 * row.joules / total_j : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-64s %12.6f %5.1f%% %12.0f %12.0f %10.0f\n",
                  row.path.c_str(), row.joules, pct, row.cycles,
                  row.instructions, row.llc_misses);
    out << line;
  }
  const double sum = attributed + std::max(0.0, total_j - attributed);
  std::snprintf(line, sizeof(line), "%-64s %12.6f %5.1f%%\n", "(sum)", sum,
                total_j > 0.0 ? 100.0 * sum / total_j : 0.0);
  out << line;
  return out.str();
}

int cmd_power(const Args& args) {
  if (const std::string input = args.get("input", ""); !input.empty()) {
    std::fputs(format_power_table(load_json_file(input)).c_str(), stdout);
    return 0;
  }
  const auto cfg = config_from(args);
  const auto exp = core::Experiment::build(cfg);
  // Score the baseline fusion so VSM scoring and calibration show up in the
  // table alongside the build-time stages (training, decoding, features).
  std::vector<const core::SubsystemScores*> blocks;
  for (const auto& b : exp->baseline_scores()) blocks.push_back(&b);
  (void)exp->evaluate(blocks);

  obs::ReportMeta meta;
  meta.tool = "phonolid";
  meta.command = "power";
  meta.scale = util::to_string(cfg.scale);
  meta.seed = cfg.seed;
  meta.threads = util::ThreadPool::global().num_threads();
  const obs::Json report = obs::build_report(meta);
  std::fputs(format_power_table(report).c_str(), stdout);
  if (!cfg.report_path.empty()) {
    obs::write_report_file(cfg.report_path, report);
  }
  return 0;
}

/// Top-functions / per-span table from a report's "profile" section (or a
/// live Profiler::profile_json() document).  Shared by `phonolid flame`,
/// `flame --input report.json`, and the `profile` wrapper's exit summary.
std::string format_flame_table(const obs::Json* profile) {
  std::ostringstream out;
  char line[512];
  if (profile == nullptr || !profile->is_object()) {
    out << "profile       : (no profile section in this report)\n";
    return out.str();
  }
  const auto num = [&](const char* key) {
    const obs::Json* v = profile->find(key);
    return v != nullptr && v->is_number() ? v->as_double() : 0.0;
  };
  const obs::Json* available = profile->find("available");
  if (available == nullptr || !available->is_bool() ||
      !available->as_bool()) {
    const obs::Json* source = profile->find("source");
    const obs::Json* reason = profile->find("unavailable_reason");
    out << "profile       : unavailable";
    if (source != nullptr && source->is_string() &&
        source->as_string() == "off") {
      out << " (profiling was off; set PHONOLID_PROFILE=cpu or use "
             "`phonolid profile`)";
    } else if (reason != nullptr && reason->is_string()) {
      out << " (" << reason->as_string() << ")";
    }
    out << '\n';
    return out.str();
  }
  const double samples = num("samples");
  std::snprintf(line, sizeof(line), "profile       : cpu @ %.0f Hz\n",
                num("hz"));
  out << line;
  std::snprintf(line, sizeof(line), "samples       : %.0f (%.0f dropped)\n",
                samples, num("dropped"));
  out << line;
  std::snprintf(line, sizeof(line),
                "symbolized    : %.1f%% of frames, %.1f%% of samples "
                "attributed to a named function\n",
                100.0 * num("symbolized_share"),
                100.0 * num("attributed_share"));
  out << line;

  out << "\ntop functions by self time:\n";
  std::snprintf(line, sizeof(line), "%7s %7s %9s %9s  %s\n", "self%",
                "total%", "self", "total", "function");
  out << line;
  if (const obs::Json* functions = profile->find("functions");
      functions != nullptr && functions->is_array()) {
    for (const obs::Json& fn : functions->as_array()) {
      const obs::Json* name = fn.find("name");
      const auto fnum = [&](const char* key) {
        const obs::Json* v = fn.find(key);
        return v != nullptr && v->is_number() ? v->as_double() : 0.0;
      };
      std::snprintf(line, sizeof(line), "%6.1f%% %6.1f%% %9.0f %9.0f  %s\n",
                    100.0 * fnum("self_share"), 100.0 * fnum("total_share"),
                    fnum("self"), fnum("total"),
                    name != nullptr && name->is_string()
                        ? name->as_string().c_str()
                        : "?");
      out << line;
    }
  }

  out << "\nsamples by span:\n";
  std::snprintf(line, sizeof(line), "%7s %9s  %s\n", "share%", "samples",
                "span");
  out << line;
  if (const obs::Json* spans = profile->find("spans");
      spans != nullptr && spans->is_array()) {
    for (const obs::Json& span : spans->as_array()) {
      const obs::Json* path = span.find("path");
      const auto snum = [&](const char* key) {
        const obs::Json* v = span.find(key);
        return v != nullptr && v->is_number() ? v->as_double() : 0.0;
      };
      std::snprintf(line, sizeof(line), "%6.1f%% %9.0f  %s\n",
                    100.0 * snum("share"), snum("samples"),
                    path != nullptr && path->is_string()
                        ? path->as_string().c_str()
                        : "?");
      out << line;
    }
  }
  return out.str();
}

int cmd_flame(const Args& args) {
  if (const std::string input = args.get("input", ""); !input.empty()) {
    const obs::Json report = load_json_file(input);
    std::fputs(format_flame_table(report.find("profile")).c_str(), stdout);
    return 0;
  }
  // Live mode: profile the same pipeline `power` runs.  An unavailable
  // profiler still runs the pipeline and reports why the table is empty.
  if (!obs::Profiler::enabled() && !obs::Profiler::start(0)) {
    std::fprintf(stderr,
                 "phonolid: CPU profiler unavailable (%s); running "
                 "unprofiled\n",
                 std::strerror(obs::Profiler::unavailable_errno()));
  }
  const auto cfg = config_from(args);
  const auto exp = core::Experiment::build(cfg);
  std::vector<const core::SubsystemScores*> blocks;
  for (const auto& b : exp->baseline_scores()) blocks.push_back(&b);
  (void)exp->evaluate(blocks);

  obs::ReportMeta meta;
  meta.tool = "phonolid";
  meta.command = "flame";
  meta.scale = util::to_string(cfg.scale);
  meta.seed = cfg.seed;
  meta.threads = util::ThreadPool::global().num_threads();
  obs::Profiler::stop();
  const obs::Json report = obs::build_report(meta);
  std::fputs(format_flame_table(report.find("profile")).c_str(), stdout);
  if (!cfg.report_path.empty()) {
    obs::write_report_file(cfg.report_path, report);
  }
  return 0;
}

int cmd_freeze(const Args& args) {
  const auto cfg = config_from(args);
  const std::string out_dir = args.get("out", "");
  if (out_dir.empty()) {
    std::fprintf(stderr, "error: freeze needs --out <bundle-dir>\n");
    usage();
    return 2;
  }
  const std::string mode = args.get("mode", "both");
  if (mode != "m1" && mode != "m2" && mode != "both") {
    std::fprintf(stderr, "error: --mode must be m1, m2 or both\n");
    return 2;
  }
  const auto exp = core::Experiment::build(cfg);
  const auto v = static_cast<std::size_t>(args.get_int(
      "v", static_cast<long>(std::min<std::size_t>(3, exp->num_subsystems()))));
  const std::size_t num_subs = exp->num_subsystems();

  // Same training sequence as `phonolid run`, capturing the boosted VSMs
  // and fitting the same count-weighted fusion — so a frozen bundle scores
  // bit-identically to the offline run that would have produced it.
  const auto selection = exp->select(v);
  std::vector<core::SubsystemScores> m1, m2;
  std::vector<const core::SubsystemScores*> blocks;
  std::vector<double> weights;
  std::vector<svm::VsmModel> models;
  if (mode == "m1" || mode == "both") {
    m1 = exp->run_dba(v, core::DbaMode::kM1, &models);
    for (const auto& b : m1) blocks.push_back(&b);
    for (std::size_t c : selection.subsystem_fit_counts) {
      weights.push_back(static_cast<double>(c));
    }
  }
  if (mode == "m2" || mode == "both") {
    m2 = exp->run_dba(v, core::DbaMode::kM2, &models);
    for (const auto& b : m2) blocks.push_back(&b);
    for (std::size_t c : selection.subsystem_fit_counts) {
      weights.push_back(static_cast<double>(c));
    }
  }
  if (models.size() != blocks.size()) {
    std::fprintf(stderr,
                 "error: freeze captured %zu VSMs for %zu score blocks\n",
                 models.size(), blocks.size());
    return 1;
  }
  const backend::ScoreFusion fusion = exp->fit_fusion(blocks, weights);

  std::vector<core::FrozenHead> heads;
  heads.reserve(models.size());
  for (std::size_t h = 0; h < models.size(); ++h) {
    heads.push_back(core::FrozenHead{static_cast<std::uint32_t>(h % num_subs),
                                     std::move(models[h])});
  }
  core::FrozenModel::write_bundle(out_dir, *exp, heads, fusion);
  std::printf("froze %zu subsystems, %zu heads (mode %s, V=%zu) -> %s\n",
              num_subs, heads.size(), mode.c_str(), v, out_dir.c_str());
  std::printf("bundle format v%u, %zu languages, serve with:\n",
              static_cast<unsigned>(core::kBundleFormatVersion),
              exp->num_languages());
  std::printf("  phonolid serve --bundle %s --port 0\n", out_dir.c_str());

  if (!cfg.report_path.empty()) {
    obs::Json results = obs::Json::object();
    results["bundle_dir"] = obs::Json(out_dir);
    results["bundle_format"] = obs::Json(core::kBundleFormatVersion);
    results["subsystems"] = obs::Json(num_subs);
    results["heads"] = obs::Json(heads.size());
    results["languages"] = obs::Json(exp->num_languages());
    results["mode"] = obs::Json(mode);
    results["min_votes"] = obs::Json(v);
    write_plain_report(cfg, "freeze", std::move(results));
  }
  return 0;
}

// SIGTERM/SIGINT → graceful drain.  The handler only touches the
// async-signal-safe request_shutdown() (atomic store + pipe write).
std::atomic<serve::ScoreServer*> g_serve_instance{nullptr};

void serve_signal_handler(int) {
  if (auto* server = g_serve_instance.load()) server->request_shutdown();
}

int cmd_serve(const Args& args) {
  const std::string bundle_dir = args.get("bundle", "");
  if (bundle_dir.empty()) {
    std::fprintf(stderr, "error: serve needs --bundle <bundle-dir>\n");
    usage();
    return 2;
  }
  serve::ServerConfig scfg;
  scfg.port = static_cast<int>(args.get_int("port", 0));
  scfg.max_batch = static_cast<std::size_t>(args.get_int("max-batch", 32));
  scfg.batch_window_ms = args.get_double("batch-window-ms", 2.0);
  scfg.queue_depth =
      static_cast<std::size_t>(args.get_int("queue-depth", 256));
  const long queue_max_mb = args.get_int("queue-max-mb", 256);
  scfg.allow_swap = args.get_int("allow-swap", 1) != 0;
  scfg.swap_root = args.get("swap-root", "");
  scfg.admin_port = static_cast<int>(args.get_int("admin-port", -1));
  const long slow_log = args.get_int("slow-log", 8);
  if (scfg.max_batch == 0 || scfg.queue_depth == 0 || queue_max_mb <= 0 ||
      scfg.batch_window_ms < 0.0 || scfg.admin_port < -1 || slow_log < 0) {
    std::fprintf(stderr,
                 "error: --max-batch/--queue-depth/--queue-max-mb expect "
                 "positive integers, --batch-window-ms a non-negative "
                 "number, --admin-port -1 (off), 0 (ephemeral) or a port, "
                 "--slow-log a non-negative count\n");
    return 2;
  }
  scfg.queue_max_bytes = static_cast<std::size_t>(queue_max_mb) << 20;
  scfg.slow_log = static_cast<std::size_t>(slow_log);

  auto model = std::make_shared<const core::FrozenModel>(
      core::FrozenModel::load_bundle(bundle_dir));
  std::printf("serve: loaded bundle %s (scale %s, seed %llu, %zu languages, "
              "%zu subsystems, %zu heads)\n",
              bundle_dir.c_str(), model->scale().c_str(),
              static_cast<unsigned long long>(model->seed()),
              model->num_languages(), model->num_subsystems(),
              model->num_heads());

  serve::ScoreServer server(std::move(model), scfg);
  const int port = server.start();
  g_serve_instance.store(&server);
  struct sigaction sa = {};
  sa.sa_handler = serve_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::printf("serve: listening on 127.0.0.1:%d (protocol v%u, max batch "
              "%zu, window %.1f ms, queue %zu / %ld MB, swap %s)\n",
              port, static_cast<unsigned>(serve::kServeProtocolVersion),
              scfg.max_batch, scfg.batch_window_ms, scfg.queue_depth,
              queue_max_mb,
              !scfg.allow_swap          ? "disabled"
              : scfg.swap_root.empty()  ? "any path"
                                        : scfg.swap_root.c_str());
  if (server.admin_port() >= 0) {
    std::printf("serve: admin endpoint on http://127.0.0.1:%d "
                "(/metrics /healthz /statusz /flamez, admin http v%u)\n",
                server.admin_port(),
                static_cast<unsigned>(serve::kAdminHttpVersion));
  }
  std::fflush(stdout);
  if (const std::string port_file = args.get("port-file", "");
      !port_file.empty()) {
    std::ofstream out(port_file);
    out << port << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write --port-file %s\n",
                   port_file.c_str());
      server.shutdown();
      g_serve_instance.store(nullptr);
      return 1;
    }
  }
  if (const std::string admin_port_file = args.get("admin-port-file", "");
      !admin_port_file.empty()) {
    std::ofstream out(admin_port_file);
    out << server.admin_port() << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write --admin-port-file %s\n",
                   admin_port_file.c_str());
      server.shutdown();
      g_serve_instance.store(nullptr);
      return 1;
    }
  }

  server.wait();  // blocks until SIGTERM/SIGINT, then drains
  g_serve_instance.store(nullptr);
  // A daemon normally dies by signal, so flush the PHONOLID_PROM /
  // PHONOLID_TRACE / PHONOLID_PROFILE_OUT artifacts here, right after the
  // drain — not only in main()'s at-exit hook (obs/exporters.h), which a
  // future non-graceful teardown path might never reach.
  obs::export_from_env();
  std::printf("serve: drained and stopped\n");
  return 0;
}

int cmd_version() {
  std::printf("phonolid version surface\n");
  std::printf("  report schema     : v%d\n", obs::kReportSchemaVersion);
  std::printf("  pipeline format   : v%u\n",
              static_cast<unsigned>(pipeline::kPipelineFormatVersion));
  std::printf("  decision ledger   : v%d\n", obs::kLedgerVersion);
  std::printf("  quality section   : v%d\n", eval::kQualityVersion);
  std::printf("  model bundle      : v%u\n",
              static_cast<unsigned>(core::kBundleFormatVersion));
  std::printf("  serve protocol    : v%u (min v%u)\n",
              static_cast<unsigned>(serve::kServeProtocolVersion),
              static_cast<unsigned>(serve::kMinServeProtocolVersion));
  std::printf("  serve admin http  : v%u\n",
              static_cast<unsigned>(serve::kAdminHttpVersion));
  std::printf("build flags\n");
#if defined(PHONOLID_BUILD_TYPE)
  std::printf("  build type        : %s\n", PHONOLID_BUILD_TYPE);
#endif
#if defined(PHONOLID_SANITIZE)
  std::printf("  sanitizer         : %s\n",
              PHONOLID_SANITIZE[0] != '\0' ? PHONOLID_SANITIZE : "none");
#endif
#if defined(__VERSION__)
  std::printf("  compiler          : %s\n", __VERSION__);
#endif
#if defined(NDEBUG)
  std::printf("  assertions        : off (NDEBUG)\n");
#else
  std::printf("  assertions        : on\n");
#endif
  std::printf("  profiler default  : %d Hz\n", obs::kDefaultProfileHz);
  return 0;
}

int cmd_pipeline(const Args& args) {
  const std::string verb =
      args.positionals.empty() ? "status" : args.positionals[0];
  const std::string root =
      pipeline::ArtifactStore::resolve_root(args.get("cache-dir", ""));
  if (root.empty()) {
    std::fprintf(stderr,
                 "error: no cache directory (pass --cache-dir or set "
                 "$PHONOLID_CACHE)\n");
    return 2;
  }
  pipeline::ArtifactStore store(root);
  if (verb == "status") {
    const auto st = store.status();
    std::printf("cache dir : %s\n", store.root().c_str());
    std::printf("format    : v%u\n",
                static_cast<unsigned>(pipeline::kPipelineFormatVersion));
    std::printf("entries   : %zu\n", st.entries);
    std::printf("bytes     : %ju\n", static_cast<std::uintmax_t>(st.bytes));
    return 0;
  }
  if (verb == "gc") {
    const long max_bytes = args.get_int("max-bytes", 0);
    if (max_bytes < 0) {
      std::fprintf(stderr,
                   "error: flag --max-bytes expects a non-negative integer\n");
      return 2;
    }
    const auto r = store.gc(static_cast<std::uintmax_t>(max_bytes));
    std::printf("kept %zu entries, removed %zu (%ju bytes reclaimed",
                r.kept, r.removed,
                static_cast<std::uintmax_t>(r.reclaimed_bytes));
    if (max_bytes > 0) {
      std::printf(", %zu evicted for the %ld-byte budget", r.evicted,
                  max_bytes);
    }
    std::printf(")\n");
    return 0;
  }
  std::fprintf(stderr, "error: unknown pipeline verb '%s' (status|gc)\n",
               verb.c_str());
  usage();
  return 2;
}

int cmd_report_diff(const Args& args) {
  if (args.positionals.size() != 2) {
    std::fprintf(stderr,
                 "error: report-diff needs exactly two report files: "
                 "report-diff <baseline.json> <current.json>\n");
    usage();
    return 2;
  }
  std::vector<obs::Gate> gates;
  for (const std::string& spec : args.gates) {
    try {
      gates.push_back(obs::parse_gate(spec));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  const obs::Json baseline = load_json_file(args.positionals[0]);
  const obs::Json current = load_json_file(args.positionals[1]);
  const obs::ReportDiffResult result =
      obs::diff_reports(baseline, current, gates);
  std::fputs(result.format().c_str(), stdout);
  return result.violated ? 1 : 0;
}

int dispatch(const Args& args) {
  if (args.command == "corpus") return cmd_corpus(args);
  if (args.command == "decode") return cmd_decode(args);
  if (args.command == "run") return cmd_run(args);
  if (args.command == "det") return cmd_det(args);
  if (args.command == "votes") return cmd_votes(args);
  if (args.command == "export") return cmd_export(args);
  if (args.command == "explain") return cmd_explain(args);
  if (args.command == "diag") return cmd_diag(args);
  if (args.command == "power") return cmd_power(args);
  if (args.command == "flame") return cmd_flame(args);
  if (args.command == "pipeline") return cmd_pipeline(args);
  if (args.command == "report-diff") return cmd_report_diff(args);
  if (args.command == "freeze") return cmd_freeze(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "version") return cmd_version();
  usage();
  return args.command.empty() ? 1 : 2;
}

/// `phonolid profile [--hz N] [--out f.folded] <command> [flags...]`: run
/// any other command under the sampling profiler and print the flame table
/// (plus optional folded stacks) when it finishes.  Wrapper flags come
/// before the subcommand; everything after it is parsed by the subcommand's
/// own (strict) flag table.
int run_profile_wrapper(int argc, char** argv) {
  long hz = 0;
  std::string out_path;
  std::set<std::string> seen;
  int i = 2;
  for (; i < argc && std::strncmp(argv[i], "--", 2) == 0; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: flag %s expects a value\n", key.c_str());
      return 2;
    }
    if (!seen.insert(key).second) {
      std::fprintf(stderr, "error: flag %s given twice\n", key.c_str());
      return 2;
    }
    if (key == "--hz") {
      hz = std::strtol(argv[++i], nullptr, 10);
      if (hz <= 0) {
        std::fprintf(stderr, "error: --hz expects a positive integer\n");
        return 2;
      }
    } else if (key == "--out") {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "error: unknown profile flag %s (profile flags: --hz N "
                   "--out f.folded, before the subcommand)\n",
                   key.c_str());
      return 2;
    }
  }
  if (i >= argc) {
    std::fprintf(stderr,
                 "error: profile needs a subcommand: phonolid profile "
                 "[--hz N] [--out f.folded] <command> [flags]\n");
    usage();
    return 2;
  }
  if (std::strcmp(argv[i], "profile") == 0) {
    std::fprintf(stderr, "error: profile cannot wrap itself\n");
    return 2;
  }
  std::vector<char*> inner;
  inner.push_back(argv[0]);
  for (int j = i; j < argc; ++j) inner.push_back(argv[j]);
  const Args args =
      parse_args(static_cast<int>(inner.size()), inner.data());

  obs::enable_recorder_from_env();
  if (!obs::Profiler::start(static_cast<int>(hz))) {
    std::fprintf(stderr,
                 "phonolid: CPU profiler unavailable (%s); running "
                 "unprofiled\n",
                 std::strerror(obs::Profiler::unavailable_errno()));
  }
  int rc = 0;
  try {
    rc = dispatch(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  obs::Profiler::stop();
  const obs::Json profile = obs::Profiler::profile_json();
  std::printf("\n");
  std::fputs(format_flame_table(&profile).c_str(), stdout);
  if (!out_path.empty()) {
    try {
      obs::write_folded_stacks(out_path);
      std::fprintf(stderr,
                   "phonolid: wrote folded stacks to %s (render with "
                   "flamegraph.pl or load into speedscope.app)\n",
                   out_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "phonolid: folded-stack export failed: %s\n",
                   e.what());
    }
  }
  obs::export_from_env();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "profile") == 0) {
    return run_profile_wrapper(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
    return cmd_version();
  }
  const Args args = parse_args(argc, argv);
  obs::enable_recorder_from_env();
  int rc = 0;
  try {
    rc = dispatch(args);
  } catch (const std::exception& e) {
    // E.g. an unwritable --report path; don't lose the run to a terminate().
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  // Flush PHONOLID_TRACE / PHONOLID_PROM even on failure — a trace of a
  // failed run is exactly when you want one.
  obs::export_from_env();
  return rc;
}
