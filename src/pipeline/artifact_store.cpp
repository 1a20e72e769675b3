#include "pipeline/artifact_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "util/serialize.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace phonolid::pipeline {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'P', 'L', 'A', 'F'};

struct CacheMetrics {
  obs::Counter& hits = obs::Metrics::counter("pipeline.cache.hits");
  obs::Counter& misses = obs::Metrics::counter("pipeline.cache.misses");
  obs::Counter& evictions = obs::Metrics::counter("pipeline.cache.evictions");
  obs::Counter& writes = obs::Metrics::counter("pipeline.cache.writes");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

/// One entry's envelope: the key it claims and its checksum-verified
/// payload.
struct Envelope {
  StageKey key;
  std::string payload;
};

/// Reads one entry's envelope; throws SerializeError on a bad magic,
/// version or checksum, or a truncated entry.
Envelope read_envelope(std::istream& in) {
  util::BinaryReader reader(in);
  reader.expect_magic(kMagic, kPipelineFormatVersion);
  Envelope envelope;
  envelope.key.stage = reader.read_string();
  envelope.key.hash = reader.read_u64();
  envelope.payload = reader.read_bytes();
  const std::uint64_t checksum = reader.read_u64();
  if (checksum != fnv1a(envelope.payload.data(), envelope.payload.size())) {
    throw util::SerializeError("artifact payload checksum mismatch");
  }
  return envelope;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {
  if (!root_.empty()) {
    std::error_code ec;
    fs::create_directories(root_, ec);
    if (ec) {
      PHONOLID_WARN("pipeline") << "cannot create cache dir '" << root_
                                << "': " << ec.message()
                                << " — store disabled";
      root_.clear();
    }
  }
}

std::string ArtifactStore::resolve_root(const std::string& flag) {
  if (!flag.empty()) return flag;
  if (const char* env = std::getenv("PHONOLID_CACHE")) {
    if (*env != '\0') return env;
  }
  return {};
}

std::string ArtifactStore::path_for(const StageKey& key) const {
  return (fs::path(root_) / key.filename()).string();
}

void ArtifactStore::evict(const StageKey& key, const std::string& reason) {
  std::error_code ec;
  fs::remove(path_for(key), ec);
  cache_metrics().evictions.add();
  PHONOLID_WARN("pipeline") << "evicted artifact " << key.filename() << ": "
                            << reason;
}

bool ArtifactStore::load(const StageKey& key,
                         const std::function<void(std::istream&)>& read) {
  CacheMetrics& metrics = cache_metrics();
  if (!enabled()) {
    metrics.misses.add();
    return false;
  }
  obs::Span span("artifact_load");
  span.annotate("key", static_cast<std::int64_t>(key.hash));
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in) {
    metrics.misses.add();
    return false;
  }
  try {
    Envelope envelope = read_envelope(in);
    if (envelope.key != key) {
      throw util::SerializeError("artifact key mismatch (expected " +
                                 key.filename() + ", file claims " +
                                 envelope.key.stage + ")");
    }
    std::istringstream payload_in(std::move(envelope.payload));
    read(payload_in);
  } catch (const util::SerializeError& e) {
    evict(key, e.what());
    metrics.misses.add();
    return false;
  }
  metrics.hits.add();
  return true;
}

void ArtifactStore::save(const StageKey& key,
                         const std::function<void(std::ostream&)>& write) {
  if (!enabled()) return;
  obs::Span span("artifact_save");
  span.annotate("key", static_cast<std::int64_t>(key.hash));

  std::ostringstream payload_out(std::ios::binary);
  write(payload_out);
  const std::string payload = payload_out.str();

  // Private temp file, then atomic rename: readers never observe a partial
  // entry, and concurrent writers of the same key cannot corrupt each other.
  const std::string final_path = path_for(key);
  std::ostringstream suffix;
  suffix << ".tmp." << std::this_thread::get_id();
  const std::string tmp_path = final_path + suffix.str();
  try {
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      if (!out) throw util::SerializeError("cannot open temp file");
      util::BinaryWriter writer(out);
      writer.write_magic(kMagic, kPipelineFormatVersion);
      writer.write_string(key.stage);
      writer.write_u64(key.hash);
      writer.write_bytes(payload);
      writer.write_u64(fnv1a(payload.data(), payload.size()));
      out.flush();
      if (!out) throw util::SerializeError("flush failed");
    }
    fs::rename(tmp_path, final_path);
    cache_metrics().writes.add();
  } catch (const std::exception& e) {
    // A failed save only costs a future recompute; never fail the pipeline.
    std::error_code ec;
    fs::remove(tmp_path, ec);
    PHONOLID_WARN("pipeline") << "failed to save artifact " << key.filename()
                              << ": " << e.what();
  }
}

ArtifactStore::Status ArtifactStore::status() const {
  Status st;
  if (!enabled()) return st;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".art") {
      continue;
    }
    ++st.entries;
    st.bytes += entry.file_size(ec);
  }
  return st;
}

ArtifactStore::GcResult ArtifactStore::gc(std::uintmax_t max_bytes) {
  GcResult result;
  if (!enabled()) return result;
  struct KeptEntry {
    fs::path path;
    std::uintmax_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<KeptEntry> kept;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    const auto size = entry.file_size(ec);
    // Orphaned temp files from crashed writers.
    if (path.string().find(".art.tmp.") != std::string::npos) {
      if (fs::remove(path, ec)) {
        ++result.removed;
        result.reclaimed_bytes += size;
      }
      continue;
    }
    if (path.extension() != ".art") continue;
    bool valid = false;
    {
      std::ifstream in(path, std::ios::binary);
      if (in) {
        try {
          // The entry must be intact and live under the name its key gives.
          valid = path.filename().string() == read_envelope(in).key.filename();
        } catch (const util::SerializeError&) {
          valid = false;
        }
      }
    }
    if (valid) {
      ++result.kept;
      kept.push_back({path, size, fs::last_write_time(path, ec)});
    } else if (fs::remove(path, ec)) {
      ++result.removed;
      result.reclaimed_bytes += size;
      cache_metrics().evictions.add();
    }
  }
  if (max_bytes > 0) {
    std::uintmax_t total = 0;
    for (const auto& e : kept) total += e.size;
    std::sort(kept.begin(), kept.end(),
              [](const KeptEntry& a, const KeptEntry& b) {
                if (a.mtime != b.mtime) return a.mtime < b.mtime;
                return a.path.filename().string() < b.path.filename().string();
              });
    for (const auto& e : kept) {
      if (total <= max_bytes) break;
      if (!fs::remove(e.path, ec)) continue;
      total -= e.size;
      ++result.evicted;
      --result.kept;
      result.reclaimed_bytes += e.size;
      cache_metrics().evictions.add();
      PHONOLID_WARN("pipeline")
          << "gc evicted " << e.path.filename().string() << " ("
          << e.size << " bytes) for the " << max_bytes << "-byte budget";
    }
  }
  return result;
}

}  // namespace phonolid::pipeline
