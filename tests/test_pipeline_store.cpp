#include "pipeline/artifact_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "pipeline/stage_key.h"
#include "util/serialize.h"

namespace phonolid::pipeline {
namespace {

namespace fs = std::filesystem;

StageKey golden_key() {
  KeyHasher h("golden");
  h.add_u64(42);
  h.add_i64(-7);
  h.add_f64(1.5);
  h.add_bool(true);
  h.add_string("phonolid");
  h.add_key(StageKey{"upstream", 0x1234567890abcdefull});
  return h.finish();
}

TEST(StageKey, StableAcrossProcesses) {
  // Golden fingerprint: a change here means every existing cache entry in
  // the world goes stale.  That is sometimes intended (new hashed field,
  // format revision) — update the constant AND bump kPipelineFormatVersion
  // so gc can reap the stale entries — but it must never happen by accident.
  const StageKey k = golden_key();
  EXPECT_EQ(k.hash, 0xaa8b041f8a86c619ull);
  EXPECT_EQ(k.hex(), "aa8b041f8a86c619");
  EXPECT_EQ(k.filename(), "golden-aa8b041f8a86c619.art");
}

TEST(StageKey, EveryFieldParticipates) {
  const StageKey base = golden_key();
  {
    KeyHasher h("other");  // stage name
    h.add_u64(42);
    h.add_i64(-7);
    h.add_f64(1.5);
    h.add_bool(true);
    h.add_string("phonolid");
    h.add_key(StageKey{"upstream", 0x1234567890abcdefull});
    EXPECT_NE(h.finish().hash, base.hash);
  }
  {
    KeyHasher h("golden");
    h.add_u64(43);  // changed
    h.add_i64(-7);
    h.add_f64(1.5);
    h.add_bool(true);
    h.add_string("phonolid");
    h.add_key(StageKey{"upstream", 0x1234567890abcdefull});
    EXPECT_NE(h.finish().hash, base.hash);
  }
  {
    KeyHasher h("golden");
    h.add_u64(42);
    h.add_i64(-7);
    h.add_f64(1.5);
    h.add_bool(false);  // changed
    h.add_string("phonolid");
    h.add_key(StageKey{"upstream", 0x1234567890abcdefull});
    EXPECT_NE(h.finish().hash, base.hash);
  }
  {
    KeyHasher h("golden");
    h.add_u64(42);
    h.add_i64(-7);
    h.add_f64(1.5);
    h.add_bool(true);
    h.add_string("phonolid");
    h.add_key(StageKey{"upstream", 0xfedcba0987654321ull});  // upstream hash
    EXPECT_NE(h.finish().hash, base.hash);
  }
}

TEST(StageKey, FieldBoundariesCannotAlias) {
  // Length-prefixed mixing: "ab"+"c" must differ from "a"+"bc".
  KeyHasher a("s");
  a.add_string("ab");
  a.add_string("c");
  KeyHasher b("s");
  b.add_string("a");
  b.add_string("bc");
  EXPECT_NE(a.finish().hash, b.finish().hash);
}

TEST(StageKey, TypeTagsCannotAlias) {
  // The same 8 bytes added as u64 vs i64 vs f64 must produce distinct keys.
  KeyHasher u("s");
  u.add_u64(0);
  KeyHasher i("s");
  i.add_i64(0);
  KeyHasher f("s");
  f.add_f64(0.0);
  EXPECT_NE(u.finish().hash, i.finish().hash);
  EXPECT_NE(u.finish().hash, f.finish().hash);
  EXPECT_NE(i.finish().hash, f.finish().hash);
}

TEST(StageKey, NegativeZeroCanonicalized) {
  KeyHasher pos("s");
  pos.add_f64(0.0);
  KeyHasher neg("s");
  neg.add_f64(-0.0);
  EXPECT_EQ(pos.finish().hash, neg.finish().hash);
}

/// RAII temp directory + counter snapshot for store tests.
class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("phonolid_store_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    hits0_ = hits().value();
    misses0_ = misses().value();
    evictions0_ = evictions().value();
  }
  void TearDown() override { fs::remove_all(root_); }

  static obs::Counter& hits() {
    return obs::Metrics::counter("pipeline.cache.hits");
  }
  static obs::Counter& misses() {
    return obs::Metrics::counter("pipeline.cache.misses");
  }
  static obs::Counter& evictions() {
    return obs::Metrics::counter("pipeline.cache.evictions");
  }
  [[nodiscard]] std::uint64_t hit_delta() const {
    return hits().value() - hits0_;
  }
  [[nodiscard]] std::uint64_t miss_delta() const {
    return misses().value() - misses0_;
  }
  [[nodiscard]] std::uint64_t eviction_delta() const {
    return evictions().value() - evictions0_;
  }

  /// get_or_compute of a string payload, counting compute invocations.
  std::string roundtrip(ArtifactStore& store, const StageKey& key,
                        const std::string& value, int& computes) {
    return store.get_or_compute<std::string>(
        key,
        [](std::istream& in) {
          util::BinaryReader r(in);
          return r.read_string();
        },
        [](std::ostream& out, const std::string& v) {
          util::BinaryWriter w(out);
          w.write_string(v);
        },
        [&] {
          ++computes;
          return value;
        });
  }

  fs::path root_;
  std::uint64_t hits0_ = 0, misses0_ = 0, evictions0_ = 0;
};

TEST_F(ArtifactStoreTest, MissComputeThenHit) {
  ArtifactStore store(root_.string());
  ASSERT_TRUE(store.enabled());
  const StageKey key = golden_key();

  int computes = 0;
  EXPECT_EQ(roundtrip(store, key, "payload-1", computes), "payload-1");
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(miss_delta(), 1u);
  EXPECT_EQ(hit_delta(), 0u);
  EXPECT_TRUE(fs::exists(store.path_for(key)));

  // Second lookup (fresh store object = fresh process) hits, no recompute.
  ArtifactStore store2(root_.string());
  EXPECT_EQ(roundtrip(store2, key, "never-computed", computes), "payload-1");
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(hit_delta(), 1u);
}

TEST_F(ArtifactStoreTest, DisabledStoreAlwaysComputes) {
  ArtifactStore store;
  EXPECT_FALSE(store.enabled());
  int computes = 0;
  EXPECT_EQ(roundtrip(store, golden_key(), "v", computes), "v");
  EXPECT_EQ(roundtrip(store, golden_key(), "v", computes), "v");
  EXPECT_EQ(computes, 2);
}

TEST_F(ArtifactStoreTest, TruncatedArtifactFallsBackToRecompute) {
  ArtifactStore store(root_.string());
  const StageKey key = golden_key();
  int computes = 0;
  (void)roundtrip(store, key, "payload", computes);

  // Truncate the entry mid-envelope.
  const std::string path = store.path_for(key);
  const auto full = fs::file_size(path);
  fs::resize_file(path, full / 2);

  EXPECT_EQ(roundtrip(store, key, "payload", computes), "payload");
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(eviction_delta(), 1u);
  // The recompute re-wrote a valid entry.
  EXPECT_EQ(roundtrip(store, key, "unused", computes), "payload");
  EXPECT_EQ(computes, 2);
}

TEST_F(ArtifactStoreTest, BitFlipFallsBackToRecompute) {
  ArtifactStore store(root_.string());
  const StageKey key = golden_key();
  int computes = 0;
  (void)roundtrip(store, key, "payload-to-corrupt", computes);

  // Flip one bit near the end of the file (inside the payload/checksum).
  const std::string path = store.path_for(key);
  const auto size = static_cast<std::streamoff>(fs::file_size(path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(size - 12);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size - 12);
    f.write(&byte, 1);
  }

  EXPECT_EQ(roundtrip(store, key, "payload-to-corrupt", computes),
            "payload-to-corrupt");
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(eviction_delta(), 1u);
}

TEST_F(ArtifactStoreTest, WrongKeyEntryIsEvictedNotReturned) {
  ArtifactStore store(root_.string());
  const StageKey key = golden_key();
  int computes = 0;
  (void)roundtrip(store, key, "right", computes);

  // A file renamed onto another key's path must fail the echo check.
  StageKey other = key;
  other.hash ^= 1;
  fs::rename(store.path_for(key), store.path_for(other));
  EXPECT_EQ(roundtrip(store, other, "recomputed", computes), "recomputed");
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(eviction_delta(), 1u);
}

TEST_F(ArtifactStoreTest, StatusCountsEntries) {
  ArtifactStore store(root_.string());
  EXPECT_EQ(store.status().entries, 0u);
  int computes = 0;
  (void)roundtrip(store, golden_key(), "a", computes);
  StageKey k2 = golden_key();
  k2.hash ^= 0xFF;
  (void)roundtrip(store, k2, "b", computes);
  const auto st = store.status();
  EXPECT_EQ(st.entries, 2u);
  EXPECT_GT(st.bytes, 0u);
}

TEST_F(ArtifactStoreTest, GcKeepsValidRemovesCorruptAndOrphans) {
  ArtifactStore store(root_.string());
  const StageKey good = golden_key();
  StageKey bad = good;
  bad.hash ^= 0xABC;
  int computes = 0;
  (void)roundtrip(store, good, "keep-me", computes);
  (void)roundtrip(store, bad, "corrupt-me", computes);
  fs::resize_file(store.path_for(bad), 5);
  // Orphaned temp file from a crashed writer.
  std::ofstream(root_ / "frontend-0.art.tmp.12345") << "junk";

  const auto gc = store.gc();
  EXPECT_EQ(gc.kept, 1u);
  EXPECT_EQ(gc.removed, 2u);
  EXPECT_TRUE(fs::exists(store.path_for(good)));
  EXPECT_FALSE(fs::exists(store.path_for(bad)));

  // The kept entry still loads.
  EXPECT_EQ(roundtrip(store, good, "unused", computes), "keep-me");
}

TEST_F(ArtifactStoreTest, GcByteBudgetEvictsOldestFirst) {
  ArtifactStore store(root_.string());
  StageKey oldest = golden_key();
  StageKey middle = golden_key();
  middle.hash ^= 0x1;
  StageKey newest = golden_key();
  newest.hash ^= 0x2;
  int computes = 0;
  (void)roundtrip(store, oldest, "payload-oldest", computes);
  (void)roundtrip(store, middle, "payload-middle", computes);
  (void)roundtrip(store, newest, "payload-newest", computes);
  // Pin mtimes explicitly — same-second writes would make age a coin flip.
  const auto now = fs::last_write_time(store.path_for(newest));
  fs::last_write_time(store.path_for(oldest), now - std::chrono::hours(2));
  fs::last_write_time(store.path_for(middle), now - std::chrono::hours(1));

  // Budget for roughly two entries: only the oldest must go.
  const auto entry_size = fs::file_size(store.path_for(newest));
  const auto gc = store.gc(2 * entry_size + entry_size / 2);
  EXPECT_EQ(gc.evicted, 1u);
  EXPECT_EQ(gc.kept, 2u);
  EXPECT_EQ(gc.removed, 0u);
  EXPECT_FALSE(fs::exists(store.path_for(oldest)));
  EXPECT_TRUE(fs::exists(store.path_for(middle)));
  EXPECT_TRUE(fs::exists(store.path_for(newest)));
  EXPECT_GE(gc.reclaimed_bytes, entry_size);
  EXPECT_EQ(eviction_delta(), 1u);

  // A budget below one entry clears the store; survivors-by-age = none.
  const auto gc2 = store.gc(1);
  EXPECT_EQ(gc2.evicted, 2u);
  EXPECT_EQ(gc2.kept, 0u);
  EXPECT_FALSE(fs::exists(store.path_for(middle)));
  EXPECT_FALSE(fs::exists(store.path_for(newest)));

  // Zero budget means "no byte limit", not "evict everything".
  (void)roundtrip(store, newest, "payload-back", computes);
  const auto gc3 = store.gc(0);
  EXPECT_EQ(gc3.evicted, 0u);
  EXPECT_EQ(gc3.kept, 1u);
  EXPECT_TRUE(fs::exists(store.path_for(newest)));
}

TEST_F(ArtifactStoreTest, ConcurrentWritersSameKeyAreSafe) {
  // N threads race get_or_compute on one key: every thread must come back
  // with a valid value (its own compute or another's artifact), and the
  // store must end with exactly one valid entry.  Run under TSan in tier1.
  ArtifactStore store(root_.string());
  const StageKey key = golden_key();
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::vector<std::string> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[t] = store.get_or_compute<std::string>(
            key,
            [](std::istream& in) {
              util::BinaryReader r(in);
              return r.read_string();
            },
            [](std::ostream& out, const std::string& v) {
              util::BinaryWriter w(out);
              w.write_string(v);
            },
            [&] {
              computes.fetch_add(1);
              return std::string("shared-value");
            });
      });
    }
    for (auto& th : threads) th.join();
  }
  for (const auto& r : results) EXPECT_EQ(r, "shared-value");
  EXPECT_GE(computes.load(), 1);
  EXPECT_EQ(store.status().entries, 1u);
  int post = 0;
  EXPECT_EQ(roundtrip(store, key, "unused", post), "shared-value");
  EXPECT_EQ(post, 0);
}

}  // namespace
}  // namespace phonolid::pipeline
