#include "util/serialize.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/matrix.h"

namespace phonolid::util {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x1234567890ABCDEFull);
  w.write_i64(-42);
  w.write_f32(3.25f);
  w.write_f64(-2.5e100);

  BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(r.read_u64(), 0x1234567890ABCDEFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.5e100);
}

TEST(Serialize, StringRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_string("hello phonolid");
  w.write_string("");
  BinaryReader r(ss);
  EXPECT_EQ(r.read_string(), "hello phonolid");
  EXPECT_EQ(r.read_string(), "");
}

TEST(Serialize, VectorRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_f32_vec({1.0f, -2.0f, 3.5f});
  w.write_f64_vec({});
  w.write_u32_vec({7, 8, 9});
  BinaryReader r(ss);
  EXPECT_EQ(r.read_f32_vec(), (std::vector<float>{1.0f, -2.0f, 3.5f}));
  EXPECT_TRUE(r.read_f64_vec().empty());
  EXPECT_EQ(r.read_u32_vec(), (std::vector<std::uint32_t>{7, 8, 9}));
}

TEST(Serialize, MagicRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_magic("TEST", 3);
  BinaryReader r(ss);
  EXPECT_NO_THROW(r.expect_magic("TEST", 3));
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_magic("AAAA", 1);
  BinaryReader r(ss);
  EXPECT_THROW(r.expect_magic("BBBB", 1), SerializeError);
}

TEST(Serialize, WrongVersionThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_magic("TEST", 2);
  BinaryReader r(ss);
  EXPECT_THROW(r.expect_magic("TEST", 1), SerializeError);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_u32(5);
  BinaryReader r(ss);
  (void)r.read_u32();
  EXPECT_THROW(r.read_u64(), SerializeError);
}

TEST(Serialize, CorruptLengthPrefixThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  // A length prefix far beyond the guard (kMaxElements) must be rejected
  // before any allocation attempt.
  w.write_u64(0xFFFFFFFFFFFFull);
  BinaryReader r(ss);
  EXPECT_THROW(r.read_f32_vec(), SerializeError);
}

TEST(Serialize, BytesRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  std::string blob = "binary\0blob\xff payload";
  blob.push_back('\0');
  w.write_bytes(blob);
  w.write_bytes("");
  BinaryReader r(ss);
  EXPECT_EQ(r.read_bytes(), blob);
  EXPECT_EQ(r.read_bytes(), "");
}

TEST(Serialize, OversizedBytesLengthThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_u64(0x7FFFFFFFFFFFull);  // claims ~128 TiB of payload
  BinaryReader r(ss);
  EXPECT_THROW(r.read_bytes(), SerializeError);
}

TEST(Serialize, OversizedStringLengthThrows) {
  // Strings are identifiers, never bulk data: a corrupted length prefix
  // beyond kMaxStringBytes must be rejected before allocation, even though
  // it would pass the (much larger) element-count guard.
  std::stringstream ss;
  BinaryWriter w(ss);
  w.write_u64((1ull << 20) + 1);
  BinaryReader r(ss);
  EXPECT_THROW(r.read_string(), SerializeError);
}

/// A stream buffer that cannot seek, like a pipe or a socket: bulk reads
/// from it cannot learn how much is left and take the chunked path.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string data) : data_(std::move(data)) {}

 protected:
  int_type underflow() override {
    return pos_ < data_.size() ? traits_type::to_int_type(data_[pos_])
                               : traits_type::eof();
  }
  int_type uflow() override {
    return pos_ < data_.size() ? traits_type::to_int_type(data_[pos_++])
                               : traits_type::eof();
  }
  std::streamsize xsgetn(char* out, std::streamsize n) override {
    const auto take = std::min<std::size_t>(static_cast<std::size_t>(n),
                                            data_.size() - pos_);
    std::memcpy(out, data_.data() + pos_, take);
    pos_ += take;
    return static_cast<std::streamsize>(take);
  }

 private:
  std::string data_;
  std::size_t pos_ = 0;
};

TEST(Serialize, LargeVectorRoundTripsThroughChunkedReads) {
  // 3 MiB of floats crosses several read chunks on an unseekable stream.
  std::vector<float> big(3u << 18);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<float>(i);
  Matrix m(700, 1500);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = 0.5f * static_cast<float>(i);
  }
  std::ostringstream out;
  BinaryWriter w(out);
  w.write_f32_vec(big);
  write_matrix(w, m);
  UnseekableBuf buf(out.str());
  std::istream in(&buf);
  BinaryReader r(in);
  EXPECT_EQ(r.read_f32_vec(), big);
  EXPECT_EQ(read_matrix(r), m);
}

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(Serialize, HugeCountOnTruncatedBodyFailsWithinBoundedMemory) {
  // Each read claims ~16 GiB (2^32 four-byte elements, or a 2^32-byte blob,
  // or a 65536 x 65536 matrix) but the body holds 8 bytes.  Every read must
  // fail cleanly with SerializeError having allocated about one read
  // chunk, from string, file and unseekable streams alike.
  const std::uint64_t claimed = std::uint64_t{1} << 32;
  const auto framed = [](const std::function<void(BinaryWriter&)>& prefix) {
    std::ostringstream out;
    BinaryWriter w(out);
    prefix(w);
    w.write_u64(0x0123456789ABCDEFull);  // the only payload bytes present
    return out.str();
  };
  const std::vector<std::pair<std::string, std::function<void(BinaryReader&)>>>
      cases = {
          {framed([&](BinaryWriter& w) { w.write_u64(claimed); }),
           [](BinaryReader& r) { (void)r.read_f32_vec(); }},
          {framed([&](BinaryWriter& w) { w.write_u64(claimed / 2); }),
           [](BinaryReader& r) { (void)r.read_f64_vec(); }},
          {framed([&](BinaryWriter& w) { w.write_u64(claimed); }),
           [](BinaryReader& r) { (void)r.read_u32_vec(); }},
          {framed([&](BinaryWriter& w) { w.write_u64(claimed); }),
           [](BinaryReader& r) { (void)r.read_bytes(); }},
          {framed([&](BinaryWriter& w) {
             w.write_u64(1u << 16);
             w.write_u64(1u << 16);
           }),
           [](BinaryReader& r) { (void)read_matrix(r); }},
      };
  const std::string path = testing::TempDir() + "phonolid_huge_count.bin";
  const long before = peak_rss_kib();
  for (const auto& [bytes, read] : cases) {
    std::istringstream string_in(bytes);
    BinaryReader r1(string_in);
    EXPECT_THROW(read(r1), SerializeError);
    std::ofstream(path, std::ios::binary) << bytes;
    std::ifstream file_in(path, std::ios::binary);
    BinaryReader r2(file_in);
    EXPECT_THROW(read(r2), SerializeError);
    UnseekableBuf buf(bytes);
    std::istream unseekable_in(&buf);
    BinaryReader r3(unseekable_in);
    EXPECT_THROW(read(r3), SerializeError);
  }
  std::remove(path.c_str());
  // Claimed: 16 GiB per read.  Allowed: well under 1% of that.
  EXPECT_LT(peak_rss_kib() - before, 64 * 1024);
}

}  // namespace
}  // namespace phonolid::util
