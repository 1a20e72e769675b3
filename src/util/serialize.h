// Binary model serialization.
//
// A tagged little-endian stream: every model file starts with a 4-byte
// magic and a format version so load errors are explicit rather than
// garbage reads.  Readers validate sizes before allocating, and bulk reads
// (vectors, blobs, matrices) never allocate ahead of the input: unless the
// stream can show every byte is present, they grow in bounded chunks, so a
// hostile length prefix fails at end of stream having allocated about one
// chunk.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace phonolid::util {

class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Matrix;

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void write_magic(const char magic[4], std::uint32_t version);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  /// Length-prefixed raw byte blob (artifact payloads); no interpretation.
  void write_bytes(const std::string& bytes);
  void write_f32_vec(const std::vector<float>& v);
  void write_f64_vec(const std::vector<double>& v);
  void write_u32_vec(const std::vector<std::uint32_t>& v);

 private:
  friend void write_matrix(BinaryWriter& w, const Matrix& m);
  void raw(const void* data, std::size_t bytes);
  /// u64 element count, then the elements' bytes.
  template <typename Buffer>
  void write_array(const Buffer& v);
  std::ostream& out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {}

  /// Throws SerializeError if magic or version mismatch.
  void expect_magic(const char magic[4], std::uint32_t expected_version);
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  std::string read_string();
  /// Counterpart of write_bytes; rejects blobs larger than kMaxElements.
  std::string read_bytes();
  std::vector<float> read_f32_vec();
  std::vector<double> read_f64_vec();
  std::vector<std::uint32_t> read_u32_vec();

 private:
  friend Matrix read_matrix(BinaryReader& r);
  void raw(void* data, std::size_t bytes);
  /// Resize `out` (a std::vector or std::string) to `n` elements read from
  /// the stream, growing it chunk by chunk unless the stream can show it
  /// holds n elements' worth of bytes.
  template <typename Buffer>
  void read_array(Buffer& out, std::uint64_t n);
  /// Counterpart of BinaryWriter::write_array; throws `what` when the
  /// count exceeds `max_count`.
  template <typename Buffer>
  Buffer read_counted(std::uint64_t max_count, const char* what);
  std::istream& in_;
  // Guard against hostile / corrupt length prefixes.
  static constexpr std::uint64_t kMaxElements = 1ull << 32;
  // Strings are identifiers/paths, never bulk data: a multi-gigabyte length
  // prefix is always corruption, so cap them far tighter than the vectors.
  static constexpr std::uint64_t kMaxStringBytes = 1ull << 20;
};

/// Dense row-major float matrix: u64 rows, u64 cols, then rows*cols f32.
/// Matrix storage is contiguous, so this is one raw write/read.
void write_matrix(BinaryWriter& w, const Matrix& m);
Matrix read_matrix(BinaryReader& r);

}  // namespace phonolid::util
