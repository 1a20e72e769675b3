#include "util/serialize.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/matrix.h"

namespace phonolid::util {

void BinaryWriter::raw(const void* data, std::size_t bytes) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  if (!out_) throw SerializeError("write failed");
}

void BinaryWriter::write_magic(const char magic[4], std::uint32_t version) {
  raw(magic, 4);
  write_u32(version);
}

void BinaryWriter::write_u32(std::uint32_t v) { raw(&v, sizeof v); }
void BinaryWriter::write_u64(std::uint64_t v) { raw(&v, sizeof v); }
void BinaryWriter::write_i64(std::int64_t v) { raw(&v, sizeof v); }
void BinaryWriter::write_f32(float v) { raw(&v, sizeof v); }
void BinaryWriter::write_f64(double v) { raw(&v, sizeof v); }

template <typename Buffer>
void BinaryWriter::write_array(const Buffer& v) {
  write_u64(v.size());
  if (!v.empty()) raw(v.data(), v.size() * sizeof(typename Buffer::value_type));
}

void BinaryWriter::write_string(const std::string& s) { write_array(s); }
void BinaryWriter::write_bytes(const std::string& bytes) { write_array(bytes); }
void BinaryWriter::write_f32_vec(const std::vector<float>& v) {
  write_array(v);
}
void BinaryWriter::write_f64_vec(const std::vector<double>& v) {
  write_array(v);
}
void BinaryWriter::write_u32_vec(const std::vector<std::uint32_t>& v) {
  write_array(v);
}

void BinaryReader::raw(void* data, std::size_t bytes) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in_.gcount()) != bytes) {
    throw SerializeError("unexpected end of stream");
  }
}

namespace {

/// Whether `in` certainly holds `bytes` more bytes: buffered already (all
/// of a string stream is), or short of the end of a seekable stream.  Pipes
/// and sockets get no credit.
bool holds(std::istream& in, std::uint64_t bytes) {
  std::streambuf* buf = in.rdbuf();
  if (buf->in_avail() >= static_cast<std::streamsize>(bytes)) return true;
  const std::streampos here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  const std::streampos end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  buf->pubseekpos(here, std::ios::in);
  return here != std::streampos(-1) &&
         end - here >= static_cast<std::streamoff>(bytes);
}

}  // namespace

template <typename Buffer>
void BinaryReader::read_array(Buffer& out, std::uint64_t n) {
  using T = typename Buffer::value_type;
  constexpr std::size_t kReadChunkBytes = std::size_t{1} << 20;
  const std::uint64_t step =
      holds(in_, n * sizeof(T)) ? n : kReadChunkBytes / sizeof(T);
  out.clear();
  for (std::uint64_t done = 0; done < n;) {
    const std::uint64_t take = std::min(n - done, step);
    out.resize(done + take);
    raw(out.data() + done, take * sizeof(T));
    done += take;
  }
}

template <typename Buffer>
Buffer BinaryReader::read_counted(std::uint64_t max_count, const char* what) {
  const std::uint64_t n = read_u64();
  if (n > max_count) throw SerializeError(what);
  Buffer out;
  read_array(out, n);
  return out;
}

void BinaryReader::expect_magic(const char magic[4],
                                std::uint32_t expected_version) {
  char got[4];
  raw(got, 4);
  if (std::memcmp(got, magic, 4) != 0) {
    throw SerializeError(std::string("bad magic, expected '") +
                         std::string(magic, 4) + "'");
  }
  const std::uint32_t version = read_u32();
  if (version != expected_version) {
    throw SerializeError("unsupported format version " +
                         std::to_string(version));
  }
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v;
  raw(&v, sizeof v);
  return v;
}
std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v;
  raw(&v, sizeof v);
  return v;
}
std::int64_t BinaryReader::read_i64() {
  std::int64_t v;
  raw(&v, sizeof v);
  return v;
}
float BinaryReader::read_f32() {
  float v;
  raw(&v, sizeof v);
  return v;
}
double BinaryReader::read_f64() {
  double v;
  raw(&v, sizeof v);
  return v;
}

std::string BinaryReader::read_string() {
  return read_counted<std::string>(kMaxStringBytes, "string too long");
}
std::string BinaryReader::read_bytes() {
  return read_counted<std::string>(kMaxElements, "byte blob too long");
}
std::vector<float> BinaryReader::read_f32_vec() {
  return read_counted<std::vector<float>>(kMaxElements, "vector too long");
}
std::vector<double> BinaryReader::read_f64_vec() {
  return read_counted<std::vector<double>>(kMaxElements, "vector too long");
}
std::vector<std::uint32_t> BinaryReader::read_u32_vec() {
  return read_counted<std::vector<std::uint32_t>>(kMaxElements,
                                                  "vector too long");
}

void write_matrix(BinaryWriter& w, const Matrix& m) {
  w.write_u64(m.rows());
  w.write_u64(m.cols());
  if (m.rows() * m.cols() > 0) {
    w.raw(m.data(), m.rows() * m.cols() * sizeof(float));
  }
}

Matrix read_matrix(BinaryReader& r) {
  const std::uint64_t rows = r.read_u64();
  const std::uint64_t cols = r.read_u64();
  if (rows > BinaryReader::kMaxElements || cols > BinaryReader::kMaxElements ||
      (cols > 0 && rows > BinaryReader::kMaxElements / cols)) {
    throw SerializeError("matrix too large");
  }
  AlignedVec data;
  r.read_array(data, rows * cols);
  return Matrix(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols),
                std::move(data));
}

}  // namespace phonolid::util
