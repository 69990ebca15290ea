// Explicit little-endian binary stream primitives for the calibration
// snapshot layer (pipeline/snapshot.h) and the per-component save/load
// methods it composes.
//
// Every multi-byte value is written byte-by-byte, LSB first, regardless of
// host endianness, so a snapshot taken on one machine loads bit-identically
// on any other. Floats travel as their IEEE-754 bit patterns
// (std::bit_cast), which preserves every payload bit including negative
// zero and NaN payloads — required for the loaded-backend bit-identity
// guarantee. Readers throw mlqr::Error on truncation instead of returning
// garbage, and every count is bounded before the allocation it sizes so a
// corrupt header cannot trigger a multi-gigabyte resize.
#pragma once

#include <bit>
#include <complex>
#include <concepts>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace mlqr::io {

/// Upper bound on any serialized element count / string length. The
/// largest real payload (a five-qubit front-end's kernel table) is a few
/// hundred thousand elements; anything near this bound is a corrupt or
/// hostile stream, not a calibration.
inline constexpr std::uint64_t kMaxSerializedCount = 1ull << 28;

// ------------------------------------------------------------- writers ----

inline void write_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

inline void write_u32(std::ostream& os, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  os.write(b, 4);
}

inline void write_u64(std::ostream& os, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  os.write(b, 8);
}

inline void write_i32(std::ostream& os, std::int32_t v) {
  write_u32(os, static_cast<std::uint32_t>(v));
}

inline void write_f32(std::ostream& os, float v) {
  write_u32(os, std::bit_cast<std::uint32_t>(v));
}

inline void write_f64(std::ostream& os, double v) {
  write_u64(os, std::bit_cast<std::uint64_t>(v));
}

inline void write_bool(std::ostream& os, bool v) {
  write_u8(os, v ? 1 : 0);
}

inline void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// ------------------------------------------------------------- readers ----

inline void read_bytes(std::istream& is, char* out, std::size_t n) {
  is.read(out, static_cast<std::streamsize>(n));
  MLQR_CHECK_MSG(is.good() && static_cast<std::size_t>(is.gcount()) == n,
                 "truncated snapshot stream (wanted " << n << " bytes)");
}

inline std::uint8_t read_u8(std::istream& is) {
  char b = 0;
  read_bytes(is, &b, 1);
  return static_cast<std::uint8_t>(b);
}

inline std::uint32_t read_u32(std::istream& is) {
  char b[4];
  read_bytes(is, b, 4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(b[i]);
  return v;
}

inline std::uint64_t read_u64(std::istream& is) {
  char b[8];
  read_bytes(is, b, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(b[i]);
  return v;
}

inline std::int32_t read_i32(std::istream& is) {
  return static_cast<std::int32_t>(read_u32(is));
}

inline float read_f32(std::istream& is) {
  return std::bit_cast<float>(read_u32(is));
}

inline double read_f64(std::istream& is) {
  return std::bit_cast<double>(read_u64(is));
}

inline bool read_bool(std::istream& is) {
  const std::uint8_t v = read_u8(is);
  MLQR_CHECK_MSG(v <= 1, "corrupt snapshot bool: " << static_cast<int>(v));
  return v == 1;
}

/// Bytes left between the stream's read position and its end, or nullopt
/// when the stream is not seekable (pipes). Probes with tellg/seekg and
/// restores the position; never touches stream contents. The count readers
/// use this to reject element counts that promise more payload than the
/// stream holds *before* sizing any allocation — a hostile 2^60 count in a
/// 100-byte file fails here, not in operator new.
inline std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(pos);
  if (end == std::istream::pos_type(-1) || !is.good() || end < pos)
    return std::nullopt;
  return static_cast<std::uint64_t>(end - pos);
}

/// Reads an element count written by a vector/string writer, bounded so a
/// corrupt stream cannot size a pathological allocation. When `elem_bytes`
/// is nonzero, the count is additionally bounded by the bytes actually
/// remaining in the stream: a count promising n * elem_bytes of payload
/// beyond the stream's end is rejected before any allocation. Pass 0 for
/// metadata counts (qubit totals, shard indices) that do not directly size
/// a following byte run.
inline std::size_t read_count(std::istream& is,
                              std::uint64_t cap = kMaxSerializedCount,
                              std::uint64_t elem_bytes = 0) {
  const std::uint64_t n = read_u64(is);
  MLQR_CHECK_MSG(n <= cap,
                 "corrupt snapshot count " << n << " (cap " << cap << ')');
  if (elem_bytes > 0 && n > 0) {
    if (const std::optional<std::uint64_t> left = remaining_bytes(is)) {
      // n * elem_bytes cannot overflow: n <= cap <= 2^28, elem_bytes is a
      // small fixed element size.
      MLQR_CHECK_MSG(n * elem_bytes <= *left,
                     "corrupt snapshot count " << n << " (needs "
                                               << n * elem_bytes
                                               << " bytes, stream has "
                                               << *left << ')');
    }
  }
  return static_cast<std::size_t>(n);
}

inline std::string read_string(std::istream& is) {
  const std::size_t n = read_count(is, 1u << 16, 1);
  std::string s(n, '\0');
  if (n > 0) read_bytes(is, s.data(), n);
  return s;
}

// ------------------------------------------------------ vector helpers ----

inline void write_vec_f32(std::ostream& os, std::span<const float> v) {
  write_u64(os, v.size());
  for (float x : v) write_f32(os, x);
}

inline void write_vec_f64(std::ostream& os, std::span<const double> v) {
  write_u64(os, v.size());
  for (double x : v) write_f64(os, x);
}

/// Signed-integer vectors (int8 ... int64): a u64 count, then every element
/// little-endian at its own width.
template <std::signed_integral T>
void write_vec_int(std::ostream& os, const std::vector<T>& v) {
  write_u64(os, v.size());
  for (T x : v) {
    const auto u = static_cast<std::make_unsigned_t<T>>(x);
    char b[sizeof(T)];
    for (std::size_t k = 0; k < sizeof(T); ++k)
      b[k] = static_cast<char>((u >> (8 * k)) & 0xff);
    os.write(b, sizeof(T));
  }
}

inline void write_vec_u64(std::ostream& os, std::span<const std::size_t> v) {
  write_u64(os, v.size());
  for (std::size_t x : v) write_u64(os, x);
}

inline void write_vec_complexd(std::ostream& os,
                               std::span<const std::complex<double>> v) {
  write_u64(os, v.size());
  for (const std::complex<double>& z : v) {
    write_f64(os, z.real());
    write_f64(os, z.imag());
  }
}

inline std::vector<float> read_vec_f32(std::istream& is) {
  std::vector<float> v(read_count(is, kMaxSerializedCount, sizeof(float)));
  for (float& x : v) x = read_f32(is);
  return v;
}

inline std::vector<double> read_vec_f64(std::istream& is) {
  std::vector<double> v(read_count(is, kMaxSerializedCount, sizeof(double)));
  for (double& x : v) x = read_f64(is);
  return v;
}

template <std::signed_integral T>
std::vector<T> read_vec_int(std::istream& is) {
  std::vector<T> v(read_count(is, kMaxSerializedCount, sizeof(T)));
  for (T& x : v) {
    char b[sizeof(T)];
    read_bytes(is, b, sizeof(T));
    std::uint64_t u = 0;
    for (std::size_t k = sizeof(T); k-- > 0;)
      u = (u << 8) | static_cast<std::uint8_t>(b[k]);
    x = static_cast<T>(static_cast<std::make_unsigned_t<T>>(u));
  }
  return v;
}

inline std::vector<std::size_t> read_vec_u64(std::istream& is) {
  std::vector<std::size_t> v(read_count(is, kMaxSerializedCount, 8));
  for (std::size_t& x : v) x = static_cast<std::size_t>(read_u64(is));
  return v;
}

inline std::vector<std::complex<double>> read_vec_complexd(std::istream& is) {
  std::vector<std::complex<double>> v(
      read_count(is, kMaxSerializedCount, 16));
  for (std::complex<double>& z : v) {
    const double re = read_f64(is);
    const double im = read_f64(is);
    z = {re, im};
  }
  return v;
}

}  // namespace mlqr::io
