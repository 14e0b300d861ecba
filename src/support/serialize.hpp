#pragma once

/// \file serialize.hpp
/// Binary serialization used to marshal arguments of shipped functions.
///
/// CAF 2.0 function shipping copies array/scalar arguments to the image that
/// executes the shipped function, while coarray sections travel by reference
/// (paper §II-C2). Argument values are packed into a WriteArchive on the
/// initiator and unpacked from a ReadArchive inside the active-message
/// handler on the target, mirroring how a real runtime marshals a medium
/// active-message payload.
///
/// Supported out of the box:
///  - trivially copyable types (integers, floats, enums, POD structs);
///  - std::string;
///  - std::vector<T> and std::array<T, N> of serializable T;
///  - std::pair / std::tuple of serializable members;
///  - user types that provide `void serialize(Archive&)` visitation, or
///    ADL-found `caf2_save(WriteArchive&, const T&)` / `caf2_load(ReadArchive&, T&)`.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace caf2 {

class WriteArchive;
class ReadArchive;

namespace detail {
template <typename T>
concept TriviallySerializable =
    std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>;

template <typename T>
concept HasMemberSave = requires(const T& value, WriteArchive& ar) {
  { value.save(ar) };
};

template <typename T>
concept HasMemberLoad = requires(T& value, ReadArchive& ar) {
  { value.load(ar) };
};
}  // namespace detail

/// Append-only binary buffer.
class WriteArchive {
 public:
  /// Reserves a small buffer up front: most archives (spawn arguments,
  /// notifications) are a few 8-byte fields, which would otherwise regrow
  /// the vector several times.
  WriteArchive() { bytes_.reserve(64); }

  /// Raw byte append.
  void write_bytes(const void* data, std::size_t size);

  template <detail::TriviallySerializable T>
  void write(const T& value) {
    write_bytes(&value, sizeof(T));
  }

  void write(const std::string& value) {
    write_size(value.size());
    write_bytes(value.data(), value.size());
  }

  template <typename T>
  void write(const std::vector<T>& value) {
    write_size(value.size());
    if constexpr (detail::TriviallySerializable<T>) {
      write_bytes(value.data(), value.size() * sizeof(T));
    } else {
      for (const T& element : value) {
        write(element);
      }
    }
  }

  template <typename T, std::size_t N>
  void write(const std::array<T, N>& value) {
    if constexpr (detail::TriviallySerializable<T>) {
      write_bytes(value.data(), N * sizeof(T));
    } else {
      for (const T& element : value) {
        write(element);
      }
    }
  }

  template <typename A, typename B>
  void write(const std::pair<A, B>& value) {
    write(value.first);
    write(value.second);
  }

  template <typename... Ts>
  void write(const std::tuple<Ts...>& value) {
    std::apply([this](const Ts&... elements) { (write(elements), ...); },
               value);
  }

  template <detail::HasMemberSave T>
    requires(!detail::TriviallySerializable<T>)
  void write(const T& value) {
    value.save(*this);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  void write_size(std::size_t size) {
    write(static_cast<std::uint64_t>(size));
  }

  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a byte span. The span must outlive the archive.
class ReadArchive {
 public:
  explicit ReadArchive(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  void read_bytes(void* out, std::size_t size);

  template <detail::TriviallySerializable T>
  void read(T& value) {
    read_bytes(&value, sizeof(T));
  }

  void read(std::string& value) {
    value.resize(read_size());
    read_bytes(value.data(), value.size());
  }

  template <typename T>
  void read(std::vector<T>& value) {
    value.resize(read_size());
    if constexpr (detail::TriviallySerializable<T>) {
      read_bytes(value.data(), value.size() * sizeof(T));
    } else {
      for (T& element : value) {
        read(element);
      }
    }
  }

  template <typename T, std::size_t N>
  void read(std::array<T, N>& value) {
    if constexpr (detail::TriviallySerializable<T>) {
      read_bytes(value.data(), N * sizeof(T));
    } else {
      for (T& element : value) {
        read(element);
      }
    }
  }

  template <typename A, typename B>
  void read(std::pair<A, B>& value) {
    read(value.first);
    read(value.second);
  }

  template <typename... Ts>
  void read(std::tuple<Ts...>& value) {
    std::apply([this](Ts&... elements) { (read(elements), ...); }, value);
  }

  template <detail::HasMemberLoad T>
    requires(!detail::TriviallySerializable<T>)
  void read(T& value) {
    value.load(*this);
  }

  /// Typed convenience: default-construct, read, return.
  template <typename T>
  T read() {
    T value{};
    read(value);
    return value;
  }

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  std::size_t read_size() {
    std::uint64_t size = 0;
    read(size);
    return static_cast<std::size_t>(size);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

/// Pack a parameter pack into a fresh archive.
template <typename... Ts>
std::vector<std::uint8_t> pack_values(const Ts&... values) {
  WriteArchive archive;
  (archive.write(values), ...);
  return archive.take();
}

/// Unpack a tuple of values previously written with pack_values.
template <typename... Ts>
std::tuple<Ts...> unpack_values(std::span<const std::uint8_t> bytes) {
  ReadArchive archive(bytes);
  // Brace-init of the tuple guarantees left-to-right evaluation order.
  std::tuple<Ts...> out{archive.read<Ts>()...};
  CAF2_ASSERT(archive.exhausted(), "unpack_values: trailing bytes");
  return out;
}

}  // namespace caf2
