// Binary model (de)serialization.
//
// Format (little-endian):
//   magic "KLNQNET1" | u64 input_dim | u64 layer_count |
//   per layer: u64 out_dim | u8 activation | f32 weights[out×in] | f32 bias[out]
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "klinq/nn/network.hpp"

namespace klinq::nn {

void save_network(const network& net, std::ostream& out);

network load_network(std::istream& in);

/// Little-endian primitive (de)serialization shared by the network format
/// and the registry snapshot format. Readers throw io_error on truncation,
/// tagging the message with `context` so a failure inside a composite file
/// says which field broke.
namespace io {

void write_u64(std::ostream& out, std::uint64_t value);
std::uint64_t read_u64(std::istream& in, const char* context);

void write_f64(std::ostream& out, double value);
double read_f64(std::istream& in, const char* context);

/// Length-prefixed (u64) byte string.
void write_string(std::ostream& out, std::string_view value);
/// Rejects lengths above `max_bytes` (a corrupted prefix must not drive an
/// allocation).
std::string read_string(std::istream& in, const char* context,
                        std::size_t max_bytes = std::size_t{1} << 20);

}  // namespace io

}  // namespace klinq::nn
