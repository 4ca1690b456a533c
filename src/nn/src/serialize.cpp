#include "klinq/nn/serialize.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>

#include "klinq/common/error.hpp"

namespace klinq::nn {

namespace io {

void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::uint64_t read_u64(std::istream& in, const char* context) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) {
    throw io_error(std::string(context) + ": truncated stream (u64)");
  }
  return value;
}

void write_f64(std::ostream& out, double value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

double read_f64(std::istream& in, const char* context) {
  double value = 0.0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) {
    throw io_error(std::string(context) + ": truncated stream (f64)");
  }
  return value;
}

void write_string(std::ostream& out, std::string_view value) {
  write_u64(out, value.size());
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

std::string read_string(std::istream& in, const char* context,
                        std::size_t max_bytes) {
  const std::uint64_t length = read_u64(in, context);
  if (length > max_bytes) {
    throw io_error(std::string(context) + ": implausible string length");
  }
  std::string value(static_cast<std::size_t>(length), '\0');
  in.read(value.data(), static_cast<std::streamsize>(value.size()));
  if (!in) {
    throw io_error(std::string(context) + ": truncated stream (string)");
  }
  return value;
}

}  // namespace io

namespace {

constexpr std::array<char, 8> kMagic = {'K', 'L', 'N', 'Q',
                                        'N', 'E', 'T', '1'};

void write_u64(std::ostream& out, std::uint64_t value) {
  io::write_u64(out, value);
}

std::uint64_t read_u64(std::istream& in) {
  return io::read_u64(in, "network deserialize");
}

void write_floats(std::ostream& out, std::span<const float> values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
}

void read_floats(std::istream& in, std::span<float> values) {
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(float)));
  if (!in) throw io_error("network deserialize: truncated stream (f32[])");
}

}  // namespace

void save_network(const network& net, std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  write_u64(out, net.input_dim());
  write_u64(out, net.layer_count());
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const dense_layer& layer = net.layer(l);
    write_u64(out, layer.out_dim());
    const auto act = static_cast<unsigned char>(layer.act());
    out.write(reinterpret_cast<const char*>(&act), 1);
    write_floats(out, layer.weights().flat());
    write_floats(out, layer.bias());
  }
  if (!out) throw io_error("network serialize: stream write failed");
}

network load_network(std::istream& in) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw io_error("network deserialize: bad magic header");
  }
  const std::uint64_t input_dim = read_u64(in);
  const std::uint64_t layer_count = read_u64(in);
  KLINQ_REQUIRE(input_dim > 0 && input_dim < (1u << 24),
                "network deserialize: implausible input_dim");
  KLINQ_REQUIRE(layer_count > 0 && layer_count < 64,
                "network deserialize: implausible layer_count");

  std::vector<layer_spec> specs;
  specs.reserve(layer_count);
  std::vector<std::pair<std::vector<float>, std::vector<float>>> tensors;
  std::uint64_t prev = input_dim;
  for (std::uint64_t l = 0; l < layer_count; ++l) {
    const std::uint64_t out_dim = read_u64(in);
    KLINQ_REQUIRE(out_dim > 0 && out_dim < (1u << 20),
                  "network deserialize: implausible layer width");
    unsigned char act_raw = 0;
    in.read(reinterpret_cast<char*>(&act_raw), 1);
    if (!in) throw io_error("network deserialize: truncated stream (act)");
    KLINQ_REQUIRE(act_raw <= 2, "network deserialize: unknown activation");
    specs.push_back({static_cast<std::size_t>(out_dim),
                     static_cast<activation>(act_raw)});
    std::vector<float> weights(out_dim * prev);
    std::vector<float> bias(out_dim);
    read_floats(in, weights);
    read_floats(in, bias);
    tensors.emplace_back(std::move(weights), std::move(bias));
    prev = out_dim;
  }

  network net(static_cast<std::size_t>(input_dim), specs);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    auto& layer = net.layer(l);
    std::copy(tensors[l].first.begin(), tensors[l].first.end(),
              layer.weights().flat().begin());
    std::copy(tensors[l].second.begin(), tensors[l].second.end(),
              layer.bias().begin());
  }
  return net;
}

}  // namespace klinq::nn
