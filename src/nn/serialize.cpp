#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>

namespace maps::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4D415053;      // "MAPS"
constexpr std::uint32_t kMetaMagic = 0x4D455441;  // "META"

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

/// Advance past the parameter records (header already consumed). Used by
/// load_metadata to reach the trailer without binding to an architecture.
void skip_parameters(std::istream& is, std::uint32_t count) {
  for (std::uint32_t p = 0; p < count; ++p) {
    const std::uint32_t name_len = read_u32(is);
    is.seekg(name_len, std::ios::cur);
    const std::uint32_t ndim = read_u32(is);
    std::uint64_t numel = 1;
    for (std::uint32_t d = 0; d < ndim; ++d) numel *= read_u32(is);
    is.seekg(static_cast<std::streamoff>(numel * sizeof(float)), std::ios::cur);
    require(is.good(), "load_metadata: truncated parameter record");
  }
}

}  // namespace

void save_parameters(Module& model, const std::string& path,
                     const std::map<std::string, double>& metadata) {
  std::ofstream os(path, std::ios::binary);
  require(os.good(), "save_parameters: cannot open file");
  const auto params = model.parameters();
  write_u32(os, kMagic);
  write_u32(os, static_cast<std::uint32_t>(params.size()));
  for (const Param* p : params) {
    write_u32(os, static_cast<std::uint32_t>(p->name.size()));
    os.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u32(os, static_cast<std::uint32_t>(p->value.ndim()));
    for (int d = 0; d < p->value.ndim(); ++d) {
      write_u32(os, static_cast<std::uint32_t>(p->value.size(d)));
    }
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  if (!metadata.empty()) {
    write_u32(os, kMetaMagic);
    write_u32(os, static_cast<std::uint32_t>(metadata.size()));
    for (const auto& [key, value] : metadata) {
      write_u32(os, static_cast<std::uint32_t>(key.size()));
      os.write(key.data(), static_cast<std::streamsize>(key.size()));
      os.write(reinterpret_cast<const char*>(&value), sizeof(value));
    }
  }
  os.close();  // flushes the last buffer: check after it, not before
  require(!os.fail(), "save_parameters: write failed");
}

void load_parameters(Module& model, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  require(is.good(), "load_parameters: cannot open file");
  require(read_u32(is) == kMagic, "load_parameters: bad magic");
  const auto params = model.parameters();
  const std::uint32_t count = read_u32(is);
  require(count == params.size(), "load_parameters: parameter count mismatch");
  for (Param* p : params) {
    const std::uint32_t name_len = read_u32(is);
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    require(name == p->name, "load_parameters: parameter name mismatch: " + name +
                                 " vs " + p->name);
    const std::uint32_t ndim = read_u32(is);
    require(static_cast<int>(ndim) == p->value.ndim(),
            "load_parameters: rank mismatch for " + name);
    for (int d = 0; d < p->value.ndim(); ++d) {
      require(read_u32(is) == static_cast<std::uint32_t>(p->value.size(d)),
              "load_parameters: shape mismatch for " + name);
    }
    is.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  require(is.good(), "load_parameters: truncated file");
}

std::map<std::string, double> load_metadata(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  require(is.good(), "load_metadata: cannot open file");
  require(read_u32(is) == kMagic, "load_metadata: bad magic");
  skip_parameters(is, read_u32(is));

  std::map<std::string, double> meta;
  std::uint32_t trailer = 0;
  is.read(reinterpret_cast<char*>(&trailer), sizeof(trailer));
  if (!is.good() || trailer != kMetaMagic) return meta;  // pre-trailer format
  const std::uint32_t count = read_u32(is);
  // Validate the unread counts against the bytes actually left in the file
  // before allocating: a corrupt/truncated trailer must fail the require
  // below, not trigger a multi-GB std::string / map allocation first.
  const auto pos = is.tellg();
  is.seekg(0, std::ios::end);
  const auto end_pos = is.tellg();
  is.seekg(pos);
  std::uint64_t remaining =
      (pos >= 0 && end_pos > pos) ? static_cast<std::uint64_t>(end_pos - pos) : 0;
  // Each record is at least key_len(u32) + key + value(f64) = 12 bytes.
  require(is.good() && count <= remaining / 12,
          "load_metadata: corrupt metadata trailer (count)");
  for (std::uint32_t k = 0; k < count; ++k) {
    require(remaining >= 12, "load_metadata: truncated metadata trailer");
    const std::uint32_t key_len = read_u32(is);
    require(is.good() && key_len <= remaining - 12,
            "load_metadata: corrupt metadata trailer (key length)");
    remaining -= 12 + static_cast<std::uint64_t>(key_len);
    std::string key(key_len, '\0');
    is.read(key.data(), key_len);
    double value = 0.0;
    is.read(reinterpret_cast<char*>(&value), sizeof(value));
    require(is.good(), "load_metadata: truncated metadata trailer");
    meta[key] = value;
  }
  return meta;
}

}  // namespace maps::nn
