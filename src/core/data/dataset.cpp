#include "core/data/dataset.hpp"

#include <fstream>
#include <unordered_set>

namespace maps::data {

using maps::math::CplxGrid;
using maps::math::RealGrid;

std::vector<std::uint64_t> Dataset::pattern_ids() const {
  std::vector<std::uint64_t> ids;
  std::unordered_set<std::uint64_t> seen;
  for (const auto& s : samples) {
    if (seen.insert(s.pattern_id).second) ids.push_back(s.pattern_id);
  }
  return ids;
}

std::vector<double> Dataset::primary_transmissions() const {
  std::vector<double> t;
  for (const auto& s : samples) {
    if (!s.transmissions.empty()) t.push_back(s.transmissions.front());
  }
  return t;
}

void Dataset::append(const Dataset& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

// ------------------------------------------------------------- binary IO --

namespace {
constexpr std::uint32_t kMagic = 0x4D445331;  // "MDS1"
// The fixed-size fields of one sample: three string lengths, three integers,
// two doubles, seven grid shapes, the design box, three doubles and the
// transmissions count.
constexpr std::uint64_t kMinSampleBytes = 30 * sizeof(std::uint64_t);

void put_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_str(std::ostream& os, const std::string& s) {
  put_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}
void put_real_grid(std::ostream& os, const RealGrid& g) {
  put_u64(os, static_cast<std::uint64_t>(g.nx()));
  put_u64(os, static_cast<std::uint64_t>(g.ny()));
  os.write(reinterpret_cast<const char*>(g.data().data()),
           static_cast<std::streamsize>(g.data().size() * sizeof(double)));
}
void put_cplx_grid(std::ostream& os, const CplxGrid& g) {
  put_u64(os, static_cast<std::uint64_t>(g.nx()));
  put_u64(os, static_cast<std::uint64_t>(g.ny()));
  os.write(reinterpret_cast<const char*>(g.data().data()),
           static_cast<std::streamsize>(g.data().size() * sizeof(cplx)));
}

/// Reads what the put_* helpers wrote. Files are untrusted: every length is
/// checked against the bytes left in the stream before anything is sized
/// from it, so a corrupt length fails as MapsError, not as an allocation.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {
    const std::streampos at = is.tellg();
    is.seekg(0, std::ios::end);
    const std::streampos end = is.tellg();
    is.seekg(at);
    require(at >= 0 && end >= at, "dataset: cannot size the input stream");
    left_ = static_cast<std::uint64_t>(end - at);
  }

  std::uint64_t left() const { return left_; }

  void bytes(void* dst, std::uint64_t n) {
    require(n <= left_, "dataset: truncated file");
    is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    require(is_.good(), "dataset: read failed");
    left_ -= n;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    bytes(&v, sizeof(v));
    return v;
  }
  double f64() {
    double v = 0;
    bytes(&v, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    require(n <= left_, "dataset: string length " + std::to_string(n) +
                            " exceeds the " + std::to_string(left_) + " bytes left");
    std::string s(n, '\0');
    bytes(s.data(), n);
    return s;
  }
  /// Unsigned, so a negative dimension reads as one too large to fit.
  template <typename T>
  math::Grid2D<T> grid() {
    const std::uint64_t nx = u64();
    const std::uint64_t ny = u64();
    require(nx <= left_ && ny <= left_ && (nx == 0 || ny <= left_ / sizeof(T) / nx),
            "dataset: a " + std::to_string(static_cast<long long>(nx)) + "x" +
                std::to_string(static_cast<long long>(ny)) + " grid exceeds the " +
                std::to_string(left_) + " bytes left");
    math::Grid2D<T> g(static_cast<index_t>(nx), static_cast<index_t>(ny));
    bytes(g.data().data(), nx * ny * sizeof(T));
    return g;
  }

 private:
  std::istream& is_;
  std::uint64_t left_ = 0;
};

SampleRecord read_record(Reader& in) {
  SampleRecord s;
  s.device = in.str();
  s.excitation = in.str();
  s.strategy = in.str();
  s.pattern_id = in.u64();
  s.fidelity = static_cast<int>(in.u64());
  s.pml_cells = static_cast<int>(in.u64());
  s.dl = in.f64();
  s.omega = in.f64();
  s.eps = in.grid<double>();
  s.J = in.grid<cplx>();
  s.Ez = in.grid<cplx>();
  s.adj_J = in.grid<cplx>();
  s.lambda_fwd = in.grid<cplx>();
  s.grad_eps = in.grid<double>();
  s.density = in.grid<double>();
  s.design_box.i0 = static_cast<index_t>(in.u64());
  s.design_box.j0 = static_cast<index_t>(in.u64());
  s.design_box.ni = static_cast<index_t>(in.u64());
  s.design_box.nj = static_cast<index_t>(in.u64());
  s.fom = in.f64();
  s.input_norm = in.f64();
  s.adj_scale = in.f64();
  const std::uint64_t nt = in.u64();
  require(nt <= in.left() / sizeof(double),
          "dataset: " + std::to_string(nt) + " transmissions exceed the bytes left");
  s.transmissions.resize(nt);
  in.bytes(s.transmissions.data(), nt * sizeof(double));
  return s;
}
}  // namespace

void write_sample(std::ostream& os, const SampleRecord& s) {
  put_str(os, s.device);
  put_str(os, s.excitation);
  put_str(os, s.strategy);
  put_u64(os, s.pattern_id);
  put_u64(os, static_cast<std::uint64_t>(s.fidelity));
  put_u64(os, static_cast<std::uint64_t>(s.pml_cells));
  put_f64(os, s.dl);
  put_f64(os, s.omega);
  put_real_grid(os, s.eps);
  put_cplx_grid(os, s.J);
  put_cplx_grid(os, s.Ez);
  put_cplx_grid(os, s.adj_J);
  put_cplx_grid(os, s.lambda_fwd);
  put_real_grid(os, s.grad_eps);
  put_real_grid(os, s.density);
  put_u64(os, static_cast<std::uint64_t>(s.design_box.i0));
  put_u64(os, static_cast<std::uint64_t>(s.design_box.j0));
  put_u64(os, static_cast<std::uint64_t>(s.design_box.ni));
  put_u64(os, static_cast<std::uint64_t>(s.design_box.nj));
  put_f64(os, s.fom);
  put_f64(os, s.input_norm);
  put_f64(os, s.adj_scale);
  put_u64(os, s.transmissions.size());
  for (double t : s.transmissions) put_f64(os, t);
}

SampleRecord read_sample(std::istream& is) {
  Reader in(is);
  return read_record(in);
}

void Dataset::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  require(os.good(), "Dataset::save: cannot open " + path);
  put_u64(os, kMagic);
  put_str(os, name);
  put_u64(os, samples.size());
  for (const auto& s : samples) write_sample(os, s);
  os.close();  // flushes the last buffer: check after it, not before
  require(!os.fail(), "Dataset::save: write failed for " + path);
}

Dataset Dataset::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  require(is.good(), "Dataset::load: cannot open " + path);
  Reader in(is);
  require(in.u64() == kMagic, "Dataset::load: bad magic");
  Dataset d;
  d.name = in.str();
  const std::uint64_t count = in.u64();
  require(count <= in.left() / kMinSampleBytes,
          "Dataset::load: " + std::to_string(count) + " samples cannot fit in " + path);
  d.samples.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    d.samples.push_back(read_record(in));
  }
  return d;
}

}  // namespace maps::data
