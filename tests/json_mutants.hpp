// Deterministic fuzz corpus for the JSON parsers, shared by the io and serve
// suites: a few seed documents and seeded byte-level mutants of each (the net
// suite mutates HTTP requests with the same generator). Plain gtest input,
// no fuzzing engine: a fixed std::mt19937_64 seed makes every run
// (sanitized, chaos or plain) see the same mutants.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace maps::test {

/// Seed documents: a 4x4 wire request with a point source, a wire request
/// with an re/im source, a serve config and a nested mixed array.
inline std::vector<std::string> json_seed_documents() {
  return {
      R"({"id":1,"nx":4,"ny":4,"eps":[1,2.25,12.1,1,1,2.25,12.1,1,1,2.25,12.1,1,)"
      R"(1,2.25,12.1,1],"wavelength":1.55,"fidelity":"low","return_field":true,)"
      R"("source":{"type":"point","i":1,"j":2},"deadline_ms":250})",
      R"({"id":"req-2","nx":2,"ny":3,"dl":0.05,"omega":4.0537,"fidelity":"high",)"
      R"("eps":[1,12.25,1,12.25,1,1],"return_field":false,)"
      R"("source":{"re":[0,0.5,-1e-3,0,0,2],"im":[0,-0.5,1e-3,0,0,0]}})",
      R"({"model":"FNO","model_id":"default","width":16,"modes":12,"depth":4,)"
      R"("dl":0.1,"pml_ncells":12,"cache_capacity":1024,"http":true,)"
      R"("bind_address":"127.0.0.1","max_request_mb":8,"std_eps_hi":13,)"
      R"("log_format":"text","slow_request_ms":-1})",
      R"([1,-0.5,2.5e-3,[true,false,null,[{"k":"v\né","":[]},[]]],{},"s",)"
      R"(-1.7976931348623157e308,5e-324,-0,1E+2,[[[["deep"]]]]])",
  };
}

/// JSON punctuation and number characters: the default insert alphabet.
inline constexpr std::string_view kJsonInserts = "[]{}\",:-+.eE0123456789";

/// `count` mutants of `doc`, each made by 1-4 mutations: a bit flip, a
/// truncation, a deletion, an insert of one character from `inserts`, or a
/// duplicated span.
inline std::vector<std::string> json_mutants(const std::string& doc, std::size_t count,
                                             std::uint64_t seed,
                                             std::string_view inserts = kJsonInserts) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::size_t n) {  // uniform in [0, n), n > 0
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::string m = doc;
    for (std::size_t ops = 1 + pick(4); ops > 0 && !m.empty(); --ops) {
      const std::size_t at = pick(m.size());
      const std::size_t len = 1 + pick(std::min<std::size_t>(8, m.size() - at));
      switch (pick(5)) {
        case 0: m[at] = static_cast<char>(m[at] ^ (1 << pick(8))); break;
        case 1: m.resize(at); break;
        case 2: m.erase(at, len); break;
        case 3: m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                         inserts[pick(inserts.size())]);
          break;
        default: m.insert(at, m.substr(at, len)); break;
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace maps::test
